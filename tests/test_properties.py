"""Invariants over random multi-segment trajectories.

Trajectories have 1 to 8 segments, coasts and burns mixed; burns draw
from eight thrust levels inside the validated regime, so the oracle
cache stays small and each example costs milliseconds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cavtel.bogoliubov import (
    compose,
    identity_pair,
    make_pair,
    phase_evolution_minkowski,
    phase_evolution_rindler,
    sudden_switch_oracle,
)
from cavtel.protocol import (
    DEFAULT_GEOMETRY,
    ProtocolParams,
    _motion_state,
    consistency_report,
)
from cavtel.trajectory import (
    Accelerated,
    Inertial,
    Trajectory,
    build_transform,
    h_parameter,
)
from gaussian_reference import full_register_state

GEOM = DEFAULT_GEOMETRY
THRUSTS = tuple(np.linspace(1e16, 2.9e17, 8))
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)

durations = st.floats(0.0, 3.0 * GEOM.fundamental_period)
coasts = st.builds(Inertial, durations)
burns = st.builds(Accelerated, st.sampled_from(THRUSTS), durations)


def trajectories(segments):
    return st.lists(segments, min_size=1, max_size=8).map(
        lambda segs: Trajectory(tuple(segs), GEOM))


squeezing = st.floats(0.0, 1.5)


def measured(pair):
    return make_pair(pair.alpha, pair.beta, floor=pair.defect)


def measured_everywhere(trajectory):
    """Net pair with the identity defect measured after every step,
    product and inverse."""
    total = identity_pair(GEOM.n_max)
    for seg in trajectory.segments:
        if isinstance(seg, Inertial):
            step = measured(phase_evolution_minkowski(seg.duration, GEOM))
        else:
            h = h_parameter(seg.a, GEOM.L, GEOM.c)
            b0 = sudden_switch_oracle(h, GEOM)
            ph = measured(phase_evolution_rindler(seg.tau, h, GEOM))
            inv = make_pair(b0.alpha.conj().T, -b0.beta.T, floor=b0.defect)
            step = measured(compose(inv, measured(compose(ph, b0))))
        total = measured(compose(step, total))
    return total


# Rob's mode ranges over the interior block, the modes whose identity
# residuals the transform's defect covers
@PROPERTY
@given(trajectories(st.one_of(coasts, burns)), squeezing,
       st.integers(1, 3), st.integers(1, GEOM.n_max // 2),
       st.sampled_from(("lab", "comoving")))
def test_row_state_matches_full_register(traj, r, k, kp, clock):
    params = ProtocolParams(r=r, k=k, kp=kp, geometry=GEOM)
    sigma, _, _ = _motion_state(params, traj, clock)
    want = full_register_state(params, traj, clock)
    assert np.max(np.abs(sigma - want)) <= 1e-12


@PROPERTY
@given(trajectories(st.one_of(coasts, burns)))
def test_defect_matches_measure_after_every_compose(traj):
    got = build_transform(traj).defect
    want = measured_everywhere(traj).defect
    assert abs(got - want) <= 1e-15


@PROPERTY
@given(trajectories(st.one_of(coasts, burns)), squeezing)
def test_fidelities_below_optimal_bound(traj, r):
    rep = consistency_report(ProtocolParams(r=r, geometry=GEOM), traj)
    slack = 1e-9 + 10.0 * rep.defect
    assert rep.F_raw <= rep.F_opt_numeric + slack
    assert rep.F_corrected <= rep.F_opt_numeric + slack


# coasting phases are exact, so any Rob mode up to n_max is allowed
@PROPERTY
@given(trajectories(coasts), squeezing, st.integers(1, GEOM.n_max))
def test_inertial_trajectories_keep_resting_fidelity(traj, r, kp):
    rest = 1.0 / (1.0 + math.exp(-2.0 * r))
    rep = consistency_report(ProtocolParams(r=r, kp=kp, geometry=GEOM),
                             traj)
    assert abs(rep.F_corrected - rest) <= 1e-12
    assert abs(rep.F_opt_numeric - rest) <= 1e-12
    assert rep.defect == 0.0
