"""End-to-end teleportation pipelines and their cross-checks."""

import math

import numpy as np
import pytest

from cavtel.bogoliubov import CavityGeometry
from cavtel.errors import TruncationError
from cavtel.protocol import (
    DEFAULT_GEOMETRY,
    FidelityReport,
    ProtocolParams,
    consistency_report,
    fidelity_corrected,
    fidelity_optimal,
    fidelity_raw,
    perturbative_fidelity,
    perturbative_optimal,
)
from cavtel.trajectory import Accelerated, Inertial, Trajectory

PARAMS = ProtocolParams()
REST = Trajectory((Inertial(0.0),), DEFAULT_GEOMETRY)
REST_F = 1.0 / (1.0 + math.exp(-1.0))


def closed_form(r, phi):
    return 1.0 / (1.0 + math.cosh(2 * r)
                  - math.cos(phi) * math.sinh(2 * r))


# ---------------------------------------------------------------------------
# parameters

def test_default_params():
    assert PARAMS.r == 0.5
    assert (PARAMS.k, PARAMS.kp) == (1, 3)
    assert PARAMS.geometry == DEFAULT_GEOMETRY


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(r=-0.1)
    with pytest.raises(ValueError):
        ProtocolParams(r=math.nan)
    with pytest.raises(ValueError):
        ProtocolParams(r=math.inf)
    with pytest.raises(ValueError):
        ProtocolParams(k=0)
    with pytest.raises(ValueError):
        ProtocolParams(kp=0)
    with pytest.raises(ValueError):
        ProtocolParams(kp=11)


def test_trajectory_type_and_geometry_guard():
    with pytest.raises(TypeError):
        fidelity_raw(PARAMS, [Inertial(0.0)])
    other = Trajectory((Inertial(0.0),), CavityGeometry(0.01, 1.2e8, 10))
    with pytest.raises(ValueError):
        fidelity_raw(PARAMS, other)


# ---------------------------------------------------------------------------
# resting cavity anchors

def test_rest_anchor_all_pipelines():
    assert fidelity_raw(PARAMS, REST) == pytest.approx(REST_F, abs=1e-12)
    assert fidelity_corrected(PARAMS, REST) == pytest.approx(
        REST_F, abs=1e-12)
    f_opt, nu = fidelity_optimal(PARAMS, REST)
    assert f_opt == pytest.approx(REST_F, abs=1e-12)
    assert nu == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_rest_classical_limit():
    params = ProtocolParams(r=0.0)
    assert fidelity_raw(params, REST) == pytest.approx(0.5, abs=1e-12)
    f_opt, nu = fidelity_optimal(params, REST)
    assert f_opt == pytest.approx(0.5, abs=1e-12)
    assert nu == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [0.1, 0.5, math.log(2.0), 1.5])
def test_rest_nu_is_squeezing_exponential(r):
    _, nu = fidelity_optimal(ProtocolParams(r=r), REST)
    assert nu == pytest.approx(math.exp(-2 * r), abs=1e-12)


# ---------------------------------------------------------------------------
# inertial coasting

def test_raw_fidelity_matches_closed_form_random():
    rng = np.random.default_rng(42)
    rate = DEFAULT_GEOMETRY.omega(1) + DEFAULT_GEOMETRY.omega(3)
    for _ in range(200):
        r = rng.uniform(0.0, 1.5)
        duration = rng.uniform(0.0, 3.0) * DEFAULT_GEOMETRY.fundamental_period
        traj = Trajectory((Inertial(duration),), DEFAULT_GEOMETRY)
        got = fidelity_raw(ProtocolParams(r=r), traj)
        assert got == pytest.approx(closed_form(r, rate * duration),
                                    abs=1e-9)


def test_correction_restores_rest_fidelity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        duration = rng.uniform(0.0, 5e-10)
        traj = Trajectory((Inertial(duration),), DEFAULT_GEOMETRY)
        assert fidelity_corrected(PARAMS, traj) == pytest.approx(
            REST_F, abs=1e-9)


def test_optimal_invariant_under_coasting():
    traj = Trajectory((Inertial(1.7e-10),), DEFAULT_GEOMETRY)
    f_opt, nu = fidelity_optimal(PARAMS, traj)
    assert f_opt == pytest.approx(REST_F, abs=1e-9)
    assert nu == pytest.approx(math.exp(-1.0), abs=1e-9)


# ---------------------------------------------------------------------------
# accelerated segments

def test_zero_proper_time_burn_is_rest():
    traj = Trajectory((Accelerated(2e17, 0.0),), DEFAULT_GEOMETRY)
    rep = consistency_report(PARAMS, traj)
    slack = 1e-6 + 10 * rep.defect
    assert abs(rep.F_corrected - REST_F) < slack
    assert abs(rep.F_opt_numeric - REST_F) < slack


def test_motion_degrades_optimal_fidelity():
    traj = Trajectory((Accelerated(2e17, 3e-10),), DEFAULT_GEOMETRY)
    f_opt, nu = fidelity_optimal(PARAMS, traj)
    assert f_opt < REST_F - 1e-4
    assert nu > math.exp(-1.0)


def test_ordering_raw_corrected_optimal():
    rng = np.random.default_rng(11)
    for _ in range(25):
        segs = [Inertial(rng.uniform(0, 2e-10)),
                Accelerated(rng.uniform(5e16, 2.4e17),
                            rng.uniform(0, 4e-10))]
        traj = Trajectory(tuple(segs), DEFAULT_GEOMETRY)
        rep = consistency_report(PARAMS, traj)
        slack = 1e-9 + 10 * rep.defect
        assert rep.F_raw <= rep.F_opt_numeric + slack
        assert rep.F_corrected <= rep.F_opt_numeric + slack


def test_coasting_after_burn_leaves_corrected_fidelity():
    burn = (Accelerated(2e17, 3e-10),)
    base = consistency_report(
        PARAMS, Trajectory(burn, DEFAULT_GEOMETRY))
    rng = np.random.default_rng(3)
    for _ in range(5):
        coasted = burn + (Inertial(rng.uniform(0, 3e-10)),)
        rep = consistency_report(
            PARAMS, Trajectory(coasted, DEFAULT_GEOMETRY))
        assert rep.F_corrected == pytest.approx(base.F_corrected,
                                                abs=1e-12)
        assert rep.F_opt_numeric == pytest.approx(base.F_opt_numeric,
                                                  abs=1e-12)


# ---------------------------------------------------------------------------
# perturbative forms

def test_perturbative_rest_values():
    assert perturbative_fidelity(0.5, 0.0, 0.0, 0.0, 0.0) == pytest.approx(
        REST_F, abs=1e-15)
    assert perturbative_optimal(0.5, 0.0, 0.0, 0.0) == pytest.approx(
        REST_F, abs=1e-15)
    assert perturbative_fidelity(0.5, math.pi, 0.0, 0.0, 0.0) == \
        pytest.approx(1.0 / (1.0 + math.e), abs=1e-15)


def test_perturbative_matches_closed_form_at_zero_sums():
    for r in (0.1, 0.7):
        for phi in (0.0, 1.3, math.pi):
            assert perturbative_fidelity(r, phi, 0.0, 0.0, 0.2) == \
                pytest.approx(closed_form(r, phi), abs=1e-15)


def test_perturbative_quadratic_in_h():
    base = perturbative_optimal(0.5, 0.0, 0.0, 0.0)
    d1 = base - perturbative_optimal(0.5, 0.3, 0.2, 0.1)
    d2 = base - perturbative_optimal(0.5, 0.3, 0.2, 0.2)
    assert d2 == pytest.approx(4 * d1, rel=1e-12)


def test_perturbative_weights():
    # pairing enters with unit weight, mixing with tanh(2r)
    r, h = 0.6, 0.1
    base = perturbative_optimal(r, 0.0, 0.0, h)
    only_a = perturbative_optimal(r, 1.0, 0.0, h)
    only_b = perturbative_optimal(r, 0.0, 1.0, h)
    ratio = (base - only_a) / (base - only_b)
    assert ratio == pytest.approx(math.tanh(2 * r), rel=1e-12)


def test_perturbative_optimal_is_phase_floor():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = rng.uniform(0.1, 1.2)
        fa, fb, h = rng.uniform(0, 0.5), rng.uniform(0, 0.5), 0.15
        floor = perturbative_optimal(r, fa, fb, h)
        phi = rng.uniform(0, 2 * math.pi)
        assert perturbative_fidelity(r, phi, fa, fb, h) <= floor + 1e-12
        assert perturbative_fidelity(r, 0.0, fa, fb, h) == pytest.approx(
            floor, abs=1e-13)


def test_perturbative_validation():
    with pytest.raises(ValueError):
        perturbative_fidelity(0.5, 0.0, -0.1, 0.0, 0.1)
    with pytest.raises(ValueError):
        perturbative_fidelity(0.5, 0.0, 0.0, -0.1, 0.1)
    with pytest.raises(ValueError):
        perturbative_optimal(0.5, 0.0, 0.0, -0.1)


# ---------------------------------------------------------------------------
# consistency report

def test_report_rest_fields():
    rep = consistency_report(PARAMS, REST)
    assert isinstance(rep, FidelityReport)
    assert rep.h == 0.0
    assert rep.phi == 0.0
    assert rep.F_pert == pytest.approx(REST_F, abs=1e-12)
    assert rep.F_pert_opt == pytest.approx(REST_F, abs=1e-12)
    assert rep.residual_pert == pytest.approx(
        abs(rep.F_corrected - rep.F_pert_opt), abs=1e-15)
    assert rep.nu == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_report_single_burn_perturbative_tracking():
    # away from revival times the mode-sum model overestimates the
    # degradation; it must still carry the right sign and scale
    traj = Trajectory((Accelerated(1e17, 3e-10),), DEFAULT_GEOMETRY)
    rep = consistency_report(PARAMS, traj)
    assert rep.h == pytest.approx(1e17 * 0.012 / 1.2e8 ** 2, rel=1e-15)
    deficit = REST_F - rep.F_pert_opt
    assert deficit > 1e-3
    assert rep.F_pert_opt < rep.F_opt_numeric < REST_F
    assert abs(rep.F_opt_numeric - rep.F_pert_opt) < 0.6 * deficit
    assert rep.residual_pert == pytest.approx(
        abs(rep.F_corrected - rep.F_pert_opt), abs=1e-15)


def test_report_perturbative_exact_at_revival():
    # at a whole fundamental period the mode sums vanish and the model
    # rejoins the numeric pipeline through O(h^2)
    tau = DEFAULT_GEOMETRY.fundamental_period
    a = 0.1 * 1.2e8 ** 2 / 0.012  # h = 0.1
    traj = Trajectory((Accelerated(a, tau),), DEFAULT_GEOMETRY)
    rep = consistency_report(PARAMS, traj)
    assert rep.F_pert_opt == pytest.approx(REST_F, abs=1e-12)
    assert abs(rep.F_opt_numeric - rep.F_pert_opt) < 2e-4  # O(h^4)


def test_report_multiple_burns_has_no_perturbative_row():
    traj = Trajectory((Accelerated(1e17, 1e-10),
                       Inertial(1e-10),
                       Accelerated(1e17, 1e-10)), DEFAULT_GEOMETRY)
    rep = consistency_report(PARAMS, traj)
    assert math.isnan(rep.F_pert)
    assert math.isnan(rep.F_pert_opt)
    assert math.isnan(rep.residual_pert)
    assert math.isnan(rep.h)
    assert rep.F_opt_numeric <= REST_F + 1e-9


def test_report_truncation_gate_propagates():
    small = CavityGeometry(0.012, 1.2e8, 4)
    params = ProtocolParams(kp=3, geometry=small)
    traj = Trajectory((Accelerated(1e17, 3e-10),), small)
    with pytest.raises(TruncationError):
        consistency_report(params, traj)


# Rob's mode outside the interior block: at n_max 10 the defect covers
# modes 1..5 only, so kp 6..10 are gated for any trajectory with a burn

@pytest.mark.parametrize("kp", [6, 7, 8])
@pytest.mark.parametrize("segments", [
    (Accelerated(9e16, 0.0),),
    (Inertial(1e-10), Accelerated(2e17, 3e-10), Inertial(1e-10)),
])
def test_rob_mode_outside_interior_block_is_truncation_error(kp, segments):
    params = ProtocolParams(kp=kp)
    traj = Trajectory(segments, DEFAULT_GEOMETRY)
    with pytest.raises(TruncationError, match="interior block 1..5"):
        fidelity_raw(params, traj)
    with pytest.raises(TruncationError, match="interior block 1..5"):
        consistency_report(params, traj)

