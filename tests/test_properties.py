"""Invariants over random multi-segment trajectories.

Trajectories have 1 to 8 segments, coasts and burns mixed; burns draw
from eight thrust levels inside the validated regime, so the oracle
cache stays small and each example costs milliseconds.
"""

import logging
import math
import pickle
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cavtel import bogoliubov, protocol
from cavtel.bogoliubov import BogoliubovPair, sudden_switch_oracle
from cavtel.cli import _PRESETS
from cavtel.gaussian import (
    partial_transpose,
    symplectic_eigenvalues,
    teleport_fidelity,
)
from cavtel.protocol import (
    DEFAULT_GEOMETRY,
    ProtocolParams,
    _reports,
    _trajectory_state,
    consistency_report,
    fidelity_corrected,
    fidelity_optimal,
    fidelity_raw,
)
from cavtel.trajectory import (
    Accelerated,
    Inertial,
    Trajectory,
    h_parameter,
    phase_pair,
    rob_row,
)
from bogoliubov_reference import (
    build_transform,
    build_transform_per_burn,
    compose,
    identity_pair,
    inverse,
    measured,
    phase_evolution_minkowski,
    phase_evolution_rindler,
    row_residual,
    segment_transform,
    switch_reference,
    truncation_reference,
)
from gaussian_reference import (
    full_register_state,
    local_rotation,
    symplectic_eigenvalues_eigvalsh,
)

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
            step = measured(compose(measured(inverse(b0)),
                                    measured(compose(ph, b0))))
        total = measured(compose(step, total))
    return total


# Rob's mode ranges over the interior block, where the switch's identity
# residuals are measured and any trajectory with a burn is gated
@PROPERTY
@given(trajectories(st.one_of(coasts, burns)), squeezing,
       st.integers(1, 3), st.integers(1, GEOM.n_max // 2),
       st.sampled_from(("lab", "comoving")))
def test_row_state_matches_full_register(traj, r, k, kp, clock):
    params = ProtocolParams(r=r, k=k, kp=kp, geometry=GEOM)
    sigma = _trajectory_state(params, traj, clock)[0].sigma[0]
    want = full_register_state(params, traj, clock)
    assert np.max(np.abs(sigma - want)) <= 1e-12


# the closed-form spectrum of the kernel's states against the n-mode
# eigensolve: nu from a pass of each trajectory's own (one state, on
# Python floats) and from one joined pass of them all (a stack, on
# arrays).  kp >= 2, since f_sums' tail gate rejects kp = 1 at n_max 10
@PROPERTY
@given(st.lists(trajectories(st.one_of(coasts, burns)), min_size=1,
                max_size=6),
       squeezing, st.integers(2, GEOM.n_max // 2),
       st.sampled_from(("lab", "comoving")))
def test_kernel_spectrum_matches_eigvalsh(trajs, r, kp, clock):
    params = ProtocolParams(r=r, kp=kp, geometry=GEOM)
    joined = list(_reports(params, trajs, clock))
    for traj, report in zip(trajs, joined):
        state = _trajectory_state(params, traj, clock)[0]
        sigma = partial_transpose(state.sigma)
        want = symplectic_eigenvalues_eigvalsh(sigma)
        assert np.all(np.abs(symplectic_eigenvalues(sigma) - want)
                      <= 1e-13 * want)
        for nu in (state.nu, report.nu):
            assert abs(nu[0] - want[0, 0]) <= 1e-13 * want[0, 0]


# one burn column against the full-register sandwich, point by point;
# any acceleration of the validated regime, so most draws miss the cache.
# The column goes through the state kernel without the report's f_sums,
# whose tail gate would reject kp = 1 at n_max 10
@PROPERTY
@given(st.floats(1e16, 2.9e17), st.lists(durations, min_size=1, max_size=6),
       squeezing, st.integers(1, 3), st.integers(1, GEOM.n_max // 2),
       st.sampled_from(("lab", "comoving")))
def test_burn_column_matches_full_register(a, taus, r, k, kp, clock):
    params = ProtocolParams(r=r, k=k, kp=kp, geometry=GEOM)
    h = h_parameter(a, GEOM.L, GEOM.c)
    state, column = _trajectory_state(
        params, Trajectory((Accelerated(a, taus),), GEOM), clock)
    assert column and state.f_raw.shape == (len(taus),)
    for i, tau in enumerate(taus):
        traj = Trajectory((Accelerated(a, tau),), GEOM)
        sigma = full_register_state(params, traj, clock)
        phases = phase_pair(traj, k, kp, clock)
        undo = local_rotation(-phases.theta_alice, -phases.theta_rob)
        assert abs(state.f_raw[i] - teleport_fidelity(sigma)) <= 1e-12
        assert abs(state.f_corr[i]
                   - teleport_fidelity(undo @ sigma @ undo.T)) <= 1e-12
        nu = symplectic_eigenvalues(partial_transpose(sigma))[0]
        assert abs(state.nu[i] - nu) <= 1e-12
        # the full-matrix reference keeps the burn's interior-block
        # defect; the state's defect is the residual of Rob's row of it
        want = build_transform(traj)
        assert abs(want.defect
                   - segment_transform(tau, h, GEOM).defect) <= 1e-15
        assert abs(state.defect[i] - row_residual(
            want.alpha[kp - 1], want.beta[kp - 1])) <= 1e-15


# row i of a column report is the report of the trajectory of taus[i],
# bit for bit
@PROPERTY
@given(st.floats(1e16, 2.9e17), st.lists(durations, min_size=1, max_size=6),
       squeezing, st.integers(1, 3), st.integers(2, GEOM.n_max // 2),
       st.sampled_from(("lab", "comoving")))
def test_report_equals_its_burn_column_row(a, taus, r, k, kp, clock):
    params = ProtocolParams(r=r, k=k, kp=kp, geometry=GEOM)
    column = consistency_report(
        params, Trajectory((Accelerated(a, taus),), GEOM), clock)
    for i, tau in enumerate(taus):
        rep = consistency_report(
            params, Trajectory((Accelerated(a, tau),), GEOM), clock)
        assert rep == column.row(i)


# the array burn between two coasts, joined to a scalar burn before or
# after it: the stacked rows meet a single burn's products.
# Two burns leave the perturbative fields NaN, so rows compare by repr,
# which is exact for floats and equal for NaN
@PROPERTY
@given(st.sampled_from(THRUSTS), st.lists(durations, min_size=1, max_size=5),
       durations, durations, burns, st.booleans(), squeezing,
       st.integers(1, 3), st.integers(1, GEOM.n_max // 2),
       st.sampled_from(("lab", "comoving")))
def test_column_rows_equal_their_reports(a, taus, before, after, other,
                                         other_first, r, k, kp, clock):
    params = ProtocolParams(r=r, k=k, kp=kp, geometry=GEOM)

    def build(tau):
        segs = (Inertial(before), Accelerated(a, tau), Inertial(after))
        return Trajectory((other,) + segs if other_first
                          else segs + (other,), GEOM)

    column = consistency_report(params, build(taus), clock)
    for i, tau in enumerate(taus):
        assert repr(consistency_report(params, build(tau), clock)) \
            == repr(column.row(i))


# the three wrappers give a column's (T,) arrays, not its first row, and
# a single trajectory's float
@PROPERTY
@given(st.sampled_from(THRUSTS), st.lists(durations, min_size=1, max_size=5),
       squeezing, st.integers(1, GEOM.n_max // 2),
       st.sampled_from(("lab", "comoving")))
def test_wrappers_return_a_column_on_a_column(a, taus, r, kp, clock):
    params = ProtocolParams(r=r, kp=kp, geometry=GEOM)
    column = Trajectory((Accelerated(a, taus),), GEOM)
    state, _ = _trajectory_state(params, column, clock)
    f_opt, nu = fidelity_optimal(params, column, clock)
    for got, want in ((fidelity_raw(params, column, clock), state.f_raw),
                      (fidelity_corrected(params, column, clock),
                       state.f_corr),
                      (nu, state.nu), (f_opt, 1.0 / (1.0 + state.nu))):
        assert isinstance(got, np.ndarray) and got.shape == (len(taus),)
        assert np.array_equal(got, want)
    single = Trajectory((Accelerated(a, taus[-1]),), GEOM)
    assert type(fidelity_raw(params, single, clock)) is float
    assert fidelity_corrected(params, single, clock) == state.f_corr[-1]
    assert fidelity_optimal(params, single, clock)[1] == state.nu[-1]


# the full-matrix reference's one stacked residual pass equals measuring
# after every step
@PROPERTY
@given(trajectories(st.one_of(coasts, burns)))
def test_defect_matches_measure_after_every_compose(traj):
    got = build_transform(traj)
    want = measured_everywhere(traj)
    assert abs(got.defect - want.defect) <= 1e-15
    assert np.max(np.abs(got.alpha - want.alpha)) <= 1e-14
    assert np.max(np.abs(got.beta - want.beta)) <= 1e-14


@st.composite
def columns(draw):
    """Columns of one to four rows: coasts, scalar burns and array burns
    of one length, mixed."""
    rows = draw(st.integers(1, 4))
    arrays = st.builds(Accelerated, st.sampled_from(THRUSTS),
                       st.lists(durations, min_size=rows, max_size=rows))
    return draw(trajectories(st.one_of(coasts, burns, arrays)))


def framed(columns_):
    """The trajectories of `columns_`, half of them between a lead and a
    trailing coast."""
    def frame(traj, lead, trail, on):
        if not on:
            return traj
        return Trajectory((Inertial(lead),) + traj.segments
                          + (Inertial(trail),), GEOM)
    return st.builds(frame, columns_, durations, durations, st.booleans())


def row_of(traj, i):
    """Trajectory i of a column: each array burn at its i-th duration."""
    return Trajectory(tuple(
        Accelerated(s.a, float(s.tau[i]))
        if isinstance(s, Accelerated) and np.ndim(s.tau) else s
        for s in traj.segments), GEOM)


# Rob's row from the vector-matrix chain is row kp of the full-matrix
# reference; without a burn it is a pure phase with defect 0
@PROPERTY
@given(framed(columns()), st.integers(1, GEOM.n_max // 2))
def test_rob_row_matches_the_full_matrix_reference(traj, kp):
    want = build_transform(traj)
    got = rob_row(traj, kp)
    # a single trajectory is a column of one
    rows = want.alpha.shape[:-2] or (1,)
    assert got.alpha.shape == got.beta.shape == rows + (1, GEOM.n_max)
    assert got.defect.shape == rows
    i = slice(kp - 1, kp)
    assert np.max(np.abs(got.alpha - want.alpha[..., i, :])) <= 1e-14
    assert np.max(np.abs(got.beta - want.beta[..., i, :])) <= 1e-14
    if not traj.burns:
        assert not got.defect.any()
        assert not got.beta.any()


# every clamp of a trajectory with a burn stays within ten row residuals,
# the physicality allowance without its PHYSICALITY_TOL floor; each row
# of a column is the full-register state of its trajectory
@PROPERTY
@given(framed(columns()), squeezing, st.integers(1, 3),
       st.integers(1, GEOM.n_max // 2), st.sampled_from(("lab", "comoving")))
def test_clamps_stay_within_ten_row_residuals(traj, r, k, kp, clock):
    params = ProtocolParams(r=r, k=k, kp=kp, geometry=GEOM)
    state, _ = _trajectory_state(params, traj, clock)
    if traj.burns:
        assert (state.violation <= 10.0 * state.defect).all()
    else:
        assert not state.defect.any()
    for i, sigma in enumerate(state.sigma):
        want = full_register_state(params, row_of(traj, i), clock)
        assert np.max(np.abs(sigma - want)) <= 1e-12


def assert_same_bits(got, want):
    for x, y in ((got.alpha, want.alpha), (got.beta, want.beta),
                 (got.defect, want.defect)):
        assert type(x) is type(y)
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


# the full-matrix reference's one stacked residual pass gives the per-burn
# chain's pair and defect, bit for bit: lead coasts, coast-only
# trajectories, and columns whose array burns meet scalar ones
@PROPERTY
@given(trajectories(st.one_of(coasts, burns)))
def test_transform_has_the_per_burn_chain_bits(traj):
    assert_same_bits(build_transform(traj), build_transform_per_burn(traj))


@PROPERTY
@given(trajectories(coasts))
def test_coast_transform_has_the_per_burn_chain_bits(traj):
    assert_same_bits(build_transform(traj), build_transform_per_burn(traj))


@PROPERTY
@given(columns())
def test_column_transform_has_the_per_burn_chain_bits(traj):
    assert_same_bits(build_transform(traj), build_transform_per_burn(traj))


# a report read from the per-switch and per-truncation caches has the
# bits of one whose burns and coasts form those values on the call, its
# f_sums included, uncached and from coast rates formed on the call (only
# the oracle pair, cached at the parent too, is shared)
@PROPERTY
@given(trajectories(st.one_of(coasts, burns)), st.integers(2, 5),
       st.sampled_from(("lab", "comoving")))
def test_report_bits_do_not_depend_on_warm_caches(traj, kp, clock):
    params = ProtocolParams(kp=kp, geometry=GEOM)
    with mock.patch("cavtel.trajectory._oracle_cached", switch_reference), \
            mock.patch("cavtel.trajectory._truncation",
                       truncation_reference), \
            mock.patch("cavtel.bogoliubov._truncation",
                       truncation_reference), \
            mock.patch("cavtel.bogoliubov._f_sums_cached",
                       bogoliubov._f_sums_cached.__wrapped__):
        uncached = pickle.dumps(consistency_report(params, traj, clock))
    cached = pickle.dumps(consistency_report(params, traj, clock))
    assert cached == uncached


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


# Alice's lab clock restarts its sinh at each burn, so F_raw legitimately
# differs between the split and the whole burn; the phase-corrected and
# optimal fidelities do not, up to the truncation loss of B B^-1
@PROPERTY
@given(st.sampled_from(THRUSTS), durations, durations)
def test_split_burn_matches_whole_burn(a, tau1, tau2):
    params = ProtocolParams(geometry=GEOM)
    split = consistency_report(params, Trajectory(
        (Accelerated(a, tau1), Accelerated(a, tau2)), GEOM))
    whole = consistency_report(params, Trajectory(
        (Accelerated(a, tau1 + tau2),), GEOM))
    slack = 1e-9 + 10.0 * split.defect
    assert abs(split.F_opt_numeric - whole.F_opt_numeric) <= slack
    assert abs(split.F_corrected - whole.F_corrected) <= slack


# ---------------------------------------------------------------------------
# batches of sweep columns

def report_bits(report):
    return np.stack(list(vars(report).values())).tobytes()


# columns of 1 to 300 rows, at the library's row budget and at budgets
# from one row up, so that columns are shorter and longer than a budget
# and a budget splits the grid unevenly
budgets = st.one_of(st.none(), st.integers(1, 700))
presets = st.sampled_from(sorted(_PRESETS))
clocks = st.sampled_from(("lab", "comoving"))


@PROPERTY
@given(st.integers(1, 300), st.lists(st.sampled_from(THRUSTS), min_size=1,
                                     max_size=12), budgets, presets, clocks)
def test_batched_columns_have_their_own_reports_bits(steps, accs, budget,
                                                     preset, clock):
    params = ProtocolParams(r=_PRESETS[preset], geometry=GEOM)
    taus = np.linspace(0.0, 3.0 * GEOM.fundamental_period, steps)
    columns = [Trajectory((Accelerated(a, taus),), GEOM) for a in accs]
    with mock.patch.object(protocol, "BATCH_ROWS",
                           budget or protocol.BATCH_ROWS):
        batched = list(_reports(params, columns, clock))
    assert len(batched) == len(columns)
    for column, report in zip(columns, batched):
        alone = consistency_report(params, column, clock)
        assert report_bits(report) == report_bits(alone)


def _run_share(results):
    """(the items of the iterable `results`, None), or, if it raises,
    (the items before, its exception).  Each item's clamp records are
    logged as it is taken, as `cli.sweep_rows` logs a column report's."""
    done = []
    try:
        for x in results:
            protocol._log_clamped(x.clamp)
            done.append(x)
    except Exception as exc:
        return done, exc
    return done, None


class ClampRecords(logging.Handler):
    """The shifts of the DEBUG clamp records of `cavtel.protocol`, in
    order, while installed."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.shifts = []

    def emit(self, record):
        self.shifts.append(record.args[0])

    def __enter__(self):
        log = logging.getLogger("cavtel.protocol")
        self.level = log.level
        log.addHandler(self)
        log.setLevel(logging.DEBUG)
        return self

    def __exit__(self, *exc):
        log = logging.getLogger("cavtel.protocol")
        log.removeHandler(self)
        log.setLevel(self.level)


def test_batched_columns_fail_as_one_at_a_time():
    # each column's inputs pass, fail, or give a state outside the
    # physical cone, which fails the kernel pass of its batch: at any
    # budget the results before the first failing column come back, and
    # its exception, as one column per pass gives them, with the same
    # clamp records, logged from the reports taken.  Some cases must
    # have records, or the comparison of records shows nothing
    records = []

    @PROPERTY
    @given(st.integers(1, 40),
           st.lists(st.sampled_from(("ok", "inputs", "unphysical")),
                    min_size=1, max_size=len(THRUSTS)),
           budgets, clocks)
    def check(steps, kinds, budget, clock):
        params = ProtocolParams(geometry=GEOM)
        taus = np.linspace(0.0, 3.0 * GEOM.fundamental_period, steps)
        accs = THRUSTS[:len(kinds)]
        kind_of = dict(zip(accs, kinds))
        real = protocol._column_inputs

        def inputs(params, trajectory, alice_clock):
            a = trajectory.burns[0].a
            if kind_of[a] == "inputs":
                raise ValueError(f"inputs of a = {a!r}")
            item = real(params, trajectory, alice_clock)
            if kind_of[a] == "unphysical":
                # a lossy row: the reduced state breaks the uncertainty
                # bound
                pair = BogoliubovPair(0.9 * item.pair.alpha, item.pair.beta,
                                      item.pair.defect)
                item = item._replace(pair=pair)
            return item

        def run(rows):
            columns = (Trajectory((Accelerated(a, taus),), GEOM)
                       for a in accs)
            with mock.patch.object(protocol, "BATCH_ROWS", rows), \
                    mock.patch.object(protocol, "_column_inputs", inputs), \
                    ClampRecords() as clamps:
                done, exc = _run_share(_reports(params, columns, clock))
            return ([report_bits(rep) for rep in done],
                    None if exc is None else (type(exc), str(exc)),
                    clamps.shifts)

        got = run(budget or protocol.BATCH_ROWS)
        assert got == run(1)
        first = next((i for i, kind in enumerate(kinds) if kind != "ok"),
                     None)
        assert len(got[0]) == (len(kinds) if first is None else first)
        records.append(len(got[2]))

    check()
    assert any(records)
