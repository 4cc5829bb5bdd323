"""End-to-end teleportation pipelines and their cross-checks."""

import collections
import hashlib
import math
import struct
import warnings
import weakref
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest

from cavtel.bogoliubov import BogoliubovPair, CavityGeometry
from cavtel.errors import ConsistencyError, PhysicalityError, TruncationError
from cavtel.gaussian import (
    make_two_mode_squeezed,
    partial_transpose,
    rotation,
    symplectic_form,
)
from cavtel.protocol import (
    DEFAULT_GEOMETRY,
    SCREEN_KAPPA,
    FidelityReport,
    ProtocolParams,
    _state_kernel,
    _trajectory_state,
    _violation,
    consistency_report,
    fidelity_corrected,
    fidelity_optimal,
    fidelity_raw,
    perturbative_fidelity,
    perturbative_optimal,
)
from cavtel.trajectory import Accelerated, Inertial, PhasePair, Trajectory
from gaussian_reference import smallest_symplectic_eigenvalue_decimal

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


# ProtocolParams(k=1.5) used to return a fidelity for a mode that does not
# exist, and a float kp failed later with a TypeError from a slice
@pytest.mark.parametrize("field, value", [
    ("k", 1.5), ("k", 1.0), ("k", True), ("kp", 2.5), ("kp", 3.0),
    ("kp", True), ("kp", "3"),
])
def test_params_reject_non_integer_mode_index(field, value):
    with pytest.raises(ValueError, match=rf"mode index {field} must be an "
                                         "integer"):
        ProtocolParams(**{field: value})


# each of these used to build parameters; a 1-element array then failed
# in a later report as an unhashable type
@pytest.mark.parametrize("value", [True, "0.5", [0.5], np.array([0.5])])
def test_params_reject_non_real_squeezing(value):
    with pytest.raises(ValueError, match="^squeezing r must be a real number"):
        ProtocolParams(r=value)


def test_params_store_0d_squeezing_as_float():
    params = ProtocolParams(r=np.array(0.5))
    assert type(params.r) is float
    assert params == PARAMS and hash(params) == hash(PARAMS)


def test_params_accept_numpy_integer_mode_index():
    params = ProtocolParams(k=np.int64(2), kp=np.int64(3))
    assert fidelity_raw(params, REST) == fidelity_raw(
        ProtocolParams(k=2, kp=3), REST)


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


# 1.5973122800602525e-10 once stalled the non-symmetric eigensolver
@pytest.mark.parametrize("r", [1.5973122800602525e-10, 1e-9, 1e-6, 0.1, 0.5,
                               math.log(2.0), 1.5])
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
    # pairing enters with unit weight, mixing with tanh(r)
    r, h = 0.6, 0.1
    base = perturbative_optimal(r, 0.0, 0.0, h)
    only_a = perturbative_optimal(r, 1.0, 0.0, h)
    only_b = perturbative_optimal(r, 0.0, 1.0, h)
    ratio = (base - only_a) / (base - only_b)
    assert ratio == pytest.approx(math.tanh(r), rel=1e-12)
    for phi in (0.0, 1.3):
        base = perturbative_fidelity(r, phi, 0.0, 0.0, h)
        only_a = perturbative_fidelity(r, phi, 1.0, 0.0, h)
        only_b = perturbative_fidelity(r, phi, 0.0, 1.0, h)
        ratio = (base - only_a) / (base - only_b)
        assert ratio == pytest.approx(math.tanh(r), rel=1e-12)


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
    # no sums, no values
    empty = np.array([])
    assert perturbative_fidelity(0.5, empty, empty, empty, 0.1).shape == (0,)
    assert perturbative_optimal(0.5, empty, empty, 0.1).shape == (0,)


def test_perturbative_rejects_non_finite_inputs():
    # a NaN fails no `< 0` test, and would come back as a NaN fidelity
    for bad in (math.nan, math.inf):
        for sums in ((bad, 0.1), (0.1, bad), (np.array([0.1, bad]), 0.1)):
            with pytest.raises(ValueError, match="finite and >= 0"):
                perturbative_fidelity(0.5, 0.3, *sums, 0.1)
            with pytest.raises(ValueError, match="finite and >= 0"):
                perturbative_optimal(0.5, *sums, 0.1)
        with pytest.raises(ValueError, match="h must be finite and >= 0"):
            perturbative_fidelity(0.5, 0.3, 0.1, 0.1, bad)
        with pytest.raises(ValueError, match="h must be finite and >= 0"):
            perturbative_optimal(0.5, 0.1, 0.1, bad)


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
    # away from revival times (here 1.5 periods, h = 1/12) the h^2 model
    # carries the numeric degradation; what is left is O(h^4)
    traj = Trajectory((Accelerated(1e17, 3e-10),), DEFAULT_GEOMETRY)
    rep = consistency_report(PARAMS, traj)
    assert rep.h == pytest.approx(1e17 * 0.012 / 1.2e8 ** 2, rel=1e-15)
    deficit = REST_F - rep.F_pert_opt
    assert deficit > 1e-3
    assert rep.F_pert_opt < rep.F_opt_numeric < REST_F
    assert rep.residual_pert < 0.03 * deficit
    assert abs(rep.F_opt_numeric - rep.F_pert_opt) < 0.01 * deficit
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


def test_multiburn_column_report_has_one_nan_array_per_field():
    traj = Trajectory((Accelerated(1e17, [1e-10, 2e-10]), Inertial(1e-11),
                       Accelerated(2e17, [3e-10, 1e-10])), DEFAULT_GEOMETRY)
    rep = consistency_report(PARAMS, traj)
    assert rep.F_pert is not rep.F_pert_opt
    rep.F_pert[0] = 0.5
    assert np.isnan(rep.F_pert_opt).all()


def test_report_truncation_gate_propagates():
    small = CavityGeometry(0.012, 1.2e8, 4)
    params = ProtocolParams(kp=3, geometry=small)
    traj = Trajectory((Accelerated(1e17, 3e-10),), small)
    with pytest.raises(TruncationError):
        consistency_report(params, traj)


# Rob's mode outside the interior block: at n_max 10 the switch is
# validated on modes 1..5 only, so kp 6..10 are gated for any trajectory
# with a burn

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


# ---------------------------------------------------------------------------
# the column kernel

def kernel_column(scales):
    """Rob's rows of the stacked pairs alpha = scale * I, beta = 0, with
    zero defect; a scale below one loses signal without adding the
    vacuum noise that any physical channel must, so the reduced state is
    unphysical."""
    n = DEFAULT_GEOMETRY.n_max
    rows = np.eye(n, dtype=complex)[PARAMS.kp - 1:PARAMS.kp]
    alpha = np.array([s * rows for s in scales])
    pair = BogoliubovPair(alpha, np.zeros_like(alpha), np.zeros(len(scales)))
    zeros = np.zeros(len(scales))
    return pair, PhasePair(zeros, zeros)


def test_column_with_one_unphysical_point_raises_like_that_point():
    with pytest.raises(PhysicalityError) as column:
        _state_kernel(PARAMS, *kernel_column([1.0, 0.9, 1.0]))
    with pytest.raises(PhysicalityError) as alone:
        _state_kernel(PARAMS, *kernel_column([0.9]))
    assert str(column.value) == str(alone.value)
    state = _state_kernel(PARAMS, *kernel_column([1.0, 1.0]))
    assert np.allclose(state.f_corr, REST_F, atol=1e-12)


@pytest.mark.parametrize("raw,corrected,message", [
    ({1: 2.0}, {}, "raw 2.000000000000"),
    ({}, {2: 3.0}, "corrected 3.000000000000"),
    ({2: 2.0}, {1: 3.0}, "corrected 3.000000000000"),
    ({1: math.nan}, {1: 2.0}, "raw nan, corrected 2.000000000000"),
    ({1: 2.0, 2: math.nan}, {1: math.nan, 2: 3.0}, "raw 2.000000000000"),
    ({1: math.nan}, {2: math.nan}, None),
])
def test_ordering_check_names_the_first_row_past_the_bound(
        monkeypatch, raw, corrected, message):
    # a raw or corrected fidelity above the optimal bound by more than the
    # slack raises, naming the first such row, whether or not the other
    # fidelity of that row is NaN; a NaN alone passes
    from cavtel import protocol
    real = protocol.teleport_fidelity

    def lifted(states, check):
        fidelities = real(states, check=check)
        for rows, f in zip((raw, corrected), fidelities):
            for i, value in rows.items():
                f[i] = value
        return fidelities

    monkeypatch.setattr(protocol, "teleport_fidelity", lifted)
    column = kernel_column([1.0] * 4)
    if message is None:
        _state_kernel(PARAMS, *column)
        return
    with pytest.raises(ConsistencyError, match=message):
        _state_kernel(PARAMS, *column)


def clamp_records(caplog, call):
    """What call() returns, and the shifts of the clamp records it logs,
    in order."""
    caplog.clear()
    with caplog.at_level("DEBUG", logger="cavtel.protocol"):
        result = call()
    return result, [rec.args[0] for rec in caplog.records]


def test_column_clamps_within_the_allowance(caplog, monkeypatch):
    # a loss of 1e-10 violates the bound by less than the 1e-9 floor: the
    # kernel clamps it without a record, and the report that publishes
    # the state logs its one clamp
    from cavtel import protocol
    pair, phases = kernel_column([1.0, 1.0 - 1e-10])
    state, records = clamp_records(
        caplog, lambda: _state_kernel(PARAMS, pair, phases))
    assert records == []
    assert state.violation[0] == 0.0
    assert 0.0 < state.violation[1] <= 1e-9
    monkeypatch.setattr(protocol, "_column_inputs", lambda *args:
                        protocol._Inputs(pair, phases, True, REST))
    _, records = clamp_records(caplog, lambda: consistency_report(PARAMS,
                                                                  REST))
    assert records == [state.violation[1]]


def default_grid_trajectory(column):
    """Column 50 of the default sweep grid (7 of its 100 states clamp),
    or its point at tau index 26, which clamps."""
    from cavtel.cli import RunConfig
    taus, accs = RunConfig().grid()
    return Trajectory((Accelerated(accs[50], taus if column
                                   else float(taus[26])),), DEFAULT_GEOMETRY)


@pytest.mark.parametrize("column", [True, False], ids=["column", "point"])
def test_each_publisher_logs_its_clamps_once_in_order(caplog, column):
    traj = default_grid_trajectory(column)
    clamp = np.atleast_1d(consistency_report(PARAMS, traj).clamp)
    want = clamp[clamp > 0.0].tolist()
    assert len(want) == (7 if column else 1)
    for publish in (consistency_report, fidelity_raw, fidelity_corrected,
                    fidelity_optimal):
        assert clamp_records(caplog, lambda: publish(PARAMS, traj))[1] == want


def test_kernel_and_batches_log_nothing(caplog):
    # only a call that publishes a report logs its clamps
    from cavtel import protocol
    traj = default_grid_trajectory(True)
    item = protocol._column_inputs(PARAMS, traj, "lab")
    state, records = clamp_records(
        caplog, lambda: _state_kernel(PARAMS, item.pair, item.phases))
    assert records == []
    assert np.count_nonzero(state.violation) == 7
    reports, records = clamp_records(
        caplog, lambda: list(protocol._reports(PARAMS, [traj, traj], "lab")))
    assert records == []
    assert [np.count_nonzero(rep.clamp) for rep in reports] == [7, 7]


@pytest.mark.parametrize("budget", [1, 250, 1024])
@pytest.mark.parametrize("bad", [0, 2])
def test_failing_inputs_are_computed_once(monkeypatch, budget, bad):
    # the batch gathered before a column whose inputs raise is reported
    # like any other, and then the very exception raised is raised
    # again: no column's inputs are computed twice
    from cavtel import protocol
    real, calls = protocol._column_inputs, []
    error = ValueError("inputs failed")

    def inputs(params, trajectory, alice_clock):
        calls.append(trajectory)
        if len(calls) == bad + 1:
            raise error
        return real(params, trajectory, alice_clock)

    monkeypatch.setattr(protocol, "_column_inputs", inputs)
    monkeypatch.setattr(protocol, "BATCH_ROWS", budget)
    taus = np.linspace(0.0, 3.0 * DEFAULT_GEOMETRY.fundamental_period, 100)
    columns = [Trajectory((Accelerated(a, taus),), DEFAULT_GEOMETRY)
               for a in (1e17, 1.5e17, 2e17, 2.5e17)]
    done = []
    with pytest.raises(ValueError) as info:
        for rep in protocol._reports(PARAMS, columns, "lab"):
            done.append(rep)
    assert info.value is error
    assert len(calls) == bad + 1
    assert all(got is want for got, want in zip(calls, columns))
    monkeypatch.undo()
    assert len(done) == bad
    for column, rep in zip(columns, done):
        alone = consistency_report(PARAMS, column)
        for name, value in vars(alone).items():
            assert np.array_equal(getattr(rep, name), value, equal_nan=True)


# ---------------------------------------------------------------------------
# the physicality screen

I_OMEGA = 1j * symplectic_form(2)
# relative shifts of Rob's block off the cone: inside, on and outside
SHIFTS = [0.0] + [sign * 10.0 ** e for e in range(-14, -3) for sign in (1, -1)]


def cone_stack(r, rng, per_shift=8):
    """Symmetric states with the resource's Alice block at squeezing r:
    the pure resource with Rob's mode through a random one-mode
    symplectic map and a lossy channel of transmissivity eta (eta = 1 on
    the cone), then Rob's block shifted by each of SHIFTS times the
    state's largest entry, and the relative shift of each state."""
    tms = make_two_mode_squeezed(r)
    states, shifts = [], []
    for shift in SHIFTS:
        for _ in range(per_shift):
            s = rng.uniform(-1.0, 1.0)
            squeeze = np.diag([math.exp(s), math.exp(-s)])
            s_b = rotation(rng.uniform(0, 2 * np.pi)) @ squeeze \
                @ rotation(rng.uniform(0, 2 * np.pi))
            eta = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.0)
            sigma = tms.copy()
            sigma[:2, 2:] = np.sqrt(eta) * tms[:2, 2:] @ s_b.T
            sigma[2:, 2:] = eta * s_b @ tms[2:, 2:] @ s_b.T \
                + (1.0 - eta) * np.eye(2)
            sigma[2:, 2:] += shift * np.abs(sigma).max() * np.eye(2)
            sigma[2:, :2] = sigma[:2, 2:].T
            sigma[2:, 2:] = 0.5 * (sigma[2:, 2:] + sigma[2:, 2:].T)
            states.append(sigma)
            shifts.append(shift)
    return np.array(states), np.array(shifts)


def screened(sigma, c):
    """The screen's verdict on each state of a stack as `_violation`
    asks it: on columns for a stack of two or more states, on Python
    floats for a single state (False where its arithmetic divides by
    zero).  A state that fails the screen takes the eigensolve, whose
    LinAlgError on a non-finite state is ignored here."""
    from cavtel import protocol
    verdicts = []
    real = protocol._certified

    def spy(*args):
        verdicts.append(False)      # stands if the arithmetic raises
        verdicts[-1] = real(*args)
        return verdicts[-1]

    with mock.patch.object(protocol, "_certified", spy):
        try:
            _violation(sigma, c)
        except np.linalg.LinAlgError:
            pass
    assert len(verdicts) == 1
    return np.array(verdicts[0], dtype=bool).reshape(len(sigma))


def eigensolve_violation(sigma):
    return np.maximum(0.0, -np.linalg.eigvalsh(sigma + I_OMEGA)[:, 0])


@pytest.mark.parametrize("r", [1e-6, 1e-3, 0.5, math.log(2.0), 3.0, 8.0])
def test_screened_violation_has_the_eigensolve_bits(r):
    sigma, shifts = cone_stack(r, np.random.default_rng(int(r * 1e6)))
    c = make_two_mode_squeezed(r)[0, 0]
    assert len(sigma) >= 2
    want = eigensolve_violation(sigma)
    with np.errstate(all="raise"):
        got = _violation(sigma, c)
        certified = screened(sigma, c)
    assert got.tobytes() == want.tobytes()
    assert not certified[shifts < 0].any()
    if r >= 0.5:
        # the screen is not vacuous: states well inside pass it (at small
        # r one of the pure state's two null vectors barely meets Rob's
        # block, so a shift there lifts it by about r^2 of itself only)
        assert certified[shifts >= 1e-8].all()


@pytest.mark.parametrize("r", [1e-6, 1e-3, 0.5, math.log(2.0), 3.0, 8.0])
def test_one_state_screen_agrees_with_the_stack_screen(r):
    # a single state is screened on Python floats: each state gets the
    # stack's verdict, its violation has the eigensolve's bits, and a
    # certified state's eigensolve clamp is exactly 0.0
    sigma, _ = cone_stack(r, np.random.default_rng(int(r * 1e6) + 1))
    c = make_two_mode_squeezed(r)[0, 0]
    stack = screened(sigma, c)
    want = eigensolve_violation(sigma)
    assert 0 < stack.sum() < len(sigma) or r < 0.5
    for i, one in enumerate(sigma[:, None]):
        with np.errstate(all="raise"):
            assert screened(one, c)[0] == stack[i]
            assert _violation(one, c).tobytes() == want[i:i + 1].tobytes()
    assert want[stack].tobytes() == np.zeros(stack.sum()).tobytes()


def test_one_state_screen_fails_non_finite_entries():
    # a NaN or an inf in any of the 16 entries, read by the screen or not
    # (the Alice block, the lower triangle), leaves a certified state
    # unscreened: it takes the eigensolve, as it did before the screen
    r = 0.5
    sigma, shifts = cone_stack(r, np.random.default_rng(9), per_shift=1)
    c = make_two_mode_squeezed(r)[0, 0]
    state = sigma[shifts == 1e-6]
    assert screened(state, c).all()
    for bad in (math.nan, math.inf, -math.inf):
        for entry in range(16):
            one = state.copy()
            one.reshape(16)[entry] = bad
            assert not screened(one, c).any()
            try:
                want = eigensolve_violation(one).tobytes()
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    _violation(one, c)
            else:
                assert _violation(one, c).tobytes() == want


def test_one_state_screen_reads_a_zero_divisor_as_failed():
    # a1 = (c - 1) - delta is exactly 0 for c = 1 + SCREEN_KAPPA m with
    # m = 2^38 (both sums exact): floats divide by zero, where a
    # stack's column gets an inf that fails a1 > 0
    m = 2.0 ** 38
    c = 1.0 + SCREEN_KAPPA * m
    assert (c - 1.0) - SCREEN_KAPPA * m == 0.0
    state = np.diag([c, c, m, m])[None]
    assert not screened(state, c).any()
    with np.errstate(all="raise"):
        assert _violation(state, c).tobytes() \
            == eigensolve_violation(state).tobytes()
    assert not screened(np.repeat(state, 2, axis=0), c).any()


def test_screen_fails_non_finite_and_huge_states_quietly():
    r = 0.5
    sigma, shifts = cone_stack(r, np.random.default_rng(7), per_shift=2)
    assert len(sigma) >= 2 and shifts[11] > 0.0
    c = make_two_mode_squeezed(r)[0, 0]
    sigma[3, 2, 3] = sigma[3, 3, 2] = np.nan
    sigma[5, 0, 2] = sigma[5, 2, 0] = np.inf
    sigma[7, 2:, 2:] *= 1e200       # its squares overflow
    sigma[9, :2, 2:] *= 1e160
    sigma[9, 2:, :2] *= 1e160
    sigma[11, 2:, 2:] += 1e110 * np.eye(2)     # physical, but not screened
    with np.errstate(all="raise"):
        certified = screened(sigma, c)
    assert not certified[[3, 5, 7, 9, 11]].any()
    assert certified.any()
    # entries of 1e100 and more are never screened: past about 1e154 a
    # product in det S could overflow to +inf and pass
    huge, _ = cone_stack(120.0, np.random.default_rng(8), per_shift=2)
    c_huge = make_two_mode_squeezed(120.0)[0, 0]
    assert not screened(huge, c_huge).any()
    want = eigensolve_violation(huge)
    assert _violation(huge, c_huge).tobytes() == want.tobytes()
    for i in range(len(huge)):
        assert not screened(huge[i:i + 1], c_huge).any()
    # a non-finite state reaches LAPACK, which fails as without the screen
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvalsh(sigma + I_OMEGA)
    with pytest.raises(np.linalg.LinAlgError):
        _violation(sigma, c)


@pytest.mark.parametrize("r", [1e-3, 0.5, 3.0])
def test_every_stack_size_has_the_eigensolve_bits(r):
    # one state is screened on Python floats, every stack of two or more
    # on columns: at each size from 1 to 40 the violation has the
    # eigensolve's bytes, with clamped states (shifted outside the cone)
    # mixed among the certified ones
    rng = np.random.default_rng(int(r * 1e3) + 3)
    sigma, shifts = cone_stack(r, rng, per_shift=2)
    order = rng.permutation(len(sigma))
    sigma, shifts = sigma[order], shifts[order]
    c = make_two_mode_squeezed(r)[0, 0]
    want = eigensolve_violation(sigma)
    assert len(sigma) >= 40 and (want[:40] > 0.0).sum() >= 10
    assert (shifts[:40] > 0.0).sum() >= 10
    for rows in range(1, 41):
        with np.errstate(all="raise"):
            got = _violation(sigma[:rows], c)
        assert got.tobytes() == want[:rows].tobytes()
        if r >= 0.5:
            # the screen runs at every size: states well inside pass it
            inside = shifts[:rows] >= 1e-8
            assert screened(sigma[:rows], c)[inside].all()
        # a non-finite state still reaches LAPACK, which fails
        bad = sigma[:rows].copy()
        bad[rows // 2, 2, 3] = bad[rows // 2, 3, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            _violation(bad, c)


def test_default_sweep_eigensolves_only_its_clamped_states(monkeypatch):
    from cavtel.cli import RunConfig, sweep_rows
    solved = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        solved.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    _, _, reports = sweep_rows(RunConfig(), jobs=1)
    clamped = sum(np.count_nonzero(rep.clamp) for rep in reports)
    # nu takes no eigensolve, and the screen certifies every state but
    # the clamped ones: 810 eigensolves, against 10,810 with nu from
    # eigvalsh and 20,000 without the screen
    assert clamped == 810
    assert sum(solved) == clamped


def test_default_grid_nu_is_within_8_ulps_of_decimal_reference():
    # nu of 200 seeded states of the default grid, each from a pass of
    # its own (the bits it has in the sweep), against the two-mode
    # invariants at 40 digits
    from cavtel.cli import RunConfig
    taus, accs = RunConfig().grid()
    rng = np.random.default_rng(29)
    worst = 0.0
    for i, j in zip(rng.integers(len(taus), size=200),
                    rng.integers(len(accs), size=200)):
        traj = Trajectory((Accelerated(accs[j], taus[i]),), DEFAULT_GEOMETRY)
        state = _trajectory_state(PARAMS, traj, "lab")[0]
        nu = float(state.nu[0])
        want = smallest_symplectic_eigenvalue_decimal(
            partial_transpose(state.sigma[0]))
        worst = max(worst, float(abs(Decimal(nu) - want))
                    / float(np.spacing(nu)))
    assert worst <= 8.0


def test_batches_free_their_columns_rows_before_each_pass(monkeypatch):
    # a joined pass holds its columns' rows once: by then each column's
    # own rows are gone, all but those of the column read ahead of it
    from cavtel import protocol
    refs, live = [], []
    real_inputs, real_kernel = protocol._column_inputs, protocol._state_kernel

    def recorded(*args):
        item = real_inputs(*args)
        refs.append(weakref.ref(item.pair.alpha))
        return item

    def counted(*args, **kwargs):
        live.append(sum(ref() is not None for ref in refs))
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(protocol, "_column_inputs", recorded)
    monkeypatch.setattr(protocol, "_state_kernel", counted)
    monkeypatch.setattr(protocol, "BATCH_ROWS", 4)
    taus = np.array([1e-10, 2e-10])
    columns = [Trajectory((Accelerated(a, taus),), DEFAULT_GEOMETRY)
               for a in (1e17, 1.5e17, 2e17, 2.5e17, 2.8e17)]
    reports = list(protocol._reports(PARAMS, columns, "lab"))
    assert len(reports) == len(refs) == 5
    # passes of two, two and one column; a pass of one runs on its own
    # rows
    assert live == [1, 1, 1]


def burn_column_report(a, taus):
    """The report of the burn column (Accelerated(a, taus),)."""
    traj = Trajectory((Accelerated(a, taus),), DEFAULT_GEOMETRY)
    return consistency_report(PARAMS, traj)


def test_burn_column_validates_its_grid():
    with pytest.raises(ValueError):
        burn_column_report(0.0, [1e-10])
    with pytest.raises(ValueError):
        burn_column_report(1e17, [1e-10, math.inf])
    with pytest.raises(ValueError):
        burn_column_report(1e17, [-1e-10])
    report = burn_column_report(1e17, [0.0, 1e-10])
    assert report.F_raw.shape == (2,)


# The bytes of single-trajectory reports, hashed over seeded 4- to
# 12-segment trajectories: all-coast ones, single-burn ones (which go
# through f_sums) and mixed ones, k' = 2..5, both clocks, r = 1/2 and
# ln 2.  The digest changes only when a report's bits do; a change that
# means to move them re-records it here with the reason.
REPORT_DIGEST = (
    "26d67b7fcd1de50d652b7d84d7351725bb39ceff09f3af12664a88aba5429596")
REPORT_THRUSTS = tuple(np.linspace(1e16, 2.9e17, 8))


def digest_trajectories(count=300):
    rng = np.random.default_rng(2023)
    period = DEFAULT_GEOMETRY.fundamental_period
    for i in range(count):
        n = int(rng.integers(4, 13))
        if i % 10 == 0:             # all coasts
            burns = ()
        elif i % 10 == 5:           # a single burn, through f_sums
            burns = (int(rng.integers(n)),)
        else:
            burns = np.flatnonzero(rng.random(n) < 0.5).tolist()
        segs = tuple(
            Accelerated(REPORT_THRUSTS[rng.integers(8)],
                        float(rng.uniform(0.0, 3.0 * period)))
            if j in burns else Inertial(float(rng.uniform(0.0, 3.0 * period)))
            for j in range(n))
        yield (ProtocolParams(r=(0.5, math.log(2.0))[i % 2],
                              kp=2 + i % 4),
               Trajectory(segs, DEFAULT_GEOMETRY),
               ("lab", "comoving")[i // 2 % 2])


def test_single_report_bytes_are_pinned():
    digest = hashlib.sha256()
    for params, traj, clock in digest_trajectories():
        rep = consistency_report(params, traj, clock)
        digest.update(struct.pack("<11d", *vars(rep).values()))
    assert digest.hexdigest() == REPORT_DIGEST


# The bytes of single-trajectory reports on the path a multi-segment
# trajectory takes: 200 seeded 4- to 12-segment trajectories of coasts
# and burns, at n_max 10 and 20, k' = 2..5, on both clocks.  Burns draw
# from 8 seeded thrusts, six inside the perturbative regime and two past
# it (h = 0.80 and 0.91, where the truncation clamps most states and a
# single burn warns); drawn with full mantissas, four of them change h's
# last bit if a L / c^2 is reassociated, which round thrusts hide.  About
# one trajectory in eleven has a coast too long for its phase and
# raises.  Each report enters as the float.hex of its fields, each error
# and warning as its type and message.  Like REPORT_DIGEST, the digest
# changes only when a report's bits or an outcome do.
MULTI_SEGMENT_DIGEST = (
    "667f3b76d683bd080dde9ae070da2f86bdc28f8139520ea923c6574540b3dfdb")


def multi_segment_cases(count=200):
    rng = np.random.default_rng(31)
    thrusts = (rng.uniform(1e16, 2.9e17, 6).tolist()
               + rng.uniform(9e17, 2e18, 2).tolist())
    for i in range(count):
        geom = CavityGeometry(DEFAULT_GEOMETRY.L, DEFAULT_GEOMETRY.c,
                              (10, 20)[i % 2])
        period = geom.fundamental_period
        segs = []
        for _ in range(int(rng.integers(4, 13))):
            t = float(rng.uniform(0.0, 3.0 * period))
            if rng.random() < 0.5:
                segs.append(Accelerated(thrusts[rng.integers(8)], t))
            else:
                segs.append(Inertial(t if rng.random() > 0.02 else 0.1))
        yield (ProtocolParams(kp=2 + i // 2 % 4, geometry=geom),
               Trajectory(tuple(segs), geom), ("lab", "comoving")[i // 8 % 2])


def test_multi_segment_report_bytes_are_pinned():
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for params, traj, clock in multi_segment_cases():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rep = consistency_report(params, traj, clock)
            except Exception as exc:
                line = f"{type(exc).__name__}: {exc}"
                outcomes["error"] += 1
            else:
                line = " ".join(value.hex() for value in vars(rep).values())
                outcomes["clamped" if rep.clamp else "inside"] += 1
        for w in caught:
            line += f"; {w.category.__name__}: {w.message}"
            outcomes["warning"] += 1
        digest.update(line.encode() + b"\n")
    # every outcome is represented
    assert min(outcomes[key] for key in
               ("inside", "clamped", "error", "warning")) > 0
    assert digest.hexdigest() == MULTI_SEGMENT_DIGEST
