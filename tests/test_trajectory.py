"""Segment schedules, proper-time bookkeeping, phase accumulation."""

import math

import numpy as np
import pytest

from cavtel.bogoliubov import CavityGeometry
from cavtel.errors import TrajectoryParseError
from cavtel.protocol import ProtocolParams, consistency_report
from cavtel.trajectory import (
    PHASE_ULP_LIMIT,
    Accelerated,
    Inertial,
    Trajectory,
    h_parameter,
    ledger,
    parse_trajectory,
    phase_pair,
    rob_row,
)

GEOM = CavityGeometry(0.012, 1.2e8, 10)


# ---------------------------------------------------------------------------
# segment and schedule construction

def test_segment_validation():
    with pytest.raises(ValueError):
        Inertial(-1.0)
    with pytest.raises(ValueError):
        Accelerated(0.0, 1e-9)
    with pytest.raises(ValueError):
        Accelerated(-2e17, 1e-9)
    with pytest.raises(ValueError):
        Accelerated(2e17, -1e-9)
    with pytest.raises(ValueError):
        Accelerated(math.inf, 1e-9)
    with pytest.raises(ValueError):
        Inertial(math.inf)
    with pytest.raises(ValueError):
        Accelerated(2e17, math.inf)
    # an array of durations: every entry finite and >= 0, one axis
    for taus in ([1e-10, -1e-10], [1e-10, math.inf], [math.nan, 1e-10],
                 [[1e-10, 2e-10]], []):
        with pytest.raises(ValueError):
            Accelerated(2e17, taus)
    with pytest.raises(ValueError):
        Accelerated(0.0, [1e-10])


def test_trajectory_counts_accelerated_segments():
    traj = Trajectory((Inertial(1e-10), Accelerated(1e17, 1e-10),
                       Inertial(0.0), Accelerated(1e17, 2e-10)), GEOM)
    assert traj.burns == (Accelerated(1e17, 1e-10), Accelerated(1e17, 2e-10))
    single = Trajectory((Inertial(1e-10), Accelerated(1e17, 1e-10)), GEOM)
    assert single.burns == (Accelerated(1e17, 1e-10),)
    assert Trajectory((Inertial(0.0),), GEOM).burns == ()


def test_segments_compare_and_hash_by_value():
    column = Accelerated(1e17, [1e-10, 2e-10])
    same = Accelerated(1e17, np.array([1e-10, 2e-10]))
    assert column == same and hash(column) == hash(same)
    assert column != Accelerated(1e17, [1e-10, 3e-10])
    assert column != Accelerated(2e17, [1e-10, 2e-10])
    # a one-point column is not the single trajectory it holds
    assert Accelerated(1e17, [1e-10]) != Accelerated(1e17, 1e-10)
    assert Accelerated(1e17, 1e-10) == Accelerated(1e17, 1e-10)
    assert hash(Accelerated(1e17, 1e-10)) == hash(Accelerated(1e17, 1e-10))
    assert column != Inertial(1e-10)
    trajs = {Trajectory((Inertial(1e-10), column), GEOM),
             Trajectory((Inertial(1e-10), same), GEOM)}
    assert len(trajs) == 1


def test_zero_d_arrays_are_stored_as_floats():
    a, tau, coast = np.array(2e17), np.array(3e-10), np.array(1e-10)
    burn, rest = Accelerated(a, tau), Inertial(coast)
    traj = Trajectory((rest, burn), GEOM)
    assert hash(traj) == hash(Trajectory((Inertial(1e-10),
                                          Accelerated(2e17, 3e-10)), GEOM))
    # a later write to the caller's arrays leaves the segments as built
    a[()], tau[()], coast[()] = 1e17, 5e-10, 2e-10
    assert burn == Accelerated(2e17, 3e-10) and rest == Inertial(1e-10)
    assert ledger(traj).tau_rob == 1e-10 + 3e-10
    with pytest.raises(ValueError, match="inertial duration must be"):
        Inertial(np.array([1e-10, 2e-10]))


@pytest.mark.parametrize("build,field", [
    (lambda: Inertial([1e-10]), "inertial duration"),
    (lambda: Inertial("1e-10"), "inertial duration"),
    (lambda: Inertial(None), "inertial duration"),
    (lambda: Inertial(True), "inertial duration"),
    (lambda: Inertial(np.array("1e-10")), "inertial duration"),
    (lambda: Accelerated("1e17", 1e-10), "acceleration"),
    (lambda: Accelerated(1e17, "1e-10"), "proper duration tau"),
    (lambda: Accelerated(1e17, None), "proper duration tau"),
    (lambda: Accelerated(1e17, ["1e-10", "2e-10"]), "proper duration tau"),
])
def test_segment_rejects_non_numbers_by_name(build, field):
    # a comparison with the bound would raise a bare TypeError instead
    with pytest.raises(ValueError, match=f"^{field} must "):
        build()


# every frozen value stores a real as a Python float: an int or a numpy
# scalar used to be kept as it was, so 10**400 built a value that failed
# later with an OverflowError (or raised one from math.isfinite)
FROZEN_REALS = [
    ("inertial duration", Inertial, lambda seg: seg.duration),
    ("acceleration", lambda v: Accelerated(v, 1e-10), lambda seg: seg.a),
    ("proper duration tau", lambda v: Accelerated(1e17, v),
     lambda seg: seg.tau),
    ("cavity length L", lambda v: CavityGeometry(v, 1.2e8),
     lambda geom: geom.L),
    ("speed of light c", lambda v: CavityGeometry(0.012, v),
     lambda geom: geom.c),
    ("squeezing r", lambda v: ProtocolParams(r=v), lambda params: params.r),
]


@pytest.mark.parametrize("field,build,read", FROZEN_REALS)
def test_frozen_values_store_reals_as_floats(field, build, read):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build(10 ** 400)
    for value in (3, np.float64(2e-10)):
        built = build(value)
        assert type(read(built)) is float and read(built) == float(value)
        assert built == build(float(value))
        assert hash(built) == hash(build(float(value)))


def test_trajectory_rejects_non_segments():
    with pytest.raises(TypeError):
        Trajectory(("coast",), GEOM)


def test_column_burns_zip_row_by_row():
    # row i takes the i-th duration of each array burn; two burns leave
    # the perturbative fields NaN, so rows compare by repr
    params = ProtocolParams(geometry=GEOM)

    def build(first, second):
        return Trajectory((Accelerated(1e17, first), Inertial(1e-10),
                           Accelerated(2e17, second)), GEOM)

    firsts, seconds = [1e-10, 2.5e-10], [3e-10, 0.7e-10]
    column = consistency_report(params, build(firsts, seconds))
    for i, (first, second) in enumerate(zip(firsts, seconds)):
        assert repr(consistency_report(params, build(first, second))) \
            == repr(column.row(i))
    with pytest.raises(ValueError, match="got lengths 3 and 4"):
        build([1e-10] * 3, [2e-10] * 4)


# ---------------------------------------------------------------------------
# parsing

def test_parse_basic_schedule():
    text = """
    # warm-up coast
    inertial 1.5e-10

    accel 2.94e17 1e-9  # burn
    inertial 0
    """
    segs = parse_trajectory(text)
    assert segs == [Inertial(1.5e-10), Accelerated(2.94e17, 1e-9),
                    Inertial(0.0)]


def test_parse_empty_input_is_rest():
    assert parse_trajectory("# nothing\n\n") == [Inertial(0.0)]


@pytest.mark.parametrize("line,text", [
    (1, "inertial"),
    (1, "inertial 1e-10 7"),
    (2, "inertial 1e-10\naccel 2e17"),
    (3, "inertial 0\n# fine\nwarp 9"),
    (1, "accel 2e17 bad"),
    (2, "inertial 1e-10\naccel -2e17 1e-9"),
])
def test_parse_errors_carry_line_numbers(line, text):
    with pytest.raises(TrajectoryParseError) as err:
        parse_trajectory(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


# ---------------------------------------------------------------------------
# proper-time ledger

def test_ledger_inertial_clocks_agree():
    traj = Trajectory((Inertial(2e-10), Inertial(1e-10)), GEOM)
    led = ledger(traj)
    assert led.t_alice == pytest.approx(3e-10, rel=1e-15)
    assert led.tau_rob == pytest.approx(3e-10, rel=1e-15)


def test_ledger_small_acceleration_limit():
    # (c/a) sinh(a tau / c) -> tau
    traj = Trajectory((Accelerated(1e3, 1e-10),), GEOM)
    led = ledger(traj)
    assert led.t_alice == pytest.approx(1e-10, rel=1e-12)


def test_ledger_time_dilation_example():
    traj = Trajectory((Accelerated(2.94e17, 1e-9),), GEOM)
    led = ledger(traj)
    c, a, tau = 1.2e8, 2.94e17, 1e-9
    want = (c / a) * math.sinh(a * tau / c)
    assert led.t_alice == pytest.approx(want, rel=1e-15)
    assert led.t_alice == pytest.approx(2.3474e-9, rel=1e-4)
    assert led.tau_rob == tau


def test_ledger_lab_clock_never_behind():
    traj = Trajectory((Inertial(1e-10), Accelerated(2e17, 5e-10),
                       Accelerated(1e17, 2e-10)), GEOM)
    led = ledger(traj)
    assert led.t_alice >= led.tau_rob


def test_ledger_split_additivity():
    whole = Trajectory((Accelerated(2e17, 6e-10),), GEOM)
    split = Trajectory((Accelerated(2e17, 2e-10),
                        Accelerated(2e17, 4e-10)), GEOM)
    lw, ls = ledger(whole), ledger(split)
    assert ls.tau_rob == pytest.approx(lw.tau_rob, rel=1e-12)
    # sinh is convex, so splitting a burn at rest restarts the clock and
    # loses lab time
    assert ls.t_alice < lw.t_alice


def test_ledger_comoving_clock():
    traj = Trajectory((Inertial(1e-10), Accelerated(2.94e17, 1e-9)), GEOM)
    led = ledger(traj, alice_clock="comoving")
    assert led.t_alice == pytest.approx(1.1e-9, rel=1e-15)
    assert led.t_alice == led.tau_rob
    with pytest.raises(ValueError):
        ledger(traj, alice_clock="sidereal")


@pytest.mark.parametrize("tau,problem", [
    (1e-3, "its time on Alice's lab clock is not finite"),
    (8.5e-7, "the mode phases after it are not finite on the lab clock"),
])
def test_long_burn_on_lab_clock_names_its_column_row(tau, problem):
    traj = Trajectory((Inertial(1e-10), Accelerated(1e17, [1e-10, tau])),
                      GEOM)
    with pytest.raises(ValueError) as exc:
        phase_pair(traj, 1, 3)
    assert str(exc.value).startswith(
        f"row 1: the burn of a = 1e+17 m/s^2 for tau = {tau!r} s: {problem}")
    comoving = phase_pair(traj, 1, 3, alice_clock="comoving")
    assert np.isfinite(comoving.phi).all()
    assert ledger(traj, alice_clock="comoving").t_alice[1] == 1e-10 + tau


def test_endless_coast_phases_name_the_coast():
    traj = Trajectory((Accelerated(1e17, 1e-10), Inertial(1e300)), GEOM)
    with pytest.raises(ValueError, match=r"^the coast of 1e\+300 s: the "
                                         "mode phases after it are not "
                                         "finite on the comoving clock"):
        phase_pair(traj, 1, 3, alice_clock="comoving")


def test_phase_past_the_ulp_limit_names_its_column_row():
    # row 1's 0.1 s burn gives phi = 1.26e10 rad, whose ulp is 1.9e-6 rad
    traj = Trajectory((Inertial(1e-10), Accelerated(1e17, [1e-10, 0.1])),
                      GEOM)
    with pytest.raises(ValueError) as exc:
        phase_pair(traj, 1, 3, alice_clock="comoving")
    assert str(exc.value).startswith(
        "row 1: the burn of a = 1e+17 m/s^2 for tau = 0.1 s: the joint "
        "phase after it, 12566370626.925543 rad")
    assert f"ulp above {PHASE_ULP_LIMIT!r} rad on the comoving clock" \
        in str(exc.value)


def test_phase_past_the_ulp_limit_after_a_coast_names_its_column_row():
    # the coast after row 1's 0.05 s burn takes phi past 2**33 rad
    traj = Trajectory((Accelerated(1e17, [1e-10, 0.05]), Inertial(0.03)),
                      GEOM)
    with pytest.raises(ValueError) as exc:
        phase_pair(traj, 1, 3, alice_clock="comoving")
    assert str(exc.value).startswith(
        "row 1: the coast of 0.03 s: the joint phase after it, "
        "10053096491.487337 rad")


# ---------------------------------------------------------------------------
# phases

def test_phase_pair_inertial():
    duration = 0.7e-10
    traj = Trajectory((Inertial(duration),), GEOM)
    phases = phase_pair(traj, 1, 3)
    assert phases.theta_alice == pytest.approx(GEOM.omega(1) * duration)
    assert phases.theta_rob == pytest.approx(GEOM.omega(3) * duration)
    assert phases.phi == pytest.approx(phases.theta_alice
                                       + phases.theta_rob)
    wrapped = phases.phi % (2 * math.pi)
    assert 0.0 <= wrapped < 2 * math.pi
    assert wrapped == pytest.approx(phases.phi - 2 * math.pi * math.floor(
        phases.phi / (2 * math.pi)))


def test_phase_pair_comoving_clock():
    traj = Trajectory((Accelerated(2.94e17, 1e-9),), GEOM)
    lab = phase_pair(traj, 1, 3)
    com = phase_pair(traj, 1, 3, alice_clock="comoving")
    assert com.theta_alice == pytest.approx(GEOM.omega(1) * 1e-9)
    assert lab.theta_alice > com.theta_alice
    assert lab.theta_rob == com.theta_rob


def test_inertial_duration_for_phase():
    # three full turns of the joint phase take 2 pi 3 / (omega_1 + omega_3)
    t = 2.0 * math.pi * 3 / (GEOM.omega(1) + GEOM.omega(3))
    phases = phase_pair(Trajectory((Inertial(t),), GEOM), 1, 3)
    assert phases.phi == pytest.approx(6 * math.pi, rel=1e-12)
    assert phases.phi % (2 * math.pi) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# h parameter

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_h_parameter_exact_benchmark():
    assert h_parameter(4e17, 0.012, 1.2e8) == 1.0 / 3.0


def test_h_parameter_linear_in_a():
    assert h_parameter(2e16, 0.012, 1.2e8) == pytest.approx(
        2 * h_parameter(1e16, 0.012, 1.2e8), rel=1e-15)


def test_h_parameter_regime_warning():
    with pytest.warns(RuntimeWarning):
        h_parameter(4e17, 0.012, 1.2e8)


def test_h_parameter_quiet_in_regime():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h_parameter(1e17, 0.012, 1.2e8)


# ---------------------------------------------------------------------------
# transforms

def pairing(rows):
    """|beta| of each mode of Rob's row from its two symplectic rows: a
    mode's 2 x 2 block is a scaled rotation [[c, s], [-s, c]] exactly
    when its beta is 0 (u = a + b^* and v = a - b^* agree)."""
    x, p = rows[..., 0, :], rows[..., 1, :]
    return np.hypot(x[..., 0::2] - p[..., 1::2],
                    x[..., 1::2] + p[..., 0::2]) / 2


def test_inertial_transform_is_pure_phase():
    traj = Trajectory((Inertial(0.9e-10), Inertial(0.4e-10)), GEOM)
    for kp in range(1, GEOM.n_max + 1):
        rows, defect = rob_row(traj, kp)
        assert rows.shape == (1, 2, 2 * GEOM.n_max)
        assert not pairing(rows).any()
        j = 2 * (kp - 1)
        assert not np.delete(rows, [j, j + 1], axis=-1).any()
        assert abs(np.linalg.det(rows[0, :, j:j + 2]) - 1.0) <= 1e-15
        assert defect.tolist() == [0.0]


def test_inertial_transforms_compose_durations():
    split = rob_row(
        Trajectory((Inertial(0.9e-10), Inertial(0.4e-10)), GEOM), 3)[0]
    whole = rob_row(Trajectory((Inertial(1.3e-10),), GEOM), 3)[0]
    assert np.allclose(split, whole, atol=1e-12)


def test_accelerated_transform_has_pairing():
    traj = Trajectory((Accelerated(2e17, 3e-10),), GEOM)
    rows, defect = rob_row(traj, 3)
    assert pairing(rows).max() > 1e-4
    assert 0.0 < defect[0] < 1e-4


def test_transform_matches_segment_engine():
    from bogoliubov_reference import (
        compose,
        phase_evolution_minkowski,
        segment_transform,
        to_symplectic,
    )
    # 1.37e-10 s is not a whole number of L / c, so the coast's phases
    # are not all +-1 and D and D^* differ
    traj = Trajectory((Inertial(1.37e-10), Accelerated(2e17, 3e-10)), GEOM)
    h = h_parameter(2e17, GEOM.L, GEOM.c)
    want = to_symplectic(compose(segment_transform(3e-10, h, GEOM),
                                 phase_evolution_minkowski(1.37e-10, GEOM)))
    for kp in range(1, GEOM.n_max // 2 + 1):
        j = 2 * (kp - 1)
        got = rob_row(traj, kp)[0]
        assert np.max(np.abs(got[0] - want[j:j + 2])) <= 1e-14


@pytest.mark.parametrize("n_max", [4, 10, 40, 64])
@pytest.mark.parametrize("count", [1, 3, 100, 1024])
def test_row_step_keeps_single_row_bits(count, n_max):
    # a column's row step is one GEMM per matrix over all its rows; each
    # row must come out with the bits of its own (2, n) x (n, n) products
    # (rows i and 2 count - 1 - i are trajectory i's a and b^*, as in
    # rob_row's stack)
    from cavtel.trajectory import _rows_then
    rng = np.random.default_rng(count * 100 + n_max)
    rows, ab = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in ((2 * count, n_max), (2, n_max, n_max)))
    got = _rows_then(rows, ab)
    assert got.shape == rows.shape
    for i in range(count):
        pair = rows[[i, -1 - i]]
        p, q = pair @ ab[0], pair @ ab[1]
        want = np.stack((p[0] + q[1].conj(), p[1] + q[0].conj()))
        assert got[[i, -1 - i]].tobytes() == want.tobytes()


def test_row_chain_forms_only_row_products(monkeypatch):
    from cavtel import trajectory
    two = (Accelerated(2e17, 3e-10), Inertial(1e-10),
           Accelerated(1e17, 2e-10), Inertial(2e-10))
    column = (Accelerated(2e17, np.array([1e-10, 2e-10, 3e-10])),
              Inertial(1e-10), Accelerated(1e17, 2e-10))
    rob_row(Trajectory(column, GEOM), 3)    # warm the switch cache
    steps = []
    real = trajectory._rows_then

    def counted(rows, pair):
        steps.append(rows.shape)
        return real(rows, pair)

    monkeypatch.setattr(trajectory, "_rows_then", counted)
    rows, defect = rob_row(Trajectory(two, GEOM), 3)
    # the last burn starts from its inverse's row kp, with no product;
    # each earlier burn joins through its inverse and its switch
    assert steps == [(2, GEOM.n_max)] * 3
    assert rows.shape == (1, 2, 2 * GEOM.n_max)
    assert defect.shape == (1,)
    steps.clear()
    rows, defect = rob_row(Trajectory(column, GEOM), 3)
    # a column's rows are a stack of single rows from its array burn on
    assert steps == [(2, GEOM.n_max)] * 2 + [(6, GEOM.n_max)]
    assert rows.shape == (3, 2, 2 * GEOM.n_max)
    assert defect.shape == (3,)
