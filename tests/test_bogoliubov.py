"""Mode overlap engine: quadrature, geometry, oracle, perturbative layer.

The oracle itself is cross-checked against scipy.integrate.quad, which
shares no code with the production integrator.
"""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import block_diag

from cavtel import bogoliubov, quadrature
from cavtel.bogoliubov import (
    ORACLE_TOL,
    BogoliubovPair,
    CavityGeometry,
    RindlerGeometry,
    _switch_overlaps,
    f_sums,
    first_order_mixing,
    first_order_pairing,
    identity_residuals,
    sudden_switch_oracle,
    sudden_switch_perturbative,
    to_symplectic,
)
from cavtel.errors import QuadratureError, TruncationError
from cavtel.gaussian import rotation, symplectic_form
from cavtel.quadrature import integrate_stack
from cavtel.trajectory import Inertial, Trajectory, rob_row

from bogoliubov_reference import (
    compose,
    elementwise_switch_overlaps,
    first_order_ladder,
    identity_pair,
    identity_residuals_reference,
    inverse,
    mirrored_switch,
    one_segment_first_order,
    oracle_pair_reference,
    phase_evolution_minkowski,
    phase_evolution_rindler,
    richardson_limit,
    segment_transform,
    switch_first_order_ladder,
    switch_overlaps_reference,
)

GEOM = CavityGeometry(0.012, 1.2e8, 10)


# ---------------------------------------------------------------------------
# quadrature engine

def test_integrate_stack_matches_scipy():
    def evaluate(x):
        return (np.stack([np.sin(3 * x) * x ** 2,
                          np.cos(x) * np.exp(-x),
                          1.0 / (1.0 + x ** 2)]),
                np.ones((1, x.size)))

    vals, residual, _ = integrate_stack(evaluate, 0.2, 4.7, tol=1e-12)
    funcs = [lambda x: math.sin(3 * x) * x ** 2,
             lambda x: math.cos(x) * math.exp(-x),
             lambda x: 1.0 / (1.0 + x ** 2)]
    assert vals.shape == (3, 1)
    for got, f in zip(vals[:, 0], funcs):
        want, _ = quad(f, 0.2, 4.7, epsabs=1e-12, epsrel=1e-12)
        assert got == pytest.approx(want, abs=1e-11)
    assert residual < 1e-12


def test_integrate_stack_budget_exhaustion(monkeypatch):
    def evaluate(x):
        return np.sin(3000.0 * x)[None, :], np.ones((1, x.size))

    monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
    with pytest.raises(QuadratureError):
        integrate_stack(evaluate, 0.0, 1.0, tol=1e-14, base_panels=2)


def test_integrate_stack_bilinear_matches_explicit_product():
    rng = np.random.default_rng(20240611)
    coef_left = rng.normal(size=(2, 3, 4))
    coef_right = rng.normal(size=(5, 4))
    freqs = np.arange(1.0, 5.0)

    def factors(x):
        return (coef_left @ np.cos(np.outer(freqs, x)),
                coef_right @ np.sin(np.outer(freqs, x)))

    def explicit(x):
        left, right = factors(x)
        prod = left[:, :, None, :] * right[None, None, :, :]
        return prod.reshape(-1, x.size), np.ones((1, x.size))

    got, _, panels = integrate_stack(factors, 0.0, 2.0, tol=1e-12)
    want, _, want_panels = integrate_stack(explicit, 0.0, 2.0, tol=1e-12)
    assert panels == want_panels
    assert got.shape == (2, 3, 5)
    assert np.max(np.abs(got - want.reshape(2, 3, 5))) <= 1e-13


def test_richardson_limit_geometric_series():
    limit = 0.837
    seq = [limit + 0.3 * 4.0 ** (-k) + 0.05 * 16.0 ** (-k)
           for k in range(5)]
    got, err = richardson_limit(seq)
    assert float(got) == pytest.approx(limit, abs=1e-12)
    assert err < 1e-9


def test_richardson_limit_array_valued():
    limit = np.array([1.0, -2.0])
    seq = [limit + np.array([0.2, 0.7]) * 4.0 ** (-k) for k in range(4)]
    got, err = richardson_limit(seq)
    assert np.allclose(got, limit, atol=1e-12)


# ---------------------------------------------------------------------------
# geometry

def test_cavity_geometry_validation():
    with pytest.raises(ValueError):
        CavityGeometry(0.0, 1.2e8)
    with pytest.raises(ValueError):
        CavityGeometry(0.012, -1.0)
    with pytest.raises(ValueError):
        CavityGeometry(math.inf, 1.2e8)
    with pytest.raises(ValueError):
        CavityGeometry(0.012, math.nan)
    with pytest.raises(ValueError):
        CavityGeometry(0.012, 1.2e8, n_max=1)
    with pytest.raises(ValueError):
        CavityGeometry(0.012, 1.2e8, n_max=100)


# a float n_max used to pass construction and fail later in arange or a
# slice; a bool is an int no caller means as a truncation
@pytest.mark.parametrize("n_max", [10.0, 10.5, True, "10", None])
def test_cavity_geometry_rejects_non_integer_n_max(n_max):
    with pytest.raises(ValueError, match="n_max must be an integer"):
        CavityGeometry(0.012, 1.2e8, n_max=n_max)


# each of these used to build a geometry; a 1-element array then failed
# in a later report, and a 0-d array made the geometry unhashable
@pytest.mark.parametrize("value", [True, "1", [1.0], np.array([1.0])])
@pytest.mark.parametrize("field,name", [("L", "cavity length L"),
                                        ("c", "speed of light c")])
def test_cavity_geometry_rejects_non_real_numbers(field, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        CavityGeometry(**{"L": 0.012, "c": 1.2e8, field: value})


def test_cavity_geometry_stores_0d_arrays_as_floats():
    geom = CavityGeometry(np.array(0.012), np.array(1.2e8))
    assert type(geom.L) is float and type(geom.c) is float
    assert geom == GEOM and hash(geom) == hash(GEOM)


def test_cavity_geometry_accepts_numpy_integer_n_max():
    assert CavityGeometry(0.012, 1.2e8, n_max=np.int64(12)).n_max == 12


def test_cavity_geometry_scales():
    assert GEOM.omega(1) == pytest.approx(math.pi * 1.2e8 / 0.012)
    assert GEOM.omega(3) == pytest.approx(3 * GEOM.omega(1))
    assert GEOM.fundamental_period == pytest.approx(2e-10)


@pytest.mark.parametrize("h", [0.0, 2.0, -0.3, 2.5])
def test_rindler_parameter_range(h):
    with pytest.raises(ValueError):
        RindlerGeometry(h)


def test_rindler_chart_fields():
    rind = RindlerGeometry(0.5)
    lo, hi = chart_walls(rind)
    assert rind.log_width == pytest.approx(math.log(hi / lo))
    assert rind.log_width == pytest.approx(math.log(2.5 / 1.5))


def test_rindler_center_clock_frequency_limit():
    # h * Omega_n -> n pi with relative deviation h^2 / 12
    for h in (0.2, 0.1, 0.05):
        rind = RindlerGeometry(h)
        rel = h * rind.omega_mode(4) / (4 * math.pi) - 1.0
        assert rel == pytest.approx(-h * h / 12.0, rel=0.01)


def test_regime_warning():
    # the chart is exact on (0, 2); only h_parameter flags the regime, so
    # a report warns once and the numeric pipelines not at all
    import warnings
    from cavtel.protocol import (
        ProtocolParams,
        consistency_report,
        fidelity_corrected,
        fidelity_optimal,
        fidelity_raw,
    )
    from cavtel.trajectory import (
        Accelerated,
        Trajectory,
        h_parameter,
        rob_row,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        RindlerGeometry(0.3)
    a = 0.3 * GEOM.c ** 2 / GEOM.L
    with pytest.warns(RuntimeWarning):
        h_parameter(a, GEOM.L, GEOM.c)
    params = ProtocolParams(geometry=GEOM)
    traj = Trajectory((Accelerated(a, 3e-10),), GEOM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rob_row(traj, params.kp)
        for pipeline in (fidelity_raw, fidelity_corrected, fidelity_optimal):
            pipeline(params, traj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        consistency_report(params, traj)
    assert [w.category for w in caught] == [RuntimeWarning]


# ---------------------------------------------------------------------------
# mode functions and Klein-Gordon inner products via scipy

def chart_walls(rindler):
    """The cavity's walls (chi_left, chi_right) = 1/h -+ 1/2 in the raw
    Rindler coordinate, whose center 1/h has proper acceleration h.  The
    scipy references integrate in it; the library integrates in the wall
    offset chi - chi_left instead, which keeps its precision at small h."""
    return 1.0 / rindler.h - 0.5, 1.0 / rindler.h + 0.5


def mode_function_inertial(n, xi):
    """Inertial cavity mode n at fractional position xi in [0, 1].

    Returns (value, time derivative) on the t = 0 slice for the
    positive-frequency mode with time dependence exp(-i omega_n t),
    normalized to unit Klein-Gordon norm.
    """
    if n < 1:
        raise ValueError("mode number must be >= 1")
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < -1e-12) or np.any(xi > 1.0 + 1e-12):
        raise ValueError("position outside the cavity")
    val = np.sin(n * np.pi * xi) / math.sqrt(n * math.pi)
    return val, -1j * (n * np.pi) * val


def mode_function_rindler(n, chi, rindler):
    """Accelerated cavity mode n at Rindler position chi.

    Returns (value, t-derivative on the shared slice); the conformal
    profile is sin(n pi ln(chi / chi_L) / D) with the same normalization
    constant as the inertial family.
    """
    if n < 1:
        raise ValueError("mode number must be >= 1")
    chi = np.asarray(chi, dtype=float)
    lo, hi = chart_walls(rindler)
    if np.any(chi < lo * (1 - 1e-12)) or np.any(chi > hi * (1 + 1e-12)):
        raise ValueError("position outside the accelerated cavity")
    z = np.log1p((chi - lo) / lo) / rindler.log_width
    val = np.sin(n * np.pi * z) / math.sqrt(n * math.pi)
    return val, -1j * (rindler.omega_mode(n) / chi) * val


def kg_inertial(m, n):
    def integrand(x):
        vm, dm = mode_function_inertial(m, x)
        vn, dn = mode_function_inertial(n, x)
        return (1j * (np.conj(vm) * dn - vn * np.conj(dm))).real

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    return val


def kg_rindler(m, n, rind):
    def integrand(x):
        vm, dm = mode_function_rindler(m, x, rind)
        vn, dn = mode_function_rindler(n, x, rind)
        return (1j * (np.conj(vm) * dn - vn * np.conj(dm))).real

    val, _ = quad(integrand, *chart_walls(rind),
                  epsabs=1e-12, epsrel=1e-12)
    return val


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (5, 5), (1, 2), (3, 5)])
def test_inertial_modes_orthonormal(m, n):
    assert kg_inertial(m, n) == pytest.approx(float(m == n), abs=1e-9)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (4, 4), (1, 3), (2, 5)])
def test_rindler_modes_orthonormal(m, n):
    rind = RindlerGeometry(0.4)
    assert kg_rindler(m, n, rind) == pytest.approx(float(m == n), abs=1e-9)


def test_mode_functions_vanish_at_walls():
    for n in (1, 2, 7):
        for xi in (0.0, 1.0):
            val, _ = mode_function_inertial(n, xi)
            assert abs(val) < 1e-12
    rind = RindlerGeometry(0.3)
    for chi in chart_walls(rind):
        val, _ = mode_function_rindler(2, chi, rind)
        assert abs(val) < 1e-12


def test_mode_functions_reject_outside():
    with pytest.raises(ValueError):
        mode_function_inertial(1, 1.5)
    with pytest.raises(ValueError):
        mode_function_rindler(1, 0.1, RindlerGeometry(0.3))
    with pytest.raises(ValueError):
        mode_function_inertial(0, 0.5)


# ---------------------------------------------------------------------------
# sudden switch oracle vs independent integrator

def overlap_entry(m, n, h, counter=False):
    """(m, n) switch overlap via scipy.quad; shares no quadrature code
    with the production path."""
    rind = RindlerGeometry(h)
    lo, hi = chart_walls(rind)
    sign = -1.0 if counter else 1.0

    def integrand(x):
        un, _ = mode_function_inertial(n, x - lo)
        fm, _ = mode_function_rindler(m, x, rind)
        return fm * un * (GEOM.omega(n) * 0.012 / 1.2e8
                          + sign * rind.omega_mode(m) / x)

    val, _ = quad(integrand, lo, hi,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (3, 2), (5, 4),
                                 (4, 7), (10, 9)])
def test_oracle_alpha_matches_scipy(m, n):
    pair = sudden_switch_oracle(0.3, GEOM)
    want = overlap_entry(m, n, 0.3)
    assert pair.alpha[m - 1, n - 1].real == pytest.approx(want, abs=1e-8)
    assert pair.alpha[m - 1, n - 1].imag == 0.0


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (3, 2), (5, 4)])
def test_oracle_beta_matches_scipy(m, n):
    pair = sudden_switch_oracle(0.3, GEOM)
    want = -overlap_entry(m, n, 0.3, counter=True)
    assert pair.beta[m - 1, n - 1].real == pytest.approx(want, abs=1e-8)


def test_oracle_left_wedge_matches_scipy():
    # mirrored chart integrated independently: rho measured from the
    # far wall, mode sign (-1)^(m+1), horizon on the other side
    h, m, n = 0.3, 2, 3
    rind = RindlerGeometry(h)
    a, b = chart_walls(rind)

    def integrand(x):
        rho = (a + b) - x
        z = math.log(rho / a) / rind.log_width
        fm = -math.sin(m * math.pi * z) / math.sqrt(m * math.pi)
        un = math.sin(n * math.pi * (x - a)) / math.sqrt(n * math.pi)
        return fm * un * (n * math.pi + rind.omega_mode(m) / rho)

    want, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    pair = mirrored_switch(-h, GEOM.n_max)
    assert pair.alpha[m - 1, n - 1].real == pytest.approx(want, abs=1e-8)


GEOM40 = CavityGeometry(0.012, 1.2e8, 40)


@pytest.mark.parametrize("h", [0.3, 1.5])
@pytest.mark.parametrize("m,n", [(1, 1), (20, 21), (39, 40), (40, 40),
                                 (33, 8)])
def test_oracle_matches_scipy_at_nmax_40(h, m, n):
    pair = sudden_switch_oracle(h, GEOM40)
    want_alpha = overlap_entry(m, n, h)
    want_beta = -overlap_entry(m, n, h, counter=True)
    assert pair.alpha[m - 1, n - 1].real == pytest.approx(want_alpha,
                                                          abs=1e-8)
    assert pair.beta[m - 1, n - 1].real == pytest.approx(want_beta,
                                                         abs=1e-8)


@pytest.mark.parametrize("n_max", [10, 20, 40, 64])
def test_switch_overlaps_match_elementwise_reference(n_max, monkeypatch):
    for h in (0.003125, 0.245, 1.5, 1.99):
        co, counter, _, _ = _switch_overlaps(h, n_max)
        with monkeypatch.context() as patch:
            # small node chunks bound the reference stack's memory
            patch.setattr(quadrature, "_NODE_CHUNK", 256)
            ref_co, ref_counter = elementwise_switch_overlaps(
                h, n_max, ORACLE_TOL)
        assert np.max(np.abs(co - ref_co)) <= 1e-13
        assert np.max(np.abs(counter - ref_counter)) <= 1e-13


def test_switch_rates_are_the_chart_rates():
    # the cached rates come from the overlaps' own wedge frequencies;
    # they must be the chart's omega_mode bit for bit
    rng = np.random.default_rng(17)
    for _ in range(6):
        h = float(10.0 ** rng.uniform(-8.0, math.log10(1.5)))
        n_max = int(rng.integers(2, 17))
        rates = bogoliubov._oracle_cached(h, n_max).rates
        want = RindlerGeometry(h).omega_mode(np.arange(1, n_max + 1))
        assert rates.dtype == want.dtype and np.array_equal(rates, want)


def test_switch_overlaps_evaluate_factors_only(monkeypatch):
    shapes = []

    def spy(evaluate, *args, **kwargs):
        def recorded(nodes):
            left, right = evaluate(nodes)
            shapes.append((left.shape, right.shape, nodes.size))
            return left, right
        return integrate_stack(recorded, *args, **kwargs)

    monkeypatch.setattr(bogoliubov, "integrate_stack", spy)
    _switch_overlaps(0.245, 40)
    assert shapes
    for left, right, k in shapes:
        assert left == (2, 40, k) and right == (40, k)


def test_switch_overlaps_equal_the_unmemoised_reference(monkeypatch):
    # each draw first fills the truncation's memo at the default node
    # chunk, then asks again with 256-node chunks: a memo keyed on the
    # panel level rather than on the nodes would serve the wrong profiles
    default = quadrature._NODE_CHUNK
    rng = np.random.default_rng(18)
    for _ in range(12):
        h = float(rng.uniform(1e-8, 1.99))
        n_max = int(rng.integers(2, 65))
        for chunk in (default, 256):
            monkeypatch.setattr(quadrature, "_NODE_CHUNK", chunk)
            got = _switch_overlaps(h, n_max)
            want = switch_overlaps_reference(h, n_max)
            for name, g, w in zip(("co", "counter", "residual", "rates"),
                                  got, want):
                assert np.array_equal(g, w), (name, h, n_max, chunk)


def test_quadrature_memos_are_read_only_and_bounded():
    # at n_max 64 and h = 1.99 the oracle goes five doublings deep and its
    # finest level spans two node chunks: 16.5 MB of inertial profiles
    # if each were kept
    bogoliubov._truncation.cache_clear()
    for h in (1.99, 0.3):
        _switch_overlaps(h, 64)
    for memo, budget in ((bogoliubov._truncation(64).profiles, 4 * 2 ** 20),
                         (quadrature._RULES, 2 ** 20)):
        assert memo.entries
        assert memo.nbytes == sum(v.nbytes + sys.getsizeof(k)
                                  for k, v in memo.entries.items())
        assert memo.nbytes <= budget
        for v in memo.entries.values():
            assert not v.flags.writeable
    for n in (32, 1024):
        nodes, weights = quadrature.panel_rule(0.0, 1.0, n)
        assert not nodes.flags.writeable and not weights.flags.writeable
        # the rule as it was built on every call
        edges = np.linspace(0.0, 1.0, n + 1)
        half = 0.5 / n
        mid = 0.5 * (edges[:-1] + edges[1:])
        x0, w0 = np.polynomial.legendre.leggauss(quadrature.GAUSS_ORDER)
        assert np.array_equal(nodes, (mid[:, None] + half * x0).ravel())
        assert np.array_equal(weights, np.tile(half * w0, n))


def test_gauss_legendre_literals_are_leggauss_bits():
    # the rule is stored as literals, so that no run imports
    # numpy.polynomial; they must be its bits
    from numpy.polynomial.legendre import leggauss
    x0, w0 = leggauss(quadrature.GAUSS_ORDER)
    assert quadrature._NODES.tobytes() == x0.tobytes()
    assert quadrature._WEIGHTS.tobytes() == w0.tobytes()
    assert not quadrature._NODES.flags.writeable
    assert not quadrature._WEIGHTS.flags.writeable


def test_oracle_parity_between_wedges():
    # the mirrored wedge is the reference's own integrand
    plus = sudden_switch_oracle(0.1, GEOM)
    minus = mirrored_switch(-0.1, GEOM.n_max)
    m = np.arange(1, 11)
    signs = (-1.0) ** (m[:, None] + m[None, :])
    assert np.max(np.abs(minus.alpha - signs * plus.alpha)) < 1e-12
    assert np.max(np.abs(minus.beta - signs * plus.beta)) < 1e-12


def test_oracle_small_h_limit():
    pair = sudden_switch_oracle(1e-6, GEOM)
    assert np.max(np.abs(pair.alpha - np.eye(10))) < 1e-5
    assert np.max(np.abs(pair.beta)) < 1e-5


def test_oracle_identity_health():
    pair = sudden_switch_oracle(0.245, GEOM)
    assert pair.defect <= 1e-3
    assert identity_residuals(pair.alpha, pair.beta) <= 1e-3


@pytest.mark.parametrize("n_max", [2, 10, 40])
def test_oracle_defect_has_the_reference_bits(n_max):
    # the switch's health check, measured on each call, is
    # max(identity residual, quadrature residual) of its cached entry
    geom = CavityGeometry(0.012, 1.2e8, n_max)
    for h in (1e-6, 0.1, 0.245, 1.5):
        pair = sudden_switch_oracle(h, geom)
        want = oracle_pair_reference(h, n_max)
        assert pair.alpha.tobytes() == want.alpha.tobytes()
        assert pair.beta.tobytes() == want.beta.tobytes()
        assert type(pair.defect) is float and pair.defect == want.defect
        assert pair.defect >= bogoliubov._oracle_cached(h, n_max).residual


def test_first_order_makes_no_oracle_call():
    cached = bogoliubov._oracle_cached
    bogoliubov._truncation.cache_clear()
    before = cached.cache_info()
    for n_max in (10, 20, 40):
        sudden_switch_perturbative(CavityGeometry(0.012, 1.2e8, n_max))
    assert cached.cache_info() == before


def test_oracle_rejects_zero_h():
    with pytest.raises(ValueError):
        sudden_switch_oracle(0.0, GEOM)
    with pytest.raises(ValueError):
        sudden_switch_oracle(-0.1, GEOM)


def test_oracle_arrays_are_frozen():
    pair = sudden_switch_oracle(0.13, GEOM)
    switch = bogoliubov._oracle_cached(0.13, GEOM.n_max)
    # every call's pair is a view of the entry's stacked (alpha, beta)
    for got in (pair, sudden_switch_oracle(0.13, GEOM)):
        assert got.alpha.base is switch.ab and got.beta.base is switch.ab
    table = bogoliubov._truncation(GEOM.n_max)
    assert sudden_switch_perturbative(GEOM) is table.first_order
    shared = (pair.alpha, pair.beta, switch.ab, switch.rates,
              switch.inverse_ab, switch.inverse_ab[0], switch.inverse_ab[1],
              table.modes, table.omega, table.norm,
              table.first_order.alpha1, table.first_order.beta1)
    for array in shared:
        with pytest.raises(ValueError):
            array[0] = 5.0


# any of the four identities can be the worst: random pairs, one and
# stacked; with a unitary alpha and a small beta the two cross terms
# lead, otherwise the two norms do
def test_identity_residuals_have_the_reference_bits():
    rng = np.random.default_rng(2718)
    for n in (2, 3, 10, 17):
        for lead in ((), (5,)):
            for scale in (1e-3, 0.3, 1.0, 30.0):
                shape = lead + (n, n)
                alpha = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                if scale < 1.0:
                    alpha = np.linalg.qr(alpha)[0]
                beta = scale * (rng.normal(size=shape)
                                + 1j * rng.normal(size=shape))
                got = identity_residuals(alpha, beta)
                want = identity_residuals_reference(alpha, beta)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# pair algebra

def test_identity_pair_neutral_element():
    b = sudden_switch_oracle(0.2, GEOM)
    left = compose(identity_pair(10), b)
    right = compose(b, identity_pair(10))
    assert np.allclose(left.alpha, b.alpha, atol=1e-14)
    assert np.allclose(right.beta, b.beta, atol=1e-14)


def test_inverse_cancels_on_interior():
    b = sudden_switch_oracle(0.2, GEOM)
    both = compose(inverse(b), b)
    k = 5
    assert np.max(np.abs(both.alpha[:k, :k] - np.eye(10)[:k, :k])) < 1e-4
    assert np.max(np.abs(both.beta[:k, :k])) < 1e-4


def test_phase_evolution_group_property():
    p1 = phase_evolution_minkowski(0.7e-10, GEOM)
    p2 = phase_evolution_minkowski(0.4e-10, GEOM)
    both = compose(p2, p1)
    direct = phase_evolution_minkowski(1.1e-10, GEOM)
    assert np.allclose(both.alpha, direct.alpha, atol=1e-12)
    assert np.max(np.abs(both.beta)) == 0.0


def test_rindler_phases_approach_inertial():
    # highest-mode phase offset is n_max pi tau h^2 / 12
    mink = phase_evolution_minkowski(1.3e-10, GEOM)
    tau_nat = 1.3e-10 * GEOM.c / GEOM.L
    for h in (0.1, 0.05):
        rind = phase_evolution_rindler(1.3e-10, h, GEOM)
        gap = np.max(np.abs(rind.alpha - mink.alpha))
        bound = GEOM.n_max * math.pi * tau_nat * h * h / 12.0
        assert 0.8 * bound < gap < 1.25 * bound


def test_composition_homomorphism_to_symplectic():
    b1 = sudden_switch_oracle(0.15, GEOM)
    b2 = phase_evolution_rindler(0.9e-10, 0.15, GEOM)
    lhs = to_symplectic(compose(b2, b1))
    rhs = to_symplectic(b2) @ to_symplectic(b1)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_to_symplectic_phase_convention():
    theta = 0.4
    alpha = np.diag(np.exp(-1j * np.array([theta, theta])))
    s = to_symplectic(BogoliubovPair(alpha, np.zeros((2, 2)), 0.0))
    want = np.array([[math.cos(theta), math.sin(theta)],
                     [-math.sin(theta), math.cos(theta)]])
    assert np.allclose(s[:2, :2], want, atol=1e-15)
    assert np.allclose(s[2:, 2:], want, atol=1e-15)


def test_inertial_phases_agree_with_quadrature_rotations():
    # a coast's phases as `rob_row` and `f_sums` form them,
    # exp(-i n pi (t c / L)), are the rotations of the modes' quadratures
    t = 0.83e-10
    omega = bogoliubov._truncation(GEOM.n_max).omega
    d = bogoliubov._phases(omega, t * GEOM.c / GEOM.L)
    s = to_symplectic(BogoliubovPair(
        np.diag(d), np.zeros((GEOM.n_max,) * 2), 0.0))
    blocks = [rotation(GEOM.omega(n) * t) for n in range(1, 11)]
    assert np.allclose(s, block_diag(*blocks), atol=1e-12)
    # Rob's row of a coast is e_kp times its phase, bit for bit
    coast = Trajectory((Inertial(t),), GEOM)
    for kp in range(1, GEOM.n_max + 1):
        row = rob_row(coast, kp)
        assert row.alpha[0, 0, kp - 1].tobytes() == d[kp - 1].tobytes()
        assert np.count_nonzero(row.alpha) == 1 and not row.beta.any()
    # and an f_sums duration's phases are the coast's: its sums match
    # those formed from d
    first = sudden_switch_perturbative(GEOM)
    a1, b1 = first.alpha1, first.beta1
    col = 2
    alpha1 = a1[col, :] * d[col:col + 1] + d * a1[:, col]
    beta1 = d * b1[:, col] - b1[col, :] * d[col:col + 1].conj()
    fa, fb = f_sums(col + 1, t, GEOM)
    assert fa == 0.5 * np.sum(np.abs(alpha1) ** 2)
    assert fb == 0.5 * np.sum(np.abs(beta1) ** 2)


def test_to_symplectic_squeezer_convention():
    s_par = 0.3
    alpha = np.array([[math.cosh(s_par)]], dtype=complex)
    beta = np.array([[math.sinh(s_par)]], dtype=complex)
    s = to_symplectic(BogoliubovPair(alpha, beta, 0.0))
    assert np.allclose(s, np.diag([math.exp(s_par), math.exp(-s_par)]),
                       atol=1e-15)


def test_segment_transform_tau_zero_is_identity_interior():
    seg = segment_transform(0.0, 0.2, GEOM)
    k = 5
    assert np.max(np.abs(seg.alpha[:k, :k] - np.eye(10)[:k, :k])) < 1e-4
    assert np.max(np.abs(seg.beta[:k, :k])) < 1e-4


def test_segment_defect_falls_with_truncation():
    tau = 6e-10
    d10 = segment_transform(tau, 0.2, GEOM).defect
    d20 = segment_transform(
        tau, 0.2, CavityGeometry(0.012, 1.2e8, 20)).defect
    assert d20 < d10


def test_segment_symplectic_on_interior():
    seg = segment_transform(0.3e-9, 0.2, GEOM)
    s = to_symplectic(seg)
    omega = symplectic_form(10)
    gap = np.max(np.abs((s @ omega @ s.T - omega)[:10, :10]))
    assert gap < 1e-3


def test_segment_transform_over_an_array_of_taus():
    # a column gives each duration's transform bit for bit, at every
    # truncation and column length
    rng = np.random.default_rng(11)
    for n_max in (2, 10, 40, 64):
        geom = CavityGeometry(0.012, 1.2e8, n_max)
        for count in (1, 2, 5):
            taus = np.sort(rng.uniform(0.0, 6e-10, count))
            if count == 5:
                taus[0] = 0.0
            column = segment_transform(taus, 0.2, geom)
            assert column.alpha.shape == (count, n_max, n_max)
            assert column.defect.shape == (count,)
            res = identity_residuals(column.alpha, column.beta)
            for i, tau in enumerate(taus):
                one = segment_transform(tau, 0.2, geom)
                assert np.array_equal(column.alpha[i], one.alpha)
                assert np.array_equal(column.beta[i], one.beta)
                assert column.defect[i] == one.defect
                assert res[i] == identity_residuals(one.alpha, one.beta)


def test_symplectic_rows_are_rows_of_the_full_matrix():
    # a mode's row of a pair gives that mode's two rows of the full
    # symplectic matrix, bit for bit
    column = segment_transform(np.linspace(0.0, 6e-10, 4), 0.2, GEOM)
    one = segment_transform(0.37e-9, 0.2, GEOM)
    for pair in (column, one):
        full = to_symplectic(pair)
        for mode in range(1, GEOM.n_max + 1):
            j = 2 * (mode - 1)
            i = slice(mode - 1, mode)
            rows = to_symplectic(BogoliubovPair(pair.alpha[..., i, :],
                                                pair.beta[..., i, :], 0.0))
            assert rows.shape == full.shape[:-2] + (2, 2 * GEOM.n_max)
            assert np.array_equal(rows, full[..., j:j + 2, :])


# ---------------------------------------------------------------------------
# first order in h

def test_first_order_even_parity_vanishes():
    first = sudden_switch_perturbative(GEOM)
    m = np.arange(1, 11)
    even = (m[:, None] + m[None, :]) % 2 == 0
    assert np.abs(first.alpha1[even]).max() < 1e-8
    assert np.abs(first.beta1[even]).max() < 1e-8


def test_first_order_matches_closed_form(monkeypatch):
    # the Richardson ladder of oracle central differences, with the
    # mirrored switch at -h, reaches the closed form within its own
    # error estimate
    monkeypatch.setattr(quadrature, "_NODE_CHUNK", 256)
    for n_max in (10, 20, 40):
        geom = CavityGeometry(0.012, 1.2e8, n_max)
        a1, b1, err = switch_first_order_ladder(geom)
        first = sudden_switch_perturbative(geom)
        assert err <= 1e-8
        assert np.max(np.abs(a1 - first.alpha1)) <= err
        assert np.max(np.abs(b1 - first.beta1)) <= err
    # spot values, signs included
    assert first.alpha1[1, 0] == pytest.approx(
        -2 * math.sqrt(2) / math.pi ** 2, rel=1e-15)
    assert first.beta1[1, 0] == pytest.approx(
        -2 * math.sqrt(2) / (27 * math.pi ** 2), rel=1e-15)


def test_first_order_symmetries():
    first = sudden_switch_perturbative(GEOM)
    # mixing part antisymmetric, pairing part symmetric
    assert np.max(np.abs(first.alpha1 + first.alpha1.T)) < 1e-8
    assert np.max(np.abs(first.beta1 - first.beta1.T)) < 1e-8


def test_closed_form_magnitudes():
    assert first_order_mixing(2, 1) == pytest.approx(
        -2 * math.sqrt(2) / math.pi ** 2)
    assert first_order_mixing(1, 2) == pytest.approx(
        2 * math.sqrt(2) / math.pi ** 2)
    assert first_order_mixing(3, 1) == 0.0
    assert first_order_pairing(2, 1) == pytest.approx(
        -2 * math.sqrt(2) / (27 * math.pi ** 2))
    assert first_order_pairing(1, 1) == 0.0


def test_second_order_diagonal_against_oracle():
    first = sudden_switch_perturbative(GEOM)
    # real part of the diagonal second-order alpha coefficients, from
    # the column normalization identity at order h^2
    mix2 = np.abs(first.alpha1) ** 2
    pair2 = np.abs(first.beta1) ** 2
    a2 = 0.5 * (pair2.sum(axis=0) - (mix2.sum(axis=0) - np.diag(mix2)))
    # fit (alpha_nn(h) - 1) / h^2 from the oracle at shrinking h
    fits = []
    for h in (0.02, 0.01):
        pair = sudden_switch_oracle(h, GEOM)
        fits.append((pair.alpha.real.diagonal() - 1.0) / h ** 2)
    extrap = fits[1] + (fits[1] - fits[0]) / 3.0
    # interior diagonal entries only; edges are truncation-limited
    assert np.allclose(extrap[:5], a2[:5], rtol=0.02, atol=1e-4)


def segment_first_order_ladder(tau, geometry):
    """First order in h of a burn's transform at fixed tau, by
    central differences of the full segment (the mirrored switch at -h)
    on a halving h ladder.  Independent of the composition identity the
    library uses."""
    a1, b1, _ = first_order_ladder(
        lambda h: segment_transform(tau, h, geometry))
    return a1, b1


def test_segment_first_order_composition_matches_ladder():
    worst = 0.0
    for tau in np.linspace(0.0, 3.0 * GEOM.fundamental_period, 25):
        a1, b1 = one_segment_first_order(tau, GEOM)
        ref_a, ref_b = segment_first_order_ladder(tau, GEOM)
        worst = max(worst, np.max(np.abs(a1 - ref_a)),
                    np.max(np.abs(b1 - ref_b)))
    assert worst < 1e-9


def test_f_sums_vanish_at_revival():
    tau = GEOM.fundamental_period
    fa, fb = f_sums(3, tau, GEOM)
    assert fa < 1e-15
    assert fb < 1e-15


def test_f_sums_match_first_order_column():
    tau = 0.37e-9
    a1, b1 = segment_first_order_ladder(tau, GEOM)
    fa, fb = f_sums(3, tau, GEOM)
    assert fa == pytest.approx(0.5 * np.sum(np.abs(a1[:, 2]) ** 2))
    assert fb == pytest.approx(0.5 * np.sum(np.abs(b1[:, 2]) ** 2))


def test_f_sums_match_interference_formula():
    # first-order column weights interfere as sin^2 of half the phase
    # mismatch, with the closed-form switch coefficients
    tau = 0.13e-9
    tau_nat = tau * GEOM.c / GEOM.L
    fa, fb = f_sums(3, tau, GEOM)
    n = np.arange(1, 11)
    mix = first_order_mixing(n, 3)
    pairm = first_order_pairing(n, 3)
    want_a = 2.0 * np.sum(mix ** 2
                          * np.sin((n - 3) * math.pi * tau_nat / 2) ** 2)
    want_b = 2.0 * np.sum(pairm ** 2
                          * np.sin((n + 3) * math.pi * tau_nat / 2) ** 2)
    assert fa == pytest.approx(want_a, rel=1e-6, abs=1e-12)
    assert fb == pytest.approx(want_b, rel=1e-6, abs=1e-12)


def test_f_sums_over_an_array_of_taus():
    taus = np.linspace(0.0, 3.0 * GEOM.fundamental_period, 7)
    fa, fb = f_sums(3, taus, GEOM)
    assert fa.shape == fb.shape == (7,)
    for i, tau in enumerate(taus):
        one_a, one_b = f_sums(3, [tau], GEOM)
        assert (one_a[0], one_b[0]) == (fa[i], fb[i])
    assert [f.shape for f in f_sums(3, [], GEOM)] == [(0,), (0,)]


def test_f_sums_equal_the_reference_column():
    # f_sums builds column kp - 1 alone; the sums of that column of the
    # full first-order matrices must come out bit for bit
    rng = np.random.default_rng(5)
    for n_max in (10, 20, 40):
        geom = CavityGeometry(0.012, 1.2e8, n_max)
        adequate = [kp for kp in range(1, n_max // 2 + 1)
                    if passes_tail_gate(kp, n_max)]
        for kp in rng.choice(adequate, size=3):
            kp = int(kp)
            taus = rng.uniform(0.0, 3.0 * geom.fundamental_period,
                               int(rng.integers(1, 9)))
            fa, fb = f_sums(kp, taus, geom)
            a1, b1 = one_segment_first_order(taus, geom)
            col = kp - 1
            assert np.array_equal(
                fa, 0.5 * np.sum(np.abs(a1[..., :, col]) ** 2, axis=-1))
            assert np.array_equal(
                fb, 0.5 * np.sum(np.abs(b1[..., :, col]) ** 2, axis=-1))
            one_a, one_b = f_sums(kp, float(taus[0]), geom)
            assert (one_a, one_b) == (fa[0], fb[0])
    with pytest.raises(ValueError):
        f_sums(3, [1e-10, -1e-10], GEOM)


def test_f_sums_rejects_non_finite_durations():
    # a NaN fails no `< 0` test, and an infinite one gives NaN phases
    for taus in (np.nan, np.inf, [1e-10, np.nan], [np.inf, 1e-10],
                 -1e-10, [1e-10, -1e-10]):
        with pytest.raises(ValueError,
                           match="segment duration must be finite and >= 0"):
            f_sums(3, taus, GEOM)


def passes_tail_gate(kp, n_max):
    try:
        bogoliubov._first_order_tail(kp, n_max)
    except TruncationError:
        return False
    return True


def test_f_sums_truncation_gate():
    small = CavityGeometry(0.012, 1.2e8, 4)
    with pytest.raises(TruncationError):
        f_sums(3, 0.3e-9, small)


def test_f_sums_validates_arguments():
    with pytest.raises(ValueError):
        f_sums(11, 0.3e-9, GEOM)
    # a float mode index fails in a slice, and True reads as mode 1
    for kp in (3.0, True):
        with pytest.raises(ValueError, match="kp must be an integer"):
            f_sums(kp, 0.3e-9, GEOM)


def test_rindler_period_closes_the_wedge_phases():
    # every wedge phase of a burn of one period is a whole turn; the
    # period is (2 L / c) ln((1 + h/2) / (1 - h/2)) / h
    from cavtel.bogoliubov import _oracle_cached, _phases, rindler_period
    for h in (1e-3, 0.05, 0.245, 0.8, 1.5):
        period = rindler_period(h, GEOM)
        assert period == pytest.approx(
            GEOM.fundamental_period * math.log((1 + h / 2) / (1 - h / 2)) / h,
            rel=1e-14)
        rates = _oracle_cached(h, GEOM.n_max).rates
        d = _phases(rates, h * (np.asarray(period) * GEOM.c / GEOM.L))
        assert np.max(np.abs(d - 1.0)) <= 1e-13
    with pytest.raises(ValueError):
        rindler_period(2.0, GEOM)
