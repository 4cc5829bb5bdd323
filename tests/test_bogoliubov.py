"""Mode overlap engine: quadrature, geometry, oracle, perturbative layer.

The oracle itself is cross-checked against scipy.integrate.quad, which
shares no code with the production integrator.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import block_diag

from cavtel import bogoliubov, quadrature
from cavtel.bogoliubov import (
    EXTRACTION_H_BASE,
    ORACLE_TOL,
    CavityGeometry,
    RindlerGeometry,
    _switch_overlaps,
    compose,
    f_sums,
    first_order_mixing_magnitude,
    first_order_pairing_magnitude,
    identity_residuals,
    make_pair,
    one_segment_first_order,
    one_segment_transform,
    sudden_switch_oracle,
    sudden_switch_perturbative,
    to_symplectic,
)
from cavtel.errors import QuadratureError, TruncationError
from cavtel.gaussian import rotation, symplectic_form
from cavtel.quadrature import integrate_stack, richardson_limit

from bogoliubov_reference import (
    identity_pair,
    inverse,
    phase_evolution_minkowski,
    phase_evolution_rindler,
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


def test_cavity_geometry_scales():
    assert GEOM.omega(1) == pytest.approx(math.pi * 1.2e8 / 0.012)
    assert GEOM.omega(3) == pytest.approx(3 * GEOM.omega(1))
    assert GEOM.fundamental_period == pytest.approx(2e-10)
    assert GEOM.natural_time(2e-10) == pytest.approx(2.0)


@pytest.mark.parametrize("h", [0.0, 2.0, -0.3, 2.5])
def test_rindler_parameter_range(h):
    with pytest.raises(ValueError):
        RindlerGeometry(h)


def test_rindler_chart_fields():
    rind = RindlerGeometry(0.5)
    assert rind.chi_center == pytest.approx(2.0)
    assert rind.chi_right - rind.chi_left == pytest.approx(1.0)
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
        build_transform,
        h_parameter,
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
        build_transform(traj)
        for pipeline in (fidelity_raw, fidelity_corrected, fidelity_optimal):
            pipeline(params, traj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        consistency_report(params, traj)
    assert [w.category for w in caught] == [RuntimeWarning]


# ---------------------------------------------------------------------------
# mode functions and Klein-Gordon inner products via scipy

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
    lo, hi = rindler.chi_left, rindler.chi_right
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

    val, _ = quad(integrand, rind.chi_left, rind.chi_right,
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
    for chi in (rind.chi_left, rind.chi_right):
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
    sign = -1.0 if counter else 1.0

    def integrand(x):
        un, _ = mode_function_inertial(n, x - rind.chi_left)
        fm, _ = mode_function_rindler(m, x, rind)
        return fm * un * (GEOM.omega(n) * 0.012 / 1.2e8
                          + sign * rind.omega_mode(m) / x)

    val, _ = quad(integrand, rind.chi_left, rind.chi_right,
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
    a, b = rind.chi_left, rind.chi_right

    def integrand(x):
        rho = (a + b) - x
        z = math.log(rho / a) / rind.log_width
        fm = -math.sin(m * math.pi * z) / math.sqrt(m * math.pi)
        un = math.sin(n * math.pi * (x - a)) / math.sqrt(n * math.pi)
        return fm * un * (n * math.pi + rind.omega_mode(m) / rho)

    want, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    pair = sudden_switch_oracle(-h, GEOM)
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


def elementwise_switch_overlaps(h, n_max, tol):
    """Reference for `_switch_overlaps`: the full n_max^2 x K stack of
    pointwise mode products, integrated as a plain stack from an
    over-resolving base of max(32, 2 n_max) panels."""
    rind = RindlerGeometry(abs(h))
    width = rind.log_width
    scale = abs(h) / (1.0 - abs(h) / 2.0)
    modes = np.arange(1, n_max + 1)
    omega = modes * np.pi
    omega_wedge = modes * np.pi / width
    mirrored = h < 0
    row_sign = np.where(modes % 2 == 1, 1.0, -1.0)

    def evaluate(u):
        sin_in = np.sin(np.outer(omega, u))
        w = 1.0 - u if mirrored else u
        sin_we = np.sin(np.pi * np.outer(modes, np.log1p(w * scale) / width))
        if mirrored:
            sin_we = sin_we * row_sign[:, None]
        inv_rad = scale / (1.0 + w * scale)
        flat = (sin_we[:, None, :] * sin_in[None, :, :]).reshape(
            n_max * n_max, -1)
        return (np.concatenate([flat, flat * inv_rad[None, :]]),
                np.ones((1, u.size)))

    vals, _, _ = integrate_stack(evaluate, 0.0, 1.0, tol=tol,
                                 base_panels=max(32, 2 * n_max))
    i0 = vals[:n_max * n_max, 0].reshape(n_max, n_max)
    i1 = vals[n_max * n_max:, 0].reshape(n_max, n_max)
    norm = 1.0 / (np.pi * np.sqrt(np.outer(modes, modes)))
    return (norm * (omega[None, :] * i0 + omega_wedge[:, None] * i1),
            norm * (omega[None, :] * i0 - omega_wedge[:, None] * i1))


@pytest.mark.parametrize("n_max", [10, 20, 40, 64])
def test_switch_overlaps_match_elementwise_reference(n_max, monkeypatch):
    for h in (0.003125, -0.003125, 0.245, 1.5, -1.99):
        co, counter, _ = _switch_overlaps(h, n_max)
        with monkeypatch.context() as patch:
            # small node chunks bound the reference stack's memory
            patch.setattr(quadrature, "_NODE_CHUNK", 256)
            ref_co, ref_counter = elementwise_switch_overlaps(
                h, n_max, ORACLE_TOL)
        assert np.max(np.abs(co - ref_co)) <= 1e-13
        assert np.max(np.abs(counter - ref_counter)) <= 1e-13


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


def test_oracle_parity_between_wedges():
    plus = sudden_switch_oracle(0.1, GEOM)
    minus = sudden_switch_oracle(-0.1, GEOM)
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


def test_ladder_and_oracle_share_cache_entries(monkeypatch):
    # one quadrature tolerance: the first-order ladder's +-h switches are
    # the oracle's own cache entries
    from cavtel.protocol import DEFAULT_GEOMETRY
    cached = bogoliubov._oracle_cached
    ladder = {}

    def spy(h, *rest):
        ladder.setdefault(h, cached(h, *rest))
        return ladder[h]

    cached.cache_clear()
    bogoliubov._switch_first_order_cached.cache_clear()
    monkeypatch.setattr(bogoliubov, "_oracle_cached", spy)
    sudden_switch_perturbative(DEFAULT_GEOMETRY)
    before = cached.cache_info()
    pair = sudden_switch_oracle(EXTRACTION_H_BASE, DEFAULT_GEOMETRY)
    after = cached.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert pair is ladder[EXTRACTION_H_BASE]


def test_oracle_rejects_zero_h():
    with pytest.raises(ValueError):
        sudden_switch_oracle(0.0, GEOM)


def test_oracle_arrays_are_frozen():
    pair = sudden_switch_oracle(0.13, GEOM)
    with pytest.raises(ValueError):
        pair.alpha[0, 0] = 5.0


# ---------------------------------------------------------------------------
# pair algebra

def test_make_pair_validates_shapes():
    with pytest.raises(ValueError):
        make_pair(np.eye(3), np.zeros((2, 2)))


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
    tau_nat = GEOM.natural_time(1.3e-10)
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
    pair = make_pair(alpha, np.zeros((2, 2)))
    s = to_symplectic(pair)
    want = np.array([[math.cos(theta), math.sin(theta)],
                     [-math.sin(theta), math.cos(theta)]])
    assert np.allclose(s[:2, :2], want, atol=1e-15)
    assert np.allclose(s[2:, 2:], want, atol=1e-15)


def test_inertial_phases_agree_with_quadrature_rotations():
    t = 0.83e-10
    s = to_symplectic(phase_evolution_minkowski(t, GEOM))
    blocks = [rotation(GEOM.omega(n) * t) for n in range(1, 11)]
    assert np.allclose(s, block_diag(*blocks), atol=1e-12)


def test_to_symplectic_squeezer_convention():
    s_par = 0.3
    alpha = np.array([[math.cosh(s_par)]], dtype=complex)
    beta = np.array([[math.sinh(s_par)]], dtype=complex)
    s = to_symplectic(make_pair(alpha, beta))
    assert np.allclose(s, np.diag([math.exp(s_par), math.exp(-s_par)]),
                       atol=1e-15)


def test_segment_transform_tau_zero_is_identity_interior():
    seg = one_segment_transform(0.0, 0.2, GEOM)
    k = 5
    assert np.max(np.abs(seg.alpha[:k, :k] - np.eye(10)[:k, :k])) < 1e-4
    assert np.max(np.abs(seg.beta[:k, :k])) < 1e-4


def test_segment_defect_falls_with_truncation():
    tau = 6e-10
    d10 = one_segment_transform(tau, 0.2, GEOM).defect
    d20 = one_segment_transform(
        tau, 0.2, CavityGeometry(0.012, 1.2e8, 20)).defect
    assert d20 < d10


def test_segment_symplectic_on_interior():
    seg = one_segment_transform(0.3e-9, 0.2, GEOM)
    s = to_symplectic(seg)
    omega = symplectic_form(10)
    gap = np.max(np.abs((s @ omega @ s.T - omega)[:10, :10]))
    assert gap < 1e-3


def test_segment_transform_over_an_array_of_taus():
    taus = np.linspace(0.0, 6e-10, 5)
    column = one_segment_transform(taus, 0.2, GEOM)
    assert column.alpha.shape == (5, 10, 10)
    assert column.defect.shape == (5,)
    for i, tau in enumerate(taus):
        one = one_segment_transform(tau, 0.2, GEOM)
        assert np.array_equal(column.alpha[i], one.alpha)
        assert np.array_equal(column.beta[i], one.beta)
        assert column.defect[i] == one.defect
        res = identity_residuals(column.alpha, column.beta)
        assert res[i] == identity_residuals(one.alpha, one.beta)


def test_segment_rejects_negative_duration():
    with pytest.raises(ValueError):
        one_segment_transform(-1e-10, 0.2, GEOM)


# ---------------------------------------------------------------------------
# first order in h

def test_first_order_even_parity_vanishes():
    first = sudden_switch_perturbative(GEOM)
    m = np.arange(1, 11)
    even = (m[:, None] + m[None, :]) % 2 == 0
    assert np.abs(first.alpha1[even]).max() < 1e-8
    assert np.abs(first.beta1[even]).max() < 1e-8
    assert first.error < 1e-8


def test_first_order_matches_closed_form():
    first = sudden_switch_perturbative(GEOM)
    assert bool(first.match_flags().all())
    # spot values
    assert abs(first.alpha1[1, 0]) == pytest.approx(
        2 * math.sqrt(2) / math.pi ** 2, rel=1e-6)
    assert abs(first.beta1[1, 0]) == pytest.approx(
        2 * math.sqrt(2) / (27 * math.pi ** 2), rel=1e-6)


def test_first_order_symmetries():
    first = sudden_switch_perturbative(GEOM)
    # mixing part antisymmetric, pairing part symmetric
    assert np.max(np.abs(first.alpha1 + first.alpha1.T)) < 1e-8
    assert np.max(np.abs(first.beta1 - first.beta1.T)) < 1e-8


def test_closed_form_magnitudes():
    assert first_order_mixing_magnitude(2, 1) == pytest.approx(
        2 * math.sqrt(2) / math.pi ** 2)
    assert first_order_mixing_magnitude(3, 1) == 0.0
    assert first_order_pairing_magnitude(2, 1) == pytest.approx(
        2 * math.sqrt(2) / (27 * math.pi ** 2))
    assert first_order_pairing_magnitude(1, 1) == 0.0


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


def segment_first_order_ladder(tau, geometry, h_base=0.1, levels=4,
                               target=1e-8, max_levels=6):
    """First order in h of `one_segment_transform` at fixed tau, by
    central differences of the full segment on a halving h ladder,
    Richardson extrapolated (error series in h^2, ratio 4).  Independent
    of the composition identity the library uses."""
    slopes_a, slopes_b = [], []
    for i in range(max_levels):
        h = h_base / 2.0 ** i
        plus = one_segment_transform(tau, h, geometry)
        minus = one_segment_transform(tau, -h, geometry)
        slopes_a.append((plus.alpha - minus.alpha) / (2.0 * h))
        slopes_b.append((plus.beta - minus.beta) / (2.0 * h))
        if i + 1 >= levels:
            a1, err_a = richardson_limit(slopes_a)
            b1, err_b = richardson_limit(slopes_b)
            if max(err_a, err_b) <= target:
                return a1, b1
    raise AssertionError("first-order ladder did not converge")


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
    # mismatch, with the closed-form switch magnitudes
    tau = 0.13e-9
    tau_nat = GEOM.natural_time(tau)
    fa, fb = f_sums(3, tau, GEOM)
    n = np.arange(1, 11)
    mix = first_order_mixing_magnitude(n, 3)
    pairm = first_order_pairing_magnitude(n, 3)
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


def test_f_sums_truncation_gate():
    small = CavityGeometry(0.012, 1.2e8, 4)
    with pytest.raises(TruncationError):
        f_sums(3, 0.3e-9, small)


def test_f_sums_validates_arguments():
    with pytest.raises(ValueError):
        f_sums(11, 0.3e-9, GEOM)
