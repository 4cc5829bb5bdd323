"""Mode-mixing transformations for a cavity that jumps between inertial
and uniformly accelerated motion.

All field-theory work happens in natural units with the cavity length and
the speed of light set to one; SI quantities enter only through
`CavityGeometry`, which converts at the boundary.  The inertial cavity
spans [chi_L, chi_R] with chi_L = 1/h - 1/2, so the accelerated chart for
the same wall worldlines has its horizon at the origin and proper
acceleration h at the cavity center.

A `BogoliubovPair` (alpha, beta) maps annihilation operators of the old
basis to the new one, b_m = sum_n alpha_mn a_n + beta_mn a_n^dagger.  The
pair for the instantaneous switch is obtained from Klein-Gordon overlaps
of the two mode families on the shared constant-time slice, evaluated by
adaptive quadrature; the sign convention is fixed by alpha -> identity as
h -> 0.

A pair's identity residuals are measured on the adequately resolved
interior block (mode indices up to n_max / 2).  The outermost rows and
columns of any truncated transformation carry order h couplings to modes
just outside the window, so no finite matrix can close the identities
there; interior modes are the ones downstream consumers are allowed to
use.  They are the switch's health check, measured by
`sudden_switch_oracle` on each call, the one place it is read.

The library builds no n x n transform of a burn or a trajectory, and
no symplectic matrix: a trajectory's report reads Rob's two quadrature
rows alone, formed from his complex row (`trajectory.rob_row`), with
that row's residual as their defect.  A small row residual shows that
the row is unitary, not that it is accurate, so Rob's mode stays inside
the interior block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import TruncationError
from .quadrature import FactorMemo, integrate_stack

__all__ = [
    "CavityGeometry",
    "RindlerGeometry",
    "rindler_period",
    "BogoliubovPair",
    "PerturbativeCoefficients",
    "identity_residuals",
    "sudden_switch_oracle",
    "sudden_switch_perturbative",
    "f_sums",
    "first_order_mixing",
    "first_order_pairing",
]

ORACLE_TOL = 1e-10
REGIME_H_SQUARED = 0.06
# largest estimated share of a Rob mode's first-order weight above n_max
TAIL_LIMIT = 0.01
# largest mode truncation
N_MAX_CAP = 64


def _require_index(name, value):
    """Raise ValueError, naming the field, unless `value` is an integer
    that converts to a float: a float index fails later in a slice or
    arange, a bool is an int that no caller means as a mode index, and
    one too large for a float (10**400) fails later in a mode frequency
    with an OverflowError (the rule of `_real`)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    _real(value, name)


def _real(value, field):
    """`value` as one real number for the field `field` of a frozen
    value (a segment, a geometry, the protocol parameters).

    Every accepted real is stored as a Python float: an int, a numpy
    scalar or a 0-d numeric array alike, so that the value hashes, a
    later write to the caller's array does not change it, and a number
    too large for a float (10**400) is rejected here rather than failing
    later with an OverflowError.  Anything else that is not a real
    number (a list, a 1-element array, a string, None, a bool) is
    rejected by name before it is compared with a bound.
    """
    if type(value) is float:    # most input, and the cheapest check
        return value
    if isinstance(value, np.ndarray):
        real = not value.ndim and value.dtype.kind in "iuf"
    else:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real:
        raise ValueError(
            f"{field} must be a real number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{field} must be finite, got a number too large for a "
            "float") from None


@dataclass(frozen=True)
class CavityGeometry:
    """Cavity length L (m), speed of light c (m/s) and mode truncation."""

    L: float
    c: float
    n_max: int = 10

    def __post_init__(self):
        for name, field in (("L", "cavity length L"),
                            ("c", "speed of light c")):
            value = _real(getattr(self, name), field)
            if not 0 < value < math.inf:
                raise ValueError(f"{field} must be finite and > 0")
            object.__setattr__(self, name, value)
        _require_index("n_max", self.n_max)
        if not 2 <= self.n_max <= N_MAX_CAP:
            raise ValueError(
                f"n_max must lie in 2..{N_MAX_CAP}, got {self.n_max}")

    def omega(self, n):
        """Angular frequency of mode n, n pi c / L."""
        return n * math.pi * self.c / self.L

    @property
    def fundamental_period(self):
        """Round-trip light time 2 L / c, the period of mode 1."""
        return 2.0 * self.L / self.c


@dataclass(frozen=True)
class RindlerGeometry:
    """Accelerated chart for a rigid unit-length cavity, parameter h.

    h = a L / c^2 with a the proper acceleration at the cavity center.
    Requires 0 < h < 2 so the near wall stays outside the horizon.
    """

    h: float

    def __post_init__(self):
        if not 0.0 < self.h < 2.0:
            raise ValueError(
                f"h must lie in (0, 2) for the wall to stay outside the "
                f"horizon, got {self.h}")

    @property
    def log_width(self):
        # ln(chi_right / chi_left) = 2 atanh(h / 2), stable for small h
        return 2.0 * math.atanh(0.5 * self.h)

    def omega_mode(self, n):
        """Wedge frequency n pi / D, conjugate to the dimensionless
        Rindler time; the center clock sees h * omega_mode(n)."""
        return n * math.pi / self.log_width


def rindler_period(h, geometry):
    """Rob's proper time (s) over which a burn's wedge phases repeat,
    (2 L / c) ln((1 + h/2) / (1 - h/2)) / h, that is T (1 + h^2/12 +
    O(h^4)) for the fundamental period T.  The wedge rates are n times
    one rate, so in the full theory a burn of this duration is
    B^-1 B = identity, at any 0 < h < 2."""
    return geometry.fundamental_period * RindlerGeometry(h).log_width / h


# ---------------------------------------------------------------------------
# Bogoliubov pairs

def _interior_count(n):
    return max(1, n // 2)


def identity_residuals(alpha, beta):
    """Worst residual of the four canonical identities (column and row
    norm and cross terms) of one (n, n) pair, as a float.

    Sums run over the full stored index range; the free indices are
    restricted to the interior block (see module docstring).
    """
    k = _interior_count(len(alpha))
    alpha_c, beta_c = alpha.conj(), beta.conj()
    ac, bc = alpha[:, :k], beta[:, :k]
    ar, br = alpha[:k], beta[:k]
    ach, bct = alpha_c[:, :k].T, bc.T
    eye = np.eye(k)
    # the four residual blocks side by side, for one abs and one max
    res = np.empty((4, k, k), dtype=complex)
    np.subtract(ach @ ac - bct @ beta_c[:, :k], eye, out=res[0])
    np.subtract(ach @ bc, bct @ alpha_c[:, :k], out=res[1])
    np.subtract(ar @ alpha_c[:k].T - br @ beta_c[:k].T, eye, out=res[2])
    np.subtract(ar @ br.T, br @ ar.T, out=res[3])
    return float(np.abs(res).max())


@dataclass(frozen=True)
class BogoliubovPair:
    """Operator-side mode transformation b = alpha a + beta a^dagger: the
    switch's (n, n) matrices and its float defect
    (`sudden_switch_oracle`).  Rob's row of a trajectory is not a pair:
    `trajectory.rob_row` gives its two symplectic rows.
    """

    alpha: np.ndarray
    beta: np.ndarray
    defect: float


def _phases(rates, t):
    """Diagonal phases exp(-i rates t), a trailing mode axis after the
    axes of the time `t`; a float `t` gives the phases of one time."""
    if isinstance(t, float):    # a 0-d array costs ~1 us per operation
        return np.exp(-1j * (rates * t))
    return np.exp(-1j * (rates * t[..., None]))


# ---------------------------------------------------------------------------
# Sudden switch oracle

class _Truncation(NamedTuple):
    """Everything that depends on the truncation alone: modes 1..n_max,
    their inertial rates n pi (a coast's phases are
    `_phases(omega, t)`), the normalisation 1 / (pi sqrt(mn)) of the
    switch overlaps, the inertial profiles sin(n pi u) at each node
    chunk u that the overlap quadrature has passed, keyed on u's bytes,
    and the exact first-order switch `sudden_switch_perturbative`."""

    modes: np.ndarray
    omega: np.ndarray
    norm: np.ndarray
    profiles: FactorMemo
    first_order: PerturbativeCoefficients


# bytes of inertial profiles kept per truncation: a sweep's levels take
# 0.3 MB at n_max 40; at n_max 64 and h = 1.99 the levels up to 256
# panels fit (3.8 MiB), and the 512- and 1024-panel ones are built per call
PROFILE_BUDGET = 4 * 2 ** 20


@lru_cache(maxsize=1)
def _truncation(n_max):
    """The `_Truncation` of n_max, one truncation at a time, its arrays
    read-only; its profiles hold at most PROFILE_BUDGET bytes."""
    modes = np.arange(1, n_max + 1)
    omega = modes * np.pi                      # inertial, L = c = 1
    norm = 1.0 / (np.pi * np.sqrt(np.outer(modes, modes)))
    first = PerturbativeCoefficients(
        first_order_mixing(modes[:, None], modes),
        first_order_pairing(modes[:, None], modes))
    for a in (modes, omega, norm, first.alpha1, first.beta1):
        a.flags.writeable = False
    return _Truncation(modes, omega, norm, FactorMemo(PROFILE_BUDGET), first)


def _switch_overlaps(h, n_max):
    """Raw co- and counter-rotating overlap matrices for the switch at
    parameter h, their quadrature residual and the wedge rates
    `RindlerGeometry(h).omega_mode` of modes 1..n_max.

    Both are built from I0 = S_we diag(w) S_in^T and
    I1 = S_we diag(w / chi) S_in^T, Gram products of the wedge and
    inertial mode profiles S_we, S_in (n_max x nodes) sampled at the
    quadrature nodes, weighted by the quadrature weights w and the
    inverse Rindler position 1 / chi.  The base of n_max // 2 panels (at least 4) puts
    two periods of the fastest product, cos(2 n_max pi u), on each
    16-node panel; its first doubling converges for h up to 1.5, and
    nearer the horizon, where the wedge modes crowd toward one wall, the
    doubling goes on by itself.

    Only S_we and 1 / chi depend on h.  S_in, the modes and the
    normalisation come from `_truncation(n_max)`, built once per
    truncation: S_in is memoised per node chunk (keyed on the chunk's
    bytes, so any chunking is served correctly) in at most
    PROFILE_BUDGET = 4 MiB, and the panel rules in at most
    `quadrature.RULE_BUDGET` = 1 MiB.  Every value is formed by the same
    operations in the same order as on a call with no memo, so the
    results keep every bit.

    Raises ValueError, naming h and n_max, when the fastest wedge rate
    omega_mode(n_max) is not finite (h below about n_max pi / DBL_MAX).
    """
    chart = RindlerGeometry(h)
    if not math.isfinite(chart.omega_mode(n_max)):
        raise ValueError(
            f"h = {h!r} is too small for the accelerated chart of modes "
            f"1..n_max = {n_max}: its wedge rates overflow")
    width = chart.log_width
    # integrate in the wall offset u = chi - chi_left in [0, 1]; the raw
    # chart coordinate 1/h +- 1/2 loses all precision below h ~ 1e-12
    scale = h / (1.0 - h / 2.0)                # 1 / chi_left
    modes, omega, norm, profiles, _ = _truncation(n_max)
    omega_wedge = chart.omega_mode(modes)

    def evaluate(u):
        sin_in = profiles.get(u.tobytes(), lambda: np.sin(np.outer(omega, u)))
        z = np.log1p(u * scale) / width
        wedge = np.empty((2, n_max, u.size))
        np.sin(np.pi * np.outer(modes, z), out=wedge[0])
        np.multiply(wedge[0], scale / (1.0 + u * scale), out=wedge[1])
        return wedge, sin_in

    (i0, i1), residual, _ = integrate_stack(
        evaluate, 0.0, 1.0, tol=ORACLE_TOL, base_panels=max(4, n_max // 2))
    co = norm * (omega[None, :] * i0 + omega_wedge[:, None] * i1)
    counter = norm * (omega[None, :] * i0 - omega_wedge[:, None] * i1)
    return co, counter, residual, omega_wedge


class _Switch(NamedTuple):
    """A switch's cache entry, all a burn of Rob's row reads: `ab` stacks
    the pair's alpha and beta in one (2, n, n) buffer, so that rows take
    both products in one matmul; `inverse_ab` likewise stacks the
    canonical inverse (A^dagger, -B^T), its matrices the transposed
    views that they are; `rates` are the wedge rates omega_mode(n) of
    modes 1..n_max, and `residual` the overlap quadrature's."""

    ab: np.ndarray
    inverse_ab: np.ndarray
    rates: np.ndarray
    residual: float


@lru_cache(maxsize=1024)
def _oracle_cached(h, n_max):
    """The switch's `_Switch`, its arrays read-only."""
    co, counter, residual, rates = _switch_overlaps(h, n_max)
    ab = np.empty((2, n_max, n_max), dtype=complex)
    ab[0], ab[1] = co, -counter
    inverse_ab = np.stack((ab[0].conj(), -ab[1])).swapaxes(-1, -2)
    for a in (ab, rates, inverse_ab):
        a.flags.writeable = False
    return _Switch(ab, inverse_ab, rates, residual)


def sudden_switch_oracle(h, geometry):
    """Bogoliubov pair for an instantaneous inertial-to-accelerated jump.

    Parameters
    ----------
    h : float
        Dimensionless acceleration a L / c^2 at the cavity center,
        0 < h < 2.
    geometry : CavityGeometry
        Supplies the mode truncation.

    Returns
    -------
    BogoliubovPair whose read-only arrays are views of the switch's
    cache entry (`_oracle_cached`, integrated once per (h, n_max) to
    ORACLE_TOL per matrix element), and whose defect, the switch's
    health check max(identity residual, quadrature residual), is
    measured on each call; no report reads it.
    """
    switch = _oracle_cached(float(h), geometry.n_max)
    alpha, beta = switch.ab
    return BogoliubovPair(alpha, beta, float(
        np.maximum(identity_residuals(alpha, beta), switch.residual)))


# ---------------------------------------------------------------------------
# First order in h

def first_order_mixing(m, n):
    """Exact first-order alpha coefficient of the switch,
    A1_mn = -2 sqrt(m n) / (pi^2 (m - n)^3) for m + n odd, zero
    otherwise."""
    m, n = np.asarray(m), np.asarray(n)
    odd = (m + n) % 2 == 1
    diff = np.where(odd, m - n, 1)
    out = -2.0 * np.sqrt(m * n) / (np.pi ** 2 * diff ** 3)
    return np.where(odd, out, 0.0)


def first_order_pairing(m, n):
    """Exact first-order beta coefficient of the switch,
    B1_mn = -2 sqrt(m n) / (pi^2 (m + n)^3) for m + n odd, zero
    otherwise."""
    m, n = np.asarray(m), np.asarray(n)
    odd = (m + n) % 2 == 1
    out = -2.0 * np.sqrt(m * n) / (np.pi ** 2 * (m + n) ** 3)
    return np.where(odd, out, 0.0)


@dataclass(frozen=True)
class PerturbativeCoefficients:
    """First order in h of the sudden switch: alpha = 1 + h alpha1 and
    beta = h beta1 up to O(h^2), both real (n_max, n_max)."""

    alpha1: np.ndarray
    beta1: np.ndarray


def sudden_switch_perturbative(geometry):
    """Exact first-order switch coefficients over modes 1..n_max, the
    closed forms `first_order_mixing` and `first_order_pairing`
    (Bruschi, Fuentes and Louko, arXiv:1105.1875), read-only, kept in
    the table of one truncation at a time (`_truncation`), so a process
    that alternates n_max rebuilds them.  No oracle call is made; the
    tests check them against central differences of the oracle."""
    return _truncation(geometry.n_max).first_order


@lru_cache(maxsize=256)
def _tail_ratio(kp, n_max):
    """Estimated fraction of mode kp's first-order couplings that leak
    above the truncation window (amplitude sums over the next 400 modes,
    cubic-decay tail)."""
    n_in = np.arange(1, n_max + 1)
    n_out = np.arange(n_max + 1, n_max + 401)

    def env(n):
        return (np.abs(first_order_mixing(n, kp))
                + np.abs(first_order_pairing(n, kp)))

    total = float(np.sum(env(n_in)))
    tail = float(np.sum(env(n_out)))
    return tail / total


def _first_order_tail(kp, n_max):
    """The first-order tail gate: mode kp's estimated share of weight
    above n_max, `_tail_ratio`; raises TruncationError, naming the
    smallest adequate n_max, when it exceeds TAIL_LIMIT."""
    ratio = _tail_ratio(kp, n_max)
    if ratio > TAIL_LIMIT:
        # the smallest n_max whose interior block holds kp and that passes
        need = next((n for n in range(2 * kp, N_MAX_CAP + 1)
                     if _tail_ratio(kp, n) <= TAIL_LIMIT), None)
        advice = (f"use n_max >= {need}" if need is not None
                  else f"no n_max up to {N_MAX_CAP} is adequate")
        raise TruncationError(
            f"mode {kp} leaks an estimated {100 * ratio:.2f}% of its "
            f"first-order weight above n_max = {n_max} (limit "
            f"{100 * TAIL_LIMIT:g}%); {advice}")
    return ratio


def f_sums(kp, taus, geometry):
    """Degradation sums entering the quadratic fidelity correction, one
    pair of arrays (f_alpha, f_beta) over the durations `taus`.

    f_alpha = 1/2 sum_n |alpha1_{n, kp}(tau)|^2 over column kp of the
    first-order one-segment matrix, f_beta likewise for beta1.  The free
    phases are even in h, so composing B^-1 o D(tau) o B with the switch
    B = 1 + h (A1, B1) gives the first order exactly:
    alpha1 = A1^T D + D A1 and beta1 = D B1 - B1^T D^*, with
    D = diag(exp(-i n pi tau c / L)); only column kp of each is built.
    These are h -> 0 objects, shared by every acceleration of a sweep:
    they are memoised per (kp, geometry, durations), and the arrays
    returned are read-only.

    Raises TruncationError, naming the smallest adequate n_max, when the
    closed-form envelope estimates more than TAIL_LIMIT (1%) of the
    column sum to live above n_max (`_first_order_tail`).
    """
    _require_index("kp", kp)
    if not 1 <= kp <= geometry.n_max:
        raise ValueError(f"kp must lie in 1..{geometry.n_max}")
    _first_order_tail(kp, geometry.n_max)
    taus = np.asarray(taus, dtype=float)
    # a NaN fails both comparisons
    if not (0.0 <= taus.min(initial=math.inf)
            and taus.max(initial=0.0) < math.inf):
        raise ValueError("segment duration must be finite and >= 0")
    return _f_sums_cached(kp, geometry, taus.shape, taus.tobytes())


@lru_cache(maxsize=256)
def _f_sums_cached(kp, geometry, shape, raw):
    taus = np.frombuffer(raw).reshape(shape)
    col = kp - 1
    table = _truncation(geometry.n_max)
    # a coast's phases, as `trajectory.rob_row` forms them
    d = _phases(table.omega, taus * geometry.c / geometry.L)
    a1, b1 = table.first_order.alpha1, table.first_order.beta1
    d_col = d[..., col:col + 1]
    alpha1 = a1[col, :] * d_col + d * a1[:, col]
    beta1 = d * b1[:, col] - b1[col, :] * d_col.conj()
    sums = (0.5 * np.sum(np.abs(alpha1) ** 2, axis=-1),
            0.5 * np.sum(np.abs(beta1) ** 2, axis=-1))
    for f in sums:
        if f.ndim:          # a scalar (one duration) is immutable anyway
            f.flags.writeable = False
    return sums
