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
h -> 0.  Negative h means acceleration toward the other wall and is
integrated directly against the mirrored wedge modes, which makes the
parity relation between the two signs a testable property rather than an
assumption.

Identity residuals are measured on the adequately resolved interior block
(mode indices up to n_max / 2).  The outermost rows and columns of any
truncated transformation carry order h couplings to modes just outside
the window, so no finite matrix can close the identities there; interior
modes are the ones downstream consumers are allowed to use.  They are
measured once per oracle cache entry, on each one-segment transform and
on a trajectory's running product after each burn that follows another.
`compose` carries the larger input defect, and a coast's diagonal
(unitary) phases carry it unchanged: they leave the modulus of every
residual as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ExtrapolationError, TruncationError
from .quadrature import integrate_stack, richardson_limit

__all__ = [
    "CavityGeometry",
    "RindlerGeometry",
    "BogoliubovPair",
    "PerturbativeCoefficients",
    "make_pair",
    "identity_residuals",
    "sudden_switch_oracle",
    "sudden_switch_perturbative",
    "compose",
    "one_segment_transform",
    "one_segment_first_order",
    "f_sums",
    "to_symplectic",
    "first_order_mixing_magnitude",
    "first_order_pairing_magnitude",
]

ORACLE_TOL = 1e-10
# first-order extraction ladder: oracle slopes at +-H_BASE / 2^i
EXTRACTION_TARGET = 1e-8
EXTRACTION_H_BASE = 0.1
EXTRACTION_LEVELS = 4
EXTRACTION_MAX_LEVELS = 6
REGIME_H_SQUARED = 0.06
# largest estimated share of a Rob mode's first-order weight above n_max
TAIL_LIMIT = 0.01


@dataclass(frozen=True)
class CavityGeometry:
    """Cavity length L (m), speed of light c (m/s) and mode truncation."""

    L: float
    c: float
    n_max: int = 10

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError("cavity length L must be finite and > 0")
        if not 0 < self.c < math.inf:
            raise ValueError("speed of light c must be finite and > 0")
        if not 2 <= self.n_max <= 64:
            raise ValueError(f"n_max must lie in 2..64, got {self.n_max}")

    def omega(self, n):
        """Angular frequency of mode n, n pi c / L."""
        return n * math.pi * self.c / self.L

    @property
    def fundamental_period(self):
        """Round-trip light time 2 L / c, the period of mode 1."""
        return 2.0 * self.L / self.c

    def natural_time(self, t_seconds):
        """Convert a lab/proper duration to units of L / c."""
        return t_seconds * self.c / self.L


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
    def chi_center(self):
        return 1.0 / self.h

    @property
    def chi_left(self):
        return 1.0 / self.h - 0.5

    @property
    def chi_right(self):
        return 1.0 / self.h + 0.5

    @property
    def log_width(self):
        # ln(chi_right / chi_left) = 2 atanh(h / 2), stable for small h
        return 2.0 * math.atanh(0.5 * self.h)

    def omega_mode(self, n):
        """Wedge frequency n pi / D, conjugate to the dimensionless
        Rindler time; the center clock sees h * omega_mode(n)."""
        return n * math.pi / self.log_width


# ---------------------------------------------------------------------------
# Bogoliubov pairs

def _interior_count(n):
    return max(1, n // 2)


def identity_residuals(alpha, beta):
    """Worst residual of the four canonical identities (column and row
    norm and cross terms).

    Sums run over the full stored index range; the free indices are
    restricted to the interior block (see module docstring).  One pair
    gives a float, a stack of pairs (..., n, n) one residual per pair.
    """
    k = _interior_count(alpha.shape[-1])
    alpha_c, beta_c = alpha.conj(), beta.conj()
    ac, bc = alpha[..., :, :k], beta[..., :, :k]
    ar, br = alpha[..., :k, :], beta[..., :k, :]
    ach, bct = alpha_c[..., :, :k].swapaxes(-1, -2), bc.swapaxes(-1, -2)
    eye = np.eye(k)
    res = (
        ach @ ac - bct @ beta_c[..., :, :k] - eye,
        ach @ bc - bct @ alpha_c[..., :, :k],
        ar @ alpha_c[..., :k, :].swapaxes(-1, -2)
        - br @ beta_c[..., :k, :].swapaxes(-1, -2) - eye,
        ar @ br.swapaxes(-1, -2) - br @ ar.swapaxes(-1, -2),
    )
    worst = reduce(np.maximum,
                   (np.abs(v).max(axis=(-2, -1)) for v in res))
    return float(worst) if alpha.ndim == 2 else worst


@dataclass(frozen=True)
class BogoliubovPair:
    """Operator-side mode transformation b = alpha a + beta a^dagger.

    A stacked pair carries leading axes on alpha and beta (..., n, n) and
    one defect per transform, as an array.
    """

    alpha: np.ndarray
    beta: np.ndarray
    defect: float | np.ndarray

    @property
    def n_modes(self):
        return self.alpha.shape[-1]


def make_pair(alpha, beta, floor=0.0):
    """Build a pair, measuring its identity defect (at least `floor`);
    stacked matrices get one defect each."""
    alpha = np.ascontiguousarray(alpha, dtype=complex)
    beta = np.ascontiguousarray(beta, dtype=complex)
    if alpha.shape != beta.shape or alpha.ndim < 2 \
            or alpha.shape[-2] != alpha.shape[-1]:
        raise ValueError("alpha and beta must be equal square matrices")
    defect = np.maximum(identity_residuals(alpha, beta), floor)
    return BogoliubovPair(alpha, beta,
                          float(defect) if alpha.ndim == 2 else defect)


def compose(b2, b1):
    """Pair applying b1 first, then b2 (stacks broadcast), carrying the
    larger defect."""
    if b2.n_modes != b1.n_modes:
        raise ValueError("mode counts differ")
    alpha = b2.alpha @ b1.alpha + b2.beta @ b1.beta.conj()
    beta = b2.alpha @ b1.beta + b2.beta @ b1.alpha.conj()
    return BogoliubovPair(alpha, beta, np.maximum(b1.defect, b2.defect))


def to_symplectic(pair):
    """Quadrature-space matrix of the pair (mode-major ordering).

    Diagonal phases exp(-i theta) map to the rotation
    [[cos, sin], [-sin, cos]], matching the covariance convention in
    `gaussian`; a real one-mode squeezer (alpha, beta) = (cosh s, sinh s)
    maps to diag(e^s, e^-s).  A stacked pair gives a stack of matrices.
    """
    plus = pair.alpha + pair.beta
    minus = pair.alpha - pair.beta
    n = pair.n_modes
    s = np.empty(plus.shape[:-2] + (2 * n, 2 * n))
    s[..., 0::2, 0::2] = plus.real
    s[..., 0::2, 1::2] = -minus.imag
    s[..., 1::2, 0::2] = plus.imag
    s[..., 1::2, 1::2] = minus.real
    return s


# ---------------------------------------------------------------------------
# Sudden switch oracle

def _switch_overlaps(h, n_max):
    """Raw co- and counter-rotating overlap matrices for the switch at
    parameter h (sign = direction of acceleration).

    Both are built from I0 = S_we diag(w) S_in^T and
    I1 = S_we diag(w / chi) S_in^T, Gram products of the wedge and
    inertial mode profiles S_we, S_in (n_max x nodes) sampled at the
    quadrature nodes, weighted by the quadrature weights w and the
    inverse Rindler position 1 / chi.  The base of n_max // 2 panels (at least 4) puts
    two periods of the fastest product, cos(2 n_max pi u), on each
    16-node panel; its first doubling converges for |h| up to 1.5, and
    nearer the horizon, where the wedge modes crowd toward one wall, the
    doubling goes on by itself.
    """
    rind = RindlerGeometry(abs(h))
    width = rind.log_width
    # integrate in the wall offset u = chi - chi_left in [0, 1]; the raw
    # chart coordinate 1/h +- 1/2 loses all precision below h ~ 1e-12
    scale = abs(h) / (1.0 - abs(h) / 2.0)      # 1 / chi_left
    modes = np.arange(1, n_max + 1)
    omega = modes * np.pi                      # inertial, L = c = 1
    omega_wedge = modes * np.pi / width
    mirrored = h < 0
    row_sign = np.where(modes % 2 == 1, 1.0, -1.0) if mirrored else None

    def evaluate(u):
        sin_in = np.sin(np.outer(omega, u))
        w = 1.0 - u if mirrored else u
        z = np.log1p(w * scale) / width
        sin_we = np.sin(np.pi * np.outer(modes, z))
        if mirrored:
            # keep the labeling that tends to the inertial family as h -> 0
            sin_we = sin_we * row_sign[:, None]
        inv_rad = scale / (1.0 + w * scale)
        return np.stack([sin_we, sin_we * inv_rad]), sin_in

    (i0, i1), residual, _ = integrate_stack(
        evaluate, 0.0, 1.0, tol=ORACLE_TOL, base_panels=max(4, n_max // 2))
    norm = 1.0 / (np.pi * np.sqrt(np.outer(modes, modes)))
    co = norm * (omega[None, :] * i0 + omega_wedge[:, None] * i1)
    counter = norm * (omega[None, :] * i0 - omega_wedge[:, None] * i1)
    return co, counter, residual


@lru_cache(maxsize=1024)
def _oracle_cached(h, n_max):
    """Switch pair with its defect, measured once per cache entry."""
    co, counter, residual = _switch_overlaps(h, n_max)
    pair = make_pair(co, -counter, floor=residual)
    pair.alpha.flags.writeable = False
    pair.beta.flags.writeable = False
    return pair


def sudden_switch_oracle(h, geometry):
    """Bogoliubov pair for an instantaneous inertial-to-accelerated jump.

    Parameters
    ----------
    h : float
        Dimensionless acceleration a L / c^2 at the cavity center;
        0 < |h| < 2, sign selecting the direction.
    geometry : CavityGeometry
        Supplies the mode truncation.

    Returns
    -------
    Shared BogoliubovPair (read-only arrays), computed once per
    (h, n_max) to ORACLE_TOL per matrix element, whose defect includes
    the quadrature residual.
    """
    return _oracle_cached(float(h), geometry.n_max)


def _inertial_phases(t_seconds, geometry):
    """A coast's phases exp(-i n pi t c / L) of modes 1..n_max, with a
    trailing mode axis after the axes of the lab time `t_seconds`."""
    n = np.arange(1, geometry.n_max + 1)
    t = geometry.natural_time(np.asarray(t_seconds, dtype=float))
    return np.exp(-1j * n * np.pi * t[..., None])


def _rindler_angles(tau_seconds, h, geometry):
    """Wedge phase angles omega_mode(n) eta of modes 1..n_max, with a
    trailing mode axis after the axes of `tau_seconds`; the wedge time
    is eta = |h| tau c / L."""
    rind = RindlerGeometry(abs(h))
    eta = abs(h) * geometry.natural_time(np.asarray(tau_seconds, dtype=float))
    n = np.arange(1, geometry.n_max + 1)
    return rind.omega_mode(n) * eta[..., None]


def one_segment_transform(tau_seconds, h, geometry):
    """Net transformation for one accelerated segment.

    Switch into the accelerated basis, evolve for proper time tau at the
    center, switch back: B^-1 o phases o B with the canonical inverse
    B^-1 = (A^dagger, -B^T), measuring the defect.
    With the switch pair (A, B) and the wedge phases D, that is
    alpha = A^dagger D A - B^T D^* B^* and beta = A^dagger D B - B^T D^* A^*.
    An array of durations gives a stacked pair, one transform per
    duration, each with its own measured defect.
    """
    taus = np.asarray(tau_seconds, dtype=float)
    if (taus < 0).any():
        raise ValueError("segment duration must be >= 0")
    b0 = sudden_switch_oracle(h, geometry)
    d = np.exp(-1j * _rindler_angles(taus, h, geometry))[..., None]
    da, db = d * b0.alpha, d * b0.beta
    a_dag, minus_bt = b0.alpha.conj().T, -b0.beta.T
    alpha = a_dag @ da + minus_bt @ db.conj()
    beta = a_dag @ db + minus_bt @ da.conj()
    return make_pair(alpha, beta, floor=b0.defect)


# ---------------------------------------------------------------------------
# First order in h

def first_order_mixing_magnitude(m, n):
    """Closed-form size of the first-order alpha coefficient.

    2 sqrt(m n) / (pi^2 |m - n|^3) for m + n odd, zero otherwise; kept
    only as a cross-check against the extrapolated values.
    """
    m, n = np.asarray(m), np.asarray(n)
    odd = (m + n) % 2 == 1
    diff = np.where(odd, np.abs(m - n), 1)
    out = 2.0 * np.sqrt(m * n) / (np.pi ** 2 * diff ** 3)
    return np.where(odd, out, 0.0)


def first_order_pairing_magnitude(m, n):
    """Closed-form size of the first-order beta coefficient,
    2 sqrt(m n) / (pi^2 (m + n)^3) for m + n odd."""
    m, n = np.asarray(m), np.asarray(n)
    odd = (m + n) % 2 == 1
    out = 2.0 * np.sqrt(m * n) / (np.pi ** 2 * (m + n) ** 3)
    return np.where(odd, out, 0.0)


@dataclass(frozen=True)
class PerturbativeCoefficients:
    """First order in h of the sudden switch, with cross-checks."""

    alpha1: np.ndarray
    beta1: np.ndarray
    error: float

    @property
    def n_modes(self):
        return self.alpha1.shape[0]

    def ansatz_alpha(self):
        m = np.arange(1, self.n_modes + 1)
        return first_order_mixing_magnitude(m[:, None], m[None, :])

    def ansatz_beta(self):
        m = np.arange(1, self.n_modes + 1)
        return first_order_pairing_magnitude(m[:, None], m[None, :])

    def match_flags(self):
        """Per-entry agreement with the closed-form magnitudes.

        Odd m + n entries must match within 1% relative; even ones must
        vanish below 1e-8.
        """
        rtol = 0.01
        m = np.arange(1, self.n_modes + 1)
        odd = (m[:, None] + m[None, :]) % 2 == 1
        ans_a, ans_b = self.ansatz_alpha(), self.ansatz_beta()
        got_a, got_b = np.abs(self.alpha1), np.abs(self.beta1)
        ok_odd = (np.abs(got_a - ans_a) <= rtol * np.maximum(ans_a, 1e-300)) \
            & (np.abs(got_b - ans_b) <= rtol * np.maximum(ans_b, 1e-300))
        ok_even = (got_a <= 1e-8) & (got_b <= 1e-8)
        return np.where(odd, ok_odd, ok_even)


@lru_cache(maxsize=64)
def _switch_first_order_cached(n_max):
    # central differences kill the even orders, so the error series of
    # the slopes runs in h^2 and the Richardson table uses ratio 4
    slopes_a, slopes_b = [], []
    for i in range(EXTRACTION_MAX_LEVELS):
        h = EXTRACTION_H_BASE / 2.0 ** i
        plus = _oracle_cached(h, n_max)
        minus = _oracle_cached(-h, n_max)
        slopes_a.append((plus.alpha - minus.alpha) / (2.0 * h))
        slopes_b.append((plus.beta - minus.beta) / (2.0 * h))
        if i + 1 >= EXTRACTION_LEVELS:
            a1, err_a = richardson_limit(slopes_a)
            b1, err_b = richardson_limit(slopes_b)
            err = max(err_a, err_b)
            if err <= EXTRACTION_TARGET:
                a1.flags.writeable = False
                b1.flags.writeable = False
                return PerturbativeCoefficients(a1, b1, float(err))
    raise ExtrapolationError(
        f"first-order extraction stalled at residual {err:.3e} "
        f"(target {EXTRACTION_TARGET:g})")


def sudden_switch_perturbative(geometry):
    """Extract the first-order switch coefficients by finite differences.

    The oracle is evaluated at +-h on a halving ladder and the slopes are
    Richardson extrapolated to h = 0; closed-form magnitudes are attached
    for comparison but never substituted.  Cached per truncation.
    """
    return _switch_first_order_cached(geometry.n_max)


def one_segment_first_order(tau_seconds, geometry):
    """First order in h of `one_segment_transform` at fixed tau.

    The free phases are even in h, so composing B^-1 o D(tau) o B
    with B = 1 + h (A1, B1) gives the first order exactly:
    alpha1 = A1^dagger D + D A1 and beta1 = D B1 - B1^T D^*, with
    D = diag(exp(-i n pi tau c / L)).  Returns (alpha1, beta1); an
    array of durations stacks both along its axes.
    """
    taus = np.asarray(tau_seconds, dtype=float)
    if (taus < 0).any():
        raise ValueError("segment duration must be >= 0")
    first = sudden_switch_perturbative(geometry)
    d = _inertial_phases(taus, geometry)
    row, col = d[..., None, :], d[..., :, None]
    a1, b1 = first.alpha1, first.beta1
    alpha1 = a1.conj().T * row + col * a1
    beta1 = col * b1 - b1.T * row.conj()
    return alpha1, beta1


@lru_cache(maxsize=256)
def _tail_ratio(kp, n_max):
    """Estimated fraction of mode kp's first-order couplings that leak
    above the truncation window (amplitude sums over the next 400 modes,
    cubic-decay tail)."""
    n_in = np.arange(1, n_max + 1)
    n_out = np.arange(n_max + 1, n_max + 401)

    def env(n):
        return (first_order_mixing_magnitude(n, kp)
                + first_order_pairing_magnitude(n, kp))

    total = float(np.sum(env(n_in)))
    tail = float(np.sum(env(n_out)))
    return tail / total


def f_sums(kp, taus, geometry):
    """Degradation sums entering the quadratic fidelity correction, one
    pair of arrays (f_alpha, f_beta) over the durations `taus`.

    f_alpha = 1/2 sum_n |alpha1_{n, kp}(tau)|^2 over the first-order
    one-segment matrices, f_beta likewise for beta1, both composed from
    the switch's first-order coefficients (`one_segment_first_order`).
    These are h -> 0 objects, so they are shared by every acceleration
    of a sweep row.

    Raises TruncationError, naming the smallest adequate n_max, when the
    closed-form envelope estimates more than TAIL_LIMIT (1%) of the
    column sum to live above n_max.
    """
    if not 1 <= kp <= geometry.n_max:
        raise ValueError(f"kp must lie in 1..{geometry.n_max}")
    ratio = _tail_ratio(kp, geometry.n_max)
    if ratio > TAIL_LIMIT:
        # the smallest n_max whose interior block holds kp and that passes
        need = next((n for n in range(2 * kp, 65)
                     if _tail_ratio(kp, n) <= TAIL_LIMIT), None)
        advice = (f"use n_max >= {need}" if need is not None
                  else "no n_max up to 64 is adequate")
        raise TruncationError(
            f"mode {kp} leaks an estimated {100 * ratio:.2f}% of its "
            f"first-order weight above n_max = {geometry.n_max} (limit "
            f"{100 * TAIL_LIMIT:g}%); {advice}")
    a1, b1 = one_segment_first_order(taus, geometry)
    col = kp - 1
    f_alpha = 0.5 * np.sum(np.abs(a1[..., :, col]) ** 2, axis=-1)
    f_beta = 0.5 * np.sum(np.abs(b1[..., :, col]) ** 2, axis=-1)
    return f_alpha, f_beta
