"""Covariance-matrix toolkit for Gaussian states of cavity modes.

Conventions, fixed here once and used everywhere:

* Quadratures are ordered mode-major, (x1, p1, x2, p2, ...).
* The vacuum covariance is the identity, so Heisenberg saturation reads
  sigma + i*Omega >= 0 with Omega = direct sum of [[0, 1], [-1, 0]].
* A phase advance theta of a mode acts on its quadrature pair as
  R(theta) = [[cos, sin], [-sin, cos]], i.e. sigma -> R sigma R^T.
* Two-mode states order Alice first, Rob second.

The teleportation overlap formula takes the noise matrix of the measured
combination (x_B - x_A, p_B + p_A); with the squeezed resource built by
`make_two_mode_squeezed` this combination is the squeezed one, which is
what anchors the orientation of the C block against the r = 0 benchmark
F = 1/2 and the pure-resource limit F -> 1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import PhysicalityError

__all__ = [
    "symplectic_form",
    "make_two_mode_squeezed",
    "rotation",
    "partial_transpose",
    "symplectic_eigenvalues",
    "teleport_fidelity",
    "validate_covariance",
]

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9
PAIR_TOL = 1e-7
# largest squeezing whose resource stays finite: cosh 2r overflows above
# r ~ 355.2, and the sum that symmetrises a state, 2 cosh 2r, at r ~ 354.9
SQUEEZING_MAX = 354.0

_Z = np.diag([1.0, -1.0])
_Z_ROWS = np.array([[1.0], [-1.0]])
_Z_COLS = _Z_ROWS.T
_ZZ = _Z_ROWS * _Z_COLS
_TWO_I2 = 2.0 * np.eye(2)
_ROB_MOMENTUM_FLIP = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])


def symplectic_form(n_modes):
    """Symplectic form for `n_modes` modes in mode-major ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    idx = 2 * np.arange(n_modes)
    omega[idx, idx + 1] = 1.0
    omega[idx + 1, idx] = -1.0
    return omega


def make_two_mode_squeezed(r):
    """Two-mode squeezed vacuum with squeezing parameter
    0 <= r <= SQUEEZING_MAX.

    Blocks are A = B = cosh(2r) I and C = sinh(2r) diag(1, -1); the state
    is pure (det sigma = 1) and its partial transpose has smallest
    symplectic eigenvalue exp(-2r).
    """
    if not 0 <= r <= SQUEEZING_MAX:
        raise ValueError(f"squeezing parameter must lie in "
                         f"0..{SQUEEZING_MAX:g}, got {r}")
    ch = np.cosh(2.0 * r)
    sh = np.sinh(2.0 * r)
    sigma = np.zeros((4, 4))
    sigma[:2, :2] = ch * np.eye(2)
    sigma[2:, 2:] = ch * np.eye(2)
    sigma[:2, 2:] = sh * _Z
    sigma[2:, :2] = sh * _Z
    return sigma


def rotation(theta):
    """Single-mode phase advance R(theta) = [[cos, sin], [-sin, cos]];
    an array of angles gives a stack of shape theta.shape + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(np.shape(theta) + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = -s
    out[..., 1, 1] = c
    return out


def partial_transpose(sigma):
    """Partial transpose of a two-mode state (or of each state in a
    stack): flip the momentum sign of Rob's (second) mode.  Flipping
    Alice's instead gives the same symplectic spectrum."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 covariance, got {sigma.shape}")
    return sigma * _ROB_MOMENTUM_FLIP


def _check_symmetric(m):
    if not (m != m.swapaxes(-1, -2)).any():
        return
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    dev = np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (dev > SYMMETRY_RTOL * scale).any():
        worst = float((dev / scale).max())
        raise PhysicalityError(
            f"matrix is not symmetric (relative deviation {worst:.3e})")


@lru_cache(maxsize=None)
def _omega(n_modes):
    omega = symplectic_form(n_modes)
    omega.flags.writeable = False
    return omega


def symplectic_eigenvalues(m):
    """Symplectic spectrum of a symmetric positive definite matrix, in
    ascending order; a stack (..., 2n, 2n) gives (..., n).

    With the Cholesky factor M = L L^T, the Hermitian L^T (i Omega) L is
    similar to i Omega M, so its eigenvalues are the spectrum with both
    signs, +-nu; the positive half is returned.  A failed factorisation
    means M is not positive definite.  The negative half must mirror the
    positive one within PAIR_TOL (relative), or the input was defective.
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    n = m.shape[-1] // 2
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        lowest = float(np.min(np.linalg.eigvalsh(m)))
        raise PhysicalityError(
            f"matrix is not positive definite (min eigenvalue "
            f"{lowest:.3e})") from None
    evs = np.linalg.eigvalsh(
        1j * (chol.swapaxes(-1, -2) @ _omega(n) @ chol))
    lo, hi = -evs[..., n - 1::-1], evs[..., n:]
    mismatch = (np.abs(hi - lo) / np.maximum(hi, 1.0)).max()
    if mismatch > PAIR_TOL:
        raise PhysicalityError(
            f"symplectic eigenvalue pairing failed (mismatch {mismatch:.3e})")
    return hi


def validate_covariance(sigma, n_modes=None):
    """Check symmetry and sigma + i Omega >= 0; raise PhysicalityError."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise PhysicalityError(f"bad covariance shape {sigma.shape}")
    n = sigma.shape[0] // 2
    if n_modes is not None and n != n_modes:
        raise PhysicalityError(f"expected {n_modes} modes, got {n}")
    _check_symmetric(sigma)
    h = sigma + 1j * _omega(n)
    lam = np.linalg.eigvalsh(h)[0]
    if lam < -PHYSICALITY_TOL:
        raise PhysicalityError(
            f"uncertainty bound violated (min eigenvalue {lam:.3e})")
    return sigma


def teleport_fidelity(sigma, check=True):
    """Coherent-state teleportation fidelity from a two-mode resource, or
    from each resource in a stack (..., 4, 4).

    The output noise matrix is the covariance N of the relayed quadrature
    errors (x_B - x_A, p_B + p_A); the average overlap with the input
    coherent state is 2 / sqrt(det(2 I + N)).
    """
    sigma = np.asarray(sigma, dtype=float)
    if check:
        for one in sigma.reshape((-1,) + sigma.shape[-2:]):
            validate_covariance(one, n_modes=2)
    a = sigma[..., :2, :2]
    b = sigma[..., 2:, 2:]
    c = sigma[..., :2, 2:]
    # the products with Z = diag(1, -1) are exact sign flips
    n = a * _ZZ + b - _Z_ROWS * c - c.swapaxes(-1, -2) * _Z_COLS
    det = np.linalg.det(_TWO_I2 + n)
    if (det <= 0).any():
        raise PhysicalityError(
            f"non-positive overlap determinant {det.min():.3e}")
    fidelity = 2.0 / np.sqrt(det)
    return float(fidelity) if fidelity.ndim == 0 else fidelity
