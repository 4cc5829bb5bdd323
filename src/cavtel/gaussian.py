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

import numpy as np

from .errors import PhysicalityError

__all__ = [
    "symplectic_form",
    "make_two_mode_squeezed",
    "rotation",
    "local_rotation",
    "partial_transpose",
    "symplectic_eigenvalues",
    "teleport_fidelity",
    "validate_covariance",
]

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9
PAIR_TOL = 1e-7

_Z = np.diag([1.0, -1.0])
_ROB_MOMENTUM_FLIP = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])


def symplectic_form(n_modes):
    """Symplectic form for `n_modes` modes in mode-major ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    idx = 2 * np.arange(n_modes)
    omega[idx, idx + 1] = 1.0
    omega[idx + 1, idx] = -1.0
    return omega


def make_two_mode_squeezed(r):
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    Blocks are A = B = cosh(2r) I and C = sinh(2r) diag(1, -1); the state
    is pure (det sigma = 1) and its partial transpose has smallest
    symplectic eigenvalue exp(-2r).
    """
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    ch = np.cosh(2.0 * r)
    sh = np.sinh(2.0 * r)
    sigma = np.zeros((4, 4))
    sigma[:2, :2] = ch * np.eye(2)
    sigma[2:, 2:] = ch * np.eye(2)
    sigma[:2, 2:] = sh * _Z
    sigma[2:, :2] = sh * _Z
    return sigma


def rotation(theta):
    """Single-mode phase advance R(theta) = [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def local_rotation(theta_a, theta_b):
    """Two-mode symplectic applying phases theta_a, theta_b locally."""
    out = np.zeros((4, 4))
    out[:2, :2] = rotation(theta_a)
    out[2:, 2:] = rotation(theta_b)
    return out


def partial_transpose(sigma):
    """Partial transpose of a two-mode state: flip the momentum sign of
    Rob's (second) mode.  Flipping Alice's instead gives the same
    symplectic spectrum."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (4, 4):
        raise ValueError(f"expected a 4x4 covariance, got {sigma.shape}")
    return sigma * _ROB_MOMENTUM_FLIP


def _check_symmetric(m):
    scale = max(float(np.max(np.abs(m))), 1.0)
    dev = float(np.max(np.abs(m - m.T)))
    if dev > SYMMETRY_RTOL * scale:
        raise PhysicalityError(
            f"matrix is not symmetric (relative deviation {dev / scale:.3e})")


def symplectic_eigenvalues(m):
    """Symplectic spectrum of a symmetric positive definite matrix.

    Computed as the moduli of the eigenvalues of i Omega M, which come in
    equal pairs; adjacent pairs after sorting are averaged.  A pair
    mismatch beyond PAIR_TOL (relative) aborts, since it signals a
    defective or non-positive input.
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    n = m.shape[0] // 2
    evs = np.linalg.eigvalsh(m)
    if evs[0] <= 0:
        raise PhysicalityError(
            f"matrix is not positive definite (min eigenvalue {evs[0]:.3e})")
    mods = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n) @ m)))
    lo, hi = mods[0::2], mods[1::2]
    mean = 0.5 * (lo + hi)
    mismatch = np.max((hi - lo) / np.maximum(mean, 1.0))
    if mismatch > PAIR_TOL:
        raise PhysicalityError(
            f"symplectic eigenvalue pairing failed (mismatch {mismatch:.3e})")
    return mean


def validate_covariance(sigma, n_modes=None):
    """Check symmetry and sigma + i Omega >= 0; raise PhysicalityError."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise PhysicalityError(f"bad covariance shape {sigma.shape}")
    n = sigma.shape[0] // 2
    if n_modes is not None and n != n_modes:
        raise PhysicalityError(f"expected {n_modes} modes, got {n}")
    _check_symmetric(sigma)
    h = sigma + 1j * symplectic_form(n)
    lam = np.linalg.eigvalsh(h)[0]
    if lam < -PHYSICALITY_TOL:
        raise PhysicalityError(
            f"uncertainty bound violated (min eigenvalue {lam:.3e})")
    return sigma


def teleport_fidelity(sigma, check=True):
    """Coherent-state teleportation fidelity from a two-mode resource.

    The output noise matrix is the covariance N of the relayed quadrature
    errors (x_B - x_A, p_B + p_A); the average overlap with the input
    coherent state is 2 / sqrt(det(2 I + N)).
    """
    sigma = np.asarray(sigma, dtype=float)
    if check:
        validate_covariance(sigma, n_modes=2)
    a = sigma[:2, :2]
    b = sigma[2:, 2:]
    c = sigma[:2, 2:]
    n = _Z @ a @ _Z + b - _Z @ c - c.T @ _Z
    det = float(np.linalg.det(2.0 * np.eye(2) + n))
    if det <= 0:
        raise PhysicalityError(f"non-positive overlap determinant {det:.3e}")
    return float(2.0 / np.sqrt(det))
