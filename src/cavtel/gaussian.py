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
    "vacuum_state",
    "make_two_mode_squeezed",
    "local_rotation",
    "rotation_direct_sum",
    "partial_transpose",
    "symplectic_eigenvalues",
    "teleport_fidelity",
    "validate_covariance",
    "symplectic_defect",
    "assert_symplectic",
]

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9
PAIR_TOL = 1e-7

_Z = np.diag([1.0, -1.0])


def symplectic_form(n_modes):
    """Symplectic form for `n_modes` modes in mode-major ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    idx = 2 * np.arange(n_modes)
    omega[idx, idx + 1] = 1.0
    omega[idx + 1, idx] = -1.0
    return omega


def vacuum_state(n_modes):
    """Vacuum covariance (identity in this normalization)."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return np.eye(2 * n_modes)


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


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def rotation_direct_sum(angles):
    """Direct sum of single-mode phase rotations."""
    angles = np.atleast_1d(angles)
    out = np.zeros((2 * angles.size, 2 * angles.size))
    for i, th in enumerate(angles):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = _rot(th)
    return out


def local_rotation(theta_a, theta_b):
    """Two-mode symplectic applying phases theta_a, theta_b locally."""
    return rotation_direct_sum([theta_a, theta_b])


def partial_transpose(sigma, which=1):
    """Partial transpose: flip the momentum sign of mode `which`."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    if not 0 <= which < n:
        raise ValueError(f"mode index {which} out of range 0..{n - 1}")
    p = np.ones(2 * n)
    p[2 * which + 1] = -1.0
    return sigma * np.outer(p, p)


def _check_symmetric(m, rtol=SYMMETRY_RTOL):
    scale = max(float(np.max(np.abs(m))), 1.0)
    dev = float(np.max(np.abs(m - m.T)))
    if dev > rtol * scale:
        raise PhysicalityError(
            f"matrix is not symmetric (relative deviation {dev / scale:.3e})")


def symplectic_eigenvalues(m, pair_tol=PAIR_TOL):
    """Symplectic spectrum of a symmetric positive definite matrix.

    Computed as the moduli of the eigenvalues of i Omega M, which come in
    equal pairs; adjacent pairs after sorting are averaged.  A pair
    mismatch beyond `pair_tol` (relative) aborts, since it signals a
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
    if mismatch > pair_tol:
        raise PhysicalityError(
            f"symplectic eigenvalue pairing failed (mismatch {mismatch:.3e})")
    return mean


def validate_covariance(sigma, n_modes=None, sym_rtol=SYMMETRY_RTOL,
                        phys_tol=PHYSICALITY_TOL):
    """Check symmetry and sigma + i Omega >= 0; raise PhysicalityError."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise PhysicalityError(f"bad covariance shape {sigma.shape}")
    n = sigma.shape[0] // 2
    if n_modes is not None and n != n_modes:
        raise PhysicalityError(f"expected {n_modes} modes, got {n}")
    _check_symmetric(sigma, sym_rtol)
    h = sigma + 1j * symplectic_form(n)
    lam = np.linalg.eigvalsh(h)[0]
    if lam < -phys_tol:
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


def symplectic_defect(s):
    """Max-norm residual of S Omega S^T - Omega."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0] // 2
    omega = symplectic_form(n)
    return float(np.max(np.abs(s @ omega @ s.T - omega)))


def assert_symplectic(s, tol=1e-9):
    dev = symplectic_defect(s)
    if dev > tol:
        raise PhysicalityError(f"matrix is not symplectic (residual {dev:.3e})")
    return s
