"""Full-register reference for the reduced (Alice, Rob-kp) state, and
two references for the symplectic spectrum.

Embeds the resource into Alice's mode plus Rob's whole cavity register,
applies the trajectory's symplectic matrix to all of it, and reads the
4x4 block back out.  The library builds the same state from mode kp's
two quadrature rows only; tests compare the two.  `local_rotation` is
the two-mode phase rotation the library applies blockwise.

The library's spectrum is a two-mode closed form.  Its references are
the n-mode Hermitian eigensolve (`symplectic_eigenvalues_eigvalsh`) and
a 40-digit evaluation of the two-mode invariants
(`smallest_symplectic_eigenvalue_decimal`).
"""

from decimal import Decimal, localcontext

import numpy as np

from cavtel import gaussian
from cavtel.gaussian import make_two_mode_squeezed, rotation
from cavtel.trajectory import phase_pair

from bogoliubov_reference import build_transform, to_symplectic


def local_rotation(theta_a, theta_b):
    """Two-mode symplectic applying phases theta_a, theta_b locally
    (stacked like `rotation` for arrays of angles)."""
    out = np.zeros(np.broadcast_shapes(np.shape(theta_a),
                                       np.shape(theta_b)) + (4, 4))
    out[..., :2, :2] = rotation(theta_a)
    out[..., 2:, 2:] = rotation(theta_b)
    return out


def _block(sigma, i, j):
    return sigma[2 * i:2 * i + 2, 2 * j:2 * j + 2]


def embed_with_vacuum(sigma2, alice_mode, rob_index, n_rob_modes):
    """Embed a two-mode state into Alice's mode plus Rob's cavity register.

    Mode `alice_mode` (0 or 1) of the 4x4 `sigma2` is Alice's; the other
    half goes to 1-based cavity mode `rob_index` of an `n_rob_modes`
    register whose other modes start in vacuum.  Alice is global mode 0
    and cavity mode n is global mode n.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    if sigma2.shape != (4, 4):
        raise ValueError("resource state must be a 4x4 covariance")
    if alice_mode not in (0, 1):
        raise ValueError("alice_mode must be 0 or 1")
    if not 1 <= rob_index <= n_rob_modes:
        raise ValueError(
            f"rob_index {rob_index} out of range 1..{n_rob_modes}")
    rob_mode = 1 - alice_mode
    out = np.eye(2 * (1 + n_rob_modes))
    g = rob_index
    out[0:2, 0:2] = _block(sigma2, alice_mode, alice_mode)
    out[2 * g:2 * g + 2, 2 * g:2 * g + 2] = _block(sigma2, rob_mode, rob_mode)
    out[0:2, 2 * g:2 * g + 2] = _block(sigma2, alice_mode, rob_mode)
    out[2 * g:2 * g + 2, 0:2] = _block(sigma2, rob_mode, alice_mode)
    return out


def reduce_modes(sigma, modes):
    """Covariance of the listed modes (0-based, order preserved)."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("mode list contains duplicates")
    for m in modes:
        if not 0 <= m < n:
            raise ValueError(f"mode index {m} out of range 0..{n - 1}")
    idx = np.concatenate([(2 * m, 2 * m + 1) for m in modes])
    return sigma[np.ix_(idx, idx)].copy()


def full_register_state(params, trajectory, alice_clock="lab"):
    """Reduced state through the 2(n_max + 1)-square sandwich, with the
    same clamp into the physical cone that the library applies."""
    geom = params.geometry
    pair = build_transform(trajectory)
    phases = phase_pair(trajectory, params.k, params.kp, alice_clock)
    full = embed_with_vacuum(make_two_mode_squeezed(params.r), alice_mode=0,
                             rob_index=params.kp, n_rob_modes=geom.n_max)
    dim = full.shape[0]
    s = np.zeros((dim, dim))
    s[:2, :2] = rotation(phases.theta_alice)
    s[2:, 2:] = to_symplectic(pair)
    sigma = reduce_modes(s @ full @ s.T, [0, params.kp])
    sigma = 0.5 * (sigma + sigma.T)
    lam = np.linalg.eigvalsh(sigma + 1j * gaussian.symplectic_form(2)).min()
    return sigma + max(0.0, -float(lam)) * np.eye(4)


def symplectic_eigenvalues_eigvalsh(m):
    """Symplectic spectrum of a symmetric positive definite matrix, or
    of each in a stack (..., 2n, 2n), in ascending order (..., n).

    With the Cholesky factor M = L L^T, the Hermitian L^T (i Omega) L is
    similar to i Omega M, so its eigenvalues are the spectrum with both
    signs; the positive half is returned.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1] // 2
    chol = np.linalg.cholesky(m)
    evs = np.linalg.eigvalsh(
        1j * (chol.swapaxes(-1, -2) @ gaussian.symplectic_form(n) @ chol))
    return evs[..., n:]


def _det(rows):
    # cofactor expansion along the first row
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)))


def smallest_symplectic_eigenvalue_decimal(m, digits=40):
    """nu_- of a two-mode 4x4 matrix from its invariants, in `digits`
    decimal digits: with Delta = det A + det B + 2 det C of its 2x2
    blocks, nu_-^2 = 2 det M / (Delta + sqrt(Delta^2 - 4 det M)).  The
    entries enter exactly (Decimal of a float is exact)."""
    with localcontext() as ctx:
        ctx.prec = digits
        rows = [[Decimal(float(x)) for x in row] for row in m]

        def block_det(i, j):
            return (rows[i][j] * rows[i + 1][j + 1]
                    - rows[i][j + 1] * rows[i + 1][j])

        delta = block_det(0, 0) + block_det(2, 2) + 2 * block_det(0, 2)
        det = _det(rows)
        return (2 * det / (delta + (delta * delta - 4 * det).sqrt())).sqrt()
