"""Dense reference pairs for the Bogoliubov algebra.

The library applies a coast as a phase vector that scales the rows or
columns of a burn's transform, and never forms the identity, a free
evolution or a canonical inverse as a pair.  These builders form them as
dense (alpha, beta) matrices, so that tests can compose a trajectory
step by step with `compose` and compare.  Likewise `f_sums` builds one
column of the first-order one-segment matrices; the full matrices are
built here.
"""

import numpy as np

from cavtel.bogoliubov import (
    BogoliubovPair,
    _inertial_phases,
    _rindler_angles,
    sudden_switch_perturbative,
)


def identity_pair(n):
    return BogoliubovPair(np.eye(n, dtype=complex),
                          np.zeros((n, n), dtype=complex), 0.0)


def inverse(b):
    """Canonical inverse (alpha -> alpha^dagger, beta -> -beta^T); it
    swaps the row and column identities, so the defect carries over."""
    return BogoliubovPair(b.alpha.conj().T, -b.beta.T, b.defect)


def phase_evolution_minkowski(t_seconds, geometry):
    """Free inertial evolution for a lab-time duration (beta = 0)."""
    n = np.arange(1, geometry.n_max + 1)
    theta = n * np.pi * geometry.natural_time(t_seconds)
    return BogoliubovPair(np.diag(np.exp(-1j * theta)),
                          np.zeros((geometry.n_max,) * 2, dtype=complex), 0.0)


def phase_evolution_rindler(tau_seconds, h, geometry):
    """Free accelerated evolution for a center proper-time duration.

    The dimensionless wedge time is eta = |h| tau c / L; phases approach
    the inertial ones as h -> 0 (relative frequency shift about h^2/12).
    """
    theta = _rindler_angles(tau_seconds, h, geometry)
    return BogoliubovPair(np.diag(np.exp(-1j * theta)),
                          np.zeros((geometry.n_max,) * 2, dtype=complex), 0.0)


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
