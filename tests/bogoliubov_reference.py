"""Dense reference pairs for the Bogoliubov algebra.

The library applies a coast as a phase vector that scales the rows or
columns of a burn's transform, and never forms the identity, a free
evolution or a canonical inverse as a pair.  These builders form them as
dense (alpha, beta) matrices, so that tests can compose a trajectory
step by step with `compose` and compare.
"""

import numpy as np

from cavtel.bogoliubov import BogoliubovPair, _rindler_angles


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
