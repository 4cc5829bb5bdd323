"""Teleportation fidelity pipelines for a moving receiver cavity.

Alice keeps one arm of a two-mode squeezed resource; the other arm is
mode kp of Rob's cavity.  Motion transforms Rob's register through the
symplectic image of the trajectory's Bogoliubov pair, the two protocol
modes are traced back out, and the fidelity functional is evaluated on
the reduced state.  Four numbers are reported per trajectory:

* raw fidelity, no phase bookkeeping at all;
* corrected fidelity, after both parties undo their locally known
  free-evolution phases (omega_k t for Alice, omega_kp tau for Rob);
* the optimal bound 1 / (1 + nu) from the reduced state's partial
  transpose, which no local phase choice can beat;
* the quadratic-in-h prediction built from the degradation sums of
  `bogoliubov.f_sums`.

The numeric path never uses the perturbative coefficients, so comparing
the two is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .bogoliubov import CavityGeometry, _interior_count, f_sums, to_symplectic
from .errors import ConsistencyError, PhysicalityError, TruncationError
from .gaussian import (
    local_rotation,
    make_two_mode_squeezed,
    partial_transpose,
    rotation,
    symplectic_eigenvalues,
    teleport_fidelity,
)
from .trajectory import Trajectory, build_transform, h_parameter, phase_pair

__all__ = [
    "DEFAULT_GEOMETRY",
    "ProtocolParams",
    "FidelityReport",
    "fidelity_raw",
    "fidelity_corrected",
    "fidelity_optimal",
    "perturbative_fidelity",
    "perturbative_optimal",
    "consistency_report",
]

log = logging.getLogger(__name__)

# circuit-QED style defaults: 1.2 cm effective cavity, c/2.5 light speed
DEFAULT_GEOMETRY = CavityGeometry(L=0.012, c=1.2e8, n_max=10)

ORDER_TOL = 1e-9


@dataclass(frozen=True)
class ProtocolParams:
    """Resource squeezing and the two protocol mode indices."""

    r: float = 0.5
    k: int = 1
    kp: int = 3
    geometry: CavityGeometry = DEFAULT_GEOMETRY

    def __post_init__(self):
        if not 0 <= self.r < math.inf:
            raise ValueError("squeezing r must be finite and >= 0")
        if self.k < 1:
            raise ValueError("Alice mode index must be >= 1")
        if not 1 <= self.kp <= self.geometry.n_max:
            raise ValueError(
                f"Rob mode index must lie in 1..{self.geometry.n_max}")


def _check_trajectory(params, trajectory):
    if not isinstance(trajectory, Trajectory):
        raise TypeError("expected a Trajectory")
    if trajectory.geometry != params.geometry:
        raise ValueError("trajectory and params disagree on the geometry")
    # an accelerated transform's defect covers only the interior block,
    # so outside it neither the physicality allowance nor the ordering
    # slack bounds the truncation error; coasting phases are exact
    n_max = params.geometry.n_max
    interior = _interior_count(n_max)
    if trajectory.n_accelerated and params.kp > interior:
        raise TruncationError(
            f"Rob mode kp = {params.kp} lies outside the interior block "
            f"1..{interior} of n_max = {n_max}, where accelerated "
            f"transforms are validated; use n_max >= {2 * params.kp}")


def _motion_state(params, trajectory, alice_clock="lab"):
    """Reduced (Alice, Rob-kp) covariance after the trajectory.

    Returns (sigma, defect, phases).  Rob's other modes start in vacuum,
    so only mode kp's rows S_k of the trajectory's symplectic matrix
    enter, with their diagonal block S_kk and resource blocks A, B, C:
    sigma_BB = S_k S_k^T + S_kk (B - I) S_kk^T, sigma_AB = R_A C S_kk^T.
    Truncation can push the reduced matrix slightly outside the physical
    cone; violations within ten times the transformation defect are
    projected back by a uniform noise floor, anything larger aborts.
    With a burn in the trajectory, kp must lie in the interior block
    (kp <= n_max // 2), or TruncationError is raised.
    """
    _check_trajectory(params, trajectory)
    pair = build_transform(trajectory)
    phases = phase_pair(trajectory, params.k, params.kp, alice_clock)

    resource = make_two_mode_squeezed(params.r)
    j = 2 * (params.kp - 1)
    rows = to_symplectic(pair)[j:j + 2]
    s_kk = rows[:, j:j + 2]
    sigma = np.empty((4, 4))
    sigma[:2, :2] = resource[:2, :2]
    sigma[2:, 2:] = rows @ rows.T \
        + s_kk @ (resource[2:, 2:] - np.eye(2)) @ s_kk.T
    sigma[:2, 2:] = rotation(phases.theta_alice) @ resource[:2, 2:] @ s_kk.T
    sigma[2:, :2] = sigma[:2, 2:].T
    sigma = 0.5 * (sigma + sigma.T)
    omega = gaussian.symplectic_form(2)
    lam = np.linalg.eigvalsh(sigma + 1j * omega).min()
    violation = max(0.0, -float(lam))
    allowance = max(gaussian.PHYSICALITY_TOL, 10.0 * pair.defect)
    if violation > allowance:
        raise PhysicalityError(
            f"reduced state violates the uncertainty bound by "
            f"{violation:.3e} (allowance {allowance:.3e}); this indicates "
            "a defect in the mode transformation, not bad input")
    if violation > 0.0:
        sigma = sigma + violation * np.eye(4)
        log.debug("clamped reduced state by %.3e", violation)
    return sigma, pair.defect, phases


def _numeric(params, trajectory, alice_clock):
    """The numeric pipelines on one reduced state:
    (F_raw, F_corrected, nu, defect, phases)."""
    sigma, defect, phases = _motion_state(params, trajectory, alice_clock)
    f_raw = teleport_fidelity(sigma, check=False)
    undo = local_rotation(-phases.theta_alice, -phases.theta_rob)
    f_corr = teleport_fidelity(undo @ sigma @ undo.T, check=False)
    nu = symplectic_eigenvalues(partial_transpose(sigma))[0]
    return f_raw, f_corr, nu, defect, phases


def fidelity_raw(params, trajectory, alice_clock="lab"):
    """Fidelity with no phase correction applied."""
    return _numeric(params, trajectory, alice_clock)[0]


def fidelity_corrected(params, trajectory, alice_clock="lab"):
    """Fidelity after both parties undo their proper-time phases."""
    return _numeric(params, trajectory, alice_clock)[1]


def fidelity_optimal(params, trajectory, alice_clock="lab"):
    """Best fidelity any local phase choice could reach, with nu.

    Returns (1 / (1 + nu), nu) for the smallest partial-transpose
    symplectic eigenvalue of the reduced state; invariant under the
    phase correction because local rotations are symplectic.
    """
    nu = _numeric(params, trajectory, alice_clock)[2]
    return 1.0 / (1.0 + nu), nu


def perturbative_fidelity(r, phi, f_alpha, f_beta, h):
    """Closed-form phase-dependent fidelity to second order in h.

    The leading term is 1 / (1 + cosh 2r - cos phi sinh 2r); motion
    subtracts h^2 (F0)^2 (1 + e^{-2r}) (f_beta + f_alpha tanh 2r).
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    if f_alpha < 0 or f_beta < 0:
        raise ValueError("degradation sums must be >= 0")
    f0 = 1.0 / (1.0 + math.cosh(2 * r) - math.cos(phi) * math.sinh(2 * r))
    f2 = f0 * f0 * (1.0 + math.exp(-2 * r)) \
        * (f_beta + f_alpha * math.tanh(2 * r))
    return f0 - f2 * h * h


def perturbative_optimal(r, f_alpha, f_beta, h):
    """Phase-corrected optimum to second order in h,
    (1 - (f_beta + f_alpha tanh 2r) h^2) / (1 + e^{-2r})."""
    if h < 0:
        raise ValueError("h must be >= 0")
    if f_alpha < 0 or f_beta < 0:
        raise ValueError("degradation sums must be >= 0")
    f0 = 1.0 / (1.0 + math.exp(-2 * r))
    return f0 * (1.0 - (f_beta + f_alpha * math.tanh(2 * r)) * h * h)


@dataclass(frozen=True)
class FidelityReport:
    """All pipelines evaluated on one trajectory.

    The perturbative fields hold NaN when the trajectory has more than
    one accelerated segment; the quadratic formula describes a single
    switch-evolve-switch episode and silently misapplying it to
    composites would be worse than admitting ignorance.
    """

    F_raw: float
    F_corrected: float
    F_opt_numeric: float
    F_pert: float
    F_pert_opt: float
    nu: float
    phi: float
    h: float
    residual_pert: float
    defect: float


def consistency_report(params, trajectory, alice_clock="lab"):
    """Evaluate every pipeline on the trajectory and cross-check them."""
    f_raw, f_corr, nu, defect, phases = _numeric(params, trajectory,
                                                 alice_clock)
    f_opt = 1.0 / (1.0 + nu)

    geom = params.geometry
    n_acc = trajectory.n_accelerated
    if n_acc == 0:
        h = 0.0
        f_pert = perturbative_fidelity(params.r, phases.phi, 0.0, 0.0, 0.0)
        f_pert_opt = perturbative_optimal(params.r, 0.0, 0.0, 0.0)
    elif n_acc == 1:
        seg = trajectory.single_acceleration()
        h = h_parameter(seg.a, geom.L, geom.c)
        fa, fb = f_sums(params.kp, seg.tau, h, geom)
        f_pert = perturbative_fidelity(params.r, phases.phi, fa, fb, h)
        f_pert_opt = perturbative_optimal(params.r, fa, fb, h)
    else:
        h = f_pert = f_pert_opt = math.nan

    slack = ORDER_TOL + 10.0 * defect
    if f_raw > f_opt + slack or f_corr > f_opt + slack:
        raise ConsistencyError(
            f"fidelity ordering violated: raw {f_raw:.12f}, corrected "
            f"{f_corr:.12f}, optimal bound {f_opt:.12f}")

    residual = abs(f_corr - f_pert_opt) if n_acc <= 1 else math.nan
    return FidelityReport(
        F_raw=f_raw, F_corrected=f_corr, F_opt_numeric=f_opt,
        F_pert=f_pert, F_pert_opt=f_pert_opt, nu=nu,
        phi=phases.phi, h=h, residual_pert=residual, defect=defect)
