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

Every numeric result comes from one state kernel that works on a column
of T transforms at once: the reduced states, the physicality check and
clamp, both fidelities, nu and the ordering check are (T, ...) array
operations.  A sweep column (one acceleration, T proper durations) shares
one switch pair and one stacked transform (`burn_column`); a single
trajectory is a column of length 1.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import gaussian
from .bogoliubov import (
    BogoliubovPair,
    CavityGeometry,
    _interior_count,
    f_sums,
    one_segment_transform,
    to_symplectic,
)
from .errors import ConsistencyError, PhysicalityError, TruncationError
from .gaussian import (
    local_rotation,
    make_two_mode_squeezed,
    partial_transpose,
    rotation,
    symplectic_eigenvalues,
    teleport_fidelity,
)
from .trajectory import (
    PhasePair,
    Trajectory,
    build_transform,
    burn_phase_pairs,
    h_parameter,
    phase_pair,
)

__all__ = [
    "DEFAULT_GEOMETRY",
    "ProtocolParams",
    "FidelityReport",
    "ReportColumn",
    "fidelity_raw",
    "fidelity_corrected",
    "fidelity_optimal",
    "perturbative_fidelity",
    "perturbative_optimal",
    "consistency_report",
    "burn_column",
]

log = logging.getLogger(__name__)

# circuit-QED style defaults: 1.2 cm effective cavity, c/2.5 light speed
DEFAULT_GEOMETRY = CavityGeometry(L=0.012, c=1.2e8, n_max=10)

ORDER_TOL = 1e-9

# built once: a one-point column must not pay for them on every call
_I2 = np.eye(2)
_I4 = np.eye(4)
_I_OMEGA2 = 1j * gaussian.symplectic_form(2)


@lru_cache(maxsize=64)
def _resource(r):
    """Alice's block, the cross block C and Rob's excess noise B - I of
    the resource, read-only."""
    sigma = make_two_mode_squeezed(r)
    blocks = sigma[:2, :2], sigma[:2, 2:], sigma[2:, 2:] - _I2
    for block in blocks:
        block.flags.writeable = False
    return blocks


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


def _check_interior(params):
    # an accelerated transform's defect covers only the interior block,
    # so outside it neither the physicality allowance nor the ordering
    # slack bounds the truncation error; coasting phases are exact
    n_max = params.geometry.n_max
    interior = _interior_count(n_max)
    if params.kp > interior:
        raise TruncationError(
            f"Rob mode kp = {params.kp} lies outside the interior block "
            f"1..{interior} of n_max = {n_max}, where accelerated "
            f"transforms are validated; use n_max >= {2 * params.kp}")


class _State(namedtuple("_State", "sigma defect violation phases f_raw "
                                  "f_corr nu")):
    """Numeric pipelines on a column of T reduced states: sigma (T, 4, 4),
    the PhasePair of (T,) arrays, and the other fields (T,) each."""

    __slots__ = ()


def _state_kernel(params, pair, phases):
    """Reduced (Alice, Rob-kp) covariances and the numeric pipelines for
    a stacked pair (T, n, n) with one defect per transform, and a
    PhasePair of (T,) arrays.

    Rob's other modes start in vacuum, so only mode kp's rows S_k of each
    transform's symplectic matrix enter, with their diagonal block S_kk
    and resource blocks A, B, C:
    sigma_BB = S_k S_k^T + S_kk (B - I) S_kk^T, sigma_AB = R_A C S_kk^T.
    Truncation can push a reduced matrix slightly outside the physical
    cone; violations within ten times that transform's defect are
    projected back by a uniform noise floor (one DEBUG record per
    clamped state), anything larger raises PhysicalityError.  A raw or
    corrected fidelity above the optimal bound by more than the defect
    slack raises ConsistencyError.
    """
    alice, cross, excess = _resource(params.r)
    j = 2 * (params.kp - 1)
    rows = to_symplectic(pair)[:, j:j + 2]
    s_kk = rows[:, :, j:j + 2]
    s_kk_t = s_kk.swapaxes(-1, -2)
    sigma = np.empty((rows.shape[0], 4, 4))
    sigma[:, :2, :2] = alice
    sigma[:, 2:, 2:] = rows @ rows.swapaxes(-1, -2) + s_kk @ excess @ s_kk_t
    sigma[:, :2, 2:] = rotation(phases.theta_alice) @ cross @ s_kk_t
    sigma[:, 2:, :2] = sigma[:, :2, 2:].swapaxes(-1, -2)
    sigma = 0.5 * (sigma + sigma.swapaxes(-1, -2))

    lam = np.linalg.eigvalsh(sigma + _I_OMEGA2)[:, 0]
    violation = np.maximum(0.0, -lam)
    allowance = np.maximum(gaussian.PHYSICALITY_TOL, 10.0 * pair.defect)
    over = violation > allowance
    if over.any():
        i = over.argmax()
        raise PhysicalityError(
            f"reduced state violates the uncertainty bound by "
            f"{violation[i]:.3e} (allowance {allowance[i]:.3e}); this "
            "indicates a defect in the mode transformation, not bad input")
    if violation.any():
        clamped = np.flatnonzero(violation)
        sigma[clamped] += violation[clamped, None, None] * _I4
        for i in clamped:
            log.debug("clamped reduced state by %.3e", float(violation[i]))

    # one fidelity call for both states: at T = 1 call overhead dominates
    undo = local_rotation(-phases.theta_alice, -phases.theta_rob)
    both = np.empty((2,) + sigma.shape)
    both[0] = sigma
    both[1] = undo @ sigma @ undo.swapaxes(-1, -2)
    f_raw, f_corr = teleport_fidelity(both, check=False)
    nu = symplectic_eigenvalues(partial_transpose(sigma))[:, 0]

    f_opt = 1.0 / (1.0 + nu)
    slack = ORDER_TOL + 10.0 * pair.defect
    bad = (f_raw > f_opt + slack) | (f_corr > f_opt + slack)
    if bad.any():
        i = bad.argmax()
        raise ConsistencyError(
            f"fidelity ordering violated: raw {f_raw[i]:.12f}, corrected "
            f"{f_corr[i]:.12f}, optimal bound {f_opt[i]:.12f}")
    return _State(sigma, pair.defect, violation, phases, f_raw, f_corr, nu)


def _trajectory_state(params, trajectory, alice_clock):
    """The kernel on one trajectory, as a column of length 1: its
    `build_transform` pair and its `phase_pair`."""
    if not isinstance(trajectory, Trajectory):
        raise TypeError("expected a Trajectory")
    if trajectory.geometry != params.geometry:
        raise ValueError("trajectory and params disagree on the geometry")
    if trajectory.n_accelerated:
        _check_interior(params)
    pair = build_transform(trajectory)
    phases = phase_pair(trajectory, params.k, params.kp, alice_clock)
    stacked = BogoliubovPair(pair.alpha[None], pair.beta[None],
                             np.array([pair.defect]))
    column = PhasePair(np.array([phases.theta_alice]),
                       np.array([phases.theta_rob]))
    return _state_kernel(params, stacked, column)


def fidelity_raw(params, trajectory, alice_clock="lab"):
    """Fidelity with no phase correction applied."""
    return float(_trajectory_state(params, trajectory, alice_clock).f_raw[0])


def fidelity_corrected(params, trajectory, alice_clock="lab"):
    """Fidelity after both parties undo their proper-time phases."""
    return float(
        _trajectory_state(params, trajectory, alice_clock).f_corr[0])


def fidelity_optimal(params, trajectory, alice_clock="lab"):
    """Best fidelity any local phase choice could reach, with nu.

    Returns (1 / (1 + nu), nu) for the smallest partial-transpose
    symplectic eigenvalue of the reduced state; invariant under the
    phase correction because local rotations are symplectic.
    """
    nu = float(_trajectory_state(params, trajectory, alice_clock).nu[0])
    return 1.0 / (1.0 + nu), nu


def _check_sums(f_alpha, f_beta, h):
    if h < 0:
        raise ValueError("h must be >= 0")
    if np.less(np.minimum(f_alpha, f_beta), 0).any():
        raise ValueError("degradation sums must be >= 0")


def perturbative_fidelity(r, phi, f_alpha, f_beta, h):
    """Closed-form phase-dependent fidelity to second order in h.

    The leading term is 1 / (1 + cosh 2r - cos phi sinh 2r); motion
    subtracts h^2 (F0)^2 (1 + e^{-2r}) (f_beta + f_alpha tanh 2r).
    phi and the sums may be arrays.
    """
    _check_sums(f_alpha, f_beta, h)
    f0 = 1.0 / (1.0 + math.cosh(2 * r) - np.cos(phi) * math.sinh(2 * r))
    f2 = f0 * f0 * (1.0 + math.exp(-2 * r)) \
        * (f_beta + f_alpha * math.tanh(2 * r))
    return f0 - f2 * h * h


def perturbative_optimal(r, f_alpha, f_beta, h):
    """Phase-corrected optimum to second order in h,
    (1 - (f_beta + f_alpha tanh 2r) h^2) / (1 + e^{-2r}); the sums may be
    arrays."""
    _check_sums(f_alpha, f_beta, h)
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


class ReportColumn(namedtuple(
        "ReportColumn", "F_raw F_corrected F_opt_numeric F_pert F_pert_opt "
                        "nu phi h residual_pert defect clamp")):
    """The `FidelityReport` fields of T trajectories as (T,) arrays (h is
    shared), with `clamp`, the noise floor each reduced state was
    shifted by to bring it back into the physical cone (0 if none)."""

    __slots__ = ()

    def report(self, i):
        """The FidelityReport of trajectory i."""
        values = {name: float(getattr(self, name)[i])
                  for name in _PER_POINT_FIELDS}
        return FidelityReport(h=float(self.h), **values)


_PER_POINT_FIELDS = tuple(f.name for f in fields(FidelityReport)
                          if f.name != "h")


def _report_column(params, state, h, sums):
    """Add the quadratic model, from the degradation sums (f_alpha,
    f_beta) or NaN when `sums` is None, to the numeric pipelines."""
    phi = state.phases.phi
    if sums is None:
        f_pert = f_pert_opt = residual = np.full(phi.shape, math.nan)
    else:
        fa, fb = sums
        f_pert = perturbative_fidelity(params.r, phi, fa, fb, h)
        f_pert_opt = perturbative_optimal(params.r, fa, fb, h)
        residual = np.abs(state.f_corr - f_pert_opt)
    return ReportColumn(
        F_raw=state.f_raw, F_corrected=state.f_corr,
        F_opt_numeric=1.0 / (1.0 + state.nu), F_pert=f_pert,
        F_pert_opt=f_pert_opt, nu=state.nu, phi=phi, h=h,
        residual_pert=residual, defect=state.defect,
        clamp=state.violation)


def burn_column(params, a, taus, alice_clock="lab"):
    """Every pipeline on the single-burn trajectories (Accelerated(a, tau),)
    for each proper duration in the 1-D `taus`, as one ReportColumn.

    The column shares one switch from the oracle cache, one stacked
    transform and one pass of the state kernel; row i equals
    `consistency_report` on the trajectory of taus[i] bit for bit.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("acceleration must be positive and finite")
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or not ((taus >= 0.0) & (taus < math.inf)).all():
        raise ValueError("proper durations must be a 1-D array of finite "
                         "values >= 0")
    _check_interior(params)
    geom = params.geometry
    h = h_parameter(a, geom.L, geom.c)
    pair = one_segment_transform(taus, h, geom)
    phases = burn_phase_pairs(a, taus, geom, params.k, params.kp,
                              alice_clock)
    state = _state_kernel(params, pair, phases)
    return _report_column(params, state, h, f_sums(params.kp, taus, geom))


def consistency_report(params, trajectory, alice_clock="lab"):
    """Evaluate every pipeline on the trajectory and cross-check them."""
    state = _trajectory_state(params, trajectory, alice_clock)
    geom = params.geometry
    n_acc = trajectory.n_accelerated
    if n_acc == 0:
        h, sums = 0.0, (np.zeros(1), np.zeros(1))
    elif n_acc == 1:
        seg = trajectory.single_acceleration()
        h = h_parameter(seg.a, geom.L, geom.c)
        sums = f_sums(params.kp, [seg.tau], geom)
    else:
        h, sums = math.nan, None
    return _report_column(params, state, h, sums).report(0)
