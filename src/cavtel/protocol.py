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
operations.  A trajectory whose burn duration is a 1-D array is such a
column (one switch pair, one stacked transform), and every entry point
returns (T,) arrays for it; a single trajectory is a column of length 1
and gets floats back.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gaussian
from .bogoliubov import (
    CavityGeometry,
    _interior_count,
    _require_index,
    f_sums,
    to_symplectic,
)
from .errors import ConsistencyError, PhysicalityError, TruncationError
from .gaussian import (
    SQUEEZING_MAX,
    make_two_mode_squeezed,
    partial_transpose,
    rotation,
    symplectic_eigenvalues,
    teleport_fidelity,
)
from .trajectory import (
    PhasePair,
    Trajectory,
    h_parameter,
    phase_pair,
    rob_row,
)

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
        if not 0 <= self.r <= SQUEEZING_MAX:
            raise ValueError(f"squeezing r must be finite and lie in "
                             f"0..{SQUEEZING_MAX:g}, got {self.r!r}")
        _require_index("Alice mode index k", self.k)
        _require_index("Rob mode index kp", self.kp)
        if self.k < 1:
            raise ValueError("Alice mode index must be >= 1")
        if not 1 <= self.kp <= self.geometry.n_max:
            raise ValueError(
                f"Rob mode index must lie in 1..{self.geometry.n_max}")


def _check_interior(params):
    # a small row residual shows unitarity, not accuracy: outside the
    # interior block neither the physicality allowance nor the ordering
    # slack bounds the truncation error; coasting phases are exact
    n_max = params.geometry.n_max
    interior = _interior_count(n_max)
    if params.kp > interior:
        raise TruncationError(
            f"Rob mode kp = {params.kp} lies outside the interior block "
            f"1..{interior} of n_max = {n_max}, where accelerated "
            f"transforms are validated; use n_max >= {2 * params.kp}")


class _State(namedtuple("_State", "sigma defect violation phases f_raw "
                                  "f_corr nu f_opt")):
    """Numeric pipelines on a column of T reduced states: sigma (T, 4, 4),
    the PhasePair of (T,) arrays, and the other fields (T,) each."""

    __slots__ = ()


def _state_kernel(params, pair, phases):
    """Reduced (Alice, Rob-kp) covariances and the numeric pipelines for
    Rob's rows, a stacked pair (T, 1, n) of row kp of each trajectory's
    transform with its row residual as the defect, and a PhasePair of
    (T,) arrays.

    Rob's other modes start in vacuum, so only mode kp's rows S_k of each
    transform's symplectic matrix enter, with their diagonal block S_kk
    and resource blocks A, B, C:
    sigma_BB = S_k S_k^T + S_kk (B - I) S_kk^T, sigma_AB = R_A C S_kk^T.
    Truncation can push a reduced matrix slightly outside the physical
    cone; violations within ten times that row's residual are projected
    back by a uniform noise floor (one DEBUG record per clamped state),
    anything larger raises PhysicalityError.  A raw or corrected
    fidelity above the optimal bound by more than the same slack raises
    ConsistencyError.
    """
    alice, cross, excess = _resource(params.r)
    j = 2 * (params.kp - 1)
    rows = to_symplectic(pair)
    s_kk = rows[:, :, j:j + 2]
    s_kk_t = s_kk.swapaxes(-1, -2)
    # R(theta_A) for the cross block, then the two undone phases
    rot = rotation(np.array((phases.theta_alice, -phases.theta_alice,
                             -phases.theta_rob)))
    # the raw state, the corrected one and the undoing rotation, whose
    # off-diagonal blocks stay zero
    out = np.zeros((3, rows.shape[0], 4, 4))
    sigma, undo = out[0], out[2]
    sigma[:, :2, :2] = alice
    sigma[:, 2:, 2:] = rows @ rows.swapaxes(-1, -2) + s_kk @ excess @ s_kk_t
    sigma[:, :2, 2:] = rot[0] @ cross @ s_kk_t
    sigma[:, 2:, :2] = sigma[:, :2, 2:].swapaxes(-1, -2)
    np.multiply(0.5, sigma + sigma.swapaxes(-1, -2), out=sigma)

    lam = np.linalg.eigvalsh(sigma + _I_OMEGA2)[:, 0]
    violation = np.maximum(0.0, -lam)
    margin = 10.0 * pair.defect
    if violation.any():
        allowance = np.maximum(gaussian.PHYSICALITY_TOL, margin)
        over = violation > allowance
        if over.any():
            i = over.argmax()
            raise PhysicalityError(
                f"reduced state violates the uncertainty bound by "
                f"{violation[i]:.3e} (allowance {allowance[i]:.3e}); this "
                "indicates a defect in the mode transformation, not bad "
                "input")
        clamped = np.flatnonzero(violation)
        sigma[clamped] += violation[clamped, None, None] * _I4
        for i in clamped:
            log.debug("clamped reduced state by %.3e", float(violation[i]))

    # one fidelity call for both states: at T = 1 call overhead dominates
    undo[:, :2, :2] = rot[1]
    undo[:, 2:, 2:] = rot[2]
    out[1] = undo @ sigma @ undo.swapaxes(-1, -2)
    f_raw, f_corr = teleport_fidelity(out[:2], check=False)
    nu = symplectic_eigenvalues(partial_transpose(sigma))[:, 0]

    f_opt = 1.0 / (1.0 + nu)
    limit = f_opt + (ORDER_TOL + margin)
    bad = (f_raw > limit) | (f_corr > limit)
    if bad.any():
        i = bad.argmax()
        raise ConsistencyError(
            f"fidelity ordering violated: raw {f_raw[i]:.12f}, corrected "
            f"{f_corr[i]:.12f}, optimal bound {f_opt[i]:.12f}")
    return _State(sigma, pair.defect, violation, phases, f_raw, f_corr, nu,
                  f_opt)


def _trajectory_state(params, trajectory, alice_clock):
    """The kernel on the trajectory's `rob_row` and `phase_pair`, and
    whether it is a column; else it enters as a column of length 1."""
    if not isinstance(trajectory, Trajectory):
        raise TypeError("expected a Trajectory")
    if trajectory.geometry != params.geometry:
        raise ValueError("trajectory and params disagree on the geometry")
    if trajectory.burns:
        _check_interior(params)
    pair = rob_row(trajectory, params.kp)
    phases = phase_pair(trajectory, params.k, params.kp, alice_clock)
    column = isinstance(phases.theta_rob, np.ndarray)
    if not column:
        theta = np.array((phases.theta_alice, phases.theta_rob))
        phases = PhasePair(theta[:1], theta[1:])
    return _state_kernel(params, pair, phases), column


def _kernel_outputs(params, trajectory, alice_clock, *names):
    # a column's (T,) arrays, never a silent row 0 of them
    state, column = _trajectory_state(params, trajectory, alice_clock)
    return tuple(getattr(state, name) if column
                 else float(getattr(state, name)[0]) for name in names)


def fidelity_raw(params, trajectory, alice_clock="lab"):
    """Fidelity with no phase correction applied."""
    return _kernel_outputs(params, trajectory, alice_clock, "f_raw")[0]


def fidelity_corrected(params, trajectory, alice_clock="lab"):
    """Fidelity after both parties undo their proper-time phases."""
    return _kernel_outputs(params, trajectory, alice_clock, "f_corr")[0]


def fidelity_optimal(params, trajectory, alice_clock="lab"):
    """Best fidelity any local phase choice could reach, with nu.

    Returns (1 / (1 + nu), nu) for the smallest partial-transpose
    symplectic eigenvalue of the reduced state; invariant under the
    phase correction because local rotations are symplectic.
    """
    return _kernel_outputs(params, trajectory, alice_clock, "f_opt", "nu")


def _check_sums(f_alpha, f_beta, h):
    # written so that a NaN fails each comparison: np.minimum,
    # np.maximum, .min() and .max() all propagate it; the initial values
    # pass empty sums
    if not 0.0 <= h < math.inf:
        raise ValueError("h must be finite and >= 0")
    if not (0.0 <= np.minimum(f_alpha, f_beta).min(initial=math.inf)
            and np.maximum(f_alpha, f_beta).max(initial=0.0) < math.inf):
        raise ValueError("degradation sums must be finite and >= 0")


def perturbative_fidelity(r, phi, f_alpha, f_beta, h):
    """Closed-form phase-dependent fidelity to second order in h.

    The leading term is 1 / (1 + cosh 2r - cos phi sinh 2r); motion
    subtracts h^2 (F0)^2 (1 + e^{-2r}) (f_beta + f_alpha tanh r).
    phi and the sums may be arrays.
    """
    _check_sums(f_alpha, f_beta, h)
    f0 = 1.0 / (1.0 + math.cosh(2 * r) - np.cos(phi) * math.sinh(2 * r))
    f2 = f0 * f0 * (1.0 + math.exp(-2 * r)) \
        * (f_beta + f_alpha * math.tanh(r))
    return f0 - f2 * h * h


def perturbative_optimal(r, f_alpha, f_beta, h):
    """Phase-corrected optimum to second order in h,
    (1 - (f_beta + f_alpha tanh r) h^2) / (1 + e^{-2r}); the sums may be
    arrays.

    To O(h^2) the noise that motion adds to the relayed mode is
    isotropic, h^2 [f_alpha (1 - e^{-2r}) + f_beta (1 + e^{-2r})], on top
    of the resource's 1 + e^{-2r}; over F0 that is the weight
    f_beta + f_alpha tanh r.
    """
    _check_sums(f_alpha, f_beta, h)
    f0 = 1.0 / (1.0 + math.exp(-2 * r))
    return f0 * (1.0 - (f_beta + f_alpha * math.tanh(r)) * h * h)


@dataclass(frozen=True)
class FidelityReport:
    """All pipelines evaluated on one trajectory; on a column every field
    is a (T,) array and `row(i)` is the report of trajectory i.

    The perturbative fields hold NaN when the trajectory has more than
    one accelerated segment; the quadratic formula describes a single
    switch-evolve-switch episode and silently misapplying it to
    composites would be worse than admitting ignorance.  `defect` is the
    residual of Rob's row (`trajectory.rob_row`), and `clamp` the noise
    floor that moved the reduced state into the physical cone.
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
    clamp: float

    def row(self, i):
        """The report of trajectory i of a column."""
        return FidelityReport(**{name: float(value[i])
                                 for name, value in vars(self).items()})


def _report(params, trajectory, alice_clock):
    """Every pipeline as a report of (T,) arrays, and whether the
    trajectory is a column (else T = 1)."""
    state, column = _trajectory_state(params, trajectory, alice_clock)
    geom = params.geometry
    phi = state.phases.phi
    burns = trajectory.burns
    if len(burns) > 1:
        # one NaN array per field, so a write to one leaves the other NaN
        h = math.nan
        f_pert, f_pert_opt = np.full(phi.shape, h), np.full(phi.shape, h)
    else:
        if burns:
            h = h_parameter(burns[0].a, geom.L, geom.c)
            fa, fb = f_sums(params.kp, np.atleast_1d(burns[0].tau), geom)
        else:
            h, fa, fb = 0.0, np.zeros(phi.shape), np.zeros(phi.shape)
        f_pert = perturbative_fidelity(params.r, phi, fa, fb, h)
        f_pert_opt = perturbative_optimal(params.r, fa, fb, h)
    return FidelityReport(
        F_raw=state.f_raw, F_corrected=state.f_corr,
        F_opt_numeric=state.f_opt, F_pert=f_pert,
        F_pert_opt=f_pert_opt, nu=state.nu, phi=phi, h=np.full(phi.shape, h),
        residual_pert=np.abs(state.f_corr - f_pert_opt),
        defect=state.defect, clamp=state.violation), column


def consistency_report(params, trajectory, alice_clock="lab"):
    """Evaluate every pipeline on the trajectory and cross-check them:
    floats for a single trajectory, (T,) arrays for a column."""
    report, column = _report(params, trajectory, alice_clock)
    return report if column else report.row(0)
