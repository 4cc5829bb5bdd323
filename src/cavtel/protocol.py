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
and gets floats back.  A sequence of trajectories (a sweep's columns)
takes one kernel pass per batch of them (`_reports`); an entry point
takes a pass of its own, and a batch whose pass or reports raise runs
again one trajectory at a time on that path.

The kernel clamps a reduced state that truncation pushed slightly
outside the physical cone, and its `violation` field holds every clamp.
Only a call that publishes a report logs them (`_log_clamped`): each
clamped state of that report once, in order, as one DEBUG record of
this module's logger.  `consistency_report` and the fidelity entry
points log their own; a sweep logs its columns' in grid order
(`cli.sweep_rows`).  So a trajectory that raises after its states were
clamped (the ordering check's ConsistencyError, say) logs nothing.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import gaussian
from .bogoliubov import (
    BogoliubovPair,
    CavityGeometry,
    _interior_count,
    _real,
    _require_index,
    f_sums,
    to_symplectic,
)
from .errors import ConsistencyError, PhysicalityError, TruncationError
from .gaussian import (
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

# circuit-QED style defaults: 1.2 cm effective cavity, c/2.5 light speed
DEFAULT_GEOMETRY = CavityGeometry(L=0.012, c=1.2e8, n_max=10)

ORDER_TOL = 1e-9
# largest resource squeezing a report takes: rounding the resource's
# entries moves nu by up to about u e^{4r} relative (u = 2^-53), and the
# tests hold nu at rest within 4 u e^{4r} (1.2e-5 at r = 6) of e^{-2r}
# up to here; at r = 8 it is 1% high and at r = 9.5 166%, with no error
SQUEEZING_LIMIT = 6.0
# rows of one state-kernel pass: `_reports` joins whole trajectories up
# to this many, and a longer one is a pass of its own.  A pass has a
# fixed cost of about 0.1 ms; at 1,024 rows it is spread thin, while
# longer passes outgrow the caches and hold more memory (the README's
# Performance section has the measured table)
BATCH_ROWS = 1024
# the physicality screen's shift, relative to a state's largest entry;
# `_certified` derives why a state it certifies has a positive LAPACK
# lambda_min
SCREEN_KAPPA = 1e-11

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
        r = _real(self.r, "squeezing r")
        if not 0 <= r <= SQUEEZING_LIMIT:
            raise ValueError(f"squeezing r must be finite and lie in "
                             f"0..{SQUEEZING_LIMIT:g}, got {r!r}")
        object.__setattr__(self, "r", r)
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


@lru_cache(maxsize=1)
def _clamp_log():
    """The logger of the clamp records, looked up at the first clamp
    that `_log_clamped` logs, in a process that imported logging."""
    import logging
    return logging.getLogger(__name__)


def _log_clamped(violation):
    """One DEBUG record per clamped state of a published report, in
    order, its shift as the argument; an all-zero array costs one count
    of its non-zero entries (about 0.5 us).

    A process that has not imported logging has set no handler and no
    level, so a record would go nowhere: then nothing is logged, and
    logging is not imported (about 3 ms and 0.5 MB, which every
    default sweep paid at its first clamped state)."""
    if "logging" in sys.modules and np.count_nonzero(violation):
        log = _clamp_log()
        for shift in violation[violation > 0.0].tolist():
            log.debug("clamped reduced state by %.3e", shift)


def _certified(c, m, s):
    """Whether the screen certifies a symmetric state sigma whose Alice
    block is c I (c = cosh 2r as `_resource` stores it): that
    sigma + i Omega - delta I is positive definite, with
    delta = SCREEN_KAPPA m and m = max |sigma_ij| >= c.

    `s` holds sigma's 16 entries in row-major order: Python floats for
    one state, or (T,) columns of a stack, which then gives (T,)
    answers.  The same +, -, * and / give the same bits on either, so a
    state gets one answer either way.  On floats, a1 = 0 exactly divides
    by zero, which on columns gives an inf that fails a1 > 0: the caller
    of one state reads the ZeroDivisionError as a failed screen.

    With J = [[0, 1], [-1, 0]], a = c - delta and d = a^2 - 1, the Alice
    block of sigma + i Omega - delta I is a I + i J, whose inverse is
    (a I - i J) / d, and X^T X = G, X^T J X = det(X) J for the cross
    block X = sigma_AB.  So Rob's Schur complement is S = P + i q J with
    P = sigma_BB - delta I - (a / d) G and q = 1 + det(X) / d, and the
    matrix is positive definite iff a > 1, p11 > 0 and
    det S = p11 p22 - p12^2 - q^2 > 0.  a - 1 is formed as
    (c - 1) - delta and d as (a - 1)(a + 1): c - 1 is exact for c <= 2
    (Sterbenz), while a * a - 1 would lose about u / (2 r^2) relative
    accuracy (u = 2^-53) as r -> 0, 5e-11 at r = 1e-3, five times
    delta / m.

    Soundness.  Take the float a1 = (c - 1) - delta as exact: it shifts
    the Alice block by delta_A = c - 1 - a1, within 2 u m of delta,
    and a / d, 1 / d are then formed within 5 u and 3 u relative.  G's
    diagonal sums squares (2 u relative); G's off-diagonal and det(X)
    are within 2 u sqrt(g11 g22) (Cauchy-Schwarz).  A passing state has
    (a / d) g_ii < sigma_BB,ii <= m and |p12|, |q|, p11, p22 <= m, so
    each computed entry of P and q is within 10 u m, and the computed S
    within 22 u m in the 2-norm.  A computed det S > 0 with p11 > 0
    puts the computed S's smaller eigenvalue above -4 u m (its trace is
    at most 2 m).  So S plus a Hermitian error below 26 u m is positive
    definite, and lambda_min(sigma + i Omega) exceeds delta - 28 u m.
    LAPACK's zheevd returns lambda_min within
    p(4) u ||sigma + i Omega||_2 <= 5 p(4) u m of the exact one; even
    with p(4) = 100 the two bounds sum to 528 u m < 6e-14 m, and
    delta = 1e-11 m is 170 times that.  So a certified state's eigvalsh
    lambda_min is positive and its clamp, max(0, -lambda_min), is
    exactly 0.0, as the screen says.

    A state with m >= 1e100 is not screened, which covers a non-finite
    one (m is inf or NaN); below it no positive term of det S overflows
    (p11, p22 <= m when positive), so an overflow makes P or det S -inf
    or NaN and fails its comparison, and underflow errs far below u m.
    The caller of one state passes m = NaN when any of its 16 entries is
    NaN (Python's max may skip one), and the caller of a stack ignores
    floating-point errors, so that the screen raises none under its own
    caller's `np.errstate(raise)`.
    """
    delta = SCREEN_KAPPA * m
    a1 = (c - 1.0) - delta
    inv_d = 1.0 / (a1 * (a1 + 2.0))
    w = (a1 + 1.0) * inv_d
    x11, x12, x21, x22 = s[2], s[3], s[6], s[7]
    b11, b12, b22 = s[10], s[11], s[15]
    p11 = (b11 - delta) - w * (x11 * x11 + x21 * x21)
    p22 = (b22 - delta) - w * (x12 * x12 + x22 * x22)
    p12 = b12 - w * (x11 * x12 + x21 * x22)
    q = 1.0 + (x11 * x22 - x12 * x21) * inv_d
    return ((m < 1e100) & (a1 > 0.0) & (p11 > 0.0)
            & (p11 * p22 - p12 * p12 - q * q > 0.0))


def _violation(sigma, c):
    """Each state's distance outside the physical cone,
    max(0, -lambda_min(sigma + i Omega)) from eigvalsh, for a stack
    (T, 4, 4) whose Alice block is c I.  The states `_certified` proves
    inside get 0.0, their value either way; the others take the same
    eigensolve, with its bits.  A single state, as every single report
    takes, is screened on Python floats, free of numpy's cost per call;
    a stack of two or more on numpy columns."""
    violation = np.zeros(len(sigma))
    if len(sigma) == 1:
        flat = sigma.reshape(16).tolist()
        m = max(map(abs, flat))
        if math.isnan(sum(flat)):   # which max may have passed over
            m = math.nan
        try:
            if _certified(float(c), m, flat):
                return violation
        except ZeroDivisionError:
            pass
        rest = slice(None)
    else:
        flat = sigma.reshape(-1, 16)
        with np.errstate(all="ignore"):
            certified = _certified(c, np.abs(flat).max(axis=1), flat.T)
        rest = np.flatnonzero(~certified)
        if not rest.size:
            return violation
    lam = np.linalg.eigvalsh(sigma[rest] + _I_OMEGA2)[:, 0]
    violation[rest] = np.maximum(0.0, -lam)
    return violation


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
    back by a uniform noise floor, which the state's `violation` holds
    and the caller that publishes it logs; anything larger raises
    PhysicalityError.  A raw or corrected fidelity above the optimal
    bound by more than the same slack raises ConsistencyError.
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

    violation = _violation(sigma, alice[0, 0])
    margin = 10.0 * pair.defect
    # np.count_nonzero, not .any(), on the path every report takes: about
    # 0.8 us less per call on a single report's (1,) arrays
    if np.count_nonzero(violation):
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

    # one fidelity call for both states: at T = 1 call overhead dominates
    undo[:, :2, :2] = rot[1]
    undo[:, 2:, 2:] = rot[2]
    out[1] = undo @ sigma @ undo.swapaxes(-1, -2)
    f_raw, f_corr = teleport_fidelity(out[:2], check=False)
    nu = symplectic_eigenvalues(partial_transpose(sigma))[:, 0]

    f_opt = 1.0 / (1.0 + nu)
    limit = f_opt + (ORDER_TOL + margin)
    # fmax skips a NaN that maximum would keep: one comparison, true
    # where either fidelity is above the limit, as two would be
    bad = np.fmax(f_raw, f_corr) > limit
    if np.count_nonzero(bad):
        i = bad.argmax()
        raise ConsistencyError(
            f"fidelity ordering violated: raw {f_raw[i]:.12f}, corrected "
            f"{f_corr[i]:.12f}, optimal bound {f_opt[i]:.12f}")
    return _State(sigma, pair.defect, violation, phases, f_raw, f_corr, nu,
                  f_opt)


class _Inputs(NamedTuple):
    """A trajectory's kernel inputs: Rob's rows (T, 1, n) with their
    defect (None once `_join` has joined them), a PhasePair of (T,)
    arrays, whether the trajectory is a column (else T = 1), and the
    trajectory."""

    pair: BogoliubovPair
    phases: PhasePair
    column: bool
    trajectory: Trajectory


def _column_inputs(params, trajectory, alice_clock):
    """The `_Inputs` of a trajectory: its `rob_row` and `phase_pair`."""
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
    return _Inputs(pair, phases, column, trajectory)


def _join(batch):
    """The joined pair and phases of a batch's inputs (a batch of one
    keeps its own arrays).  Each item of `batch` gives up its own pair,
    so that the columns' rows are freed before the kernel pass
    allocates."""
    def joined(arrays):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    pair = BogoliubovPair(*(
        joined([getattr(item.pair, name) for item in batch])
        for name in ("alpha", "beta", "defect")))
    phases = PhasePair(*(
        joined([getattr(item.phases, name) for item in batch])
        for name in ("theta_alice", "theta_rob")))
    batch[:] = [item._replace(pair=None) for item in batch]
    return pair, phases


def _batch_reports(params, batch, alice_clock):
    """The reports of a batch's inputs, in order: from one kernel pass
    over their joined rows (`_join`), with floating-point errors raised;
    or, if the pass or a report raises, a generator of them from a pass
    of each trajectory's own (`_one_at_a_time`).  Nothing is logged."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            state = _state_kernel(params, *_join(batch))
        reports, stop = [], 0
        for item in batch:
            part = slice(stop, stop + len(item.phases.theta_rob))
            stop = part.stop
            # every field but the phases is a (T, ...) array
            sliced = _State(*(f[part] for f in state[:3]), item.phases,
                            *(f[part] for f in state[4:]))
            reports.append(_report(params, item.trajectory.burns, sliced))
    except Exception:
        return _one_at_a_time(params, [item.trajectory for item in batch],
                              alice_clock)
    return reports


def _trajectory_state(params, trajectory, alice_clock):
    """The kernel's `_State` of a trajectory from a pass of its own, and
    whether it is a column; else it enters as a column of length 1."""
    item = _column_inputs(params, trajectory, alice_clock)
    return _state_kernel(params, item.pair, item.phases), item.column


def _kernel_outputs(params, trajectory, alice_clock, *names):
    # a column's (T,) arrays, never a silent row 0 of them
    state, column = _trajectory_state(params, trajectory, alice_clock)
    _log_clamped(state.violation)
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
        return FidelityReport(**{name: value.item(i)
                                 for name, value in vars(self).items()})


def _report(params, burns, state):
    """Every pipeline on the state of a trajectory with these burns, as a
    report of (T,) arrays: the perturbative fields with the trajectory's
    own scalar h."""
    geom = params.geometry
    phi = state.phases.phi
    if len(burns) > 1:
        # one NaN array per field, so a write to one leaves the others NaN
        h = math.nan
        f_pert = np.full(phi.shape, h)
        f_pert_opt, h_column = f_pert.copy(), f_pert.copy()
    else:
        if burns:
            h = h_parameter(burns[0].a, geom.L, geom.c)
            fa, fb = f_sums(params.kp, np.atleast_1d(burns[0].tau), geom)
        else:
            h, fa, fb = 0.0, np.zeros(phi.shape), np.zeros(phi.shape)
        f_pert = perturbative_fidelity(params.r, phi, fa, fb, h)
        f_pert_opt = perturbative_optimal(params.r, fa, fb, h)
        h_column = np.full(phi.shape, h)
    return FidelityReport(
        F_raw=state.f_raw, F_corrected=state.f_corr,
        F_opt_numeric=state.f_opt, F_pert=f_pert,
        F_pert_opt=f_pert_opt, nu=state.nu, phi=phi, h=h_column,
        residual_pert=np.abs(state.f_corr - f_pert_opt),
        defect=state.defect, clamp=state.violation)


def _one_at_a_time(params, trajectories, alice_clock):
    """Yield the report of each trajectory in turn, each from a kernel
    pass of its own, as `consistency_report` computes it."""
    for trajectory in trajectories:
        state = _trajectory_state(params, trajectory, alice_clock)[0]
        yield _report(params, trajectory.burns, state)


def _reports(params, trajectories, alice_clock):
    """Yield the report of (T,) arrays of each trajectory in turn (T = 1
    for a single one); nothing is logged, since the caller publishes
    them.

    Whole trajectories are gathered up to BATCH_ROWS rows (a longer one
    alone), and each batch takes one kernel pass (`_batch_reports`).  If
    the pass or a report raises, the batch runs again one trajectory at
    a time (`_one_at_a_time`).  If a trajectory's inputs raise, the
    batch gathered before it is reported like any other, and then the
    inputs' exception is raised again.  So a failing trajectory raises,
    after the reports of those before it, what it raises on its own.
    """
    batch, rows = [], 0
    for trajectory in trajectories:
        try:
            item = _column_inputs(params, trajectory, alice_clock)
        except Exception:
            if batch:
                yield from _batch_reports(params, batch, alice_clock)
            raise
        if batch and rows + item.pair.defect.size > BATCH_ROWS:
            yield from _batch_reports(params, batch, alice_clock)
            batch, rows = [], 0
        batch.append(item)
        rows += item.pair.defect.size
        del item    # the batch alone holds it, so `_join` frees its rows
    if batch:
        yield from _batch_reports(params, batch, alice_clock)


def consistency_report(params, trajectory, alice_clock="lab"):
    """Evaluate every pipeline on the trajectory and cross-check them:
    floats for a single trajectory, (T,) arrays for a column."""
    state, column = _trajectory_state(params, trajectory, alice_clock)
    report = _report(params, trajectory.burns, state)
    _log_clamped(state.violation)
    return report if column else report.row(0)
