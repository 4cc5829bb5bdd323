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
is a batch of one.
"""

from __future__ import annotations

import math
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

# circuit-QED style defaults: 1.2 cm effective cavity, c/2.5 light speed
DEFAULT_GEOMETRY = CavityGeometry(L=0.012, c=1.2e8, n_max=10)

ORDER_TOL = 1e-9
# rows of one state-kernel pass: `_reports` joins whole trajectories up
# to this many, and a longer one is a pass of its own.  A pass has a
# fixed cost of about 0.1 ms; at 1,024 rows it is spread thin, while
# longer passes outgrow the caches and hold more memory (the README's
# Performance section has the measured table)
BATCH_ROWS = 1024
# a kernel pass of at least this many states screens them for
# physicality before any eigensolve (`_violation`): below it the screen's
# fixed cost, with the eigensolve of the states it leaves, exceeds what
# it saves (the README's Performance section has the crossover table)
SCREEN_ROWS = 32
# the screen's shift, relative to a state's largest entry; `_certified`
# derives why a state it certifies has a positive LAPACK lambda_min
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


@lru_cache(maxsize=1)
def _clamp_log():
    """The logger of the clamp records, looked up at the first clamp, so
    that a run without one never imports logging."""
    import logging
    return logging.getLogger(__name__)


def _log_clamps(violation):
    """One DEBUG record per clamped state, its shift as the argument."""
    shifts = violation[violation > 0.0]
    if shifts.size:
        log = _clamp_log()
        for shift in shifts.tolist():
            log.debug("clamped reduced state by %.3e", shift)


def _certified(sigma, c):
    """Which states of a stack (T, 4, 4) of symmetric matrices whose
    Alice block is c I (c = cosh 2r as `_resource` stores it) the screen
    certifies: sigma + i Omega - delta I is positive definite, with
    delta = SCREEN_KAPPA m and m = max |sigma_ij| >= c of that state.

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
    Floating-point errors are ignored here: the screen raises none under
    a caller's `np.errstate(raise)`.
    """
    with np.errstate(all="ignore"):
        m = np.abs(sigma.reshape(-1, 16)).max(axis=1)
        delta = SCREEN_KAPPA * m
        a1 = (c - 1.0) - delta
        inv_d = 1.0 / (a1 * (a1 + 2.0))
        w = (a1 + 1.0) * inv_d
        x11, x12 = sigma[:, 0, 2], sigma[:, 0, 3]
        x21, x22 = sigma[:, 1, 2], sigma[:, 1, 3]
        p11 = (sigma[:, 2, 2] - delta) - w * (x11 * x11 + x21 * x21)
        p22 = (sigma[:, 3, 3] - delta) - w * (x12 * x12 + x22 * x22)
        p12 = sigma[:, 2, 3] - w * (x11 * x12 + x21 * x22)
        q = 1.0 + (x11 * x22 - x12 * x21) * inv_d
        return ((m < 1e100) & (a1 > 0.0) & (p11 > 0.0)
                & (p11 * p22 - p12 * p12 - q * q > 0.0))


def _violation(sigma, c):
    """Each state's distance outside the physical cone,
    max(0, -lambda_min(sigma + i Omega)) from eigvalsh, for a stack
    (T, 4, 4) whose Alice block is c I.  A stack of SCREEN_ROWS or more
    first drops the states `_certified` proves inside, whose value is
    0.0 either way; the others take the same eigensolve, with its bits."""
    if len(sigma) < SCREEN_ROWS:
        return np.maximum(0.0, -np.linalg.eigvalsh(sigma + _I_OMEGA2)[:, 0])
    violation = np.zeros(len(sigma))
    rest = np.flatnonzero(~_certified(sigma, c))
    if rest.size:
        lam = np.linalg.eigvalsh(sigma[rest] + _I_OMEGA2)[:, 0]
        violation[rest] = np.maximum(0.0, -lam)
    return violation


def _state_kernel(params, pair, phases, log_clamps=True):
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
    back by a uniform noise floor (one DEBUG record per clamped state,
    unless `log_clamps` is false), anything larger raises
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
        if log_clamps:
            _log_clamps(violation)

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


class _Inputs(NamedTuple):
    """A trajectory's kernel inputs: Rob's rows (T, 1, n) with their
    defect (None once `_join` has joined them), a PhasePair of (T,)
    arrays, whether the trajectory is a column (else T = 1), and its
    burns."""

    pair: BogoliubovPair
    phases: PhasePair
    column: bool
    burns: tuple


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
    return _Inputs(pair, phases, column, trajectory.burns)


def _batches(params, trajectories, alice_clock):
    """Yield (inputs, failure): the `_Inputs` of whole trajectories, in
    turn, up to BATCH_ROWS rows (a longer trajectory alone), and None;
    the last batch ends before the first trajectory whose inputs raise,
    and comes with its exception."""
    batch, rows, failure = [], 0, None
    try:
        for trajectory in trajectories:
            item = _column_inputs(params, trajectory, alice_clock)
            size = item.pair.defect.size
            if batch and rows + size > BATCH_ROWS:
                yield batch, None
                batch, rows = [], 0
            batch.append(item)
            rows += size
            del item    # the batch alone holds it, so `_join` frees its rows
    except Exception as exc:
        failure = exc
    yield batch, failure


def _join(batch):
    """The joined pair and phases of a batch's inputs, and each input's
    slice of them.  Each item of `batch` gives up its own pair, so that
    the columns' rows are freed before the kernel pass allocates."""
    pair = BogoliubovPair(*(
        np.concatenate([getattr(item.pair, name) for item in batch])
        for name in ("alpha", "beta", "defect")))
    phases = PhasePair(*(
        np.concatenate([getattr(item.phases, name) for item in batch])
        for name in ("theta_alice", "theta_rob")))
    parts, start = [], 0
    for i, item in enumerate(batch):
        parts.append(slice(start, start + item.pair.defect.size))
        start = parts[-1].stop
        batch[i] = item._replace(pair=None)
    return pair, phases, parts


def _kernel_states(params, batch):
    """Yield each of the inputs with its `_State`, in turn: slices of one
    kernel pass over their joined rows (`_join`), each logging its own
    clamps as it comes out.  If that pass raises, or meets a
    floating-point error, the inputs run again one pass each, on their
    slices of the joined rows, which raises as they would one at a
    time."""
    if len(batch) < 2:
        for item in batch:
            yield item, _state_kernel(params, item.pair, item.phases)
        return
    pair, phases, parts = _join(batch)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            state = _state_kernel(params, pair, phases, log_clamps=False)
    except Exception:
        state = None
    for item, part in zip(batch, parts):
        if state is None:
            rows = BogoliubovPair(*(f[part] for f in vars(pair).values()))
            yield item, _state_kernel(params, rows, item.phases)
            continue
        # every field but the phases is a (T, ...) array
        sliced = _State(*(f[part] for f in state[:3]), item.phases,
                        *(f[part] for f in state[4:]))
        _log_clamps(sliced.violation)
        yield item, sliced


def _trajectory_state(params, trajectory, alice_clock):
    """The kernel's `_State` of a batch of one trajectory, and whether it
    is a column; else it enters as a column of length 1."""
    item = _column_inputs(params, trajectory, alice_clock)
    return _state_kernel(params, item.pair, item.phases), item.column


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


def _report(params, burns, state):
    """Every pipeline on the state of a trajectory with these burns, as a
    report of (T,) arrays: the perturbative fields with the trajectory's
    own scalar h."""
    geom = params.geometry
    phi = state.phases.phi
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
        defect=state.defect, clamp=state.violation)


def _reports(params, trajectories, alice_clock):
    """Yield the report of (T,) arrays of each trajectory in turn (T = 1
    for a single one), from one state-kernel pass per batch (`_batches`).

    Every other step runs per trajectory, in order.  A failing
    trajectory raises, after the reports of those before it, the
    exception that it raises on its own: its inputs end the batch before
    it, and a failing pass runs again one trajectory at a time
    (`_kernel_states`).
    """
    for batch, failure in _batches(params, trajectories, alice_clock):
        # no loop variable here: the last state and inputs would keep
        # this pass's arrays alive through the next one
        yield from (_report(params, item.burns, state)
                    for item, state in _kernel_states(params, batch))
        if failure is not None:
            raise failure


def consistency_report(params, trajectory, alice_clock="lab"):
    """Evaluate every pipeline on the trajectory and cross-check them:
    floats for a single trajectory, (T,) arrays for a column."""
    state, column = _trajectory_state(params, trajectory, alice_clock)
    report = _report(params, trajectory.burns, state)
    return report if column else report.row(0)
