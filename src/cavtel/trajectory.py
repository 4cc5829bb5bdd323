"""Piecewise trajectories for the moving cavity and their clock ledger.

A trajectory is an ordered list of segments, each either inertial
coasting or uniform acceleration for a proper time measured at the
cavity center.  Durations are SI seconds and accelerations m/s^2;
conversion to the dimensionless parameter h = a L / c^2 happens against
a specific `CavityGeometry`.  A coast's duration is Rob's proper time in
the transform, and both clocks add it unchanged, which holds only while
the cavity is at rest in the lab; after a burn it is not (ROADMAP
item 8).

Two clocks matter.  Rob's cavity accumulates its own proper time, while
the phase reference on Alice's side advances with either the lab frame
(default, appropriate when her equipment stays put) or with a clock
comoving with Rob.  During an accelerated stretch of center proper time
tau the lab clock advances (c / a) sinh(a tau / c).

A burn whose tau is a 1-D array makes the trajectory a column: T
trajectories that differ only in that burn's duration, whose ledger,
phases and transform carry a leading axis of length T.  Several array
burns zip row by row: trajectory i takes the i-th duration of each, so
their arrays must have one length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bogoliubov import (
    REGIME_H_SQUARED,
    BogoliubovPair,
    CavityGeometry,
    _oracle_cached,
    _phases,
    _real,
    _truncation,
)
from .errors import TrajectoryParseError

__all__ = [
    "Inertial",
    "Accelerated",
    "Trajectory",
    "ProperTimeLedger",
    "PhasePair",
    "h_parameter",
    "parse_trajectory",
    "ledger",
    "phase_pair",
    "rob_row",
]

_CLOCKS = ("lab", "comoving")
# rad: the largest ulp the joint phase may carry, since every
# phase-dependent column inherits phi's rounding; it holds for
# |phi| < 2**33 rad, about 8.6e9 rad
PHASE_ULP_LIMIT = 1e-6


def h_parameter(a, L, c):
    """Dimensionless center acceleration a L / c^2 (regime-checked)."""
    h = a * L / c ** 2
    if h * h > REGIME_H_SQUARED * (1.0 + 1e-12):
        warnings.warn(
            f"h^2 = {h * h:.4f} exceeds {REGIME_H_SQUARED}; second-order "
            "perturbative results are outside their validated regime",
            RuntimeWarning, stacklevel=2)
    return h


@dataclass(frozen=True)
class Inertial:
    """Coasting segment for `duration` seconds, one real number (a 0-d
    array is stored as a float).  The transform takes the duration as
    Rob's proper time, and both clocks add it as it is, as if the cavity
    were at rest in the lab (see the module docstring)."""

    duration: float

    def __post_init__(self):
        duration = _real(self.duration, "inertial duration")
        if not 0.0 <= duration < math.inf:
            raise ValueError("inertial duration must be finite and >= 0")
        object.__setattr__(self, "duration", duration)


@dataclass(frozen=True)
class Accelerated:
    """Uniform acceleration a (m/s^2) for center proper time tau (s).

    tau may be a non-empty 1-D array of durations, kept as a read-only
    copy; the trajectory is then a column (see the module docstring).
    A 0-d array, as a or tau, is stored as a float.
    Only a > 0 is supported yet: a deceleration (direction reversal) is
    rejected; ROADMAP item 8 plans it from the same switch.
    """

    a: float
    tau: float | np.ndarray

    def __post_init__(self):
        a = _real(self.a, "acceleration")
        if not (a > 0.0 and math.isfinite(a)):
            raise ValueError("acceleration must be positive and finite")
        object.__setattr__(self, "a", a)
        tau = self.tau
        if isinstance(tau, float) or not np.ndim(tau):
            tau = _real(tau, "proper duration tau")
            ok = 0.0 <= tau < math.inf
        else:
            tau = np.asarray(tau)
            if tau.dtype.kind not in "iuf":
                raise ValueError("proper duration tau must hold real "
                                 f"numbers, got {tau.dtype} entries")
            tau = np.array(tau, dtype=float)
            tau.flags.writeable = False
            ok = tau.ndim == 1 and tau.size \
                and ((tau >= 0.0) & (tau < math.inf)).all()
        object.__setattr__(self, "tau", tau)
        if not ok:
            raise ValueError("proper duration tau must be finite and >= 0, "
                             "or a non-empty 1-D array of such")

    # segments compare and hash by value, a duration array as the tuple of
    # its entries: the generated methods would compare arrays elementwise
    # and could not hash them
    def _key(self):
        tau = self.tau
        return self.a, (tuple(tau.tolist()) if np.ndim(tau) else tau)

    def __eq__(self, other):
        if not isinstance(other, Accelerated):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Trajectory:
    """Segments in time order on a cavity geometry; `burns` holds the
    accelerated ones, in order, found once when the trajectory is
    built."""

    segments: tuple
    geometry: CavityGeometry
    burns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(self.segments)
        for s in segs:
            if not isinstance(s, (Inertial, Accelerated)):
                raise TypeError(f"unknown segment type {type(s).__name__}")
        if not segs:
            raise ValueError("trajectory needs at least one segment")
        burns = tuple(s for s in segs if isinstance(s, Accelerated))
        lengths = sorted({s.tau.size for s in burns
                          if isinstance(s.tau, np.ndarray)})
        if len(lengths) > 1:
            raise ValueError(
                "a column's duration arrays zip row by row and need one "
                f"length, got lengths {' and '.join(map(str, lengths))}")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "burns", burns)


def parse_trajectory(text):
    """Parse the plain-text segment format into a segment list.

    One segment per line: `inertial <seconds>` or
    `accel <m_per_s2> <seconds>`.  Blank lines and `#` comments are
    ignored; an entirely empty description means a resting cavity.
    """
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "inertial":
                if len(args) != 1:
                    raise ValueError("expected: inertial <seconds>")
                segments.append(Inertial(float(args[0])))
            elif kind == "accel":
                if len(args) != 2:
                    raise ValueError("expected: accel <m_per_s2> <seconds>")
                segments.append(Accelerated(float(args[0]), float(args[1])))
            else:
                raise ValueError(f"unknown segment kind {kind!r}")
        except ValueError as exc:
            raise TrajectoryParseError(str(exc), line=lineno) from None
    if not segments:
        segments.append(Inertial(0.0))
    return segments


@dataclass(frozen=True)
class ProperTimeLedger:
    """Time on Alice's reference clock and Rob's cavity, (T,) on a column."""

    t_alice: float | np.ndarray
    tau_rob: float | np.ndarray


def ledger(trajectory, alice_clock="lab"):
    """Accumulate both clocks over the trajectory.

    Raises ValueError, naming the burn, when a burn's time on Alice's
    lab clock is not finite.
    """
    if alice_clock not in _CLOCKS:
        raise ValueError(f"alice_clock must be one of {_CLOCKS}")
    for _, t_alice, tau_rob in _clock_steps(trajectory, alice_clock):
        pass
    return ProperTimeLedger(t_alice, tau_rob)


def _clock_steps(trajectory, alice_clock):
    """Both clocks after each segment: (segment, t_alice, tau_rob)."""
    c = trajectory.geometry.c
    t_alice = tau_rob = 0.0
    for seg in trajectory.segments:
        if isinstance(seg, Inertial):
            t_alice += seg.duration
            tau_rob += seg.duration
        else:
            tau_rob += seg.tau
            if alice_clock == "comoving":
                t_alice += seg.tau
            else:
                t_alice += _lab_time(seg, c)
        yield seg, t_alice, tau_rob


def _lab_time(seg, c):
    """The burn's lab-clock time (c / a) sinh(a tau / c)."""
    # math.sinh per entry, not np.sinh, whose vectorised loop can round
    # the last bit differently: row i of a column keeps tau[i]'s phase
    x = seg.a * seg.tau / c
    # a single burn stays scalar: the array path's per-call overhead is
    # some 25 times one math.sinh
    if isinstance(x, float) or not np.ndim(x):
        t = (c / seg.a) * _sinh(x)
        if math.isfinite(t):
            return t
        bad = True
    else:
        t = (c / seg.a) * np.array([_sinh(v) for v in x.tolist()])
        bad = ~np.isfinite(t)
        if not bad.any():
            return t
    raise _segment_error(seg, bad, "its time on Alice's lab clock is not "
                         "finite; shorten it, or use the comoving clock")


def _sinh(x):
    try:
        return math.sinh(x)
    except OverflowError:           # x >= 0 for a burn
        return math.inf


def _segment_error(seg, bad, problem):
    """ValueError naming, on a column (an array `bad`), its first row
    where `bad`, then the segment and its problem."""
    row = int(np.argmax(bad))
    name = f"row {row}: " if np.ndim(bad) else ""
    if isinstance(seg, Inertial):
        name += f"the coast of {seg.duration!r} s"
    else:
        tau = float(seg.tau[row]) if np.ndim(seg.tau) else seg.tau
        name += f"the burn of a = {seg.a!r} m/s^2 for tau = {tau!r} s"
    return ValueError(f"{name}: {problem}")


@dataclass(frozen=True)
class PhasePair:
    """Free-evolution phases of the two protocol modes, (T,) on a column."""

    theta_alice: float | np.ndarray
    theta_rob: float | np.ndarray

    @property
    def phi(self):
        """Unwrapped joint phase, theta_alice + theta_rob."""
        return self.theta_alice + self.theta_rob


def phase_pair(trajectory, k, kp, alice_clock="lab"):
    """Phases omega_k t_alice and omega_kp tau_rob for the mode pair.

    Raises ValueError, naming the segment after which they stop being
    finite, or after which one ulp of their sum phi exceeds
    `PHASE_ULP_LIMIT` (|phi| >= 2**33 rad), when they do.
    """
    geom = trajectory.geometry
    led = ledger(trajectory, alice_clock)
    if isinstance(led.t_alice, float) and isinstance(led.tau_rob, float):
        # a single trajectory stays scalar, as in `_lab_time`: a product
        # of Python floats overflows to inf without a warning, and
        # math.ulp is np.spacing of every |phi| (inf or NaN at inf or NaN)
        phases = PhasePair(float(geom.omega(k)) * float(led.t_alice),
                           float(geom.omega(kp)) * float(led.tau_rob))
        if math.ulp(abs(phases.phi)) <= PHASE_ULP_LIMIT:
            return phases
    with np.errstate(over="ignore"):        # an overflow is named below
        phases = PhasePair(geom.omega(k) * led.t_alice,
                           geom.omega(kp) * led.tau_rob)
        # phi is not finite where either phase is not, and np.spacing of
        # a non-finite phi is NaN, which fails the bound
        if (np.spacing(np.abs(phases.phi)) <= PHASE_ULP_LIMIT).all():
            return phases
        for seg, t_alice, tau_rob in _clock_steps(trajectory, alice_clock):
            phi = geom.omega(k) * t_alice + geom.omega(kp) * tau_rob
            bad = ~(np.spacing(np.abs(phi)) <= PHASE_ULP_LIMIT)
            if not bad.any():
                continue
            phi = float(np.ravel(phi)[np.argmax(bad)])
            if math.isfinite(phi):
                problem = (f"the joint phase after it, {phi!r} rad, has an "
                           f"ulp above {PHASE_ULP_LIMIT!r} rad on the "
                           f"{alice_clock} clock; shorten it")
            else:
                problem = ("the mode phases after it are not finite on the "
                           f"{alice_clock} clock")
            raise _segment_error(seg, bad, problem)


def rob_row(trajectory, kp):
    """Rob's row kp of the trajectory's net Bogoliubov pair, a stacked
    pair (T, 1, n) (T = 1 for a single trajectory) whose defect (T,) is
    the row residual |sum |alpha|^2 - sum |beta|^2 - 1|, 0 without a burn.

    A chain of vector-matrix products from (e_kp, 0), walked from the
    last segment back: rows (a, b) followed by (alpha, beta) are
    (a alpha + b beta^*, a beta + b alpha^*).  A coast scales (a, b) by
    (d, d^*); a burn is its switch's stored inverse (from (e_kp, 0), its
    row kp), the wedge phases and the switch.

    The chain keeps the T trajectories' rows as one (2T, n) stack: their
    a rows in order, then their b^* rows in reverse order, so that
    reversing the stack swaps each trajectory's a and b^* (`_rows_then`).
    """
    geom = trajectory.geometry
    k = kp - 1
    # read once per trajectory.  A coast's phases are formed as
    # `bogoliubov.f_sums` forms them, exp(-i n pi (t c / L)); h = a L / c^2
    # as `h_parameter` forms it, without its regime warning (the switch
    # chart is exact on (0, 2), only the second-order model is not); a
    # burn's wedge time is h (tau c / L)
    L, c, c2 = geom.L, geom.c, geom.c ** 2
    omega = _truncation(geom.n_max).omega
    # (a, b^*) of one trajectory: a phase vector d scales both rows
    rows = np.zeros((2, geom.n_max), dtype=complex)
    rows[0, k] = 1.0
    burned = False
    for seg in reversed(trajectory.segments):
        if isinstance(seg, Inertial):
            rows = rows * _phases(omega, seg.duration * c / L)
            continue
        h = seg.a * L / c2
        switch = _oracle_cached(float(h), geom.n_max)
        if burned:
            rows = _rows_then(rows, switch.inverse_ab)
        else:
            # (e_kp, 0) times the later coasts' phase: the inverse's row kp
            rows = rows[0, k] * switch.inverse_ab[:, k]
            np.conjugate(rows[1], out=rows[1])
            burned = True
        # wedge phases, (T, n) on a column
        d = _phases(switch.rates, h * (seg.tau * c / L))
        if d.ndim > 1:
            # row t's phases scale its a, and its b^* in the reversed half
            half = len(rows) // 2
            rows = np.concatenate((rows[:half] * d, rows[half:] * d[::-1]))
        else:
            rows = rows * d
        rows = _rows_then(rows, switch.ab)
    t = len(rows) // 2
    a, b_conj = rows[:t], rows[t:][::-1]
    if burned:
        norms = (rows.real ** 2 + rows.imag ** 2).sum(axis=-1)
        defect = np.abs(norms[:t] - norms[t:][::-1] - 1.0)
    else:
        defect = np.zeros(1)
    return BogoliubovPair(a[:, None], b_conj[:, None].conj(), defect)


def _rows_then(rows, ab):
    """The row stack of `rob_row` followed by the pair whose alpha and
    beta are stacked in `ab` (2, n, n).  With p = rows alpha and
    q = rows beta, a trajectory's a row becomes a alpha + b beta^*, its
    row of p plus the conjugate of its b^* row of q, and its b^* row
    becomes (a beta + b alpha^*)^*, its row of p plus the conjugate of
    its a row of q: p plus q reversed and conjugated, since reversing
    the stack swaps every pair.

    One GEMM per matrix takes all 2T rows, not T small products of one
    BLAS call each.  Every entry is the length-n dot product of a single
    trajectory's (2, n) x (n, n) product, which OpenBLAS sums in the
    same order at any row count, so each trajectory keeps its bits
    (tests/test_trajectory.py checks them)."""
    pq = rows @ ab
    return pq[0] + pq[1, ::-1].conj()
