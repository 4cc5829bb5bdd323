"""Piecewise trajectories for the moving cavity and their clock ledger.

A trajectory is an ordered list of segments, each either inertial
coasting for a lab-frame duration or uniform acceleration for a proper
time measured at the cavity center.  Durations are SI seconds and
accelerations m/s^2; conversion to the dimensionless parameter
h = a L / c^2 happens against a specific `CavityGeometry`.

Two clocks matter.  Rob's cavity accumulates its own proper time, while
the phase reference on Alice's side advances with either the lab frame
(default, appropriate when her equipment stays put) or with a clock
comoving with Rob.  During an accelerated stretch of center proper time
tau the lab clock advances (c / a) sinh(a tau / c).

A burn whose tau is a 1-D array makes the trajectory a column: T
trajectories that differ only in that burn's duration, whose ledger,
phases and transform carry a leading axis of length T.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bogoliubov import (
    REGIME_H_SQUARED,
    BogoliubovPair,
    CavityGeometry,
    _inertial_phases,
    compose,
    make_pair,
    one_segment_transform,
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
    "build_transform",
]

_CLOCKS = ("lab", "comoving")


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
    """Coasting segment; `duration` is lab-frame seconds."""

    duration: float

    def __post_init__(self):
        if not 0.0 <= self.duration < math.inf:
            raise ValueError("inertial duration must be finite and >= 0")


@dataclass(frozen=True)
class Accelerated:
    """Uniform acceleration a (m/s^2) for center proper time tau (s).

    tau may be a non-empty 1-D array of durations, kept as a read-only
    copy; the trajectory is then a column (see the module docstring).
    Only speed-up segments are supported; direction reversal would need
    a matched pair of wedge charts and is out of scope.
    """

    a: float
    tau: float | np.ndarray

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError("acceleration must be positive and finite")
        tau = self.tau
        if isinstance(tau, float) or not np.ndim(tau):
            ok = 0.0 <= tau < math.inf
        else:
            tau = np.array(tau, dtype=float)
            tau.flags.writeable = False
            object.__setattr__(self, "tau", tau)
            ok = tau.ndim == 1 and tau.size \
                and ((tau >= 0.0) & (tau < math.inf)).all()
        if not ok:
            raise ValueError("proper duration tau must be finite and >= 0, "
                             "or a non-empty 1-D array of such")


@dataclass(frozen=True)
class Trajectory:
    segments: tuple
    geometry: CavityGeometry

    def __post_init__(self):
        segs = tuple(self.segments)
        for s in segs:
            if not isinstance(s, (Inertial, Accelerated)):
                raise TypeError(f"unknown segment type {type(s).__name__}")
        if not segs:
            raise ValueError("trajectory needs at least one segment")
        object.__setattr__(self, "segments", segs)

    @property
    def n_accelerated(self):
        return sum(isinstance(s, Accelerated) for s in self.segments)

    def single_acceleration(self):
        """The lone accelerated segment, or None if there are 0 or > 1."""
        acc = [s for s in self.segments if isinstance(s, Accelerated)]
        return acc[0] if len(acc) == 1 else None


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
    """Accumulate both clocks over the trajectory."""
    if alice_clock not in _CLOCKS:
        raise ValueError(f"alice_clock must be one of {_CLOCKS}")
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
                t_alice += _lab_time(seg.a, seg.tau, c)
    return ProperTimeLedger(t_alice, tau_rob)


def _lab_time(a, tau, c):
    # math.sinh per entry, not np.sinh, whose vectorised loop can round
    # the last bit differently: row i of a column keeps tau[i]'s phase
    x = a * tau / c
    if isinstance(x, float) or not np.ndim(x):
        return (c / a) * math.sinh(x)
    return (c / a) * np.array([math.sinh(v) for v in x.tolist()])


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
    """Phases omega_k t_alice and omega_kp tau_rob for the mode pair."""
    geom = trajectory.geometry
    led = ledger(trajectory, alice_clock)
    return PhasePair(geom.omega(k) * led.t_alice,
                     geom.omega(kp) * led.tau_rob)


def build_transform(trajectory):
    """Net Bogoliubov pair for Rob's cavity over the whole trajectory.

    A coast is its diagonal phase vector d = exp(-i omega_n t).  After a
    burn it scales the running product's rows (alpha -> d alpha,
    beta -> d beta); the coasts before the first burn scale that burn's
    columns (alpha D, beta D^*), so `compose` only joins burns.  The
    running product's defect is measured again after each burn that
    follows an earlier one; the unitary phases leave the modulus of
    every residual unchanged.  A trajectory without a burn gives the
    diagonal pair of its phases, with defect 0.  A column gives a
    stacked pair with one defect per row.
    """
    geom = trajectory.geometry
    lead = None          # the coasts' phases before the first burn
    total = None
    for seg in trajectory.segments:
        if isinstance(seg, Inertial):
            d = _inertial_phases(seg.duration, geom)
            if total is None:
                lead = d if lead is None else d * lead
            else:
                total = BogoliubovPair(d[:, None] * total.alpha,
                                       d[:, None] * total.beta, total.defect)
            continue
        # h_parameter's arithmetic without its regime warning: the switch
        # chart is exact on (0, 2), only the second-order model is not
        h = seg.a * geom.L / geom.c ** 2
        step = one_segment_transform(seg.tau, h, geom)
        if total is not None:
            joined = compose(step, total)
            total = make_pair(joined.alpha, joined.beta,
                              floor=joined.defect)
        elif lead is None:
            total = step
        else:
            total = BogoliubovPair(step.alpha * lead,
                                   step.beta * lead.conj(), step.defect)
    if total is None:
        return BogoliubovPair(np.diag(lead),
                              np.zeros((geom.n_max,) * 2, dtype=complex), 0.0)
    return total
