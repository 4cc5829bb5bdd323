"""Command line front end: single-trajectory reports, (tau, a) sweeps,
coefficient dumps and a self-check suite.

Exit codes: 0 ok, 2 parse/usage, 3 numerical failure, 4 I/O failure,
5 validation failure.  All CSV output is deterministic: fixed row order,
fixed 12-significant-digit scientific formatting, and metadata headers
that carry no timestamps, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import itertools
import math
import mmap
import os
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import __version__
from .bogoliubov import (
    REGIME_H_SQUARED,
    TAIL_LIMIT,
    CavityGeometry,
    _first_order_tail,
    _interior_count,
    identity_residuals,
    rindler_period,
    sudden_switch_oracle,
    sudden_switch_perturbative,
)
from .errors import (
    CavtelError,
    ConsistencyError,
    PhysicalityError,
    QuadratureError,
    TrajectoryParseError,
    TruncationError,
)
from .gaussian import symplectic_form
from .protocol import (
    DEFAULT_GEOMETRY,
    FidelityReport,
    ProtocolParams,
    _kernel_outputs,
    _log_clamped,
    _reports,
    consistency_report,
    perturbative_fidelity,
)
from .trajectory import (
    _CLOCKS,
    Accelerated,
    Inertial,
    Trajectory,
    parse_trajectory,
    rob_row,
)

FLOAT_FMT = "%.11e"          # 12 significant digits, scientific
REGIME_H_MAX = math.sqrt(REGIME_H_SQUARED)
# the revival check's h, from the perturbative regime to near the horizon
REVIVAL_H = (0.05, 0.245, 0.8, 1.5)

SWEEP_COLUMNS = ("tau_s", "a_m_s2", "h", "phi", "F_raw", "F_corrected",
                 "F_opt_numeric", "F_pert", "F_pert_opt", "nu",
                 "residual_pert")

REPORT_COLUMNS = ("F_raw", "F_corrected", "F_opt_numeric", "F_pert",
                  "F_pert_opt", "nu", "phi", "h", "residual_pert",
                  "defect")

_PRESETS = {
    "fig3": 0.5,
    "experiment": math.log(2.0),
}


@dataclass
class RunConfig:
    """Resolved parameters for one CLI invocation, each field named
    after its config key (SI unit suffix included)."""

    preset: str = "fig3"
    r: float = 0.5
    k: int = 1
    kp: int = 3
    L_m: float = DEFAULT_GEOMETRY.L
    c_m_per_s: float = DEFAULT_GEOMETRY.c
    n_max: int = DEFAULT_GEOMETRY.n_max
    alice_clock: str = "lab"
    # grid bounds default to the regime reconstruction; None = derive
    tau_min_s: float = 0.0
    tau_max_s: float | None = None
    tau_steps: int = 100
    a_min_m_s2: float = 1e16
    a_max_m_s2: float | None = None
    a_steps: int = 100

    def geometry(self):
        return CavityGeometry(self.L_m, self.c_m_per_s, self.n_max)

    def params(self):
        return ProtocolParams(r=self.r, k=self.k, kp=self.kp,
                              geometry=self.geometry())

    def grid(self):
        geom = self.geometry()
        for key in ("tau_min_s", "tau_max_s", "a_min_m_s2", "a_max_m_s2"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        tau_max = self.tau_max_s
        if tau_max is None:
            tau_max = 3.0 * geom.fundamental_period
        a_max = self.a_max_m_s2
        if a_max is None:
            a_max = REGIME_H_MAX * self.c_m_per_s ** 2 / self.L_m
        if self.tau_steps < 2 or self.a_steps < 2:
            raise ValueError(
                f"tau_steps and a_steps must be >= 2, got "
                f"{self.tau_steps} and {self.a_steps}")
        if not 0.0 <= self.tau_min_s < tau_max:
            raise ValueError(
                f"need 0 <= tau_min_s < tau_max_s, got tau_min_s = "
                f"{self.tau_min_s!r} and tau_max_s = {tau_max!r}")
        if not 0.0 < self.a_min_m_s2 < a_max:
            raise ValueError(
                f"need 0 < a_min_m_s2 < a_max_m_s2, got a_min_m_s2 = "
                f"{self.a_min_m_s2!r} and a_max_m_s2 = {a_max!r}")
        # h of the last column as `rob_row` forms it, so the two agree at
        # the horizon
        h_max = a_max * self.L_m / self.c_m_per_s ** 2
        if not h_max < 2.0:
            raise ValueError(
                f"a_max_m_s2 = {a_max!r} gives h = a_max_m_s2 L_m / "
                f"c_m_per_s^2 = {h_max!r}; the cavity's near wall stays "
                "outside the horizon only for h < 2")
        taus = np.linspace(self.tau_min_s, tau_max, self.tau_steps)
        accs = np.linspace(self.a_min_m_s2, a_max, self.a_steps)
        # a range a few ulps wide repeats values, and one a few parts in
        # 1e12 wide repeats their FLOAT_FMT text; the CSV would keep every
        # row but the plot matrix can hold each coordinate only once
        for axis, keys in ((taus, "tau_min_s, tau_max_s and tau_steps"),
                           (accs, "a_min_m_s2, a_max_m_s2 and a_steps")):
            texts = [FLOAT_FMT % v for v in axis.tolist()]
            if not (np.diff(axis) > 0.0).all() \
                    or len(set(texts)) < len(texts):
                raise ValueError(
                    f"{keys} give a grid axis that is not strictly "
                    "increasing in its 12-digit plot coordinates; widen "
                    "the range or take fewer steps")
        return taus, accs


def _clock(text):
    # an unknown clock is a bad value of its config line
    if text not in _CLOCKS:
        raise ValueError(text)
    return text


_CONFIG_FIELDS = {
    "r": float, "k": int, "kp": int, "L_m": float, "c_m_per_s": float,
    "n_max": int, "alice_clock": _clock, "tau_min_s": float,
    "tau_max_s": float, "tau_steps": int, "a_min_m_s2": float,
    "a_max_m_s2": float, "a_steps": int,
}


def apply_config_text(config, text):
    """Apply `key = value` override lines to a RunConfig in place.

    Keys carry their SI unit as a suffix (L_m, a_min_m_s2, ...); `#`
    starts a comment.  Unknown keys and unparseable values raise with
    the 1-based line number.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise TrajectoryParseError("expected key = value", line=lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_FIELDS:
            known = ", ".join(sorted(_CONFIG_FIELDS))
            raise TrajectoryParseError(
                f"unknown key {key!r} (known: {known})", line=lineno)
        try:
            setattr(config, key, _CONFIG_FIELDS[key](value))
        except ValueError:
            raise TrajectoryParseError(
                f"bad value for {key}: {value!r}", line=lineno) from None
    return config


def _load_config(args):
    if args.preset not in _PRESETS:
        known = ", ".join(sorted(_PRESETS))
        raise ValueError(f"unknown preset {args.preset!r} (known: {known})")
    cfg = RunConfig(preset=args.preset, r=_PRESETS[args.preset])
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            apply_config_text(cfg, fh.read())
    if args.nmax is not None:
        cfg.n_max = args.nmax
    return cfg


def _load_trajectory(path, geometry):
    if path is None:
        segments = parse_trajectory("")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            segments = parse_trajectory(fh.read())
    return Trajectory(tuple(segments), geometry)


def _fmt(x):
    return FLOAT_FMT % x


# The sweep body's derived values are formatted by array arithmetic (see
# _sweep_row_text).  The text ",d.ddddddddddde+XX" of one value is four
# 4-byte words, looked up by its 12-digit mantissa in groups of 2, 4, 4
# and 2 digits (the last word also holds "e" and the exponent's sign),
# and a 2-byte tail holding the exponent's two digits.
_ROW_VALUES = "," + ",".join([FLOAT_FMT] * (len(SWEEP_COLUMNS) - 3)) + "\n"
_TIE_WINDOW = 2.0 ** -12        # twice the scaled value's error bound
_E_MIN, _E_MAX = -11, 33        # the exponents e with |11 - e| <= 22


def _ascii_words(strings):
    return np.frombuffer("".join(strings).encode("ascii"), "<u4")


def _ascii_numbers(width):
    """The ASCII digits of 0 .. 10**width - 1, zero-padded to `width`,
    one row each."""
    return (np.indices((10,) * width).reshape(width, -1).T
            + ord("0")).astype(np.uint8, order="C")


_WORDS = np.concatenate([
    _ascii_words([f",{i // 10}.{i % 10}" for i in range(100)]),
    _ascii_numbers(4).view("<u4").ravel(),
    _ascii_words([f"{i:02d}e{sign}" for sign in "+-" for i in range(100)]),
])
_WORD_POWERS = np.array([1e10, 1e6, 1e2, 1.0])[:, None, None]
_WORD_CARRY = np.array([10000, 10000, 100])[:, None, None]
_WORD_BASE = np.array([0, 100, 100, 10100])[:, None, None]
# indexed by e - _E_MIN; a mantissa that rounds up reaches _E_MAX + 1
_EXPONENTS = np.arange(_E_MIN, _E_MAX + 2)
_SIGN_WORD = 100 * (_EXPONENTS < 0)
_TAILS = _ascii_numbers(2).view("<u2").ravel()[np.abs(_EXPONENTS)]
# 10**|p| for p = 11 - e, from exact integers
_SCALE_UP = np.array([float(10 ** max(11 - e, 0))
                      for e in range(_E_MIN, _E_MAX + 1)])
_SCALE_DOWN = np.array([float(10 ** max(e - 11, 0))
                        for e in range(_E_MIN, _E_MAX + 1)])
_VALUE = np.dtype([("words", "<u4", (4,)), ("tail", "<u2")])
_ROW = np.dtype([("values", _VALUE, (len(SWEEP_COLUMNS) - 3,)),
                 ("end", "S1")])


def _mantissas(block):
    """(k, r, fast) for each value of `block`: its exponent as the index
    k = e - _E_MIN, its 12-digit mantissa r (an integer-valued float),
    and whether both are proven to be FLOAT_FMT's; r is 0 where they
    are not."""
    # log10 of 0 and v < 0, and overflow and inf - inf in the lines the
    # template formats
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(block))
        # the exponent guard, |p| <= 22: false for 0, inf, NaN and v < 0
        e = np.where(np.abs(11.0 - e) <= 22.0, e, 0.0)
        k = (e - _E_MIN).astype(np.intp)
        y = block * _SCALE_UP.take(k) / _SCALE_DOWN.take(k)
        r = np.rint(y)
        fast = np.abs(y - r) <= 0.5 - _TIE_WINDOW
        fast &= (y >= 1e11) & (r <= 1e12) | (y == 0.0)
        fast[np.signbit(block)] = False
    r = np.where(fast, r, 0.0)
    up = r == 1e12
    if up.any():
        r[up] = 1e11
        k[up] += 1
    return k, r, fast


def _value_rows(k, r):
    """The fast-path text of the values, one record of "," + value
    texts + "\n" per row of r."""
    # the mantissa's digit groups: the integer parts of its quotients by
    # powers of ten, less the groups above them
    words = (r / _WORD_POWERS).astype(np.intp)
    words[1:] -= words[:-1] * _WORD_CARRY
    words[3] += _SIGN_WORD.take(k)
    words += _WORD_BASE
    rows = np.empty(len(r), _ROW)
    values = rows["values"]
    values["words"] = np.moveaxis(_WORDS.take(words), 0, -1)
    values["tail"] = _TAILS.take(k)
    rows["end"] = b"\n"
    return rows


def _sweep_row_text(tau, coords, block):
    """CSV body text of one tau: line j holds repr(tau), coords[j] (the
    "a,h" text of column j) and row j of `block`, the (A, 8) slice of
    the sweep table at that tau, each value as FLOAT_FMT prints it.

    The values are formatted by array arithmetic, with the same bytes.
    For a value v > 0 take e = floor(log10(v)), which may be one off,
    and p = 11 - e.  When |p| <= 22, 10**|p| is exact in float64, so the
    scaled value y = v * 10**p (a division when p < 0) carries a single
    rounding error, at most 2**-13 while y < 2**40.  When y is more than
    _TIE_WINDOW = 2**-12 away from a rounding tie, rint(y) is therefore
    the correctly rounded 12-digit mantissa that FLOAT_FMT prints.  Its
    digits come from quotients by powers of ten, whose integer parts are
    exact because the mantissa is an integer below 2**53, and are looked
    up with the exponent in byte tables.  A mantissa that rounds up to
    10**12 prints as 1.00000000000 with the next exponent; +0.0 takes
    the same path.

    A line goes through the FLOAT_FMT template instead when one of its
    values lies within the tie window, has its sign bit set (-0.0 prints
    "-0.00000000000e+00"), is not finite, has |p| > 22 (which covers
    every three-digit exponent), or has y < 10**11 or rint(y) > 10**12,
    which a one-off log10 gives.
    """
    # coordinates round-trip exactly so h = a L / c^2 survives the file;
    # derived quantities carry the fixed 12-digit format
    k, r, fast = _mantissas(block)
    values = str(_value_rows(k, r), "ascii").splitlines(True)
    if not fast.all():
        for j in np.flatnonzero(~fast.all(axis=1)).tolist():
            values[j] = _ROW_VALUES % tuple(block[j].tolist())
    return "".join(itertools.chain.from_iterable(
        zip(itertools.repeat(repr(tau) + ","), coords, values)))


# ---------------------------------------------------------------------------
# fidelity

def cmd_fidelity(args):
    cfg = _load_config(args)
    params = cfg.params()
    traj = _load_trajectory(args.trajectory, params.geometry)
    report = consistency_report(params, traj, alice_clock=cfg.alice_clock)
    width = max(len(c) for c in REPORT_COLUMNS)
    _write_text(None, [f"{name:<{width}}  {getattr(report, name):.12g}\n"
                       for name in REPORT_COLUMNS])
    if args.out is not None:
        lines = [_metadata_lines(cfg, extra=[("defect", report.defect)]),
                 ",".join(REPORT_COLUMNS),
                 ",".join(_fmt(getattr(report, c)) for c in REPORT_COLUMNS)]
        _write_text(args.out, ["\n".join(filter(None, lines)) + "\n"])
    return 0


# ---------------------------------------------------------------------------
# sweep

def _metadata_lines(cfg, extra=()):
    geom = cfg.geometry()
    lines = [
        f"# cavtel {__version__}",
        f"# preset = {cfg.preset}",
        f"# r = {cfg.r!r}, k = {cfg.k}, kp = {cfg.kp}",
        f"# L_m = {cfg.L_m!r}, c_m_per_s = {cfg.c_m_per_s!r}, "
        f"n_max = {cfg.n_max}",
        f"# alice_clock = {cfg.alice_clock}",
        f"# fundamental_period_s = {geom.fundamental_period!r}",
    ]
    for key, value in extra:
        lines.append(f"# {key} = {value!r}")
    return "\n".join(lines)


def _usable_cpus():
    """The CPUs this process may run on: its affinity set, or
    os.cpu_count() where the platform has none (1 if that is unknown).
    A worker beyond them only competes for the same cores."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _forked_shares(fill, n):
    """Run fill(i, n) for every share i < n: this process share 0, a
    forked worker of its own each other share.  Returns whether every
    share was filled, and why a worker was lost (None if none was).

    A share writes into memory it shares with this process (the sweep's
    anonymous shared map), and a worker then leaves with os._exit, so a
    fork of a caller that runs cavtel in-process (pytest, the benchmark)
    never goes on with the caller's code.  A share fails when share 0
    raises, a worker exits non-zero or is killed, or os.fork raises
    OSError; the last two lose a worker.  Whatever leaves this function
    kills and reaps the workers that are left, so no child outlives it.
    """
    workers = []        # pids of the unreaped workers
    try:
        for i in range(1, n):
            try:
                pid = os.fork()
            except OSError as exc:
                return False, f"os.fork failed ({exc})"
            if pid == 0:
                try:
                    fill(i, n)
                    os._exit(0)
                finally:        # whatever it raised, KeyboardInterrupt too
                    os._exit(1)
            workers.append(pid)
        fill(0, n)
        while workers:
            pid, status = os.waitpid(workers[0], 0)
            workers.pop(0)
            if status != 0:
                return False, (f"sweep worker pid {pid} ended with wait "
                               f"status {status}")
        return True, None
    except Exception:
        return False, None
    finally:
        if workers:
            import signal
            for pid in workers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def sweep_rows(cfg, jobs=1):
    """Evaluate the full grid, returning (taus, accs, grid): one report
    whose fields are (A, T) arrays, row j the column of accs[j].

    Each column is the trajectory (Accelerated(a, taus),), with its own
    switch and phases; the columns of a share go through the state
    kernel in batches of whole columns (`protocol._reports`), so a
    short column does not pay a kernel pass of its own.  Every run
    fills one float64 block (fields, A, T) in an anonymous shared map,
    of which the grid's fields are views.  With
    N = min(jobs, columns, usable CPUs) > 1, share i of the columns is
    i, i + N, i + 2N, ...: this process fills share 0 and N - 1 forked
    workers the others (`_forked_shares`), so the columns whose cost
    grows with a spread evenly.  With N = 1, where os.fork does not
    exist, or when a share fails, this process fills the whole block,
    which returns or raises what jobs=1 gives; if a worker was lost, or
    os.fork failed, a returned grid ends with one line on stderr that
    says so.  Once the block is filled, this process logs the grid's
    clamp records, one per clamped state in grid order (each column's
    taus in turn); a sweep that raises logs none.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    params = cfg.params()
    taus, accs = cfg.grid()
    geom = params.geometry
    items = accs.tolist()
    shape = len(fields(FidelityReport)), len(items), len(taus)
    block = np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)

    def fill(i, n):
        columns = (Trajectory((Accelerated(a, taus),), geom)
                   for a in items[i::n])
        for j, rep in zip(range(i, len(items), n),
                          _reports(params, columns, cfg.alice_clock)):
            block[:, j] = tuple(vars(rep).values())

    jobs = min(jobs, len(items), _usable_cpus())
    done, lost = False, None
    if jobs > 1 and hasattr(os, "fork"):
        done, lost = _forked_shares(fill, jobs)
    if not done:
        fill(0, 1)
    grid = FidelityReport(*block)
    _log_clamped(grid.clamp)
    if lost is not None:
        print(f"warning: {lost}; the grid was recomputed in this process",
              file=sys.stderr)
    return taus, accs, grid


def _plot_matrix(taus, accs, grid):
    """Gnuplot nonuniform-matrix text of F_opt over the grid report, one
    line per piece."""
    yield "# gnuplot nonuniform matrix: F_opt_numeric(tau, a)\n"
    yield "# plot with: splot 'file' nonuniform matrix with pm3d\n"
    yield " ".join([str(len(taus))] + [_fmt(t) for t in taus.tolist()]) \
        + "\n"
    for a, f_opt in zip(accs.tolist(), grid.F_opt_numeric.tolist()):
        yield " ".join([_fmt(a)] + [_fmt(f) for f in f_opt]) + "\n"


def _write_text(path, pieces):
    """Write the text pieces in turn to the file at `path`, or to stdout
    when it is None.

    A reader of stdout that stops early (`cavtel sweep | head`) ends the
    output quietly: the pipe error is not a failure of the run, and
    later stdout text goes to the null device.  A failed write to a file
    raises.
    """
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of stdout's buffer would fail again at interpreter
        # exit, with an "Exception ignored" line; send it to the null
        # device instead
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def cmd_sweep(args):
    cfg = _load_config(args)
    taus, accs, grid = sweep_rows(cfg, jobs=args.jobs)
    head = ["# sweep grid: tau-major row order",
            _metadata_lines(cfg),
            "# grid axes are a reconstruction of the regime, not published",
            "# coordinates",
            f"# max_defect = {float(grid.defect.max())!r}",
            f"# clamped_points = {np.count_nonzero(grid.clamp)}",
            f"# clamp_max = {float(grid.clamp.max())!r}",
            ",".join(SWEEP_COLUMNS)]
    # the published columns as one (T, A, 8) table; the body is formatted
    # and written one tau block at a time, so the text of the whole grid
    # is never held, and the output opens only once every column is done
    table = np.stack([getattr(grid, name).T for name in SWEEP_COLUMNS[3:]],
                     axis=-1)
    coords = [f"{a!r},{h!r}"
              for a, h in zip(accs.tolist(), grid.h[:, 0].tolist())]
    body = (_sweep_row_text(tau, coords, block)
            for tau, block in zip(taus.tolist(), table))
    _write_text(args.out, itertools.chain(["\n".join(head) + "\n"], body))
    if args.plot_data is not None:
        _write_text(args.plot_data, _plot_matrix(taus, accs, grid))
    return 0


# ---------------------------------------------------------------------------
# coeffs

def cmd_coeffs(args):
    cfg = _load_config(args)
    geom = cfg.geometry()
    pair = sudden_switch_oracle(args.h, geom)
    first = sudden_switch_perturbative(geom)
    lines = [_metadata_lines(cfg, extra=[("h", args.h),
                                         ("defect", pair.defect)]),
             "m,n,re_alpha,im_alpha,re_beta,im_beta,alpha1,beta1"]
    n = geom.n_max
    for i in range(n):
        for j in range(n):
            lines.append(",".join([
                str(i + 1), str(j + 1),
                _fmt(pair.alpha[i, j].real), _fmt(pair.alpha[i, j].imag),
                _fmt(pair.beta[i, j].real), _fmt(pair.beta[i, j].imag),
                _fmt(first.alpha1[i, j]), _fmt(first.beta1[i, j])]))
    _write_text(args.out, ["\n".join(lines) + "\n"])
    return 0


# ---------------------------------------------------------------------------
# validate

def _check_identities(cfg):
    geom = cfg.geometry()
    pair = sudden_switch_oracle(0.245, geom)
    thr = 1e-3 if geom.n_max <= 10 else 1e-4
    worst = identity_residuals(pair.alpha, pair.beta)
    return worst <= thr, f"worst residual {worst:.3e} (limit {thr:.0e})"

def _check_symplectic(cfg):
    # the interior rows of a burn, each built as the reports build Rob's
    # row, must keep the symplectic form among themselves
    geom = cfg.geometry()
    burn = Trajectory((Accelerated(0.2 * geom.c ** 2 / geom.L, 0.3e-9),),
                      geom)
    k = _interior_count(geom.n_max)
    r = np.concatenate([rob_row(burn, kp)[0][0] for kp in range(1, k + 1)])
    gap = np.max(np.abs(r @ symplectic_form(geom.n_max) @ r.T
                        - symplectic_form(k)))
    thr = 1e-3 if geom.n_max <= 10 else 1e-4
    return gap <= thr, f"interior form defect {gap:.3e} (limit {thr:.0e})"

def _check_first_order(cfg):
    # the odd-parity entries of alpha(h) / h and beta(h) / h are the
    # oracle's central differences (the wedges' parity makes them odd in
    # h), so their gap to the closed form must shrink as h^2
    geom = cfg.geometry()
    first = sudden_switch_perturbative(geom)
    m = np.arange(1, geom.n_max + 1)
    odd = (m[:, None] + m[None, :]) % 2 == 1
    gap = {}
    for h in (0.1, 0.05, 0.025):
        pair = sudden_switch_oracle(h, geom)
        gap[h] = max(np.abs(pair.alpha[odd] / h - first.alpha1[odd]).max(),
                     np.abs(pair.beta[odd] / h - first.beta1[odd]).max())
    r1 = gap[0.1] / gap[0.05]
    r2 = gap[0.05] / gap[0.025]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    return ok, (f"gap to the closed form {gap[0.025]:.3e} at h = 0.025, "
                f"halving ratios {r1:.2f}, {r2:.2f} (want 3..5)")

def _check_phase_closure(cfg):
    params = cfg.params()
    geom = params.geometry
    rng = np.random.default_rng(20230817)
    worst = 0.0
    rate = geom.omega(params.k) + geom.omega(params.kp)
    for _ in range(200):
        r = float(rng.uniform(0.0, 2.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        p = ProtocolParams(r=r, k=params.k, kp=params.kp, geometry=geom)
        traj = Trajectory((Inertial(phi / rate),), geom)
        rep = consistency_report(p, traj, alice_clock=cfg.alice_clock)
        worst = max(worst, abs(
            rep.F_raw - perturbative_fidelity(r, phi, 0.0, 0.0, 0.0)))
    return worst <= 1e-9, f"worst closed-form deviation {worst:.3e}"

def _check_order_h4(cfg):
    # a generic duration: at whole periods the first-order sums vanish
    params = cfg.params()
    tau = 0.7 * params.geometry.fundamental_period
    res = {}
    for h in (0.025, 0.05, 0.1):
        a = h * cfg.c_m_per_s ** 2 / cfg.L_m
        traj = Trajectory((Accelerated(a, tau),), params.geometry)
        rep = consistency_report(params, traj, alice_clock=cfg.alice_clock)
        res[h] = abs(rep.F_corrected - rep.F_pert_opt)
    r1 = res[0.05] / res[0.025]
    r2 = res[0.1] / res[0.05]
    ok = 10.0 <= r1 <= 22.0 and 10.0 <= r2 <= 22.0
    return ok, f"halving ratios {r1:.1f}, {r2:.1f} (want 10..22)"

def _check_revival(cfg):
    # a burn of one Rindler period is the identity in the full theory, so
    # between coasts it gives the resting optimum, here within its row
    # residual; the kernel path has no regime warning
    params = cfg.params()
    geom = params.geometry
    coast = Inertial(0.3 * geom.fundamental_period)
    gaps = []
    for h in REVIVAL_H:
        a = h * geom.c ** 2 / geom.L
        burn = Accelerated(a, rindler_period(a * geom.L / geom.c ** 2, geom))
        f_opt, defect = _kernel_outputs(
            params, Trajectory((coast, burn, coast), geom), cfg.alice_clock,
            "f_opt", "defect")
        gaps.append((abs(f_opt - 1.0 / (1.0 + math.exp(-2.0 * params.r))),
                     defect))
    return all(gap <= defect for gap, defect in gaps), (
        "F_opt gap to 1/(1 + e^-2r) after one Rindler period / row "
        "residual: " + ", ".join(f"{g:.1e} / {d:.1e}" for g, d in gaps)
        + f" at h = {', '.join(map(str, REVIVAL_H))}")

def _check_truncation(cfg):
    # the gate itself: a failing tail raises its TruncationError
    ratio = _first_order_tail(cfg.kp, cfg.n_max)
    return True, (f"estimated first-order tail above n_max: "
                  f"{100 * ratio:.2f}% (limit {100 * TAIL_LIMIT:g}%)")


def cmd_validate(args):
    cfg = _load_config(args)
    # a bad r, k or kp is a usage error before any check runs
    cfg.params()
    checks = [
        ("bogoliubov-identities", lambda: _check_identities(cfg)),
        ("symplectic-form", lambda: _check_symplectic(cfg)),
        ("first-order", lambda: _check_first_order(cfg)),
        ("truncation-adequacy", lambda: _check_truncation(cfg)),
        ("phase-closure", lambda: _check_phase_closure(cfg)),
        ("order-h4", lambda: _check_order_h4(cfg)),
        ("revival", lambda: _check_revival(cfg)),
    ]
    failures = []
    for name, run in checks:
        try:
            ok, detail = run()
        except CavtelError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        _write_text(None, [f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n"])
        if not ok:
            failures.append(name)
    if failures:
        print(f"validation failed: {failures[0]}", file=sys.stderr)
        return 5
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="cavtel",
        description="Teleportation fidelity for a relativistically "
                    "moving cavity receiver")
    parser.add_argument("--version", action="version",
                        version=f"cavtel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", default="fig3",
                       help="parameter preset: fig3 or experiment")
        p.add_argument("--config", metavar="PATH",
                       help="key = value override file")
        p.add_argument("--nmax", type=int, metavar="N",
                       help="override the mode truncation")

    p = sub.add_parser("fidelity",
                       help="report all fidelity pipelines for one "
                            "trajectory")
    common(p)
    p.add_argument("--trajectory", metavar="PATH",
                   help="segment file; omitted = resting cavity")
    p.add_argument("--out", metavar="PATH", help="also write a CSV row")

    p = sub.add_parser("sweep",
                       help="evaluate a (tau, a) grid and emit CSV")
    common(p)
    p.add_argument("--out", metavar="PATH",
                   help="CSV path (default: stdout)")
    p.add_argument("--plot-data", metavar="PATH",
                   help="also write a gnuplot matrix of F_opt")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel worker processes (output identical)")

    p = sub.add_parser("coeffs",
                       help="dump switch coefficients and the exact "
                            "first-order ones")
    common(p)
    p.add_argument("h", type=float, help="acceleration parameter, (0, 2)")
    p.add_argument("--out", metavar="PATH",
                   help="CSV path (default: stdout)")

    p = sub.add_parser("validate", help="run the self-check suite")
    common(p)
    return parser


# built once per process: the tree of parsers and help formatters costs
# more than a warm report
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up by name at call time, in the module that runs (__main__
    # under `python -m cavtel.cli`), so a replaced cmd_* function runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (PhysicalityError, QuadratureError, TruncationError,
            ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
