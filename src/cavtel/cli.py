"""Command line front end: single-trajectory reports, (tau, a) sweeps,
coefficient dumps and a self-check suite.

Exit codes: 0 ok, 2 parse/usage, 3 numerical failure, 4 I/O failure,
5 validation failure.  All CSV output is deterministic: fixed row order,
fixed 12-significant-digit scientific formatting, and metadata headers
that carry no timestamps, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .bogoliubov import (
    REGIME_H_SQUARED,
    TAIL_LIMIT,
    CavityGeometry,
    _interior_count,
    _tail_ratio,
    identity_residuals,
    one_segment_transform,
    sudden_switch_oracle,
    sudden_switch_perturbative,
    to_symplectic,
)
from .errors import (
    CavtelError,
    ConsistencyError,
    ExtrapolationError,
    PhysicalityError,
    QuadratureError,
    TrajectoryParseError,
    TruncationError,
)
from .gaussian import symplectic_form
from .protocol import (
    DEFAULT_GEOMETRY,
    ProtocolParams,
    _report,
    consistency_report,
    perturbative_fidelity,
)
from .trajectory import Accelerated, Inertial, Trajectory, parse_trajectory

FLOAT_FMT = "%.11e"          # 12 significant digits, scientific
REGIME_H_MAX = math.sqrt(REGIME_H_SQUARED)

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
            raise ValueError("sweep steps must be >= 2")
        if not 0.0 <= self.tau_min_s < tau_max:
            raise ValueError("need 0 <= tau_min < tau_max")
        if not 0.0 < self.a_min_m_s2 < a_max:
            raise ValueError("need 0 < a_min < a_max")
        taus = np.linspace(self.tau_min_s, tau_max, self.tau_steps)
        accs = np.linspace(self.a_min_m_s2, a_max, self.a_steps)
        return taus, accs


_CONFIG_FIELDS = {
    "r": float, "k": int, "kp": int, "L_m": float, "c_m_per_s": float,
    "n_max": int, "alice_clock": str, "tau_min_s": float,
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


def _sweep_row_text(row):
    # coordinates round-trip exactly so h = a L / c^2 survives the file;
    # derived quantities carry the fixed 12-digit format
    coords = [repr(float(v)) for v in row[:3]]
    return ",".join(coords + [_fmt(v) for v in row[3:]])


# ---------------------------------------------------------------------------
# fidelity

def cmd_fidelity(args):
    cfg = _load_config(args)
    params = cfg.params()
    traj = _load_trajectory(args.trajectory, params.geometry)
    report = consistency_report(params, traj, alice_clock=cfg.alice_clock)
    width = max(len(c) for c in REPORT_COLUMNS)
    for name in REPORT_COLUMNS:
        print(f"{name:<{width}}  {getattr(report, name):.12g}")
    if args.out is not None:
        lines = [_metadata_lines(cfg, extra=[("defect", report.defect)]),
                 ",".join(REPORT_COLUMNS),
                 ",".join(_fmt(getattr(report, c)) for c in REPORT_COLUMNS)]
        _write_text(args.out, "\n".join(filter(None, lines)) + "\n")
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


class SweepStats(namedtuple("SweepStats",
                            "max_defect clamped_points clamp_max")):
    """Deterministic counters of one sweep: the worst transform defect,
    and how many reduced states were clamped into the physical cone and
    by how much at most (0.0 when none were)."""

    __slots__ = ()


def _sweep_column(params, alice_clock, taus, a):
    # consistency_report's body: bench/tracer.py wraps it per trajectory
    traj = Trajectory((Accelerated(a, taus),), params.geometry)
    rep, _ = _report(params, traj, alice_clock)
    table = np.column_stack([taus, np.full(taus.shape, a)]
                            + [getattr(rep, c) for c in SWEEP_COLUMNS[2:]])
    return table.tolist(), rep.defect, rep.clamp


def sweep_rows(cfg, jobs=1):
    """Evaluate the full grid, returning (rows, SweepStats) with the rows
    in tau-major order.

    Each acceleration column is one report on the column trajectory
    (Accelerated(a, taus),): one switch and one state kernel pass over
    all taus; with jobs > 1 the pool gets whole columns.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    params = cfg.params()
    taus, accs = cfg.grid()
    worker = partial(_sweep_column, params, cfg.alice_clock, taus)
    if jobs > 1:
        chunk = max(1, len(accs) // (8 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            columns = list(pool.map(worker, accs.tolist(), chunksize=chunk))
    else:
        columns = [worker(a) for a in accs.tolist()]
    rows = [col[i] for i in range(len(taus)) for col, _, _ in columns]
    defect = np.concatenate([d for _, d, _ in columns])
    clamp = np.concatenate([c for _, _, c in columns])
    stats = SweepStats(max_defect=float(defect.max()),
                       clamped_points=int(np.count_nonzero(clamp)),
                       clamp_max=float(clamp.max()))
    return rows, stats


def _plot_matrix(rows):
    """Gnuplot nonuniform-matrix text of F_opt over the grid."""
    taus = sorted({row[0] for row in rows})
    accs = sorted({row[1] for row in rows})
    f_opt = {(row[0], row[1]): row[6] for row in rows}
    lines = ["# gnuplot nonuniform matrix: F_opt_numeric(tau, a)",
             "# plot with: splot 'file' nonuniform matrix with pm3d"]
    head = [str(len(taus))] + [_fmt(t) for t in taus]
    lines.append(" ".join(head))
    for a in accs:
        cells = [_fmt(a)] + [_fmt(f_opt[(t, a)]) for t in taus]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_sweep(args):
    cfg = _load_config(args)
    rows, stats = sweep_rows(cfg, jobs=args.jobs)
    out = ["# sweep grid: tau-major row order",
           _metadata_lines(cfg),
           "# grid axes are a reconstruction of the regime, not published",
           "# coordinates",
           f"# max_defect = {stats.max_defect!r}",
           f"# clamped_points = {stats.clamped_points}",
           f"# clamp_max = {stats.clamp_max!r}",
           ",".join(SWEEP_COLUMNS)]
    out.extend(_sweep_row_text(row) for row in rows)
    text = "\n".join(out) + "\n"
    if args.out is not None:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.plot_data is not None:
        _write_text(args.plot_data, _plot_matrix(rows))
    return 0


# ---------------------------------------------------------------------------
# coeffs

def cmd_coeffs(args):
    cfg = _load_config(args)
    if not 0.0 < args.h < 2.0:
        raise ValueError("h must lie in (0, 2)")
    geom = cfg.geometry()
    pair = sudden_switch_oracle(args.h, geom)
    first = sudden_switch_perturbative(geom)
    flags = first.match_flags()
    lines = [_metadata_lines(cfg, extra=[
        ("h", args.h), ("defect", pair.defect),
        ("extrapolation_error", first.error)]),
        "m,n,re_alpha,im_alpha,re_beta,im_beta,"
        "abs_alpha1,abs_beta1,closed_form_match_flag"]
    n = geom.n_max
    for i in range(n):
        for j in range(n):
            lines.append(",".join([
                str(i + 1), str(j + 1),
                _fmt(pair.alpha[i, j].real), _fmt(pair.alpha[i, j].imag),
                _fmt(pair.beta[i, j].real), _fmt(pair.beta[i, j].imag),
                _fmt(abs(first.alpha1[i, j])), _fmt(abs(first.beta1[i, j])),
                str(int(flags[i, j]))]))
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
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
    geom = cfg.geometry()
    s = to_symplectic(one_segment_transform(0.3e-9, 0.2, geom))
    omega = symplectic_form(geom.n_max)
    k = 2 * _interior_count(geom.n_max)
    gap = np.max(np.abs((s @ omega @ s.T - omega)[:k, :k]))
    thr = 1e-3 if geom.n_max <= 10 else 1e-4
    return gap <= thr, f"interior form defect {gap:.3e} (limit {thr:.0e})"

def _check_first_order(cfg):
    first = sudden_switch_perturbative(cfg.geometry())
    m = np.arange(1, first.n_modes + 1)
    even = (m[:, None] + m[None, :]) % 2 == 0
    worst = max(np.abs(first.alpha1[even]).max(),
                np.abs(first.beta1[even]).max())
    return worst <= 1e-8, f"largest even-parity coefficient {worst:.3e}"

def _check_closed_form(cfg):
    first = sudden_switch_perturbative(cfg.geometry())
    flags = first.match_flags()
    bad = int(flags.size - flags.sum())
    return bad == 0, f"{bad} of {flags.size} entries off the closed form"

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
    params = cfg.params()
    tau = params.geometry.fundamental_period
    res = {}
    for h in (0.05, 0.1, 0.2):
        a = h * cfg.c_m_per_s ** 2 / cfg.L_m
        traj = Trajectory((Accelerated(a, tau),), params.geometry)
        rep = consistency_report(params, traj, alice_clock=cfg.alice_clock)
        res[h] = abs(rep.F_corrected - rep.F_pert_opt)
    r1 = res[0.1] / res[0.05]
    r2 = res[0.2] / res[0.1]
    ok = 10.0 <= r1 <= 22.0 and 10.0 <= r2 <= 22.0
    return ok, f"halving ratios {r1:.1f}, {r2:.1f} (want 10..22)"

def _check_truncation(cfg):
    ratio = _tail_ratio(cfg.kp, cfg.n_max)
    return ratio <= TAIL_LIMIT, (
        f"estimated first-order tail above n_max: {100 * ratio:.2f}% "
        f"(limit {100 * TAIL_LIMIT:g}%)")


def cmd_validate(args):
    cfg = _load_config(args)
    checks = [
        ("bogoliubov-identities", lambda: _check_identities(cfg)),
        ("symplectic-form", lambda: _check_symplectic(cfg)),
        ("first-order-parity", lambda: _check_first_order(cfg)),
        ("closed-form-match", lambda: _check_closed_form(cfg)),
        ("truncation-adequacy", lambda: _check_truncation(cfg)),
        ("phase-closure", lambda: _check_phase_closure(cfg)),
        ("order-h4", lambda: _check_order_h4(cfg)),
    ]
    failures = []
    for name, run in checks:
        try:
            ok, detail = run()
        except CavtelError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
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
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("sweep",
                       help="evaluate a (tau, a) grid and emit CSV")
    common(p)
    p.add_argument("--out", metavar="PATH",
                   help="CSV path (default: stdout)")
    p.add_argument("--plot-data", metavar="PATH",
                   help="also write a gnuplot matrix of F_opt")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel worker processes (output identical)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("coeffs",
                       help="dump switch coefficients and first-order "
                            "extrapolations")
    common(p)
    p.add_argument("h", type=float, help="acceleration parameter, (0, 2)")
    p.add_argument("--out", metavar="PATH",
                   help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("validate", help="run the self-check suite")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrajectoryParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PhysicalityError, QuadratureError, ExtrapolationError,
            TruncationError, ConsistencyError) as exc:
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
