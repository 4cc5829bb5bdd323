"""Benchmark of cavtel: three workloads, timed end to end or traced by layer.

Usage, from the root of a cavtel checkout:

    python3 bench/run.py --workload {sweep-default,oracle-highn,multiburn,all}
                         --seed N --seconds S --trace {0,1}

cavtel is imported from ``src/`` of the current directory, in fresh
worker processes (``bench/child.py``) with one BLAS thread each.  Every
run first times ``cavtel fidelity`` on a resting cavity (``setup_s``),
then repeats the workload's unit of work until ``--seconds`` have passed
(at least once).  ``--trace 1`` instead runs the workload's first pass
once untraced and once with span wrappers installed, and reports the
per-layer numbers.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files go to ``.bench_build/``.

Timed runs report times at a reference CPU speed, because this kind of
shared VM drifts in speed by tens of percent within seconds.  The speed
probe (``bench/probe.py``) times a fixed kernel: inline, between calls,
in the loops the benchmark owns (``multiburn`` passes, single-call
latencies); from a probe process on each CPU for the CLI passes and
set-up.  Single-process work is pinned to the first CPU.  Each timed
interval, less the probe's own time inside it when it shared the work's
CPU, is divided by the kernel's mean time over the interval relative to
PROBE_REF_S.  The raw wall times are printed too and kept in the run's
record.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from checks import (F_COLUMNS, REFERENCE_TOL, check_multiburn,
                    check_sweep_csv, load_reference, parse_sweep_csv)
from workloads import (C_M_PER_S, DEFAULT_SEED, HIGHN_ACCS, HIGHN_NMAX,
                       HIGHN_TAUS, K, KP, L_M, LATENCY_CALLS, MULTIBURN_COUNT,
                       MULTIBURN_NMAX, R, SWEEP_NMAX, WORKLOADS, highn_config,
                       latency_rows, sweep_args)

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 7
BLAS_THREADS = "1"
# The probe kernel's CPU time at reference speed (about its mean on the
# 2-vCPU VM the benchmark was written on), and the fewest probe samples
# a slowdown estimate rests on (few, because the speed can switch within
# a second).
PROBE_REF_S = 1.4e-3
PROBE_MIN_SAMPLES = 4
CPUS = tuple(sorted(os.sched_getaffinity(0))[:2])
WORK = f"cpu{CPUS[0]}"      # the probe series of single-process work
# sha256 of the default sweep CSV at the commit the benchmark was
# written against; reported, not enforced, since metadata may grow
BASELINE_SWEEP_SHA256 = (
    "6a63d3364ddd284cfded87e644fce93eef869c8a48c5b600dd7f4437aed1f35a")

# End-to-end metrics: (name, unit).  Every timed run reports all of them.
END_TO_END = (
    ("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"), ("jobs2_s", "s"),
    ("ops_per_s", "1/s"), ("p50_ms", "ms"), ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Workload-specific names of the generic metrics, for the printed lines.
NAMED = {
    "sweep-default": (("sweep_cold_s", "cold_s"), ("sweep_warm_s", "warm_s"),
                      ("sweep_jobs2_s", "jobs2_s")),
    "oracle-highn": (("highn_sweep_s", "cold_s"),),
    "multiburn": (("multiburn_traj_per_s", "ops_per_s"),
                  ("multiburn_p50_ms", "p50_ms"),
                  ("multiburn_p99_ms", "p99_ms")),
}


class BenchError(Exception):
    """The benchmark cannot run here (no cavtel source, worker crashed)."""


def child_env(root):
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    return env


def pinned(cpus):
    """A preexec_fn that confines the new process to ``cpus``."""
    return lambda: os.sched_setaffinity(0, cpus)


class Probes:
    """Speed-probe samples, by series: ``cpu<N>`` from the probe process
    on CPU N, ``cpus`` from all of them, and one series for each worker
    that ran the inline probe."""

    def __init__(self, env):
        self.procs = {cpu: subprocess.Popen(
            [sys.executable, PROBE, str(cpu)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL) for cpu in CPUS}
        self.series = {}
        for proc in self.procs.values():     # numpy imported, kernel warm
            proc.stdout.readline()

    def add(self, key, samples):
        """Keep ``samples``, rows of (t_start, t_end, kernel_s)."""
        if not samples:
            raise BenchError(f"speed probe series {key} has no samples")
        rows = sorted(tuple(row) for row in samples)
        self.series[key] = tuple(list(col) for col in zip(*rows))

    def stop(self):
        outs = {}
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            try:
                outs[cpu] = json.loads(out or b"[]")
            except ValueError:
                outs[cpu] = []
        for cpu, rows in outs.items():
            self.add(f"cpu{cpu}", rows)
        self.add("cpus", [row for rows in outs.values() for row in rows])

    def seconds(self, t0, t1, key, own):
        """[t0, t1] in seconds at reference speed: minus the probe's own
        kernel time inside it when the probe shared the work's CPU
        (``own``), over the slowdown.  The slowdown is the kernel's mean
        over PROBE_REF_S, on the samples that start in [t0, t1], widened
        to PROBE_MIN_SAMPLES of them."""
        starts, ends, dts = self.series[key]
        i = bisect.bisect_left(starts, t0)
        j = bisect.bisect_right(starts, t1)
        while j - i < PROBE_MIN_SAMPLES and (i > 0 or j < len(starts)):
            if i > 0:
                i -= 1
            if j < len(starts) and j - i < PROBE_MIN_SAMPLES:
                j += 1
        slowdown = statistics.fmean(dts[i:j]) / PROBE_REF_S
        held = 0.0
        if own:
            k = bisect.bisect_left(starts, t1) - 1
            while k >= 0 and ends[k] > t0:
                held += min(ends[k], t1) - max(starts[k], t0)
                k -= 1
        return (t1 - t0 - held) / slowdown

    def mean_ms(self):
        return {key: 1e3 * statistics.fmean(self.series[key][2])
                for key in self.series if key.startswith("cpu")}


def source_fingerprint(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Bench:
    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = child_env(root)
        self.out = os.path.join(root, ".bench_build", "cavtel-bench",
                                f"{workload}-seed{seed}")
        os.makedirs(self.out, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rss_kb = []
        # timed intervals by metric: each sample is a list of parts
        # (t0, t1, probe series, probe on the work's CPU), and its value
        # the slowest part's time
        self.intervals = {}
        self.calls = []     # (t0, seconds, probe series) of timed calls
        self.probes = None
        self._reference = None
        self.grid_config = os.path.join(self.out, "grid.cfg")
        if workload == "oracle-highn":
            with open(self.grid_config, "w", encoding="utf-8") as fh:
                fh.write(highn_config(seed))

    @property
    def reference(self):
        if self._reference is None:
            self._reference = load_reference()
        return self._reference

    # -- processes --------------------------------------------------------

    def start(self, spec, tag, cpus=CPUS[:1]):
        spec = dict(spec, result=os.path.join(self.out, f"{tag}.json"))
        log = open(os.path.join(self.out, f"{tag}.stderr"), "w")
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)], cwd=self.root,
            env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=log, start_new_session=True,
            preexec_fn=pinned(cpus))
        return proc, log, spec["result"], t0

    def finish(self, started):
        proc, log, result_path, t0 = started
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            log.close()
        if proc.returncode != 0:
            with open(log.name, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker exited {proc.returncode}: {tail}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if "maxrss_kb" in result:
            self.rss_kb.append(result["maxrss_kb"])
        return t0, result

    def child(self, spec, tag, cpus=CPUS[:1]):
        return self.finish(self.start(spec, tag, cpus))

    def timing(self, name, *parts):
        self.intervals.setdefault(name, []).append(parts)

    def normalized(self):
        """Medians of the timed intervals, raw and at reference speed,
        and the per-call latencies at reference speed."""
        raw, norm = {}, {}
        for name, samples in self.intervals.items():
            raw[name] = statistics.median(
                max(p[1] - p[0] for p in parts) for parts in samples)
            norm[name] = statistics.median(
                max(self.probes.seconds(*p) for p in parts)
                for parts in samples)
        lat = [self.probes.seconds(t0, t0 + dt, key, True)
               for t0, dt, key in self.calls]
        return norm, raw, lat

    def fail(self, count, problem):
        if count:
            self.failed += count
            self.problems.append(problem)

    # -- common parts -----------------------------------------------------

    def environment(self):
        """Worker-reported machine record; also compiles the bytecode, so
        that no timed process pays for it."""
        _, env = self.child({"mode": "env"}, "env")
        src = os.path.join(self.root, "src")
        if not env["cavtel_file"].startswith(src + os.sep):
            raise BenchError(f"cavtel imported from {env['cavtel_file']}, "
                             f"not from {src}")
        env.update(seed=self.seed, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                   git_commit=git_commit(self.root),
                   src_sha256=source_fingerprint(self.root))
        return env

    def setup_times(self):
        """Fresh-process `cavtel fidelity` on a resting cavity."""
        rest = 1.0 / (1.0 + math.exp(-2.0 * R))
        for _ in range(SETUP_REPEATS):
            self.attempted += 1
            t0 = time.monotonic()
            try:
                out = subprocess.run(
                    [sys.executable, "-m", "cavtel.cli", "fidelity"],
                    cwd=self.root, env=self.env, capture_output=True,
                    text=True, timeout=CHILD_TIMEOUT_S,
                    preexec_fn=pinned(CPUS[:1]))
            except subprocess.TimeoutExpired:
                raise BenchError("cavtel fidelity did not finish") from None
            self.timing("setup_s", (t0, time.monotonic(), WORK, True))
            try:
                fields = dict(line.split(None, 1) for line in
                              out.stdout.splitlines() if line.strip())
                ok = out.returncode == 0 and all(
                    abs(float(fields[c]) - rest) <= 1e-9 for c in F_COLUMNS)
            except (KeyError, ValueError):
                ok = False
            self.fail(not ok, f"cavtel fidelity: exit {out.returncode}, "
                              f"{out.stdout[-300:]!r} {out.stderr[-300:]!r}")

    @staticmethod
    def latency_metrics(lat_s):
        """Throughput, median and p99 of per-call latencies.  Every sample
        has at least 1000 calls, so at least ten lie above p99."""
        if not lat_s:       # the pass that feeds the calls failed
            return {"ops_per_s": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
        ms = [x * 1e3 for x in lat_s]
        return {"ops_per_s": len(ms) / sum(lat_s),
                "p50_ms": statistics.median(ms),
                "p99_ms": statistics.quantiles(ms, n=100)[98]}

    # -- sweep workloads --------------------------------------------------

    def sweep_spec(self, **extra):
        nmax = SWEEP_NMAX if self.workload == "sweep-default" else HIGHN_NMAX
        return dict({"mode": "sweep",
                     "args": sweep_args(self.workload, self.grid_config),
                     "L": L_M, "c": C_M_PER_S, "r": R, "k": K, "kp": KP,
                     "nmax": nmax}, **extra)

    def sweep_rows_expected(self):
        return 10000 if self.workload == "sweep-default" \
            else HIGHN_TAUS * HIGHN_ACCS

    def sweep_reference(self):
        if self.workload == "sweep-default":
            return self.reference["sweep-default"]
        if self.seed == DEFAULT_SEED:
            return self.reference["oracle-highn"]
        return None

    def check_sweep_passes(self, passes, first_sha):
        for p in passes:
            self.attempted += 1
            if p["code"] != 0:
                self.fail(1, f"{p['kind']} pass exited {p['code']}: "
                             f"{p['error']}")
            elif p["sha256"] != first_sha:
                self.fail(1, f"{p['kind']} pass CSV bytes differ from the "
                             "first cold pass")

    def check_sweep_output(self, path):
        problems = check_sweep_csv(path, self.sweep_rows_expected(),
                                   self.sweep_reference())
        self.fail(1 if problems else 0,
                  f"sweep output check: {len(problems)} problems, first "
                  f"{problems[:3]}")

    def point_latency(self, csv_path):
        """Single `consistency_report` calls at grid points of the sweep,
        in a fresh process; results must agree with the CLI rows."""
        _, rows = parse_sweep_csv(csv_path)
        idx = latency_rows(self.seed, len(rows))
        points = [[i, rows[i]["tau_s"], rows[i]["a_m_s2"]] for i in idx]
        _, res = self.child(self.sweep_spec(mode="points", points=points,
                                            calls=LATENCY_CALLS[self.workload],
                                            probe=True),
                            "points")
        self.attempted += len(res["lat_s"])
        self.probes.add("points", res["probe"])
        self.calls += [(t, dt, "points")
                       for t, dt in zip(res["lat_t"], res["lat_s"])]
        self.fail(res["failed"], f"consistency_report failed: "
                                 f"{res['errors']}")
        bad = [i for i, v in zip(idx, res["values"])
               if not all(abs(x - rows[i][c]) <= REFERENCE_TOL
                          for x, c in zip(v, F_COLUMNS))]
        self.fail(len(bad), f"consistency_report disagrees with the CLI "
                            f"row at grid rows {bad[:5]}")

    def timed_sweep(self):
        start = time.monotonic()
        first_sha = None
        unit = 0
        while unit == 0 or time.monotonic() - start < self.seconds:
            csv = os.path.join(self.out, f"cold{unit}.csv")
            spec = self.sweep_spec(out=csv, warm_min_s=1.0, warm_max=50)
            t0, res = self.child(spec, f"cold{unit}")
            passes = res["passes"]
            self.timing("cold_s", (t0, passes[0]["t_end"], WORK, True))
            for p in passes[1:]:
                self.timing("warm_s", (p["t0"], p["t0"] + p["pass_s"],
                                       WORK, True))
            if unit == 0:
                first_sha = passes[0]["sha256"]
                if passes[0]["code"] == 0:
                    self.check_sweep_output(csv)
            self.check_sweep_passes(passes, first_sha)

            spec = self.sweep_spec(out=os.path.join(self.out,
                                                    f"jobs{unit}.csv"))
            spec["args"] = spec["args"] + ["--jobs", "2"]
            t0, res = self.child(spec, f"jobs{unit}", CPUS)
            self.timing("jobs2_s",
                        (t0, res["passes"][0]["t_end"], "cpus", False))
            self.check_sweep_passes(res["passes"], first_sha)
            unit += 1
        if first_sha is not None:
            self.point_latency(os.path.join(self.out, "cold0.csv"))
        info = {"sha256": first_sha}
        if self.workload == "sweep-default":
            info["sha256_matches_baseline"] = \
                first_sha == BASELINE_SWEEP_SHA256
        return info

    # -- multiburn --------------------------------------------------------

    def multiburn_spec(self, part=(0, 1), **extra):
        return dict({"mode": "multiburn", "seed": self.seed,
                     "count": MULTIBURN_COUNT, "part": list(part),
                     "L": L_M, "c": C_M_PER_S, "r": R, "k": K, "kp": KP,
                     "nmax": MULTIBURN_NMAX}, **extra)

    def check_multiburn_values(self, values):
        ref = self.reference["multiburn"] if self.seed == DEFAULT_SEED \
            else None
        problems = check_multiburn(values, ref)
        self.fail(len(problems), f"multiburn checks: "
                                 f"{list(problems.values())[:3]}")

    def check_repeat(self, first, other, label):
        self.attempted += len(other)
        bad = [i for i, (a, b) in enumerate(zip(first, other))
               if json.dumps(a) != json.dumps(b)]
        bad += list(range(len(other), len(first)))
        self.fail(len(bad), f"{label} differs from the first pass at "
                            f"trajectories {bad[:5]}")

    def timed_multiburn(self):
        start = time.monotonic()
        unit = 0
        while unit == 0 or time.monotonic() - start < self.seconds:
            t0, res = self.child(self.multiburn_spec(warm=True, probe=True),
                                 f"cold{unit}")
            key = f"cold{unit}"
            self.probes.add(key, res["probe"])
            self.timing("cold_s", (t0, res["t_end"], key, True))
            self.timing("warm_s", (res["warm_t0"],
                                   res["warm_t0"] + res["warm_s"], key, True))
            self.calls += [(t, dt, key)
                           for t, dt in zip(res["lat_t"], res["lat_s"])]
            first = res["values"]
            self.attempted += len(first)
            self.fail(res["failed"], f"consistency_report failed: "
                                     f"{res['errors']}")
            self.check_multiburn_values(first)
            self.check_repeat(first, res["warm_values"], "warm pass")

            keys = [f"jobs{unit}-{i}" for i in range(2)]
            halves = [self.start(self.multiburn_spec(part=(i, 2), probe=True),
                                 keys[i], CPUS[i % len(CPUS):][:1])
                      for i in range(2)]
            t0 = halves[0][3]
            done = [self.finish(h)[1] for h in halves]
            for key, d in zip(keys, done):
                self.probes.add(key, d["probe"])
            self.timing("jobs2_s", *((t0, d["t_end"], key, True)
                                     for key, d in zip(keys, done)))
            merged = [None] * len(first)
            merged[0::2], merged[1::2] = done[0]["values"], done[1]["values"]
            self.check_repeat(first, merged, "two-process pass")
            unit += 1
        return {}

    # -- traced runs ------------------------------------------------------

    def traced_pair(self):
        """The first pass untraced, then traced: (untraced, traced)."""
        spans = os.path.join(self.out, "spans.csv")
        trace = {"trace": True, "spans_path": spans,
                 "run_id": f"{self.workload}/seed{self.seed}"}
        if self.workload == "multiburn":
            plain = self.child(self.multiburn_spec(counters=True), "plain")[1]
            traced = self.child(self.multiburn_spec(counters=True, **trace),
                                "traced")[1]
            for res in (plain, traced):
                self.attempted += len(res["values"])
                self.fail(res["failed"], f"consistency_report failed: "
                                         f"{res['errors']}")
            self.check_multiburn_values(plain["values"])
            self.check_repeat(plain["values"], traced["values"],
                              "traced pass")
            return plain, traced, None
        csv = os.path.join(self.out, "plain.csv")
        plain = self.child(self.sweep_spec(out=csv, counters=True),
                           "plain")[1]
        traced = self.child(self.sweep_spec(
            out=os.path.join(self.out, "traced.csv"), counters=True,
            **trace), "traced")[1]
        for res in (plain, traced):
            p = res["passes"][0]
            res["t_end"], res["pass_s"] = p["t_end"], p["pass_s"]
        first_sha = plain["passes"][0]["sha256"]
        self.check_sweep_passes(plain["passes"] + traced["passes"],
                                first_sha)
        if plain["passes"][0]["code"] == 0:
            self.check_sweep_output(csv)
        return plain, traced, csv

    def traced(self):
        plain, traced, csv = self.traced_pair()
        cp, ct = plain["counters"], traced["counters"]
        keys = ("oracle_cache", "first_order_cache", "clamped_points",
                "clamp_max", "defect_max")
        if self.workload != "multiburn":
            keys = keys[:4]     # the sweep's defect is in its CSV bytes
        diff = [k for k in keys if cp.get(k) != ct.get(k)]
        self.fail(len(diff), f"counters differ between the untraced and "
                             f"traced pass: {diff}")
        if csv is not None:
            meta, _ = parse_sweep_csv(csv)
            ct["defect_max"] = max(ct["defect_max"],
                                   float(meta.get("max_defect", 0.0)))
            ct["output_bytes"] = os.path.getsize(csv)
        metrics = layer_metrics(traced["trace"], ct, plain["pass_s"],
                                traced["pass_s"])
        self.check_counter_repeat(metrics)
        return metrics, traced["trace"]

    def check_counter_repeat(self, metrics):
        """Deterministic counters must repeat exactly across invocations
        of the same source, workload and seed in this checkout."""
        det = {k: v for k, v in metrics.items()
               if not k.endswith(("_s", "_frac")) and
               not k.startswith("share.")}
        path = os.path.join(self.out, "counters.json")
        record = {"src_sha256": source_fingerprint(self.root),
                  "counters": det}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                old = json.load(fh)
            if old.get("src_sha256") == record["src_sha256"]:
                diff = [k for k in det if old["counters"].get(k) != det[k]]
                self.fail(len(diff), f"counters changed since the last "
                                     f"traced run: {diff}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)

    def timed(self):
        """Set-up and the workload, each under the speed probes."""
        self.probes = Probes(self.env)
        try:
            self.setup_times()
            if self.workload == "multiburn":
                info = self.timed_multiburn()
            else:
                info = self.timed_sweep()
        finally:
            self.probes.stop()
        metrics, raw, lat = self.normalized()
        metrics.update(self.latency_metrics(lat))
        raw.update(self.latency_metrics([dt for _, dt, _ in self.calls]))
        metrics["peak_rss_mb"] = raw["peak_rss_mb"] = \
            max(self.rss_kb) / 1024.0
        counts = {k: len(v) for k, v in self.intervals.items()}
        counts.update(ops=len(self.calls), peak_rss_mb=len(self.rss_kb))
        info.update(probe_mean_ms=self.probes.mean_ms(),
                    probe_ref_ms=PROBE_REF_S * 1e3)
        return metrics, raw, counts, info


# ---------------------------------------------------------------------------
# per-layer metrics

def _span_names():
    from tracer import TARGETS
    return [name for _, _, name, _ in TARGETS]


def per_layer_units():
    """Every per-layer metric: (name, unit, better)."""
    from tracer import GROUPS
    out = []
    for name in _span_names():
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [
        ("quadrature.integrate_stack.panels_max", "count", "lower"),
        ("quadrature.integrate_stack.residual_max", "dimensionless",
         "lower"),
        ("quadrature.integrate_stack.nodes", "count", "lower"),
        ("quadrature.integrate_stack.computed_bytes", "B", "lower"),
        ("bogoliubov.oracle.total_s", "s", "lower"),
        ("bogoliubov.oracle.lookups", "count", "lower"),
        ("bogoliubov.oracle.misses", "count", "lower"),
        ("bogoliubov.oracle.cache_hit_ratio", "fraction", "higher"),
        ("bogoliubov.first_order.lookups", "count", "lower"),
        ("bogoliubov.first_order.cache_hit_ratio", "fraction", "higher"),
        ("bogoliubov.f_sums.total_s", "s", "lower"),
        ("cli.output_bytes", "B", "lower"),
        ("protocol.clamped_points", "count", "lower"),
        ("protocol.clamp_max", "dimensionless", "lower"),
        ("protocol.defect_max", "dimensionless", "lower"),
    ]
    out += [(f"share.{g}", "fraction", "lower") for g in GROUPS]
    out += [("trace.spans", "count", "lower"),
            ("trace.untraced_wall_s", "s", "lower"),
            ("trace.traced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.overhead_frac", "fraction", "lower")]
    return out


def _cache(counters, key):
    hits, misses = counters.get(key) or (0, 0)
    lookups = hits + misses
    return lookups, misses, (hits / lookups if lookups else 0.0)


def layer_metrics(trace, counters, untraced_s, traced_s):
    per_name = trace["per_name"]
    m = {}
    for name in _span_names():
        rec = per_name.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = rec["calls"]
        m[f"{name}.self_s"] = rec["self_s"]
    quad = counters.get("quadrature", {})
    m["quadrature.integrate_stack.panels_max"] = quad.get("panels_max", 0)
    m["quadrature.integrate_stack.residual_max"] = quad.get("residual_max",
                                                            0.0)
    m["quadrature.integrate_stack.nodes"] = quad.get("nodes", 0)
    m["quadrature.integrate_stack.computed_bytes"] = quad.get(
        "computed_bytes", 0)
    m["bogoliubov.oracle.total_s"] = per_name.get(
        "bogoliubov.oracle", {}).get("total_s", 0.0)
    lookups, misses, ratio = _cache(counters, "oracle_cache")
    m["bogoliubov.oracle.lookups"] = lookups
    m["bogoliubov.oracle.misses"] = misses
    m["bogoliubov.oracle.cache_hit_ratio"] = ratio
    lookups, _, ratio = _cache(counters, "first_order_cache")
    m["bogoliubov.first_order.lookups"] = lookups
    m["bogoliubov.first_order.cache_hit_ratio"] = ratio
    m["bogoliubov.f_sums.total_s"] = per_name.get(
        "bogoliubov.f_sums", {}).get("total_s", 0.0)
    m["cli.output_bytes"] = counters.get("output_bytes", 0)
    m["protocol.clamped_points"] = counters.get("clamped_points", 0)
    m["protocol.clamp_max"] = counters.get("clamp_max", 0.0)
    m["protocol.defect_max"] = counters.get("defect_max", 0.0)
    for group, share in trace["share"].items():
        m[f"share.{group}"] = share
    m["trace.spans"] = trace["spans"]
    m["trace.untraced_wall_s"] = untraced_s
    m["trace.traced_wall_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return m


# ---------------------------------------------------------------------------
# output

def run_workload(root, workload, seed, seconds, trace):
    bench = Bench(root, workload, seed, seconds)
    env = bench.environment()
    lines = [f"# workload {workload}  seed {seed}  trace {trace}",
             "# env " + " ".join(f"{k}={env[k]}" for k in (
                 "nproc", "python", "numpy", "OPENBLAS_NUM_THREADS",
                 "git_commit", "src_sha256"))
             + f" blas={env['blas'].get('name')}-{env['blas'].get('version')}"]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env}
    if trace:
        metrics, tr = bench.traced()
        units = {n: u for n, u, _ in per_layer_units()}
        for name, value in metrics.items():
            lines.append(f"{name:<44} {value:.6g} {units[name]}")
        lines.append("# wrappers installed in: " + "; ".join(
            f"{k} -> {', '.join(v)}" for k, v in tr["installed"].items()))
        record["installed"] = tr["installed"]
    else:
        metrics, raw, counts, info = bench.timed()
        units = dict(END_TO_END)
        for alias, name in NAMED[workload]:
            lines.append(f"{alias:<22} {metrics[name]:.6g} {units[name]}")
        for name, unit in END_TO_END:
            n = counts.get(name, counts.get("ops"))
            how = f"median of {n}" if unit == "s" else \
                f"over {n} calls" if name != "peak_rss_mb" else \
                f"max of {n} processes"
            lines.append(f"{name:<22} {metrics[name]:.6g} {unit}  "
                         f"(raw {raw[name]:.6g}; {how})")
        for k, v in info.items():
            lines.append(f"# {k} = {v}")
        record.update(counts=counts, raw_metrics=raw)
        record.update(info)
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    lines.append(f"{'failed_frac':<22} "
                 f"{bench.failed / max(bench.attempted, 1):.6g} "
                 f"({bench.failed} failed of {bench.attempted} operations)")
    for p in bench.problems[:10]:
        lines.append(f"# FAILED: {p}")
    record.update(metrics=metrics, attempted=bench.attempted,
                  failed=bench.failed, problems=bench.problems)
    tag = f"result-trace{trace}.json"
    with open(os.path.join(bench.out, tag), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return lines, metrics, units, bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cavtel", "cli.py")):
        print(f"error: no cavtel source under {root}/src; run from the "
              "root of a cavtel checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, out = 0, 0, {}
    try:
        for w in names:
            lines, metrics, units, bench = run_workload(
                root, w, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            prefix = f"{w}." if args.workload == "all" else ""
            out.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()})
            attempted += bench.attempted
            failed += bench.failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
