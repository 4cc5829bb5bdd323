"""One fresh-interpreter worker of the cavtel benchmark.

Usage: python3 bench/child.py '<json spec>'

The spec's "mode" is "env", "sweep", "points" or "multiburn".  The worker
imports cavtel from the PYTHONPATH it was given, does the passes the spec
asks for, and writes one JSON file (the spec's "result" path) with
monotonic timestamps (comparable with the parent's), outputs and
counters.  With "trace" set it installs the span wrappers of `tracer`
after import and before the first pass.  With "probe" set, the
"points" and "multiburn" loops run the speed probe's kernel between
calls (`probe.Inline`) and return its samples.
"""

import json
import resource
import sys
import time


def _maxrss_kb():
    """Peak RSS of this process and of the pool workers it has joined.

    This process's own peak is VmHWM.  Linux carries the exec-ing
    parent's high-water mark into RUSAGE_SELF, so that value would report
    the memory of bench/run.py instead of this worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
    except (OSError, StopIteration, ValueError):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _sha256(path):
    import hashlib
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _observers(spec):
    """Clamp counter and (optionally) tracer, installed after import."""
    clamp = tracer = None
    if spec.get("counters"):
        from tracer import attach_clamp_counter
        clamp = attach_clamp_counter()
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    return clamp, tracer


def _counters(clamp, tracer, extra_defect=0.0):
    from tracer import cache_info
    out = {"oracle_cache": cache_info("_oracle_cached"),
           "first_order_cache": cache_info("_segment_first_order_cached")}
    if clamp is not None:
        out["clamped_points"] = clamp.count
        out["clamp_max"] = clamp.max
    defect = extra_defect
    if tracer is not None:
        defect = max(defect, tracer.defect_max)
        out["quadrature"] = dict(tracer.quad)
    out["defect_max"] = defect
    return out


def _inline_probe(spec):
    if not spec.get("probe"):
        return None
    from probe import Inline
    return Inline()


def _trace_result(tracer, spec):
    per_name, share, wall, n = tracer.summary()
    tracer.write(spec["spans_path"], spec["run_id"])
    return {"per_name": per_name, "share": share, "wall_s": wall,
            "spans": n, "installed": tracer.installed}


def mode_env(spec):
    import os
    import platform
    import numpy as np
    import cavtel
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "cavtel_version": cavtel.__version__,
            "cavtel_file": cavtel.__file__}


def _cli_pass(main, args, tracer):
    try:
        if tracer is not None:
            code = tracer.run(main, args)
        else:
            code = main(args)
        return int(code or 0), None
    except Exception as exc:     # a crash is a failed operation, not a stop
        return -1, f"{type(exc).__name__}: {exc}"


def mode_sweep(spec):
    from cavtel.cli import main
    clamp, tracer = _observers(spec)
    passes = []
    out_path = spec["out"]

    t0 = time.monotonic()
    code, err = _cli_pass(main, spec["args"] + ["--out", out_path], tracer)
    t1 = time.monotonic()
    passes.append({"kind": "cold", "t0": t0, "t_end": t1,
                   "pass_s": t1 - t0,
                   "code": code, "error": err,
                   "sha256": _sha256(out_path) if code == 0 else None})
    counters = _counters(clamp, tracer)

    warm_total = 0.0
    for _ in range(spec.get("warm_max", 0)):
        if warm_total >= spec["warm_min_s"]:
            break
        warm_path = out_path + ".warm"
        t0 = time.monotonic()
        code, err = _cli_pass(main, spec["args"] + ["--out", warm_path], None)
        dt = time.monotonic() - t0
        warm_total += dt
        passes.append({"kind": "warm", "t0": t0, "pass_s": dt, "code": code,
                       "error": err,
                       "sha256": _sha256(warm_path) if code == 0 else None})

    result = {"passes": passes, "counters": counters}
    if tracer is not None:
        result["trace"] = _trace_result(tracer, spec)
    result["maxrss_kb"] = _maxrss_kb()
    return result


def mode_points(spec):
    """Time single `consistency_report` calls on single-burn trajectories
    at given grid points, in this fresh process: the first round over the
    points starts from empty caches, later rounds find them filled."""
    import math
    from cavtel import (Accelerated, CavityGeometry, ProtocolParams,
                        Trajectory, consistency_report)
    geom = CavityGeometry(spec["L"], spec["c"], spec["nmax"])
    params = ProtocolParams(r=spec["r"], k=spec["k"], kp=spec["kp"],
                            geometry=geom)
    points = spec["points"]
    values = [None] * len(points)
    errors, lat, starts = [], [], []
    inline = _inline_probe(spec)
    clock = time.monotonic
    for j in range(spec["calls"]):
        i = j % len(points)
        _, tau, a = points[i]
        if inline is not None:
            inline.tick()
        t = clock()
        try:
            rep = consistency_report(
                params, Trajectory((Accelerated(a, tau),), geom))
            values[i] = [rep.F_raw, rep.F_corrected, rep.F_opt_numeric]
        except Exception as exc:   # CavtelError or a crash: a failed call
            errors.append(f"point {points[i][0]}: {type(exc).__name__}: "
                          f"{exc}")
            values[i] = [math.nan] * 3
        lat.append(clock() - t)
        starts.append(t)
    return {"values": values, "lat_s": lat, "lat_t": starts,
            "probe": inline.samples if inline is not None else None,
            "failed": len(errors),
            "errors": errors[:5], "maxrss_kb": _maxrss_kb()}


def mode_multiburn(spec):
    import math
    import cavtel
    from cavtel import (Accelerated, CavityGeometry, Inertial,
                        ProtocolParams, Trajectory)
    from workloads import multiburn_segments
    clamp, tracer = _observers(spec)
    inline = _inline_probe(spec)
    # looked up after the wrappers are installed
    consistency_report = cavtel.consistency_report
    part, parts = spec["part"]
    specs = multiburn_segments(spec["seed"], spec["count"])[part::parts]
    geom = CavityGeometry(spec["L"], spec["c"], spec["nmax"])
    params = ProtocolParams(r=spec["r"], k=spec["k"], kp=spec["kp"],
                            geometry=geom)

    def build(segs):
        return Trajectory(tuple(Inertial(s[1]) if s[0] == "inertial"
                                else Accelerated(s[1], s[2]) for s in segs),
                          geom)

    def evaluate(i, segs):
        try:
            rep = consistency_report(params, build(segs))
            return [rep.F_raw, rep.F_corrected, rep.F_opt_numeric,
                    rep.defect], None
        except Exception as exc:   # CavtelError or a crash: a failed call
            return [math.nan] * 4, f"{i}: {type(exc).__name__}: {exc}"

    def one_pass(timed):
        values, errors, lat, starts = [], [], [], []
        clock = time.monotonic
        for i, segs in enumerate(specs):
            if tracer is not None:
                tracer.request_id = i
            if inline is not None:
                inline.tick()
            t = clock()
            v, e = evaluate(i, segs)
            if timed:
                lat.append(clock() - t)
                starts.append(t)
            values.append(v)
            if e:
                errors.append(e)
        return values, errors, (lat, starts)

    t0 = time.monotonic()
    if tracer is not None:
        first, errors, (lat, starts) = tracer.run(one_pass, True)
    else:
        first, errors, (lat, starts) = one_pass(True)
    t1 = time.monotonic()
    defects = [v[3] for v in first if not math.isnan(v[3])]
    result = {"t_end": t1, "pass_s": t1 - t0, "values": first,
              "errors": errors[:5], "failed": len(errors), "lat_s": lat,
              "lat_t": starts,
              "counters": _counters(clamp, tracer, max(defects, default=0.0))}
    if spec.get("warm"):
        t0 = time.monotonic()
        warm, werr, _ = one_pass(False)
        result["warm_t0"] = t0
        result["warm_s"] = time.monotonic() - t0
        result["warm_values"] = warm
        result["warm_failed"] = len(werr)
    if tracer is not None:
        result["trace"] = _trace_result(tracer, spec)
    if inline is not None:
        result["probe"] = inline.samples
    result["maxrss_kb"] = _maxrss_kb()
    return result


def main():
    spec = json.loads(sys.argv[1])
    mode = {"env": mode_env, "sweep": mode_sweep, "points": mode_points,
            "multiburn": mode_multiburn}[spec["mode"]]
    result = mode(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
