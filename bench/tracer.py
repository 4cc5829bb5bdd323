"""Span tracing of cavtel's layers, installed from outside the package.

Each traced function is replaced by a wrapper that records one span
(name, start, end, parent span, request id) per call.  The wrapper is put
into every namespace that holds the original object, so a function that
another module imported by name (``trajectory.compose``,
``cli.consistency_report``, ``cavtel.consistency_report``) is traced too.
Spans live in flat arrays while the pass runs and are written out once
at the end; self time is a span's duration minus its child spans'.

A target that a later version of cavtel no longer defines is skipped and
reports zero calls, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name, layer group)
TARGETS = (
    ("quadrature", "integrate_stack", "quadrature.integrate_stack",
     "quadrature"),
    ("bogoliubov", "_oracle_cached", "bogoliubov.oracle", "bogoliubov_oracle"),
    ("bogoliubov", "_switch_overlaps", "bogoliubov.switch_overlaps",
     "bogoliubov_oracle"),
    ("bogoliubov", "make_pair", "bogoliubov.make_pair",
     "bogoliubov_transform"),
    ("bogoliubov", "identity_residuals", "bogoliubov.identity_residuals",
     "bogoliubov_transform"),
    ("bogoliubov", "compose", "bogoliubov.compose", "bogoliubov_transform"),
    ("bogoliubov", "inverse", "bogoliubov.inverse", "bogoliubov_transform"),
    ("bogoliubov", "one_segment_transform",
     "bogoliubov.one_segment_transform", "bogoliubov_transform"),
    ("bogoliubov", "to_symplectic", "bogoliubov.to_symplectic",
     "bogoliubov_transform"),
    ("bogoliubov", "f_sums", "bogoliubov.f_sums", "bogoliubov_first_order"),
    ("bogoliubov", "one_segment_first_order",
     "bogoliubov.one_segment_first_order", "bogoliubov_first_order"),
    ("trajectory", "build_transform", "trajectory.build_transform",
     "trajectory"),
    ("trajectory", "phase_pair", "trajectory.phase_pair", "trajectory"),
    ("protocol", "_motion_state", "protocol.motion_state", "protocol"),
    ("protocol", "consistency_report", "protocol.consistency_report",
     "protocol"),
    ("gaussian", "symplectic_eigenvalues", "gaussian.symplectic_eigenvalues",
     "gaussian"),
    ("gaussian", "teleport_fidelity", "gaussian.teleport_fidelity",
     "gaussian"),
    ("cli", "sweep_rows", "cli.sweep_rows", "cli"),
    ("cli", "_sweep_row_text", "cli.format", "cli"),
)

GROUPS = ("quadrature", "bogoliubov_oracle", "bogoliubov_transform",
          "bogoliubov_first_order", "trajectory", "gaussian", "protocol",
          "cli", "unwrapped")

ROOT = "bench.pass"


class ClampCounter(logging.Handler):
    """Counts the reduced-state clamps that `cavtel.protocol` logs at
    DEBUG, and keeps the largest shift (the record's first argument)."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0
        self.max = 0.0

    def emit(self, record):
        if "clamp" not in str(record.msg):
            return
        self.count += 1
        if record.args and isinstance(record.args[0], (int, float)):
            self.max = max(self.max, float(record.args[0]))


def attach_clamp_counter():
    logger = logging.getLogger("cavtel.protocol")
    handler = ClampCounter()
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    return handler


def cache_info(attr):
    """(hits, misses) of a cavtel lru_cache, or None if it is gone."""
    fn = getattr(sys.modules.get("cavtel.bogoliubov"), attr, None)
    while fn is not None and not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)     # past the span wrapper
    if fn is None:
        return None
    ci = fn.cache_info()
    return ci.hits, ci.misses


class Tracer:
    """Holds the spans of one traced process."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.stack = [-1]
        self.request_id = 0
        self.installed = {}
        # counters read off arguments and results at the span boundary
        self.quad = {"panels_max": 0, "residual_max": 0.0, "nodes": 0,
                     "computed_bytes": 0}
        self.defect_max = 0.0

    def _name(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, fn):
        """Wrap `fn` so that every call records one span."""
        nid = self._name(name)
        start, end, name_id = self.start, self.end, self.name_id
        parent, request, stack = self.parent, self.request, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return wrapper

    def _observe_quadrature(self, fn):
        quad = self.quad

        def counting(evaluate):
            def evaluate_counted(nodes):
                out = evaluate(nodes)
                quad["nodes"] += int(np.size(nodes))
                quad["computed_bytes"] += int(getattr(out, "nbytes", 0))
                return out
            return evaluate_counted

        @functools.wraps(fn)
        def observed(evaluate, *args, **kwargs):
            result = fn(counting(evaluate), *args, **kwargs)
            if isinstance(result, tuple) and len(result) >= 3:
                quad["residual_max"] = max(quad["residual_max"],
                                           float(result[1]))
                quad["panels_max"] = max(quad["panels_max"], int(result[2]))
            return result
        return observed

    def _observe_report(self, fn):
        tracer = self

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            report = fn(*args, **kwargs)
            defect = getattr(report, "defect", None)
            if defect is not None:
                tracer.defect_max = max(tracer.defect_max, float(defect))
            return report
        return observed

    def install(self):
        """Replace every target in every cavtel namespace that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cavtel"
                                         or n.startswith("cavtel."))]
        for mod_name, attr, name, _ in TARGETS:
            home = sys.modules.get(f"cavtel.{mod_name}")
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            inner = orig
            if name == "quadrature.integrate_stack":
                inner = self._observe_quadrature(orig)
            elif name == "protocol.consistency_report":
                inner = self._observe_report(orig)
            wrapped = self.span(name, inner)
            where = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        where.append(f"{mod.__name__}.{key}")
            self.installed[name] = where
        self._name(ROOT)

    def run(self, fn, *args, **kwargs):
        """Call `fn` under the root span of one traced pass."""
        return self.span(ROOT, fn)(*args, **kwargs)

    def write(self, path, run_id):
        """Write all spans as CSV: run, request, span, parent, name, times."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,request_id,span_id,parent_id,name,"
                     "start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{run_id},{self.request[i]},{i},{self.parent[i]},"
                         f"{self.names[self.name_id[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")

    def summary(self):
        """Per-name calls, self and total seconds, and per-group shares
        of the root spans' wall time."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float)[:n] \
            - np.frombuffer(self.start, dtype=float)[:n]
        par = np.frombuffer(self.parent, dtype=np.int32)[:n]
        nid = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_time, minlength=k)
        # inclusive time counts only calls not directly nested in a call
        # of the same name (no target recurses)
        outer = np.ones(n, dtype=bool)
        outer[has_parent] = nid[par[has_parent]] != nid[has_parent]
        total_s = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        per_name = {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                           "total_s": float(total_s[i])}
                    for i, name in enumerate(self.names)}
        root = per_name.get(ROOT, {"total_s": 0.0})
        wall = root["total_s"]
        group_of = {name: group for _, _, name, group in TARGETS}
        group_of[ROOT] = "unwrapped"
        share = dict.fromkeys(GROUPS, 0.0)
        for name, rec in per_name.items():
            share[group_of[name]] += rec["self_s"]
        if wall > 0:
            share = {g: v / wall for g, v in share.items()}
        return per_name, share, wall, n
