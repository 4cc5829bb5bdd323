"""Output checks of the cavtel benchmark.

Each check returns the problems it found.  The caller counts a sweep
pass with any problem, and each trajectory with a problem, as one failed
operation.  Nothing here is skipped when inputs are unusual.
"""

from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

F_COLUMNS = ("F_raw", "F_corrected", "F_opt_numeric")
# Agreement with the committed reference values.  It admits removing or
# changing the reduced-state clamp (shifts up to 4.9e-7 at this commit)
# and summation-order changes; a wrong kernel or index misses by far more.
REFERENCE_TOL = 2e-6
ORDER_TOL = 1e-9


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_sweep_csv(path):
    """(metadata dict, list of row dicts with float values)."""
    meta, rows, header = {}, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append({k: float(v) for k, v in
                             zip(header, line.split(","))})
    return meta, rows


def _bad_value(f):
    return not (math.isfinite(f) and 0.0 < f <= 1.0)


def fidelity_invariants(values, defect, label):
    """F values finite in (0, 1]; raw and corrected not above the optimal
    bound by more than 1e-9 + 10 defect."""
    f_raw, f_corr, f_opt = values
    if any(_bad_value(f) for f in values) or not math.isfinite(defect):
        return [f"{label}: non-finite or out-of-range value {values}, "
                f"defect {defect}"]
    slack = ORDER_TOL + 10.0 * defect
    if f_raw > f_opt + slack or f_corr > f_opt + slack:
        return [f"{label}: ordering violated {values} (slack {slack:.3e})"]
    return []


def check_sweep_csv(path, expected_rows, reference=None):
    """Invariants on every row and, if given, the reference rows.

    `reference` is {"rows": [[index, tau, a, F_raw, F_corr, F_opt], ...]}.
    """
    try:
        meta, rows = parse_sweep_csv(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable sweep output: {exc}"]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    try:
        defect = float(meta.get("max_defect", "0"))
    except ValueError:
        defect = math.nan
    for i, row in enumerate(rows):
        try:
            values = [row[c] for c in F_COLUMNS]
        except KeyError as exc:
            return problems + [f"missing column {exc}"]
        problems += fidelity_invariants(values, defect, f"row {i}")
    for idx, tau, a, *want in (reference or {}).get("rows", ()):
        if idx >= len(rows):
            problems.append(f"reference row {idx} missing")
            continue
        row = rows[idx]
        if (row["tau_s"], row["a_m_s2"]) != (tau, a):
            problems.append(f"row {idx} coordinates differ from the "
                            "reference")
            continue
        worst = max(abs(row[c] - w) for c, w in zip(F_COLUMNS, want))
        if not worst <= REFERENCE_TOL:
            problems.append(f"row {idx} differs from the reference by "
                            f"{worst:.3e} (tolerance {REFERENCE_TOL:g})")
    return problems


def check_multiburn(values, reference=None):
    """{trajectory index: problem} over invariants and reference rows.

    `values[i]` is [F_raw, F_corr, F_opt, defect]; `reference` is
    {"rows": [[index, F_raw, F_corr, F_opt], ...]}."""
    problems = {}
    for i, v in enumerate(values):
        for p in fidelity_invariants(v[:3], v[3], f"trajectory {i}"):
            problems[i] = p
    if reference is not None:
        for idx, *want in reference["rows"]:
            if idx >= len(values):
                problems[idx] = f"reference trajectory {idx} missing"
                continue
            worst = max(abs(x - y) for x, y in zip(values[idx][:3], want))
            if not worst <= REFERENCE_TOL:
                problems[idx] = (f"trajectory {idx} differs from the "
                                 f"reference by {worst:.3e}")
    return problems
