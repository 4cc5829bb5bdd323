"""Write bench/reference.json, the values the benchmark's output checks
compare against.

Run from the root of a cavtel checkout: python3 bench/make_reference.py

The committed file was made at the commit that introduced the benchmark.
Regenerate it only when a change to cavtel is meant to move these values,
and say why in the change; never to make a failing check pass.
"""

import json
import os
import sys

from checks import F_COLUMNS, REFERENCE_PATH, parse_sweep_csv
from run import Bench, git_commit
from workloads import DEFAULT_SEED

# strides coprime to the 100-point axes, so every tau row and every
# acceleration column of the default grid has reference points
SWEEP_STRIDE = 29
MULTIBURN_STRIDE = 5


def sweep_reference(root, workload, stride):
    bench = Bench(root, workload, DEFAULT_SEED, 0)
    csv = os.path.join(bench.out, "reference.csv")
    _, res = bench.child(bench.sweep_spec(out=csv), "reference")
    if res["passes"][0]["code"] != 0:
        sys.exit(f"{workload} sweep failed: {res['passes'][0]['error']}")
    _, rows = parse_sweep_csv(csv)
    return {"seed": DEFAULT_SEED, "stride": stride,
            "rows": [[i, rows[i]["tau_s"], rows[i]["a_m_s2"]]
                     + [rows[i][c] for c in F_COLUMNS]
                     for i in range(0, len(rows), stride)]}


def main():
    root = os.getcwd()
    ref = {"commit": git_commit(root),
           "sweep-default": sweep_reference(root, "sweep-default",
                                            SWEEP_STRIDE),
           "oracle-highn": sweep_reference(root, "oracle-highn", 1)}
    bench = Bench(root, "multiburn", DEFAULT_SEED, 0)
    _, res = bench.child(bench.multiburn_spec(), "reference")
    if res["failed"]:
        sys.exit(f"multiburn failed: {res['errors']}")
    values = res["values"]
    ref["multiburn"] = {"seed": DEFAULT_SEED, "stride": MULTIBURN_STRIDE,
                        "rows": [[i] + values[i][:3] for i in
                                 range(0, len(values), MULTIBURN_STRIDE)]}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(dump(ref))


def dump(ref):
    """JSON with one reference row per line."""
    parts = []
    for key, value in ref.items():
        if isinstance(value, dict):
            head = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                             for k, v in value.items() if k != "rows")
            rows = ",\n  ".join(json.dumps(r) for r in value["rows"])
            value = f"{{{head}, \"rows\": [\n  {rows}]}}"
        else:
            value = json.dumps(value)
        parts.append(f"{json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
