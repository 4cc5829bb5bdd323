"""Inputs of the three benchmark workloads, made from the seed alone.

The fig3 preset fixes the cavity (L = 0.012 m, c = 1.2e8 m/s) and the
protocol (r = 1/2, k = 1, k' = 3); these constants repeat it so that the
inputs do not depend on cavtel's internals.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("sweep-default", "oracle-highn", "multiburn")
DEFAULT_SEED = 0

L_M = 0.012
C_M_PER_S = 1.2e8
R, K, KP = 0.5, 1, 3
PERIOD_S = 2.0 * L_M / C_M_PER_S
# the default sweep tops out at h^2 = 0.06, the perturbative regime edge
A_MAX = math.sqrt(0.06) * C_M_PER_S ** 2 / L_M

SWEEP_NMAX = 10
HIGHN_NMAX = 40
HIGHN_TAUS = 3
HIGHN_ACCS = 12
MULTIBURN_NMAX = 10
MULTIBURN_COUNT = 1000
THRUST_LEVELS = 8

# Per-call latency on a sweep grid: distinct points sampled, and calls
# timed while cycling over them in a fresh process.  The first round
# fills the caches, as the first pass of a sweep does, so the tail above
# p99 is oracle misses and Richardson ladders, not scheduler noise.
# Default-sweep calls take about 1.4 ms, so that workload makes 3000 of
# them, to time over several seconds; the high-truncation grid stays at
# 1000, so that its 12 oracle misses stay above p99.
LATENCY_ROWS = 200
LATENCY_CALLS = {"sweep-default": 3000, "oracle-highn": 1000}


def sweep_args(workload, config_path):
    """CLI arguments (without --out) of one sweep pass."""
    if workload == "sweep-default":
        return ["sweep", "--preset", "fig3", "--nmax", str(SWEEP_NMAX)]
    return ["sweep", "--preset", "fig3", "--nmax", str(HIGHN_NMAX),
            "--config", config_path]


def highn_config(seed):
    """Config text of the high-truncation grid: a few taus times a dozen
    distinct accelerations, so that every one is new to the oracle cache.
    The seed shifts the range by up to 2% of its width: enough for
    inputs no run has seen, too little to change what a call costs (at
    n_max 40 a call's cost grows with the acceleration)."""
    offset = np.random.default_rng([seed, 1]).random()
    a_min = 9e16 + offset * 4e15
    a_max = a_min + 1.9e17
    return (f"tau_steps = {HIGHN_TAUS}\n"
            f"a_steps = {HIGHN_ACCS}\n"
            f"a_min_m_s2 = {a_min!r}\n"
            f"a_max_m_s2 = {a_max!r}\n")


def multiburn_segments(seed, count=MULTIBURN_COUNT):
    """Seeded trajectories of 4 to 12 segments, half coasts and half
    burns.  Burns draw from 8 thrust levels, durations from
    [0, 3 periods].  Each segment is ("inertial", t) or ("accel", a, t)."""
    rng = np.random.default_rng([seed, 2])
    palette = np.linspace(1e16, A_MAX, THRUST_LEVELS)
    out = []
    for _ in range(count):
        segs = []
        for _ in range(int(rng.integers(4, 13))):
            t = float(rng.uniform(0.0, 3.0 * PERIOD_S))
            if rng.random() < 0.5:
                segs.append(("accel", float(palette[rng.integers(
                    THRUST_LEVELS)]), t))
            else:
                segs.append(("inertial", t))
        out.append(tuple(segs))
    return out


def latency_rows(seed, n_rows):
    """Distinct grid-row indices whose single-burn trajectories are timed
    one `consistency_report` call at a time (all rows of a small grid)."""
    rng = np.random.default_rng([seed, 3])
    take = min(n_rows, LATENCY_ROWS)
    return sorted(int(i) for i in rng.choice(n_rows, take, replace=False))
