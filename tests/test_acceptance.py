"""Acceptance suite: the quantitative claims this package must hit.

Each test covers one claim, prints a single PASS/FAIL line with the
measured number, and enforces the stated tolerance and runtime budget.
"""

import hashlib
import math
import os
import re
import time

import numpy as np
import pytest

from cavtel.bogoliubov import (
    CavityGeometry,
    _oracle_cached,
    _truncation,
    identity_residuals,
    rindler_period,
    sudden_switch_oracle,
    sudden_switch_perturbative,
)
from cavtel.cli import RunConfig, main, sweep_rows
from cavtel.protocol import (
    DEFAULT_GEOMETRY,
    ProtocolParams,
    _trajectory_state,
    consistency_report,
    fidelity_corrected,
    fidelity_optimal,
    fidelity_raw,
)
from cavtel.trajectory import Accelerated, Inertial, Trajectory, h_parameter

from sweep_reference import sweep_table

REST_F = 1.0 / (1.0 + math.exp(-1.0))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pinned_outputs():
    """The rows of tests/pinned_outputs.txt: a sha256 and the cavtel
    arguments it pins, named by those arguments."""
    with open(os.path.join(ROOT, "tests", "pinned_outputs.txt")) as fh:
        rows = [line.split() for line in fh if not line.startswith("#")]
    return [pytest.param(digest, args, id=re.sub(r"\W+", "-", " ".join(args)))
            for digest, *args in filter(None, rows)]


PARAMS = ProtocolParams()
REST = Trajectory((Inertial(0.0),), DEFAULT_GEOMETRY)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def closed_form(r, phi):
    return 1.0 / (1.0 + math.cosh(2 * r)
                  - math.cos(phi) * math.sinh(2 * r))


def burn_for(h, tau):
    a = h * DEFAULT_GEOMETRY.c ** 2 / DEFAULT_GEOMETRY.L
    return Trajectory((Accelerated(a, tau),), DEFAULT_GEOMETRY)


def test_acceptance_rest_anchor():
    start = time.perf_counter()
    values = (fidelity_raw(PARAMS, REST),
              fidelity_corrected(PARAMS, REST),
              fidelity_optimal(PARAMS, REST)[0])
    elapsed = time.perf_counter() - start
    dev = max(abs(v - REST_F) for v in values)
    report("rest-anchor", dev < 1e-6 and elapsed < 1.0,
           f"max deviation {dev:.2e} from {REST_F:.9f}, {elapsed:.2f}s")


def test_acceptance_resource_eigenvalue():
    start = time.perf_counter()
    dev = 0.0
    for r in (0.1, 0.5, math.log(2.0), 1.5):
        _, nu = fidelity_optimal(ProtocolParams(r=r), REST)
        dev = max(dev, abs(nu - math.exp(-2 * r)))
    elapsed = time.perf_counter() - start
    report("resource-eigenvalue", dev < 1e-9 and elapsed < 1.0,
           f"max |nu - exp(-2r)| = {dev:.2e}, {elapsed:.2f}s")


def test_acceptance_classical_benchmark():
    params = ProtocolParams(r=0.0)
    values = (fidelity_raw(params, REST),
              fidelity_corrected(params, REST),
              fidelity_optimal(params, REST)[0])
    dev = max(abs(v - 0.5) for v in values)
    report("classical-benchmark", dev < 1e-9,
           f"max deviation {dev:.2e} from 0.5")


def test_acceptance_phase_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(20230817)
    rate = DEFAULT_GEOMETRY.omega(1) + DEFAULT_GEOMETRY.omega(3)
    dev = 0.0
    for _ in range(1000):
        r = rng.uniform(0.0, 1.5)
        phi = rng.uniform(0.0, 2 * math.pi)
        traj = Trajectory((Inertial(phi / rate),), DEFAULT_GEOMETRY)
        got = fidelity_raw(ProtocolParams(r=r), traj)
        dev = max(dev, abs(got - closed_form(r, phi)))
    elapsed = time.perf_counter() - start
    report("phase-closed-form", dev < 1e-9 and elapsed < 10.0,
           f"1000 points, max deviation {dev:.2e}, {elapsed:.1f}s")


def test_acceptance_phase_correction_recovery():
    rng = np.random.default_rng(8)
    dev = 0.0
    for _ in range(50):
        traj = Trajectory(
            (Inertial(rng.uniform(0.0, 6e-10)),), DEFAULT_GEOMETRY)
        dev = max(dev, abs(fidelity_corrected(PARAMS, traj) - REST_F))
    report("phase-correction-recovery", dev < 1e-9,
           f"50 coasts, max |F_corrected - rest| = {dev:.2e}")


def test_acceptance_oracle_health():
    _oracle_cached.cache_clear()
    _truncation.cache_clear()
    start = time.perf_counter()
    pair10 = sudden_switch_oracle(0.245, DEFAULT_GEOMETRY)
    res10 = identity_residuals(pair10.alpha, pair10.beta)
    pair20 = sudden_switch_oracle(0.245, CavityGeometry(0.012, 1.2e8, 20))
    res20 = identity_residuals(pair20.alpha, pair20.beta)
    first = sudden_switch_perturbative(DEFAULT_GEOMETRY)
    m = np.arange(1, 11)
    even = (m[:, None] + m[None, :]) % 2 == 0
    even_mag = max(np.abs(first.alpha1[even]).max(),
                   np.abs(first.beta1[even]).max())
    elapsed = time.perf_counter() - start
    ok = res10 <= 1e-3 and res20 <= 1e-4 and even_mag < 1e-8 \
        and elapsed < 120.0
    report("oracle-health", ok,
           f"residuals N=10 {res10:.2e} (<=1e-3), N=20 {res20:.2e} "
           f"(<=1e-4), even-parity {even_mag:.2e} (<1e-8), {elapsed:.1f}s")


def test_acceptance_fourth_order_residual():
    tau = DEFAULT_GEOMETRY.fundamental_period
    resid = {}
    for h in (0.05, 0.1, 0.2):
        rep = consistency_report(PARAMS, burn_for(h, tau))
        resid[h] = (abs(rep.F_corrected - rep.F_pert_opt),
                    abs(rep.F_raw - rep.F_pert))
    ratios = [resid[0.2][i] / resid[0.1][i] for i in (0, 1)]
    ratios += [resid[0.1][i] / resid[0.05][i] for i in (0, 1)]
    ok = all(10.0 <= ratio <= 22.0 for ratio in ratios)
    report("fourth-order-residual", ok,
           "halving ratios " + ", ".join(f"{ratio:.2f}" for ratio in ratios)
           + " all in [10, 22]")


def test_acceptance_fourth_order_residual_generic_tau():
    # away from whole periods the sums are nonzero, so the h^2 weight
    # f_beta + f_alpha tanh r is tested; at r = ln 2, tau = 0.37 T the h^4
    # coefficient nearly cancels and h^6 takes over by h = 0.2, so h
    # stays at or below 0.1
    period = DEFAULT_GEOMETRY.fundamental_period
    ratios = []
    for r in (0.5, math.log(2.0)):
        params = ProtocolParams(r=r)
        for frac in (0.37, 0.7, 1.6):
            resid = [consistency_report(params, burn_for(h, frac * period))
                     .residual_pert for h in (0.025, 0.05, 0.1)]
            ratios += [resid[1] / resid[0], resid[2] / resid[1]]
    ok = all(10.0 <= ratio <= 22.0 for ratio in ratios)
    report("fourth-order-residual-generic-tau", ok,
           "halving ratios " + ", ".join(f"{ratio:.2f}" for ratio in ratios)
           + " all in [10, 22]")


def test_acceptance_optimality_coincidence():
    taus = np.linspace(0.05e-9, 0.6e-9, 10)
    hs = np.linspace(0.05, 0.23, 10)
    ratios = []
    for tau in taus:
        for h in hs:
            gap = [abs(fidelity_corrected(PARAMS, burn_for(hh, tau))
                       - fidelity_optimal(PARAMS, burn_for(hh, tau))[0])
                   for hh in (h, h / 2)]
            if gap[1] < 1e-11:
                continue
            ratios.append(gap[0] / gap[1])
    ok = bool(ratios) and all(10.0 <= ratio <= 22.0 for ratio in ratios)
    report("optimality-coincidence", ok,
           f"{len(ratios)} grid points, ratio range "
           f"[{min(ratios):.2f}, {max(ratios):.2f}] in [10, 22]")


def test_acceptance_default_sweep_band():
    start = time.perf_counter()
    rows = sweep_table(*sweep_rows(RunConfig(), jobs=1))
    elapsed = time.perf_counter() - start
    deficit = max((REST_F - row[6]) / REST_F for row in rows)
    ok = 0.02 <= deficit <= 0.06 and elapsed < 300.0
    report("default-sweep-band", ok,
           f"100x100 grid, max relative F_opt deficit {100 * deficit:.4f}%"
           f" in [2%, 6%], {elapsed:.1f}s")


def test_acceptance_sweep_clamps_within_row_residual():
    # every clamp on the default grid is bounded by the residual of the
    # row it was built from, without the PHYSICALITY_TOL floor
    _, _, reports = sweep_rows(RunConfig(), jobs=1)
    clamp = np.concatenate([rep.clamp for rep in reports])
    defect = np.concatenate([rep.defect for rep in reports])
    ratio = float(np.max(clamp / defect))
    ok = ratio <= 10.0 and np.count_nonzero(clamp) > 0
    report("sweep-clamp-bound", ok,
           f"{np.count_nonzero(clamp)} clamped points, worst clamp / row "
           f"residual {ratio:.3f} (limit 10)")


def test_acceptance_revival_converges():
    # a burn of one Rindler period between two coasts is the identity in
    # the full theory: the gap of F_opt to the resting value falls with
    # n_max at each h, and each stays within its report's row residual
    period = DEFAULT_GEOMETRY.fundamental_period
    gaps = {}
    for n_max in (10, 20, 40):
        geom = CavityGeometry(DEFAULT_GEOMETRY.L, DEFAULT_GEOMETRY.c, n_max)
        params = ProtocolParams(geometry=geom)
        for h in (0.05, 0.245, 0.8, 1.5):
            a = h * geom.c ** 2 / geom.L
            tau = rindler_period(a * geom.L / geom.c ** 2, geom)
            traj = Trajectory((Inertial(0.25 * period), Accelerated(a, tau),
                               Inertial(0.6 * period)), geom)
            state, _ = _trajectory_state(params, traj, "lab")
            gap = abs(state.f_opt[0] - REST_F)
            assert gap <= state.defect[0], (n_max, h, gap, state.defect[0])
            gaps[n_max, h] = gap
    ok = all(gaps[10, h] > gaps[20, h] > gaps[40, h]
             for h in (0.05, 0.245, 0.8, 1.5))
    report("revival", ok, ", ".join(
        f"h = {h}: {gaps[10, h]:.1e} > {gaps[20, h]:.1e} > {gaps[40, h]:.1e}"
        for h in (0.05, 0.245, 0.8, 1.5)))


def test_acceptance_revival_burn_leaves_any_trajectory():
    # a burn of k whole Rindler periods is the identity in the full
    # theory, so inserting one anywhere in a trajectory leaves its
    # F_opt_numeric within the ordering slack 1e-9 + 10 x row residual
    # of the trajectory with the burn
    rng = np.random.default_rng(9)
    geom = DEFAULT_GEOMETRY
    period = geom.fundamental_period
    thrusts = np.linspace(1e16, 2.9e17, 8)
    worst = 0.0
    count = 0
    for _ in range(150):
        segs = [Accelerated(float(rng.choice(thrusts)),
                            float(rng.uniform(0.0, 3.0 * period)))
                if rng.random() < 0.5
                else Inertial(float(rng.uniform(0.0, 3.0 * period)))
                for _ in range(int(rng.integers(1, 9)))]
        params = ProtocolParams(kp=int(rng.integers(2, 6)), geometry=geom)
        without = _trajectory_state(
            params, Trajectory(tuple(segs), geom), "lab")[0]
        for h in (0.05, 0.1, 0.245):
            a = h * geom.c ** 2 / geom.L
            for k in (1, 2):
                burn = Accelerated(a, k * rindler_period(
                    a * geom.L / geom.c ** 2, geom))
                at = int(rng.integers(0, len(segs) + 1))
                state = _trajectory_state(params, Trajectory(
                    tuple(segs[:at] + [burn] + segs[at:]), geom), "lab")[0]
                gap = abs(state.f_opt[0] - without.f_opt[0])
                worst = max(worst, gap / (1e-9 + 10.0 * state.defect[0]))
                count += 1
    ok = worst <= 1.0
    report("revival-insertion", ok,
           f"{count} insertions of 1 or 2 Rindler periods at h = 0.05, "
           f"0.1, 0.245: worst gap {worst:.3f} of 1e-9 + 10 x defect")


def test_acceptance_regime_arithmetic():
    with pytest.warns(RuntimeWarning):
        h = h_parameter(4e17, 0.012, 1.2e8)
    rel = abs(h - 1.0 / 3.0) * 3.0
    ok = rel < 1e-15 and h * h > 0.06
    report("regime-arithmetic", ok,
           f"h = {h!r}, relative error {rel:.2e}, h^2 = {h * h:.4f} > 0.06")


@pytest.mark.parametrize("digest,args", pinned_outputs())
def test_acceptance_pinned_output(tmp_path, monkeypatch, digest, args):
    # a sweep must also give the same bytes on a serial rerun and at
    # --jobs 4
    runs = [[]]
    if args[0] == "sweep":
        runs += [[], ["--jobs", "4"]]
    monkeypatch.chdir(ROOT)             # the table's paths are from here
    blobs = []
    for i, extra in enumerate(runs):
        out = tmp_path / f"run{i}.csv"
        assert main(args + extra + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    got = hashlib.sha256(blobs[0]).hexdigest()
    ok = got == digest and all(blob == blobs[0] for blob in blobs)
    report("pinned-output", ok,
           f"cavtel {' '.join(args)}: {len(runs)} runs byte-identical, "
           f"{len(blobs[0])} bytes, sha256 {got}")
