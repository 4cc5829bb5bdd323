"""Acceptance suite: the quantitative claims this package must hit.

Each test covers one claim, prints a single PASS/FAIL line with the
measured number, and enforces the stated tolerance and runtime budget.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from cavtel.bogoliubov import (
    CavityGeometry,
    _oracle_cached,
    _switch_first_order_cached,
    identity_residuals,
    sudden_switch_oracle,
    sudden_switch_perturbative,
)
from cavtel.cli import RunConfig, main, sweep_rows
from cavtel.protocol import (
    DEFAULT_GEOMETRY,
    ProtocolParams,
    consistency_report,
    fidelity_corrected,
    fidelity_optimal,
    fidelity_raw,
)
from cavtel.trajectory import Accelerated, Inertial, Trajectory, h_parameter

REST_F = 1.0 / (1.0 + math.exp(-1.0))
# the default sweep's bytes; a change that moves any row re-pins this
DEFAULT_SWEEP_SHA256 = (
    "d4fc9d419a421a82723d298d047cf70082a1dd3d142e22d1b83689fb5c6fe7b4")
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
    _switch_first_order_cached.cache_clear()
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
    rows, _ = sweep_rows(RunConfig(), jobs=1)
    elapsed = time.perf_counter() - start
    deficit = max((REST_F - row[6]) / REST_F for row in rows)
    ok = 0.02 <= deficit <= 0.06 and elapsed < 300.0
    report("default-sweep-band", ok,
           f"100x100 grid, max relative F_opt deficit {100 * deficit:.4f}%"
           f" in [2%, 6%], {elapsed:.1f}s")


def test_acceptance_regime_arithmetic():
    with pytest.warns(RuntimeWarning):
        h = h_parameter(4e17, 0.012, 1.2e8)
    rel = abs(h - 1.0 / 3.0) * 3.0
    ok = rel < 1e-15 and h * h > 0.06
    report("regime-arithmetic", ok,
           f"h = {h!r}, relative error {rel:.2e}, h^2 = {h * h:.4f} > 0.06")


def test_acceptance_deterministic_output(tmp_path):
    paths = [str(tmp_path / name)
             for name in ("s1.csv", "s2.csv", "s4.csv")]
    assert main(["sweep", "--out", paths[0]]) == 0
    assert main(["sweep", "--out", paths[1]]) == 0
    assert main(["sweep", "--jobs", "4", "--out", paths[2]]) == 0
    blobs = [open(p, "rb").read() for p in paths]
    digest = hashlib.sha256(blobs[0]).hexdigest()
    ok = blobs[0] == blobs[1] == blobs[2] and digest == DEFAULT_SWEEP_SHA256
    report("deterministic-output", ok,
           f"serial rerun and --jobs 4 byte-identical "
           f"({len(blobs[0])} bytes, sha256 {digest})")
