"""Command-line interface: subcommands, file formats, exit codes."""

import csv
import errno
import logging
import math
import os
import re
import select
import signal
import stat
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cavtel.bogoliubov import BogoliubovPair
from cavtel.cli import (
    RunConfig,
    _sweep_row_text,
    apply_config_text,
    main,
    sweep_rows,
)
from cavtel.errors import (
    ConsistencyError,
    PhysicalityError,
    QuadratureError,
    TrajectoryParseError,
    TruncationError,
)

from sweep_reference import sweep_table

REST_F = 1.0 / (1.0 + math.exp(-1.0))


def run(argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def report_fields(out):
    fields = {}
    for line in out.splitlines():
        tokens = line.split()
        if len(tokens) == 2:
            fields[tokens[0]] = float(tokens[1])
    return fields


def checkout_env():
    """The environment for a child process that imports cavtel from this
    checkout, installed or not."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def read_csv(path):
    meta, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                meta.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    body = [dict(zip(header, r.split(","))) for r in rows[1:]]
    return meta, header, body


# ---------------------------------------------------------------------------
# fidelity

def test_fidelity_rest_stdout(capsys):
    code, out, _ = run(["fidelity"], capsys)
    assert code == 0
    fields = report_fields(out)
    assert float(fields["F_raw"]) == pytest.approx(REST_F, abs=1e-9)
    assert float(fields["F_opt_numeric"]) == pytest.approx(REST_F,
                                                           abs=1e-9)
    assert float(fields["h"]) == 0.0


def test_fidelity_with_trajectory_file(tmp_path, capsys):
    traj = tmp_path / "burn.traj"
    traj.write_text("inertial 1e-10\naccel 2e17 3e-10\n")
    code, out, _ = run(["fidelity", "--trajectory", str(traj)], capsys)
    assert code == 0
    fields = report_fields(out)
    assert float(fields["F_opt_numeric"]) < REST_F - 1e-3
    assert float(fields["h"]) == pytest.approx(2e17 * 0.012 / 1.2e8 ** 2)


def test_fidelity_csv_out(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run(["fidelity", "--out", str(out_path)], capsys)
    assert code == 0
    meta, header, body = read_csv(str(out_path))
    assert any("cavtel" in line for line in meta)
    assert "F_corrected" in header and "residual_pert" in header
    assert len(body) == 1
    assert float(body[0]["F_corrected"]) == pytest.approx(REST_F,
                                                          abs=1e-9)


GRID_LINES = ("# grid axes are a reconstruction of the regime, not published",
              "# coordinates")


def test_grid_metadata_only_in_sweep_output(tmp_path, small_cfg, capsys):
    paths = {name: str(tmp_path / f"{name}.csv")
             for name in ("fidelity", "coeffs", "sweep")}
    run(["fidelity", "--out", paths["fidelity"]], capsys)
    run(["coeffs", "0.1", "--out", paths["coeffs"]], capsys)
    run(["sweep", "--config", small_cfg, "--out", paths["sweep"]], capsys)
    for name in ("fidelity", "coeffs"):
        meta, _, _ = read_csv(paths[name])
        assert not set(GRID_LINES) & set(meta)
    meta, _, _ = read_csv(paths["sweep"])
    at = meta.index(GRID_LINES[0])
    assert meta[at - 1].startswith("# fundamental_period_s = ")
    assert meta[at + 1] == GRID_LINES[1]
    assert meta[at + 2].startswith("# max_defect = ")


def test_fidelity_experiment_preset(capsys):
    code, out, _ = run(["fidelity", "--preset", "experiment"], capsys)
    assert code == 0
    fields = report_fields(out)
    # r = ln 2 gives 1 / (1 + 1/4)
    assert float(fields["F_opt_numeric"]) == pytest.approx(0.8, abs=1e-9)


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run(["fidelity", "--preset", "figure9"], capsys)
    assert code == 2
    assert "figure9" in err


# ---------------------------------------------------------------------------
# config handling

def test_config_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0\nkp = 2\n")
    code, out, _ = run(["fidelity", "--config", str(cfg)], capsys)
    assert code == 0
    fields = report_fields(out)
    assert float(fields["F_raw"]) == pytest.approx(0.5, abs=1e-9)


def test_fidelity_at_near_degenerate_squeezing(tmp_path, capsys):
    # the partial transpose is nearly degenerate here; a non-symmetric
    # eigensolver failed to converge on it and the run exited 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 1.5973122800602525e-10\n")
    code, out, err = run(["fidelity", "--config", str(cfg)], capsys)
    assert code == 0, err
    fields = report_fields(out)
    assert fields["nu"] == pytest.approx(math.exp(-2 * 1.5973122800602525e-10),
                                         abs=1e-12)


@pytest.mark.parametrize("r", [0.0, 1e-10, 0.5, math.log(2.0), 2.0, 4.0,
                               6.0])
def test_fidelity_at_rest_nu_within_squeezing_bound(tmp_path, capsys,
                                                    monkeypatch, r):
    # at rest the reduced state is the resource, whose exact nu is
    # e^{-2r}; rounding its entries moves nu by up to about u e^{4r}
    # relative (u = 2^-53), since nu_+ / nu_- = e^{4r}, so the printed
    # report's full-precision nu must lie within 4 u e^{4r} of it
    from cavtel import cli
    reports = []

    def recorded(*args, **kwargs):
        reports.append(cli_report(*args, **kwargs))
        return reports[-1]

    cli_report = cli.consistency_report
    monkeypatch.setattr(cli, "consistency_report", recorded)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"r = {r!r}\n")
    code, out, err = run(["fidelity", "--config", str(cfg)], capsys)
    assert (code, err) == (0, "")
    nu = reports[0].nu
    assert report_fields(out)["nu"] == float(f"{nu:.12g}")
    want = (-2 * Decimal(r)).exp()
    assert abs(Decimal(nu) - want) <= \
        Decimal(4 * 2.0 ** -53 * math.exp(4 * r)) * want


def test_config_bad_key_reports_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0.5\nsqueeze = 9\n")
    code, _, err = run(["fidelity", "--config", str(cfg)], capsys)
    assert code == 2
    assert "line 2" in err and "squeeze" in err


def test_config_bad_value_reports_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = fast\n")
    code, _, err = run(["fidelity", "--config", str(cfg)], capsys)
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("line,field", [
    ("L_m = inf", "cavity length L"),
    ("c_m_per_s = nan", "speed of light c"),
    ("r = nan", "squeezing r"),
])
def test_config_non_finite_is_usage_error(tmp_path, capsys, line, field):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(["fidelity", "--config", str(cfg)], capsys)
    assert code == 2
    assert field in err and "finite" in err
    assert out == ""


# k = 10**400 used to raise an OverflowError from the mode frequency
# (exit 1) in every command that builds a report
@pytest.mark.parametrize("command", ["fidelity", "sweep", "validate"])
def test_mode_index_too_large_for_a_float_is_usage_error(tmp_path, capsys,
                                                         command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 1" + "0" * 400 + "\n")
    code, out, err = run([command, "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: Alice mode index k must be finite, got a number "
                   "too large for a float\n")


# an unknown clock is a bad config value, named with its line before
# any trajectory is evaluated
@pytest.mark.parametrize("command", ["fidelity", "sweep"])
def test_config_unknown_alice_clock_is_usage_error(tmp_path, capsys,
                                                   command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0.5\nalice_clock = bogus\n")
    got = run([command, "--config", str(cfg)], capsys)
    assert got == (2, "", "error: line 2: bad value for alice_clock: "
                          "'bogus'\n")


@pytest.mark.parametrize("text,field", [
    ("inertial inf\n", "inertial duration"),
    ("inertial 1e-10\naccel 2e17 inf\n", "proper duration tau"),
])
def test_trajectory_non_finite_is_usage_error(tmp_path, capsys, text,
                                              field):
    traj = tmp_path / "inf.traj"
    traj.write_text(text)
    code, out, err = run(["fidelity", "--trajectory", str(traj)], capsys)
    assert code == 2
    lineno = text.count("\n")
    assert f"line {lineno}" in err and field in err
    assert out == ""


# a burn whose lab-clock time (1e-3 s: sinh overflows) or phases
# (8.5e-7 s: the time is finite, omega t is not) leave the float range is
# a usage error naming the burn; the comoving clock takes it
@pytest.mark.parametrize("tau", ["1e-3", "8.5e-7"])
def test_long_burn_on_lab_clock_is_usage_error(tmp_path, capsys, tau):
    traj = tmp_path / "long.traj"
    traj.write_text(f"inertial 1e-10\naccel 1e17 {tau}\n")
    code, out, err = run(["fidelity", "--trajectory", str(traj)], capsys)
    assert code == 2 and out == ""
    assert f"burn of a = 1e+17 m/s^2 for tau = {float(tau)!r} s" in err
    cfg = tmp_path / "comoving.cfg"
    cfg.write_text("alice_clock = comoving\n")
    code, out, _ = run(["fidelity", "--config", str(cfg),
                        "--trajectory", str(traj)], capsys)
    assert code == 0
    assert all(map(math.isfinite, report_fields(out).values()))


def test_phase_without_precision_is_usage_error(tmp_path, capsys):
    # on the comoving clock the burn's time stays finite, but one ulp of
    # phi = 1.26e211 rad is about 1e195 rad
    cfg = tmp_path / "comoving.cfg"
    cfg.write_text("alice_clock = comoving\n")
    traj = tmp_path / "long.traj"
    traj.write_text("accel 1e17 1e200\n")
    code, out, err = run(["fidelity", "--config", str(cfg),
                          "--trajectory", str(traj)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: the burn of a = 1e+17 m/s^2 for "
                          "tau = 1e+200 s: the joint phase after it, "
                          "1.2566370614359173e+211 rad, has an ulp above "
                          "1e-06 rad")


# phi = 7.5e9 rad has an ulp of 9.5e-7 rad, phi = 8.8e9 rad one of 1.9e-6
# rad: the 1e-6 rad limit lies between them, at |phi| = 2**33 rad
@pytest.mark.parametrize("duration,code", [("0.06", 0), ("0.07", 2)])
def test_coast_phase_ulp_limit(tmp_path, capsys, duration, code):
    traj = tmp_path / "coast.traj"
    traj.write_text(f"inertial {duration}\n")
    got, out, err = run(["fidelity", "--trajectory", str(traj)], capsys)
    assert got == code
    assert (f"the coast of {duration} s" in err) == (code == 2)
    assert bool(out) == (code == 0)


def test_rob_mode_outside_interior_block_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kp = 7\n")
    traj = tmp_path / "burn.traj"
    traj.write_text("accel 9e16 0\n")
    code, out, err = run(["fidelity", "--config", str(cfg),
                          "--trajectory", str(traj)], capsys)
    assert code == 3
    assert "interior block" in err
    assert out == ""


@pytest.mark.parametrize("r", ["6.5", "9.5", "355", "400"])
def test_squeezing_past_the_limit_is_usage_error(tmp_path, capsys, r):
    # past r = 6 nu at rest drifts from e^{-2r} (166% high at 9.5, which
    # exited 0); cosh 2r is inf at r = 400; at 355 the symmetrised
    # resource overflows
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"r = {r}\n")
    code, out, err = run(["fidelity", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert f"squeezing r must be finite and lie in 0..6, got {float(r)!r}" \
        in err


# h = a L / c^2 at the default geometry: 8.3e-309 and 8.3e-319 from the
# burns, 1e-310 and 1.6e-307 given to coeffs; 10 pi / h overflows below
# about 1.7e-307, so no wedge rate is formed
@pytest.mark.parametrize("burn,h", [
    ("accel 1e-290 1e-10", 8.333333333333336e-309),
    ("accel 1e-300 1e-10", 8.33336e-319),
    (None, 1e-310),
    (None, 1.6e-307),
])
def test_h_too_small_to_chart_is_usage_error(tmp_path, capsys, burn, h):
    argv = ["coeffs", repr(h)]
    if burn is not None:
        traj = tmp_path / "tiny.traj"
        traj.write_text(burn + "\n")
        argv = ["fidelity", "--trajectory", str(traj)]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"h = {h!r} is too small" in err and "n_max = 10" in err


def test_smallest_chartable_burn_runs(tmp_path, capsys):
    # h = 2.5e-307: 10 pi / h = 1.26e308 is still finite
    traj = tmp_path / "tiny.traj"
    traj.write_text("accel 3e-289 1e-10\n")
    code, out, err = run(["fidelity", "--trajectory", str(traj)], capsys)
    assert code == 0, err
    assert all(map(math.isfinite, report_fields(out).values()))


def test_first_order_tail_gate_names_adequate_truncation(tmp_path, capsys):
    # mode 1 leaks 1.15% at n_max 10 although 10 >= 2 kp; 12 is the
    # smallest truncation that keeps the leak within 1%
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kp = 1\n")
    traj = tmp_path / "burn.traj"
    traj.write_text("accel 2e17 3e-10\n")
    argv = ["fidelity", "--config", str(cfg), "--trajectory", str(traj)]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert "1.15%" in err and "use n_max >= 12" in err
    assert out == ""
    code, out, err = run(argv + ["--nmax", "12"], capsys)
    assert code == 0, err
    assert "F_pert_opt" in out


def test_bad_trajectory_exit_code(tmp_path, capsys):
    traj = tmp_path / "bad.traj"
    traj.write_text("inertial 1e-10\nwarp 9\n")
    code, _, err = run(["fidelity", "--trajectory", str(traj)], capsys)
    assert code == 2
    assert "line 2" in err and "warp" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(["fidelity", "--trajectory",
                        str(tmp_path / "nope.traj")], capsys)
    assert code == 4


@pytest.mark.parametrize("kind,code", [
    (TrajectoryParseError, 2), (ValueError, 2), (TypeError, 2),
    (PhysicalityError, 3), (QuadratureError, 3), (TruncationError, 3),
    (ConsistencyError, 3), (OSError, 4),
])
def test_main_maps_each_error_kind_to_its_exit_code(monkeypatch, capsys,
                                                    kind, code):
    from cavtel import cli

    def fail(args):
        raise kind(f"a {kind.__name__}")

    monkeypatch.setattr(cli, "cmd_fidelity", fail)
    assert run(["fidelity"], capsys) == (code, "",
                                         f"error: a {kind.__name__}\n")


# ---------------------------------------------------------------------------
# sweep

SMALL_CFG = """
tau_steps = 5
a_steps = 4
tau_max_s = 4e-10
a_max_m_s2 = 2e17
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def test_sweep_csv_layout(tmp_path, small_cfg, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--config", small_cfg,
                      "--out", str(out_path)], capsys)
    assert code == 0
    meta, header, body = read_csv(str(out_path))
    assert header == ["tau_s", "a_m_s2", "h", "phi", "F_raw",
                      "F_corrected", "F_opt_numeric", "F_pert",
                      "F_pert_opt", "nu", "residual_pert"]
    assert len(body) == 20
    assert not any("time" in line.lower() for line in meta)


def test_sweep_rows_are_consistent(tmp_path, small_cfg, capsys):
    out_path = tmp_path / "sweep.csv"
    run(["sweep", "--config", small_cfg, "--out", str(out_path)], capsys)
    _, _, body = read_csv(str(out_path))
    for row in body:
        # coordinates round-trip exactly
        a = float(row["a_m_s2"])
        assert float(row["h"]) == a * 0.012 / 1.2e8 ** 2
        assert float(row["F_corrected"]) <= float(row["F_opt_numeric"]) \
            + 1e-8
        assert 0.0 < float(row["nu"]) <= 1.0
    taus = [float(r["tau_s"]) for r in body]
    assert taus == sorted(taus)  # tau-major ordering


def test_sweep_zero_tau_row_is_rest(tmp_path, small_cfg, capsys):
    out_path = tmp_path / "sweep.csv"
    run(["sweep", "--config", small_cfg, "--out", str(out_path)], capsys)
    _, _, body = read_csv(str(out_path))
    first = [r for r in body if float(r["tau_s"]) == 0.0]
    assert len(first) == 4
    for row in first:
        assert float(row["F_corrected"]) == pytest.approx(REST_F,
                                                          abs=1e-5)


def test_sweep_deterministic_and_parallel_identical(tmp_path, small_cfg,
                                                    capsys):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    run(["sweep", "--config", small_cfg, "--out", str(paths[0])], capsys)
    run(["sweep", "--config", small_cfg, "--out", str(paths[1])], capsys)
    run(["sweep", "--config", small_cfg, "--jobs", "2",
         "--out", str(paths[2])], capsys)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def clamp_lines(path):
    meta, _, _ = read_csv(str(path))
    at = next(i for i, line in enumerate(meta)
              if line.startswith("# max_defect = "))
    return meta[at + 1:at + 3]


def test_sweep_reports_clamped_points(tmp_path, small_cfg, capsys, caplog):
    paths = [tmp_path / "j1.csv", tmp_path / "j2.csv"]
    with caplog.at_level(logging.DEBUG, logger="cavtel.protocol"):
        run(["sweep", "--config", small_cfg, "--out", str(paths[0])],
            capsys)
    clamps = [rec.args[0] for rec in caplog.records
              if rec.name == "cavtel.protocol" and "clamp" in rec.msg]
    run(["sweep", "--config", small_cfg, "--jobs", "2",
         "--out", str(paths[1])], capsys)
    serial, parallel = clamp_lines(paths[0]), clamp_lines(paths[1])
    assert serial == parallel
    assert serial == [f"# clamped_points = {len(clamps)}",
                      f"# clamp_max = {max(clamps)!r}"]
    assert len(clamps) > 0


def test_report_equals_its_row_of_a_sweep_column():
    from cavtel.cli import RunConfig, sweep_rows
    from cavtel.protocol import consistency_report
    from cavtel.trajectory import Accelerated, Trajectory
    cfg = RunConfig(tau_steps=100, a_steps=2)
    taus, accs, grid = sweep_rows(cfg)
    rows = sweep_table(taus, accs, grid)
    # a grid report's fields are (A, T): it has no flat row i
    assert grid.F_raw.shape == (len(accs), len(taus))
    with pytest.raises(ValueError, match="column report"):
        grid.row(0)
    params = cfg.params()
    for i, tau in enumerate(taus):
        for j, a in enumerate(accs):
            rep = consistency_report(params, Trajectory(
                (Accelerated(a, tau),), params.geometry))
            want = [tau, a, rep.h, rep.phi, rep.F_raw, rep.F_corrected,
                    rep.F_opt_numeric, rep.F_pert, rep.F_pert_opt, rep.nu,
                    rep.residual_pert]
            assert list(rows[i * len(accs) + j]) == want


def test_sweep_plot_data_matrix(tmp_path, small_cfg, capsys):
    from cavtel.protocol import consistency_report
    from cavtel.trajectory import Accelerated, Trajectory
    out_path = tmp_path / "sweep.csv"
    plot_paths = [tmp_path / "j1.dat", tmp_path / "j2.dat"]
    for jobs, plot_path in zip(("1", "2"), plot_paths):
        code, _, _ = run(["sweep", "--config", small_cfg, "--jobs", jobs,
                          "--out", str(out_path),
                          "--plot-data", str(plot_path)], capsys)
        assert code == 0
    assert plot_paths[0].read_bytes() == plot_paths[1].read_bytes()
    lines = [ln for ln in plot_paths[0].read_text().splitlines()
             if ln and not ln.startswith("#")]
    first = lines[0].split()
    assert int(first[0]) == 5  # tau count then tau values
    assert len(first) == 6
    assert len(lines) == 1 + 4  # one row per acceleration
    assert all(len(ln.split()) == 6 for ln in lines[1:])
    # every cell is F_opt_numeric of the report at its (tau, a)
    with open(small_cfg) as fh:
        cfg = apply_config_text(RunConfig(), fh.read())
    taus, accs = cfg.grid()
    params = cfg.params()
    assert first[1:] == ["%.11e" % tau for tau in taus]
    for line, a in zip(lines[1:], accs):
        want = [consistency_report(params, Trajectory(
            (Accelerated(a, tau),), params.geometry)).F_opt_numeric
            for tau in taus]
        assert line.split() == ["%.11e" % v for v in [a] + want]


def test_sweep_stdout_when_no_out(tmp_path, small_cfg, capsys):
    plots = [tmp_path / "stdout.dat", tmp_path / "file.dat"]
    code, out, _ = run(["sweep", "--config", small_cfg,
                        "--plot-data", str(plots[0])], capsys)
    assert code == 0
    data_lines = [ln for ln in out.splitlines()
                  if ln and not ln.startswith("#")]
    assert data_lines[0].startswith("tau_s,")
    assert len(data_lines) == 21
    # the same bytes as --out, and the same plot matrix beside either
    out_path = tmp_path / "sweep.csv"
    code, printed, _ = run(["sweep", "--config", small_cfg,
                            "--out", str(out_path),
                            "--plot-data", str(plots[1])], capsys)
    assert code == 0 and printed == ""
    assert out.encode() == out_path.read_bytes()
    assert plots[0].read_bytes() == plots[1].read_bytes()


@pytest.mark.parametrize("steps", [(100, 100), (400, 10), (10, 400)])
def test_sweep_writer_holds_about_one_tau_block(tmp_path, capsys,
                                                monkeypatch, steps):
    # the grid is computed first; only the writing of its CSV is traced,
    # and it must never hold as much as the text it writes
    import tracemalloc
    from cavtel import cli
    cfg = RunConfig(tau_steps=steps[0], a_steps=steps[1])
    computed = sweep_rows(cfg)
    monkeypatch.setattr(cli, "sweep_rows", lambda cfg, jobs: computed)
    out_path = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        code, _, _ = run(["sweep", "--out", str(out_path)], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    size = out_path.stat().st_size
    assert peak < size, f"peak {peak / size:.2f} x the {size} B CSV"


@pytest.mark.parametrize("target,code", [("stdout", 0), ("out", 4)])
def test_sweep_reader_closing_early(tmp_path, target, code):
    # a reader that takes 100 bytes of a CSV far larger than a pipe's
    # buffer, then closes, as `cavtel sweep | head -c 100` does: on
    # stdout the run ends quietly, while a failed --out write stays an
    # I/O error
    config = tmp_path / "long.cfg"
    config.write_text("tau_steps = 1000\na_steps = 2\n")
    argv = [sys.executable, "-m", "cavtel.cli", "sweep",
            "--config", str(config)]
    if target == "stdout":
        proc = subprocess.Popen(argv, env=checkout_env(),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        reader = proc.stdout
    else:
        fifo = tmp_path / "sweep.fifo"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        proc = subprocess.Popen(argv + ["--out", str(fifo)],
                                env=checkout_env(),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        # until the sweep writes, wait for it, but not forever
        select.select([fd], [], [], 120)
        os.set_blocking(fd, True)
        reader = os.fdopen(fd, "rb")
    try:
        assert reader.read(100).startswith(b"# sweep grid")
    finally:
        reader.close()
    assert proc.wait(timeout=120) == code
    err = proc.stderr.read().decode()
    proc.stderr.close()
    if code == 0:
        assert err == ""
    else:
        assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command", ["fidelity", "validate"])
def test_report_to_a_reader_gone_before_it_is_quiet(command):
    # as `cavtel fidelity | true`: the reader has closed before the first
    # line is written
    proc = subprocess.Popen([sys.executable, "-m", "cavtel.cli", command],
                            env=checkout_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_sweep_wider_than_oracle_cache_computes_each_switch_once():
    from cavtel import bogoliubov
    from cavtel.cli import RunConfig, sweep_rows
    cfg = RunConfig(tau_steps=2, a_steps=1100)
    assert cfg.a_steps > bogoliubov._oracle_cached.cache_info().maxsize
    bogoliubov._oracle_cached.cache_clear()
    bogoliubov._truncation.cache_clear()
    rows = sweep_table(*sweep_rows(cfg))
    assert len(rows) == 2200
    # one switch per acceleration; the first order is the closed form
    assert bogoliubov._oracle_cached.cache_info().misses == cfg.a_steps


def test_sweep_takes_one_kernel_pass_per_batch(monkeypatch):
    # 300-row columns: three to a 1,024-row batch, so seven columns take
    # three passes
    from cavtel import protocol
    from cavtel.cli import RunConfig, sweep_rows
    rows = []
    real = protocol._state_kernel

    def kernel(params, x, defect, phases):
        rows.append(defect.size)
        return real(params, x, defect, phases)

    monkeypatch.setattr(protocol, "_state_kernel", kernel)
    sweep_rows(RunConfig(tau_steps=300, a_steps=7))
    assert rows == [900, 900, 300]


def test_sweep_evaluates_the_first_order_sums_once():
    from cavtel import bogoliubov
    from cavtel.cli import RunConfig, sweep_rows
    from cavtel.protocol import perturbative_optimal
    cfg = RunConfig(tau_steps=7, a_steps=40)
    bogoliubov._f_sums_cached.cache_clear()
    taus, accs, grid = sweep_rows(cfg)
    rows = sweep_table(taus, accs, grid)
    info = bogoliubov._f_sums_cached.cache_info()
    assert (info.misses, info.hits) == (1, cfg.a_steps - 1)
    geom = cfg.geometry()
    fa, fb = bogoliubov.f_sums(cfg.kp, taus, geom)
    assert not fa.flags.writeable and not fb.flags.writeable
    # the shared sums are the ones each column would compute afresh
    fresh = bogoliubov._f_sums_cached.__wrapped__(
        cfg.kp, geom, taus.shape, taus.tobytes())
    assert np.array_equal(fa, fresh[0]) and np.array_equal(fb, fresh[1])
    for j in range(cfg.a_steps):
        column = rows[j::cfg.a_steps]
        assert [row[1] for row in column] == [accs[j]] * cfg.tau_steps
        h = column[0][2]
        want = perturbative_optimal(cfg.r, fresh[0], fresh[1], h)
        assert np.array_equal([row[8] for row in column], want)


def test_sweep_near_rest_grid(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("tau_steps = 2\na_steps = 2\n"
                   "tau_max_s = 2e-10\na_min_m_s2 = 1\na_max_m_s2 = 2\n")
    out_path = tmp_path / "tiny.csv"
    code, _, _ = run(["sweep", "--config", str(cfg),
                      "--out", str(out_path)], capsys)
    assert code == 0
    _, _, body = read_csv(str(out_path))
    for row in body:
        assert float(row["F_corrected"]) == pytest.approx(REST_F,
                                                          abs=1e-6)


@pytest.mark.parametrize("line", [
    "tau_max_s = inf",
    "a_max_m_s2 = inf",
    "tau_min_s = -inf",
    "a_min_m_s2 = nan",
])
def test_sweep_non_finite_grid_bound_is_usage_error(tmp_path, capsys,
                                                   line):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    key = line.split(" = ")[0]
    assert f"{key} must be finite" in err
    assert out == ""


@pytest.mark.parametrize("line,keys", [
    ("tau_min_s = 5", ("tau_min_s", "tau_max_s")),
    ("a_min_m_s2 = 3e17", ("a_min_m_s2", "a_max_m_s2")),
    ("a_steps = 1", ("tau_steps", "a_steps")),
    # ranges a few ulps wide, where np.linspace repeats values
    ("tau_max_s = 1e-322", ("tau_min_s", "tau_max_s", "tau_steps")),
    (f"a_max_m_s2 = {1e16 * (1 + 1e-15)!r}",
     ("a_min_m_s2", "a_max_m_s2", "a_steps")),
    # a range whose two ends print the same 12-digit coordinate
    ("tau_min_s = 1e-10\ntau_max_s = 1.0000000000001e-10\n"
     "tau_steps = 2\na_steps = 2", ("tau_min_s", "tau_max_s", "tau_steps")),
    # the far column reaches the horizon, h = a L / c^2 >= 2: rejected
    # before any column runs, not at column 80 of 100
    ("a_max_m_s2 = 3e18", ("a_max_m_s2",)),
])
def test_sweep_grid_range_error_names_config_keys(tmp_path, capsys, line,
                                                  keys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    for key in keys:
        assert key in err
    assert out == ""


def reference_row_text(row):
    # the per-row formatter the sweep used before it formatted each
    # distinct coordinate once
    coords = [repr(float(v)) for v in row[:3]]
    return ",".join(coords + ["%.11e" % v for v in row[3:]]) + "\n"


def test_sweep_row_text_matches_per_row_formatter(small_cfg):
    with open(small_cfg) as fh:
        cfg = apply_config_text(RunConfig(), fh.read())
    taus, accs, grid = sweep_rows(cfg)
    rows = sweep_table(taus, accs, grid)
    width = len(accs)
    coords = [f"{a!r},{h!r}" for _, a, h, *_ in rows[:width]]
    for i, tau in enumerate(taus.tolist()):
        block = rows[i * width:(i + 1) * width]
        assert _sweep_row_text(tau, coords, np.array(block)[:, 3:]) \
            == "".join(map(reference_row_text, block))


def assert_rows_match_reference(block):
    # one line per row of `block`, at made-up coordinates
    tau = 1.5e-10
    rows = [[tau, 1e16 + 1e14 * j, 0.01 * j, *v]
            for j, v in enumerate(block.tolist())]
    coords = [f"{a!r},{h!r}" for _, a, h, *_ in rows]
    got = _sweep_row_text(tau, coords, block).splitlines(True)
    want = [reference_row_text(row) for row in rows]
    assert len(got) == len(want)
    for j, (line, ref) in enumerate(zip(got, want)):
        assert line == ref, f"row {j}: {block[j].tolist()}"


def raw_float64(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# any float64: the fast path's range and its ties, and raw bit patterns
# (mostly NaN payloads, subnormals and huge exponents)
ANY_FLOAT64 = st.one_of(
    st.floats(1e-11, 1e34),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(10 ** 11, 10 ** 12 - 1).map(lambda j: float(f"{j}.5e-12")),
    st.integers(0, 2 ** 64 - 1).map(raw_float64),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(8)),
              elements=ANY_FLOAT64))
def test_sweep_row_text_matches_reference_on_any_values(block):
    assert_rows_match_reference(block)


def format_cases():
    """Values at every edge of the sweep formatter's fast path."""
    inf = math.inf
    values = [0.0, -0.0, inf, -inf, math.nan, 5e-324, 1e-310,
              2.225073858507201e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, 9.99999999999949e-01,
              9.9999999999995e-01, 9.99999999999951e-01]
    for k in range(-40, 41):
        x = float(f"1e{k}")
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, inf)]
    # both sides of 1e+-100, and the largest mantissas below it
    for x in (1e100, 9.999999999995e99, 9.9999999999949e99, 1e-100,
              9.999999999995e-101, 9.9999999999949e-101):
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, inf)]
    # decimal ties of the 12th digit, which a binary value lies beside
    ties = list(range(10 ** 11, 10 ** 11 + 300)) \
        + np.linspace(10 ** 11, 10 ** 12 - 1, 300).astype(np.int64).tolist()
    values += [float(f"{j}.5e-12") for j in ties]
    values += [(j + 0.5) * 1e-12 for j in ties]
    return np.array(values, dtype=np.float64)


def test_sweep_row_text_matches_reference_at_edge_values():
    # each value fills a row of its own, so one value that leaves the
    # fast path takes no other value with it
    values = format_cases()
    assert_rows_match_reference(np.repeat(values[:, None], 8, axis=1))
    # and beside values that stay on it
    mixed = np.full((len(values), 8), 0.25)
    mixed[:, 3] = values
    assert_rows_match_reference(mixed)


def test_sweep_jobs_bounded_by_column_count(tmp_path, small_cfg, capsys,
                                            monkeypatch):
    # count the workers each sweep forks; each fork is real, so every
    # run's bytes come from the processes counted
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    computing = []      # per run: forked workers plus the caller

    def sweep(jobs, path):
        forks.clear()
        fds = fd_count()
        code, _, _ = run(["sweep", "--config", small_cfg, "--jobs", jobs,
                          "--out", str(path)], capsys)
        assert code == 0
        assert_no_leftovers(fds)
        computing.append(len(forks) + 1)

    # more usable CPUs (the affinity set) than columns: the column count
    # bounds the processes that compute
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    paths = [tmp_path / "j1.csv", tmp_path / "many.csv"]
    for jobs, path in zip(("1", "1000000"), paths):
        sweep(jobs, path)
    assert computing == [1, 4]  # the 5 x 4 grid's column count
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # fewer usable CPUs than columns bound them; with one (or an unknown
    # count) the sweep runs in this process and forks nothing
    for affinity, count in (({0, 3, 5}, None), (None, 2), (None, 1),
                            (None, None)):
        if affinity is None:        # a platform without an affinity set
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
        else:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=affinity: cpus)
        sweep("100", paths[1])
        assert paths[1].read_bytes() == paths[0].read_bytes()
    assert computing == [1, 4, 3, 2, 1, 1]


def fd_count():
    """The number of open descriptors of this process, or None where
    /proc does not list them."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def assert_no_leftovers(fds):
    """Every forked sweep worker is reaped, and this process holds the
    `fds` descriptors it held before the sweep (none is left open)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert fd_count() == fds


@pytest.fixture()
def two_cpus(monkeypatch):
    """Two usable CPUs, so that --jobs 2 forks one worker everywhere."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def small_accs(small_cfg):
    with open(small_cfg) as fh:
        return apply_config_text(RunConfig(), fh.read()).grid()[1].tolist()


def failing_columns(monkeypatch, fail):
    """Make the per-column step of a batch, `protocol._column_inputs`,
    call fail(a) first for the column's acceleration a; forked workers
    inherit the patch."""
    from cavtel import protocol
    real = protocol._column_inputs

    def column(params, trajectory, alice_clock):
        fail(trajectory.burns[0].a)
        return real(params, trajectory, alice_clock)

    monkeypatch.setattr(protocol, "_column_inputs", column)


# a pipe end left to the garbage collector warns (ResourceWarning) from
# a destructor, which pytest reports as an unraisable exception
@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
def test_sweep_forked_run_leaves_nothing(small_cfg, capsys, two_cpus):
    fds = fd_count()
    code, out, _ = run(["sweep", "--config", small_cfg, "--jobs", "2"],
                       capsys)
    assert code == 0
    assert len([ln for ln in out.splitlines()
                if not ln.startswith("#")]) == 21
    assert_no_leftovers(fds)


@pytest.mark.parametrize("error,code", [
    (ConsistencyError, 3),
    (ValueError, 2),
    (lambda message: QuadratureError(message, residual=1.5, panels=7), 3),
], ids=["ConsistencyError", "ValueError", "QuadratureError"])
@pytest.mark.parametrize("bad", [[1], [2], [1, 2], [2, 3]])
def test_sweep_worker_errors_match_serial(small_cfg, capsys, monkeypatch,
                                          two_cpus, error, code, bad):
    # columns 1 and 3 are the worker's share at --jobs 2, 0 and 2 the
    # caller's; of two failing columns the first in grid order is named
    accs = small_accs(small_cfg)

    def fail(a):
        if a in [accs[j] for j in bad]:
            raise error(f"column a = {a!r} failed")

    failing_columns(monkeypatch, fail)
    want = f"error: column a = {accs[bad[0]]!r} failed\n"
    for jobs in ("1", "2"):
        fds = fd_count()
        assert run(["sweep", "--config", small_cfg, "--jobs", jobs],
                   capsys) == (code, "", want)
        assert_no_leftovers(fds)


def test_sweep_worker_error_keeps_its_attributes(small_cfg, monkeypatch,
                                                 two_cpus):
    # QuadratureError's extra constructor arguments survive the forked
    # run: the caller's own run of the grid raises the error
    accs = small_accs(small_cfg)

    def fail(a):
        if a == accs[1]:
            raise QuadratureError("no convergence", residual=1.5, panels=7)

    failing_columns(monkeypatch, fail)
    with open(small_cfg) as fh:
        cfg = apply_config_text(RunConfig(), fh.read())
    with pytest.raises(QuadratureError) as info:
        sweep_rows(cfg, jobs=2)
    assert (str(info.value), info.value.residual, info.value.panels) == \
        ("no convergence", 1.5, 7)


def test_sweep_forked_run_computes_only_share_0_in_the_caller(
        small_cfg, capsys, monkeypatch, two_cpus):
    # a worker that fails quietly costs a run of the whole grid in the
    # caller, with the right bytes: a healthy run must not take it
    caller = os.getpid()
    seen = []

    def fail(a):
        if os.getpid() == caller:
            seen.append(a)

    failing_columns(monkeypatch, fail)
    code, _, err = run(["sweep", "--config", small_cfg, "--jobs", "2"],
                       capsys)
    assert (code, err) == (0, "")
    assert seen == small_accs(small_cfg)[0::2]


def fork_fails_second_time(monkeypatch):
    """The first os.fork forks, the next raises OSError."""
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)


def worker_leaves(leave):
    """Make every forked worker call leave() at its first column."""
    def patch(monkeypatch):
        caller = os.getpid()

        def fail(a):
            if os.getpid() != caller:
                leave()

        failing_columns(monkeypatch, fail)
    return patch


@pytest.mark.parametrize("lose,reason", [
    (worker_leaves(lambda: os._exit(1)),
     r"sweep worker pid \d+ ended with wait status 256"),
    (worker_leaves(lambda: os.kill(os.getpid(), signal.SIGKILL)),
     r"sweep worker pid \d+ ended with wait status 9"),
    (fork_fails_second_time, r"os\.fork failed \(\[Errno 11\] .+\)"),
], ids=["exit-1", "sigkill", "fork-oserror"])
def test_sweep_lost_worker_falls_back_without_leftovers(small_cfg, capsys,
                                                        monkeypatch, lose,
                                                        reason):
    # a worker that leaves without its share, or a fork that fails, ends
    # the forked run: the caller kills and reaps the workers that are
    # left and runs the whole grid itself, which gives the --jobs 1
    # bytes, and then says on stderr why the run took longer
    want = run(["sweep", "--config", small_cfg, "--jobs", "1"], capsys)
    assert want[0] == 0 and want[2] == ""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    lose(monkeypatch)
    fds = fd_count()
    code, out, err = run(["sweep", "--config", small_cfg, "--jobs", "3"],
                         capsys)
    assert (code, out) == want[:2]
    assert re.fullmatch(f"warning: {reason}; the grid was recomputed in "
                        "this process\n", err)
    assert_no_leftovers(fds)


@pytest.mark.parametrize("jobs,lose", [
    ("1", None),
    ("2", None),
    ("2", worker_leaves(lambda: os._exit(1))),
], ids=["jobs-1", "jobs-2", "jobs-2-exit-1"])
def test_sweep_plot_data_reads_the_grid_report(tmp_path, small_cfg, capsys,
                                               monkeypatch, two_cpus, jobs,
                                               lose):
    # the plot matrix is the grid report's F_opt_numeric, row j the
    # column of accs[j], with the same bytes at --jobs 1, at --jobs 2 and
    # when the caller fills the block again after a lost worker
    with open(small_cfg) as fh:
        cfg = apply_config_text(RunConfig(), fh.read())
    taus, accs, grid = sweep_rows(cfg)
    assert grid.F_opt_numeric.shape == (len(accs), len(taus))
    want = "".join(
        ["# gnuplot nonuniform matrix: F_opt_numeric(tau, a)\n",
         "# plot with: splot 'file' nonuniform matrix with pm3d\n",
         " ".join([str(len(taus))] + ["%.11e" % t for t in taus]) + "\n"]
        + [" ".join("%.11e" % v for v in [a] + grid.F_opt_numeric[j].tolist())
           + "\n" for j, a in enumerate(accs.tolist())])
    if lose is not None:
        lose(monkeypatch)
    plot = tmp_path / "plot.dat"
    code, _, err = run(["sweep", "--config", small_cfg, "--jobs", jobs,
                        "--out", str(tmp_path / "sweep.csv"),
                        "--plot-data", str(plot)], capsys)
    assert code == 0
    assert ("recomputed" in err) == (lose is not None)
    assert plot.read_text() == want


def fork_fails_first_time(monkeypatch):
    """Every os.fork raises OSError, so no worker starts."""
    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("jobs,lose", [
    ("1", None),
    ("2", None),
    ("2", worker_leaves(lambda: os._exit(1))),
    ("2", fork_fails_first_time),
], ids=["jobs-1", "jobs-2", "jobs-2-exit-1", "jobs-2-fork-oserror"])
def test_sweep_clamp_records_match_serial(tmp_path, capsys, caplog,
                                          monkeypatch, two_cpus, jobs, lose):
    # the caller logs each clamped state once, in grid order, from the
    # filled block, whichever processes filled it: its own and a
    # worker's shares, or a fallback run of the whole grid.  The 8
    # columns of the default grid hold 66 clamped states
    path = tmp_path / "eight.cfg"
    path.write_text("a_steps = 8\n")
    if lose is not None:
        lose(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="cavtel.protocol"):
        assert run(["sweep", "--config", str(path), "--jobs", jobs],
                   capsys)[0] == 0
    shifts = [rec.args[0] for rec in caplog.records
              if rec.name == "cavtel.protocol"]
    with open(path) as fh:
        _, _, grid = sweep_rows(apply_config_text(RunConfig(), fh.read()))
    want = grid.clamp.ravel()
    assert len(shifts) == 66
    assert shifts == want[want > 0.0].tolist()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_that_raises_logs_no_clamp_record(tmp_path, capsys, caplog,
                                                monkeypatch, two_cpus, jobs):
    # the grid's records are logged once every column is done: the last
    # of the 8 columns (the worker's share at --jobs 2) raises after the
    # 7 before it clamped states, and the sweep logs none of them, as a
    # single report that raises logs none
    path = tmp_path / "eight.cfg"
    path.write_text("a_steps = 8\n")
    with open(path) as fh:
        cfg = apply_config_text(RunConfig(), fh.read())
    accs = cfg.grid()[1].tolist()
    assert np.count_nonzero(sweep_rows(cfg)[2].clamp[:7]) > 0

    def fail(a):
        if a == accs[7]:
            raise ConsistencyError(f"column a = {a!r} failed")

    failing_columns(monkeypatch, fail)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cavtel.protocol"):
        got = run(["sweep", "--config", str(path), "--jobs", jobs], capsys)
    assert got == (3, "", f"error: column a = {accs[7]!r} failed\n")
    assert [rec for rec in caplog.records
            if rec.name == "cavtel.protocol"] == []


# a root handler on stderr, and two usable CPUs, so that --jobs 2 forks
CLAMP_LOGGING_MAIN = (
    "import logging, sys\n"
    "logging.basicConfig(level=logging.DEBUG)\n"
    "from cavtel import cli\n"
    "cli._usable_cpus = lambda: 2\n"
    "sys.exit(cli.main(sys.argv[1:]))\n")


def test_sweep_clamp_records_across_a_real_fork(tmp_path):
    # caplog cannot see a forked worker's records, which would go to the
    # worker's own handler: a fresh process's stderr shows the records
    # of every process.  Each clamped state of the 8 columns is logged
    # once, as the CSV counts them
    path = tmp_path / "eight.cfg"
    path.write_text("a_steps = 8\n")
    runs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", CLAMP_LOGGING_MAIN, "sweep", "--config",
             str(path), "--jobs", jobs], env=checkout_env(),
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "# clamped_points = 66\n" in proc.stdout
        runs.append([line for line in proc.stderr.splitlines()
                     if "clamped reduced state" in line])
    assert len(runs[0]) == 66
    assert runs[1] == runs[0]


def test_sweep_interrupt_kills_workers(small_cfg, capsys, monkeypatch,
                                       two_cpus):
    # KeyboardInterrupt in the caller's share does not wait for the
    # worker, which would sleep for a minute: it is killed and reaped
    import time
    caller = os.getpid()
    accs = small_accs(small_cfg)

    def fail(a):
        if os.getpid() != caller:
            time.sleep(60)
        elif a == accs[2]:
            raise KeyboardInterrupt

    failing_columns(monkeypatch, fail)
    fds = fd_count()
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(["sweep", "--config", small_cfg, "--jobs", "2"], capsys)
    assert time.monotonic() - start < 30
    assert_no_leftovers(fds)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_rejects_jobs_below_one(small_cfg, capsys, jobs):
    code, out, err = run(["sweep", "--config", small_cfg, "--jobs", jobs],
                         capsys)
    assert code == 2
    assert "--jobs" in err
    assert out == ""


def test_sweep_unwritable_out(small_cfg, capsys):
    code, _, err = run(["sweep", "--config", small_cfg,
                        "--out", "/proc/cavtel-denied/x.csv"], capsys)
    assert code == 4


# ---------------------------------------------------------------------------
# coeffs

def test_coeffs_small_h_is_identity(tmp_path, capsys):
    out_path = tmp_path / "coeffs.csv"
    code, _, _ = run(["coeffs", "1e-6", "--out", str(out_path)], capsys)
    assert code == 0
    _, header, body = read_csv(str(out_path))
    assert header == ["m", "n", "re_alpha", "im_alpha", "re_beta",
                      "im_beta", "alpha1", "beta1"]
    assert len(body) == 100
    for row in body:
        m, n = int(row["m"]), int(row["n"])
        want = 1.0 if m == n else 0.0
        assert float(row["re_alpha"]) == pytest.approx(want, abs=1e-5)
        assert float(row["im_alpha"]) == 0.0
        assert float(row["re_beta"]) == pytest.approx(0.0, abs=1e-5)
        if (m + n) % 2 == 0:
            assert row["alpha1"] == row["beta1"] == "0.00000000000e+00"


def test_coeffs_closed_form_column(tmp_path, capsys):
    out_path = tmp_path / "coeffs.csv"
    run(["coeffs", "0.1", "--out", str(out_path)], capsys)
    meta, _, body = read_csv(str(out_path))
    assert not any("extrapolation_error" in line for line in meta)
    table = {(int(r["m"]), int(r["n"])): r for r in body}
    # signed: A1_mn = -2 sqrt(mn) / (pi^2 (m - n)^3), B1 with m + n
    for (m, n) in ((2, 1), (1, 2), (7, 4)):
        assert float(table[(m, n)]["alpha1"]) == pytest.approx(
            -2 * math.sqrt(m * n) / (math.pi ** 2 * (m - n) ** 3),
            rel=1e-11)
        assert float(table[(m, n)]["beta1"]) == pytest.approx(
            -2 * math.sqrt(m * n) / (math.pi ** 2 * (m + n) ** 3),
            rel=1e-11)
    # at odd parity alpha(h) / h is the closed form up to O(h^2)
    assert float(table[(2, 1)]["re_alpha"]) / 0.1 == pytest.approx(
        float(table[(2, 1)]["alpha1"]), rel=0.05)


def test_coeffs_rejects_out_of_range(capsys):
    # the chart's own check
    for h in ("2.5", "0", "nan"):
        code, out, err = run(["coeffs", h], capsys)
        assert code == 2 and out == ""
        assert "h must lie in (0, 2)" in err


# ---------------------------------------------------------------------------
# validate

def test_validate_passes(capsys):
    # at n_max 40 the oracle serves four accelerations from one
    # truncation's memoised factors
    for argv in (["validate"], ["validate", "--nmax", "40"]):
        code, out, _ = run(argv, capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert all(ln.startswith("PASS") for ln in lines)
        assert len(lines) >= 6


def test_validate_reports_each_check_once(capsys):
    _, out, _ = run(["validate"], capsys)
    names = [ln.split()[1].rstrip(":") for ln in out.splitlines() if ln]
    assert names == ["bogoliubov-identities", "symplectic-form",
                     "first-order", "truncation-adequacy", "phase-closure",
                     "order-h4", "revival"]


def test_validate_revival_catches_a_wrong_period(monkeypatch, capsys):
    # a burn of 99% of the Rindler period leaves the resting optimum by
    # far more than the row residual
    from cavtel import cli
    real = cli.rindler_period
    monkeypatch.setattr(cli, "rindler_period",
                        lambda h, geometry: 0.99 * real(h, geometry))
    code, out, _ = run(["validate"], capsys)
    assert code == 5
    assert [ln.split()[:2] for ln in out.splitlines()
            if ln.startswith("FAIL")] == [["FAIL", "revival:"]]


def test_validate_first_order_catches_a_wrong_sign(monkeypatch, capsys):
    from cavtel import cli
    from cavtel.bogoliubov import PerturbativeCoefficients
    real = cli.sudden_switch_perturbative

    def flipped(geometry):
        first = real(geometry)
        return PerturbativeCoefficients(first.alpha1, -first.beta1)

    monkeypatch.setattr(cli, "sudden_switch_perturbative", flipped)
    code, out, _ = run(["validate"], capsys)
    assert code == 5
    assert "FAIL first-order" in out


def test_validate_truncated_basis_fails(capsys):
    code, out, _ = run(["validate", "--nmax", "4"], capsys)
    assert code == 5
    assert any(ln.startswith("FAIL") for ln in out.splitlines())


# a bad r, k or kp is a usage error before any check: kp = 0 used to
# print three PASS lines and then die in the tail gate with a
# ZeroDivisionError (exit 1), and kp = n_max + 1 exited 2 partway
@pytest.mark.parametrize("line,message", [
    ("kp = 0", "Rob mode index must lie in 1..10"),
    ("kp = -1", "Rob mode index must lie in 1..10"),
    ("kp = 11", "Rob mode index must lie in 1..10"),
    ("k = 0", "Alice mode index must be >= 1"),
    ("r = 7", "squeezing r must be finite and lie in 0..6, got 7.0"),
    # read with the config, not at the first report of a check
    ("alice_clock = bogus", "line 1: bad value for alice_clock: 'bogus'"),
])
def test_validate_rejects_bad_parameters_before_any_check(
        tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(["validate", "--config", str(cfg)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_validate_reads_the_tail_gate(tmp_path, capsys):
    # mode 1 leaks 1.15% at n_max 10: the adequacy check and the h^4
    # check both fail with the gate's own message
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kp = 1\n")
    code, out, _ = run(["validate", "--config", str(cfg)], capsys)
    assert code == 5
    lines = dict(ln.split(": ", 1) for ln in out.splitlines() if ln)
    gate = ("TruncationError: mode 1 leaks an estimated 1.15% of its "
            "first-order weight above n_max = 10 (limit 1%); use n_max >= 12")
    assert lines["FAIL truncation-adequacy"] == gate
    assert lines["FAIL order-h4"] == gate


def test_validate_mutated_oracle_fails(monkeypatch, capsys):
    from cavtel import cli
    real = cli.sudden_switch_oracle

    def mutated(h, geometry):
        pair = real(h, geometry)
        beta = pair.beta.copy()
        beta[0, 1] = -beta[0, 1]
        return BogoliubovPair(pair.alpha, beta, pair.defect)

    monkeypatch.setattr(cli, "sudden_switch_oracle", mutated)
    code, out, _ = run(["validate"], capsys)
    assert code == 5
    assert "FAIL bogoliubov-identities" in out


def test_validate_symplectic_form_reads_robs_row(monkeypatch, capsys):
    # the check builds its rows as the reports do, so a switch with one
    # flipped pairing entry, served to Rob's row, must fail it; the rows
    # read the switch's stacked (alpha, beta), of which the oracle's pair
    # is a view
    from cavtel import trajectory
    real = trajectory._oracle_cached

    def mutated(h, n_max):
        switch = real(h, n_max)
        ab = switch.ab.copy()
        ab[1, 0, 1] = -ab[1, 0, 1]
        return switch._replace(ab=ab)

    monkeypatch.setattr(trajectory, "_oracle_cached", mutated)
    code, out, _ = run(["validate"], capsys)
    assert code == 5
    assert "FAIL symplectic-form" in out


# ---------------------------------------------------------------------------
# installed entry point

def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import cavtel
    modules = [cavtel] + [
        importlib.import_module(f"cavtel.{info.name}")
        for info in pkgutil.iter_modules(cavtel.__path__)]
    for module in modules:
        names = getattr(module, "__all__", ())
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ lists {missing}"
        assert len(set(names)) == len(names)


# refuses to import the test-only packages, so a child process shows
# that the commands need no more than the numpy that pyproject declares
BLOCK_TEST_DEPS = """\
import sys
class Block:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "hypothesis"):
            raise ImportError(f"{name} is blocked")
        return None
sys.meta_path.insert(0, Block())
from cavtel.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["validate", "fidelity"])
def test_commands_run_without_test_dependencies(command):
    proc = subprocess.run([sys.executable, "-c", BLOCK_TEST_DEPS, command],
                          capture_output=True, text=True, timeout=300,
                          env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_parser_is_built_once_and_dispatches_by_name(monkeypatch, capsys):
    # the parser of the first call serves the second, which still runs a
    # cmd_* function replaced after the parser was built
    from cavtel import cli
    code, out, _ = run(["fidelity"], capsys)
    assert code == 0 and "F_opt_numeric" in out
    parser = cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_fidelity",
                        lambda args: calls.append(args.trajectory) or 7)
    assert run(["fidelity", "--trajectory", "x.traj"], capsys) == (7, "", "")
    assert calls == ["x.traj"]
    assert cli._parser() is parser


# a report at rest clamps nothing and integrates nothing; a sweep does
# both, but its Gauss-Legendre rule is stored as literals and a process
# that never imported logging has nowhere to send a clamp record, so
# neither imports logging or numpy.polynomial
RUN_IMPORTS = """\
import sys
from cavtel.cli import main
code = main(sys.argv[1:])
print(sorted(m for m in ("logging", "numpy.polynomial") if m in sys.modules))
sys.exit(code)
"""


def test_fidelity_at_rest_imports_only_what_runs():
    proc = subprocess.run([sys.executable, "-c", RUN_IMPORTS, "fidelity"],
                          capture_output=True, text=True, timeout=120,
                          env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_with_an_oracle_imports_only_what_runs(tmp_path, jobs):
    # the 8-column default grid: 8 oracle integrations and 66 clamped
    # states, in one process or with a forked worker
    path = tmp_path / "eight.cfg"
    path.write_text("a_steps = 8\n")
    proc = subprocess.run(
        [sys.executable, "-c", RUN_IMPORTS, "sweep", "--config", str(path),
         "--jobs", jobs], env=checkout_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "# clamped_points = 66\n" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


# `python -m cavtel.cli` runs the module as __main__: main() must find
# its command there, without importing cavtel.cli beside it
AS_MAIN = """\
import runpy
import sys
sys.argv = ["cavtel", "fidelity"]
try:
    runpy.run_module("cavtel.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("cavtel.cli" in sys.modules, exc.code)
"""


def test_module_run_dispatches_in_main():
    proc = subprocess.run([sys.executable, "-c", AS_MAIN],
                          capture_output=True, text=True, timeout=120,
                          env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert "F_opt_numeric" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False 0"


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "cavtel.cli", "fidelity"],
                          capture_output=True, text=True, timeout=120,
                          env=checkout_env())
    assert proc.returncode == 0
    assert "F_opt_numeric" in proc.stdout
