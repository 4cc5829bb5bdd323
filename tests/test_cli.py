"""Command-line interface: subcommands, file formats, exit codes."""

import csv
import logging
import math
import os
import stat
import subprocess
import sys
import warnings

import pytest

from cavtel.bogoliubov import BogoliubovPair
from cavtel.cli import main

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
    rows, _ = sweep_rows(cfg)
    taus, accs = cfg.grid()
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
    out_path = tmp_path / "sweep.csv"
    plot_path = tmp_path / "sweep.dat"
    code, _, _ = run(["sweep", "--config", small_cfg,
                      "--out", str(out_path),
                      "--plot-data", str(plot_path)], capsys)
    assert code == 0
    lines = [ln for ln in plot_path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    first = lines[0].split()
    assert int(first[0]) == 5  # tau count then tau values
    assert len(first) == 6
    assert len(lines) == 1 + 4  # one row per acceleration
    assert all(len(ln.split()) == 6 for ln in lines[1:])


def test_sweep_stdout_when_no_out(small_cfg, capsys):
    code, out, _ = run(["sweep", "--config", small_cfg], capsys)
    assert code == 0
    data_lines = [ln for ln in out.splitlines()
                  if ln and not ln.startswith("#")]
    assert data_lines[0].startswith("tau_s,")
    assert len(data_lines) == 21


def test_sweep_wider_than_oracle_cache_computes_each_switch_once():
    from cavtel import bogoliubov
    from cavtel.cli import RunConfig, sweep_rows
    cfg = RunConfig(tau_steps=2, a_steps=1100)
    assert cfg.a_steps > bogoliubov._oracle_cached.cache_info().maxsize
    bogoliubov._oracle_cached.cache_clear()
    bogoliubov._switch_first_order_cached.cache_clear()
    rows, _ = sweep_rows(cfg)
    assert len(rows) == 2200
    # one switch per acceleration, plus the first-order extraction ladder
    assert bogoliubov._oracle_cached.cache_info().misses <= cfg.a_steps + 12


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
                      "im_beta", "abs_alpha1", "abs_beta1",
                      "closed_form_match_flag"]
    assert len(body) == 100
    for row in body:
        m, n = int(row["m"]), int(row["n"])
        want = 1.0 if m == n else 0.0
        assert float(row["re_alpha"]) == pytest.approx(want, abs=1e-5)
        assert float(row["im_alpha"]) == 0.0
        assert float(row["re_beta"]) == pytest.approx(0.0, abs=1e-5)
        if (m + n) % 2 == 0:
            assert float(row["abs_alpha1"]) < 1e-8
            assert float(row["abs_beta1"]) < 1e-8
        assert row["closed_form_match_flag"] == "1"


def test_coeffs_closed_form_column(tmp_path, capsys):
    out_path = tmp_path / "coeffs.csv"
    run(["coeffs", "0.1", "--out", str(out_path)], capsys)
    _, _, body = read_csv(str(out_path))
    table = {(int(r["m"]), int(r["n"])): r for r in body}
    assert float(table[(2, 1)]["abs_alpha1"]) == pytest.approx(
        2 * math.sqrt(2) / math.pi ** 2, rel=1e-4)
    assert float(table[(2, 1)]["abs_beta1"]) == pytest.approx(
        2 * math.sqrt(2) / (27 * math.pi ** 2), rel=1e-4)


def test_coeffs_rejects_out_of_range(capsys):
    code, _, err = run(["coeffs", "2.5"], capsys)
    assert code == 2
    code, _, err = run(["coeffs", "0"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# validate

def test_validate_passes(capsys):
    code, out, _ = run(["validate"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    assert len(lines) >= 6


def test_validate_reports_each_check_once(capsys):
    _, out, _ = run(["validate"], capsys)
    names = [ln.split()[1] for ln in out.splitlines() if ln]
    assert len(names) == len(set(names))


def test_validate_truncated_basis_fails(capsys):
    code, out, _ = run(["validate", "--nmax", "4"], capsys)
    assert code == 5
    assert any(ln.startswith("FAIL") for ln in out.splitlines())


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


# ---------------------------------------------------------------------------
# installed entry point

def test_console_script_runs():
    # the child imports cavtel from this checkout, installed or not
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "cavtel.cli", "fidelity"],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0
    assert "F_opt_numeric" in proc.stdout
