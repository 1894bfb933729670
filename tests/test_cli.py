"""CLI contract: exit codes, CSV/JSON schemas, determinism, round trips."""

import csv
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

import pv5lab
from pv5lab.cli import _t_grid, build_parser, run
from pv5lab.report import SCHEMA, load_report

ROW_KEYS = ["id", "tier", "n", "t", "z", "residual", "pass"]
ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moments_trivial_row(capsys):
    code, out, _ = _run(capsys, "moments", "--alpha", "0", "--k2", "-1",
                        "--t", "0", "--n-max", "1", "--bits", "128",
                        "--rel-tol", "1e-18")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["j", "mu_j"]
    assert abs(mp.mpf(rows[1][1]) - 2) < mp.mpf("1e-15")
    assert mp.mpf(rows[2][1]) == 0  # odd moment exact zero


def test_moments_report_the_requested_n_max(capsys, tmp_path):
    # the params block used to carry n_max = 1, the floor validate asks for
    out_json = tmp_path / "moments.json"
    code, out, _ = _run(capsys, "moments", "--alpha", "0", "--k2", "-1", "--t", "0",
                        "--n-max", "0", "--bits", "128", "--rel-tol", "1e-18",
                        "--out-json", str(out_json))
    assert code == 0
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["j", "0"]
    assert json.loads(out_json.read_text())["params"]["n_max"] == 0


@pytest.mark.parametrize("command", ["verify", "pv-residual"])
def test_grid_commands_document_their_default_t(command, capsys):
    # the --t help used to say "(default 0.5)"; without --t these commands run the grid
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "default 0.5" not in text
    assert "12-point log grid from 0.05 to 1.0" in text


@pytest.mark.parametrize("command", ["moments", "recurrence", "ladder"])
def test_single_t_commands_document_their_default_t(command, capsys):
    with pytest.raises(SystemExit):
        run([command, "--help"])
    assert "deformation time (default 0.5)" in " ".join(capsys.readouterr().out.split())


def test_recurrence_and_ladder_tables(capsys, tmp_path):
    code, out, _ = _run(capsys, "recurrence", "--alpha", "1", "--k2", "-1",
                        "--t", "0", "--n-max", "2", "--bits", "128",
                        "--rel-tol", "1e-18")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "h_n", "beta_n", "p_n"]
    assert abs(mp.mpf(rows[2][2]) - mp.mpf(1) / 5) < mp.mpf("1e-12")

    out_csv = tmp_path / "ladder.csv"
    code, _, _ = _run(capsys, "ladder", "--alpha", "1", "--k2", "-1", "--t", "0",
                      "--n-max", "1", "--bits", "128", "--rel-tol", "1e-18",
                      "--out-csv", str(out_csv))
    assert code == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["n", "R_n", "r_n", "a_n", "b_n"]
    assert abs(mp.mpf(rows[1][3]) - 3) < mp.mpf("1e-12")


def test_recurrence_refines_past_a_level_that_loses_a_norm(capsys, tmp_path):
    # the first level loses h_67, and finer levels compute every degree
    out_csv = tmp_path / "rec90.csv"
    code, _, err = _run(capsys, "recurrence", "--alpha", "1", "--k2", "-0.5", "--t", "0.1",
                        "--n-max", "90", "--bits", "256", "--out-csv", str(out_csv))
    assert code == 0, err
    rows = list(csv.reader(out_csv.open()))
    assert [row[0] for row in rows[1:]] == [str(n) for n in range(91)]
    assert all(mp.mpf(row[1]) > 0 for row in rows[1:])


def test_verify_required_suite_exit_zero(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code, _, err = _run(capsys, "verify", "--alpha", "1", "--k2", "0.25",
                        "--t", "0.5", "--n-max", "3", "--bits", "160",
                        "--rel-tol", "1e-25", "--suite", "required",
                        "--z-count", "4", "--out-json", str(out_json))
    assert code == 0, err
    doc = json.loads(out_json.read_text())
    assert doc["schema"] == SCHEMA
    assert doc["summary"]["required_pass"] is True
    assert doc["checks"], "no checks emitted"
    for row in doc["checks"]:
        assert list(row.keys()) == ROW_KEYS


def test_verify_k2_zero_diagnostic_exits_two(capsys):
    code, _, err = _run(capsys, "verify", "--alpha", "1", "--k2", "0",
                        "--t", "0.5", "--n-max", "3", "--bits", "160",
                        "--rel-tol", "1e-25", "--suite", "diagnostic")
    assert code == 2
    # the offending checks are named
    assert "PV_PHI" in err and "BETA_EXPR" in err


def test_verify_conflicting_t_flags_exit_two(capsys):
    code, _, err = _run(capsys, "verify", "--alpha", "1", "--k2", "0.25",
                        "--t", "0.5", "--t-start", "0.1", "--t-stop", "1",
                        "--t-count", "3")
    assert code == 2


def test_verify_rejects_bad_params(capsys):
    code, _, err = _run(capsys, "verify", "--alpha", "1", "--k2", "1.5",
                        "--t", "0.5")
    assert code == 2
    assert "k2" in err


def test_verify_determinism_modulo_timestamp(capsys, tmp_path):
    argv = ["verify", "--alpha", "1", "--k2", "0.25", "--t", "0.5",
            "--n-max", "3", "--bits", "160", "--rel-tol", "1e-25",
            "--suite", "all", "--z-count", "3", "--seed", "11"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(capsys, *argv, "--out-json", str(p1))[0] == 0
    assert _run(capsys, *argv, "--out-json", str(p2))[0] == 0
    pat = re.compile(rb'"timestamp": "[^"]*"')
    b1 = pat.sub(b'"timestamp": "X"', p1.read_bytes())
    b2 = pat.sub(b'"timestamp": "X"', p2.read_bytes())
    assert b1 == b2


def test_report_roundtrip_preserves_residuals(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    argv = ["verify", "--alpha", "1", "--k2", "-0.5", "--t", "0.5",
            "--n-max", "2", "--bits", "160", "--rel-tol", "1e-25",
            "--suite", "required", "--z-count", "2",
            "--out-json", str(out_json)]
    assert _run(capsys, *argv)[0] == 0
    doc1 = load_report(out_json, bits=160)
    doc2 = load_report(out_json, bits=160)
    v1 = [r.get("residual_value") for r in doc1["checks"]]
    v2 = [r.get("residual_value") for r in doc2["checks"]]
    assert v1 == v2 and any(v is not None for v in v1)


def test_verify_csv_table(capsys, tmp_path):
    out_csv = tmp_path / "checks.csv"
    argv = ["verify", "--alpha", "1", "--k2", "-0.5", "--t", "0.5",
            "--n-max", "2", "--bits", "160", "--rel-tol", "1e-25",
            "--suite", "required", "--z-count", "2", "--out-csv", str(out_csv)]
    assert _run(capsys, *argv)[0] == 0
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ROW_KEYS
    assert len(rows) > 1


def test_pv_residual_trajectory_schema(capsys, tmp_path):
    out_csv = tmp_path / "pv.csv"
    code, _, err = _run(capsys, "pv-residual", "--alpha", "1", "--k2", "-0.5",
                        "--n", "1", "--n-max", "2", "--bits", "160",
                        "--rel-tol", "1e-25", "--t-start", "0.4", "--t-stop", "0.6",
                        "--t-count", "2", "--t-spacing", "linear",
                        "--out-csv", str(out_csv))
    assert code == 0, err
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["t", "R_n", "r_n", "beta_n", "phi_n", "pv_residual"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert all(mp.isfinite(mp.mpf(cell)) for cell in row)


@pytest.mark.parametrize("k2, code", [("-0.5", 0), ("0", 2)], ids=["grid", "refused"])
def test_pv_residual_is_the_same_on_one_cpu_and_two(capsys, monkeypatch, tmp_path, k2, code):
    """pv-residual deals its t grid out over the usable CPUs: the CSV, or
    the refusal of a k2 = 0 grid, is that of one process."""
    from pv5lab import verify

    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_cpu_count", lambda cpus=cpus: cpus)
        out_csv = tmp_path / f"pv-{cpus}.csv"
        got, _, err = _run(capsys, "pv-residual", "--alpha", "1", "--k2", k2,
                           "--n", "1", "--n-max", "2", "--bits", "160",
                           "--rel-tol", "1e-25", "--t-start", "0.4", "--t-stop", "0.6",
                           "--t-count", "3", "--t-spacing", "linear",
                           "--out-csv", str(out_csv))
        runs[cpus] = (got, err, out_csv.read_text() if out_csv.exists() else None)
    assert runs[1] == runs[2]
    assert runs[1][0] == code, runs[1][1]
    if code == 0:
        assert len(runs[1][2].splitlines()) == 4


def test_ode_trajectory_csv(capsys, tmp_path):
    out_csv = tmp_path / "traj.csv"
    code, _, err = _run(capsys, "ode", "--alpha", "1", "--k2", "0.04",
                        "--n", "2", "--t0", "0.5", "--t1", "0.52",
                        "--n-max", "3", "--bits", "160", "--rel-tol", "1e-25",
                        "--samples", "4", "--out-csv", str(out_csv))
    assert code == 0, err
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["t", "R_n", "r_n", "beta_n", "phi_n", "pv_residual"]
    assert len(rows) == 5


def test_ode_singularity_exit_three(capsys, tmp_path):
    code, _, err = _run(capsys, "ode", "--alpha", "1", "--k2", "0.04",
                        "--n", "2", "--t0", "0.5", "--t1", "1.0",
                        "--n-max", "3", "--bits", "160", "--rel-tol", "1e-25",
                        "--out-csv", str(tmp_path / "t.csv"))
    assert code == 3
    assert "numerical failure" in err


def test_log_grid_requires_positive_start(capsys):
    code, _, err = _run(capsys, "verify", "--alpha", "1", "--k2", "0.25",
                        "--t-start", "0", "--t-stop", "1", "--t-count", "3",
                        "--t-spacing", "log")
    assert code == 2


def _no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a weight table was built")
    monkeypatch.setattr(pv5lab.quadrature.WeightTable, "__init__", refuse)


def test_log_grid_refuses_stop_at_or_below_zero(capsys, monkeypatch):
    # --t-stop -0.5 used to die in mp.mpf on a complex grid ratio (a
    # TypeError traceback, exit 1); --t-stop 0 ran the grid (0.5, 0, 0) and
    # exited 1 with required_pass=False
    _no_quadrature(monkeypatch)
    for command, extra in (("verify", ()), ("pv-residual", ("--n", "1"))):
        for stop in ("-0.5", "0"):
            code, _, err = _run(capsys, command, *extra, "--alpha", "1", "--k2", "-0.5",
                                "--t-start", "0.5", "--t-stop", stop, "--t-count", "3",
                                "--t-spacing", "log", "--n-max", "2", "--bits", "128",
                                "--rel-tol", "1e-18")
            assert code == 2, (command, stop)
            assert "t stop > 0" in err


def test_verify_refuses_ladder_ineligible_params(capsys, monkeypatch):
    # alpha = 0, or a grid point t = 0 with k2 >= 0, used to write every row
    # as "ERROR: LadderIneligible" and exit 1, where ladder exits 2
    _no_quadrature(monkeypatch)
    argv = ["verify", "--suite", "required", "--n-max", "2", "--bits", "128",
            "--rel-tol", "1e-18", "--z-count", "2"]
    for case in (("--alpha", "0", "--k2", "0.25", "--t", "0.5"),
                 ("--alpha", "1", "--k2", "0.25", "--t", "0"),
                 ("--alpha", "1", "--k2", "0", "--t-start", "0", "--t-stop", "1",
                  "--t-count", "3", "--t-spacing", "linear")):
        code, _, err = _run(capsys, *argv, *case)
        assert code == 2, case
        assert "ladder quantities need alpha > 0, and k2 < 0 at t = 0" in err


@pytest.mark.parametrize("flags, message", [
    (("--bits", "128", "--rel-tol", "1e-80"),
     "rel_tol=1e-80 below the floor 2^(-bits+16) for bits=128"),
    (("--max-level", "40",), "max_level must be in [4, 16], got 40"),
    (("--bits", "32",), "precision_bits must be an integer >= 64, got 32"),
], ids=["rel-tol", "max-level", "bits"])
def test_precision_flags_are_refused_before_quadrature(flags, message, capsys, monkeypatch):
    # validate checks --bits, --rel-tol and --max-level together
    _no_quadrature(monkeypatch)
    code, out, err = _run(capsys, "ladder", "--alpha", "1", "--k2", "0.25", "--t", "0.5",
                          "--n-max", "4", *flags)
    assert code == 2
    assert out == ""
    assert err == f"pv5lab: configuration error: {message}\n"


def test_infinite_rel_tol_is_refused_before_quadrature(capsys, monkeypatch):
    # it used to exit 0 with 38 digits, of which only about 15 agreed with
    # the --rel-tol 1e-20 run
    _no_quadrature(monkeypatch)
    code, out, err = _run(capsys, "ladder", "--alpha", "1", "--k2", "0.25", "--t", "0.5",
                          "--n-max", "2", "--bits", "128", "--rel-tol", "inf")
    assert code == 2
    assert out == ""
    assert err == "pv5lab: configuration error: rel_tol must be a real number below 1, got inf\n"


def test_ladder_and_ode_refuse_ladder_ineligible_params_before_quadrature(capsys, monkeypatch):
    # ladder.state_at used to build the weight table and the Stieltjes
    # passes before ladder.compute refused alpha = 0
    _no_quadrature(monkeypatch)
    for argv in (("ladder", "--alpha", "0", "--k2", "0.25", "--t", "0.5", "--n-max", "8"),
                 ("ode", "--alpha", "0", "--k2", "0.04", "--n", "2", "--n-max", "2",
                  "--t0", "0.5", "--t1", "0.54")):
        code, _, err = _run(capsys, *argv)
        assert code == 2, argv[0]
        assert "ladder quantities need alpha > 0, and k2 < 0 at t = 0" in err


def test_ode_refuses_dynamics_before_quadrature(capsys, monkeypatch):
    # k2 = 0 and t0 = 0 used to build a table and its ladder for the seed
    # before integrate_riccati refused them
    _no_quadrature(monkeypatch)
    argv = ["ode", "--alpha", "1", "--n", "2", "--n-max", "2", "--bits", "128",
            "--rel-tol", "1e-20"]
    for case, message in ((("--k2", "0", "--t0", "0.5", "--t1", "0.52"), "need k2 != 0"),
                          (("--k2", "-0.5", "--t0", "0", "--t1", "0.02"),
                           "t0 must be positive")):
        code, _, err = _run(capsys, *argv, *case)
        assert code == 2, case
        assert message in err


@pytest.mark.parametrize("flags", [("--t-stop", "1"), ("--t-count", "5"),
                                   ("--t-spacing", "log"),
                                   ("--t-stop", "1", "--t-count", "5",
                                    "--t-spacing", "linear")],
                         ids=["stop", "count", "spacing", "grid"])
def test_grid_flags_beside_t_are_refused(flags, capsys, monkeypatch):
    # --t used to win silently over --t-stop, --t-count and --t-spacing:
    # one row at t = 0.5 and exit 0 (--t-start beside --t was refused already)
    _no_quadrature(monkeypatch)
    code, out, err = _run(capsys, "pv-residual", "--alpha", "1", "--k2", "0.09", "--n", "2",
                          "--n-max", "2", "--bits", "128", "--rel-tol", "1e-20",
                          "--t", "0.5", *flags)
    assert code == 2
    assert out == "" and "not both" in err


def _grid(*flags):
    return _t_grid(build_parser().parse_args(
        ["verify", "--alpha", "1", "--k2", "0.25", *flags]))


def test_default_t_grid_is_twelve_log_spaced_points():
    grid = _grid()
    assert len(grid) == 12
    with mp.workprec(256 + 64):  # the grid's precision at the default --bits
        assert grid[0] == mp.mpf("0.05")
        assert abs(grid[-1] - 1) < mp.mpf(2) ** -300
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) - min(ratios) < mp.mpf(2) ** -300
        assert abs(ratios[0] ** 11 - 20) < mp.mpf(2) ** -290


@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_one_point_t_grid_is_its_start(spacing):
    grid = _grid("--t-start", "0.3", "--t-count", "1", "--t-spacing", spacing)
    with mp.workprec(256 + 64):
        assert grid == (mp.mpf("0.3"),)


def test_t_grid_refuses_a_count_below_one(capsys, monkeypatch):
    _no_quadrature(monkeypatch)
    code, _, err = _run(capsys, "verify", "--alpha", "1", "--k2", "0.25", "--t-count", "0")
    assert code == 2
    assert "count must be >= 1" in err


def test_moments_refuse_a_negative_n_max(capsys):
    code, out, err = _run(capsys, "moments", "--alpha", "0", "--k2", "-1",
                          "--n-max", "-1")
    assert code == 2
    assert out == "" and "--n-max >= 0" in err


def _env():
    """This environment with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point_exits_with_the_run_code():
    proc = subprocess.run(
        [sys.executable, "-m", "pv5lab.cli", "moments", "--alpha", "0", "--k2", "-1",
         "--n-max", "-1"], env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr


def test_ode_does_not_take_t(capsys, monkeypatch):
    # ode runs from --t0 to --t1; it used to accept --t, never read it, and exit 0
    _no_quadrature(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run(["ode", "--alpha", "1", "--k2", "0.04", "--n", "2", "--n-max", "2",
             "--t0", "0.5", "--t1", "0.5001", "--bits", "128", "--rel-tol", "1e-25",
             "--samples", "2", "--t", "7.5"])
    assert exc.value.code == 2
    assert "--t" in capsys.readouterr().err


def test_verify_rejects_degrees_outside_n_max(capsys):
    # a degree above n_max used to drop every row and report "0 checks" with exit 0
    code, _, err = _run(capsys, "verify", "--alpha", "1", "--k2", "0.25",
                        "--t", "0.5", "--n-max", "4", "--bits", "128",
                        "--rel-tol", "1e-18", "--n-set", "2", "20", "-1")
    assert code == 2
    assert "[-1, 20]" in err


def test_verify_rejects_zero_z_count(capsys):
    # no z samples used to drop the seven z-sampled REQUIRED identities silently
    code, _, err = _run(capsys, "verify", "--alpha", "1", "--k2", "0.25",
                        "--t", "0.5", "--n-max", "2", "--bits", "128",
                        "--rel-tol", "1e-18", "--z-count", "0")
    assert code == 2
    assert "--z-count" in err


def test_ode_rejects_span_inside_stencil_margins(capsys, tmp_path):
    # samples keep 2h from each end; below 4h they used to run backwards
    argv = ["ode", "--alpha", "1", "--k2", "0.04", "--n", "2", "--n-max", "2",
            "--bits", "128", "--rel-tol", "1e-25", "--out-csv", str(tmp_path / "t.csv")]
    for t0, t1 in (("0.5", "0.500003"), ("0.500002", "0.5"), ("0.5", "0.5")):
        code, _, err = _run(capsys, *argv, "--t0", t0, "--t1", t1)
        assert code == 2, (t0, t1)
        assert "4h = 4.0e-6" in err
    assert not (tmp_path / "t.csv").exists()


def test_ode_rejects_degree_outside_n_max(capsys, tmp_path):
    # n above n_max used to fill a table first and then exit 2 with
    # "tuple index out of range"
    out_csv = tmp_path / "t.csv"
    for n in ("3", "0", "-1"):
        code, _, err = _run(capsys, "ode", "--alpha", "1", "--k2", "0.04", "--n", n,
                            "--n-max", "2", "--t0", "0.5", "--t1", "0.54",
                            "--bits", "128", "--rel-tol", "1e-25",
                            "--out-csv", str(out_csv))
        assert code == 2, n
        assert "outside 1..n_max = 1..2" in err, err
    assert not out_csv.exists()


def test_verify_refuses_t_grid_reaching_below_zero(capsys, tmp_path):
    # only the first grid point used to be validated: the run went on to
    # t = -0.5 and reported REQUIRED failures there with exit 1
    out_json = tmp_path / "report.json"
    code, _, err = _run(capsys, "verify", "--suite", "required", "--alpha", "1",
                        "--k2", "-0.5", "--t-start", "0.5", "--t-stop", "-0.5",
                        "--t-count", "3", "--t-spacing", "linear", "--n-max", "2",
                        "--bits", "128", "--rel-tol", "1e-18", "--z-count", "2",
                        "--out-json", str(out_json))
    assert code == 2
    assert "t must be >= 0" in err
    assert not out_json.exists()


def test_ode_rejects_fewer_than_two_samples(capsys, tmp_path):
    # a count below 2 used to be raised to 2 silently, with exit 0
    out_csv = tmp_path / "t.csv"
    for samples in ("1", "0", "-3"):
        code, _, err = _run(capsys, "ode", "--alpha", "1", "--k2", "0.04", "--n", "2",
                            "--n-max", "2", "--t0", "0.5", "--t1", "0.52",
                            "--bits", "128", "--rel-tol", "1e-25",
                            "--samples", samples, "--out-csv", str(out_csv))
        assert code == 2, samples
        assert "--samples" in err
    assert not out_csv.exists()


def test_ode_refuses_non_finite_or_non_positive_tolerance(capsys, tmp_path, monkeypatch):
    # nan and inf used to run the quadrature and then die in the step
    # control with "ValueError: negative shift count" (exit 1)
    _no_quadrature(monkeypatch)
    out_csv = tmp_path / "t.csv"
    for tol in ("nan", "inf", "0", "-1e-18"):
        code, _, err = _run(capsys, "ode", "--alpha", "1", "--k2", "0.04", "--n", "2",
                            "--n-max", "2", "--t0", "0.5", "--t1", "0.54",
                            "--bits", "128", "--rel-tol", "1e-25",
                            f"--ode-tol={tol}", "--out-csv", str(out_csv))
        assert code == 2, tol
        assert "--ode-tol must be finite and positive" in err
    assert not out_csv.exists()


def test_verify_names_suite_identities_without_rows(capsys):
    argv = ["verify", "--suite", "required", "--alpha", "1", "--k2", "0.25",
            "--t", "0.5", "--n-max", "2", "--bits", "128", "--rel-tol", "1e-18",
            "--z-count", "2"]
    # degree 0 lies below the range of nine REQUIRED identities
    code, _, err = _run(capsys, *argv, "--n-set", "0")
    assert code == 0, err
    named = err.split("no row for ", 1)[1].split()
    assert named == ["S2_FUNC", "S2P_FUNC", "LOWER_FUNC", "RAISE_FUNC", "B_FORM",
                     "BETA_ROUTES", "TELE_BETA", "DBETA", "DP"]
    # every identity writes a row: the summary line carries no such clause
    code, _, err = _run(capsys, *argv)
    assert code == 0, err
    assert "no row for" not in err


#: the modules that do numerical work
_NUMERICAL = {"mpmath"} | {f"pv5lab.{name}" for name in (
    "model", "quadrature", "orthopoly", "ladder", "verify", "ode", "fixedpoint", "report")}

#: ``python -m pv5lab.cli`` as runpy runs it, then the names of every loaded
#: module on the last line of stderr; a forked verify worker ends in
#: os._exit and writes nothing
_LOADED = """
import runpy, sys
try:
    runpy.run_module("pv5lab.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\nloaded: " + " ".join(sorted(sys.modules)) + "\\n")
"""


def _loaded(*argv):
    """(exit code, the modules loaded) of a fresh ``pv5lab *argv`` process.

    Read from sys.modules at exit: ``-X importtime`` does not report a
    submodule that ``from . import name`` loads, since that path runs in
    importlib's Python code.
    """
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=_env(),
                          capture_output=True, text=True, timeout=300)
    last = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1]
    assert last.startswith("loaded: "), proc.stderr
    return proc.returncode, set(last.split()[1:])


def _workload(name, out):
    """The argv of the benchmark workload ``name`` at its reference seed."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS[name].argv(workloads.REFERENCE_SEED, out)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["verify", "--help"], 0),
    (["verify", "--alpha", "1"], 2),  # --k2 missing: a usage error
], ids=["help", "verify-help", "usage-error"])
def test_parsing_loads_no_numerical_module(argv, code):
    got, loaded = _loaded(*argv)
    assert got == code
    assert "pv5lab.errors" in loaded  # the cli module ran
    assert loaded & _NUMERICAL == set()


def test_ode_command_does_not_load_verify(tmp_path):
    code, loaded = _loaded(*_workload("trajectory", tmp_path / "trajectory.csv"))
    assert code == 0
    assert {"pv5lab.ode", "pv5lab.fixedpoint", "pv5lab.report"} <= loaded
    assert "pv5lab.verify" not in loaded


def test_verify_command_loads_neither_ode_nor_fixedpoint(tmp_path):
    code, loaded = _loaded(*_workload("certify", tmp_path / "certify.json"))
    assert code == 0
    assert {"pv5lab.verify", "pv5lab.report"} <= loaded
    assert loaded & {"pv5lab.ode", "pv5lab.fixedpoint"} == set()


#: every public name of the package, by the module that defines it
_PUBLIC = {
    "errors": ["AlphaOutOfRange", "DomainError", "K2OutOfRange", "LadderIneligible",
               "NegativeT", "NoConvergence", "NumericalError", "ParameterError",
               "PoleError", "PoleHit", "PrecisionExhausted", "Pv5LabError",
               "SingularParams", "StepUnderflow"],
    "ladder": ["A_integral", "B_integral", "LadderState", "compute", "point_values"],
    "model": ["ModelParams", "dd_quotient", "support", "v_prime", "v_second", "validate",
              "weight"],
    "ode": ["Trajectory", "crosscheck", "integrate_ivp", "integrate_pv",
            "integrate_riccati", "pv_initial", "riccati_initial"],
    "orthopoly": ["OrthoState", "build", "monic_values", "orthogonality_residual"],
    "quadrature": ["IntegralResult", "WeightTable", "integrate", "moment"],
    "report": ["summarize"],
    "verify": ["IdentityId", "IdentityReport", "Tier", "check", "check_suite",
               "factor_split", "sample_points"],
}


def test_package_resolves_every_public_name_to_its_module():
    listed = dir(pv5lab)
    for module, names in _PUBLIC.items():
        mod = importlib.import_module(f"pv5lab.{module}")
        assert getattr(pv5lab, module) is mod
        for name in names:
            assert getattr(pv5lab, name) is getattr(mod, name), name
            assert name in listed, name
    assert pv5lab.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pv5lab.no_such_name  # noqa: B018
    # in a fresh process the import loads no submodule, and a submodule resolves by name
    code = ("import sys, pv5lab\n"
            "assert [m for m in sys.modules if m.startswith('pv5lab.')] == []\n"
            "assert pv5lab.quadrature.moment is pv5lab.moment\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
