"""The benchmark's correctness gate on the certify and trajectory workloads,
and the counters its tracer reads, in Tier-1."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pv5lab.cli import run

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench(name):
    """perfbench/<name>.py, loaded as a module without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_certify_workload_passes_the_benchmark_gate(tmp_path, capsys):
    gate, workloads = _perfbench("gate"), _perfbench("workloads")
    certify = workloads.WORKLOADS["certify"]
    out = tmp_path / "certify.json"
    assert run(certify.argv(workloads.REFERENCE_SEED, out)) == 0
    capsys.readouterr()
    with open(PERFBENCH / "reference" / "certify.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    verdict = gate.check_report(out, reference, certify.flag("--rel-tol"), same_seed=True)
    assert verdict.failed == 0 and verdict.problems == []
    assert verdict.margin_digits >= 56.11


def test_trajectory_workload_passes_the_benchmark_gate(tmp_path, capsys):
    gate, workloads = _perfbench("gate"), _perfbench("workloads")
    trajectory = workloads.WORKLOADS["trajectory"]
    out = tmp_path / "trajectory.csv"
    assert run(trajectory.argv(workloads.REFERENCE_SEED, out)) == 0
    capsys.readouterr()
    reference = gate.read_csv(PERFBENCH / "reference" / "trajectory.csv")
    verdict = gate.check_trajectory(out, reference, trajectory.flag("--ode-tol"))
    assert verdict.rows > 0
    assert verdict.failed == 0 and verdict.problems == []


#: the counters the benchmark records cite; each must count something
TRACED_COUNTERS = {
    "verify": ("quadrature.tables", "quadrature.nodes", "quadrature.integrals",
               "quadrature.fill_s", "orthopoly.builds", "ladder.computes",
               "ladder.ab_calls", "verify.rows_ok", "report.bytes"),
    "ode": ("quadrature.tables", "quadrature.nodes", "quadrature.integrals",
            "quadrature.fill_s", "orthopoly.builds", "ladder.computes", "ode.steps",
            "ode.integrate_s", "report.bytes"),
}

TRACED_ARGV = {
    "verify": ["verify", "--suite", "required", "--alpha", "1", "--k2", "0.25", "--t", "0.5",
               "--n-max", "3", "--bits", "128", "--rel-tol", "1e-20", "--z-count", "2"],
    "ode": ["ode", "--alpha", "1", "--k2", "0.04", "--n", "2", "--n-max", "2",
            "--t0", "0.5", "--t1", "0.5001", "--ode-tol", "1e-12", "--samples", "2",
            "--bits", "128", "--rel-tol", "1e-20"],
}


@pytest.mark.parametrize("command", sorted(TRACED_ARGV))
def test_tracer_counts_every_cited_layer(command, tmp_path):
    """``perfbench/tracer.py`` run on a small argv in its own process: the
    per-layer metrics it gives are positive for every counter the benchmark
    records cite.  The ODE's recorded right-hand side calls the traced
    closure only while recording, so ``ode.rhs_evals`` is only >= 1."""
    tracer = _perfbench("tracer")
    spans = tmp_path / "spans.json"
    out = tmp_path / ("report.json" if command == "verify" else "trajectory.csv")
    flag = "--out-json" if command == "verify" else "--out-csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), "--out", str(spans), "--run-id", "t",
         "--", *TRACED_ARGV[command], flag, str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(spans, encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics = tracer.layer_metrics(doc, 1.0, 0.0)
    missing = [name for name in TRACED_COUNTERS[command] if not metrics[name] > 0]
    assert missing == [], metrics
    if command == "ode":
        assert metrics["ode.rhs_evals"] >= 1
