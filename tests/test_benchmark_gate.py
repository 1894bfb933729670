"""The benchmark's correctness gate on the certify and trajectory workloads, in Tier-1."""

import importlib.util
import json
import sys
from pathlib import Path

from pv5lab.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
