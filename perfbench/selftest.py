"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, in about two minutes:

* the correctness gate passes the reference outputs and rejects a wrong
  REQUIRED residual, a value off the reference, a changed row key and a
  missing row;
* every workload BENCHMARK.json lists is defined in ``workloads.py``;
* for every workload, a short run with ``--trace 0`` emits exactly the
  ``end_to_end`` metrics of BENCHMARK.json and one with ``--trace 1``
  exactly the ``per_layer`` metrics, each with its declared unit, with no
  failed row;
* the traced layer self times plus ``trace.outside_s`` add up to
  ``trace.wall_s``;
* without the program's source next to it, the benchmark exits non-zero
  and prints no result.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from decimal import Decimal

import gate
from run import OUT, REFERENCE, ROOT
from workloads import WORKLOADS

#: the per-layer self times that partition the traced ``cli.run`` span
LAYER_SELF = ("quadrature.self_s", "orthopoly.self_s", "ladder.self_s", "verify.self_s",
              "ode.self_s", "model.s", "report.self_s", "cli.self_s")


def fails(verdict):
    return verdict.failed > 0 or bool(verdict.problems)


def check_gate():
    OUT.mkdir(exist_ok=True)
    ref = json.loads((REFERENCE / "certify.json").read_text(encoding="utf-8"))
    rel_tol = WORKLOADS["certify"].flag("--rel-tol")
    path = OUT / "selftest-report.json"

    def verdict(doc, same_seed=True):
        path.write_text(json.dumps(doc), encoding="utf-8")
        return gate.check_report(path, ref, rel_tol, same_seed)

    good = verdict(ref)
    assert not fails(good), good.problems
    assert good.margin_digits < gate.PRECISION_DIGITS

    doc = copy.deepcopy(ref)
    doc["checks"][0]["residual"] = "1e-5"  # S1_FUNC, tolerance 1e-15
    assert fails(verdict(doc)), "a REQUIRED residual above tolerance passed"

    sweep = json.loads((REFERENCE / "t-sweep.json").read_text(encoding="utf-8"))
    path.write_text(json.dumps(sweep), encoding="utf-8")
    assert not fails(gate.check_report(path, sweep, rel_tol, same_seed=False))
    row = next(r for r in sweep["checks"] if r["id"] == "YJ4")
    row["residual"] = str(Decimal(row["residual"]) + Decimal("1e-30"))
    path.write_text(json.dumps(sweep), encoding="utf-8")
    sweep_ref = json.loads((REFERENCE / "t-sweep.json").read_text(encoding="utf-8"))
    assert fails(gate.check_report(path, sweep_ref, rel_tol, same_seed=False)), \
        "a z-free diagnostic value off the reference passed"

    doc = copy.deepcopy(ref)
    doc["checks"][5]["n"] += 1
    assert fails(verdict(doc)), "a changed row key passed"

    doc = copy.deepcopy(ref)
    doc["checks"].pop()
    assert verdict(doc).failed == len(ref["checks"]), "a missing row did not fail the run"

    table = gate.read_csv(REFERENCE / "trajectory.csv")
    ode_tol = WORKLOADS["trajectory"].flag("--ode-tol")
    csv_path = OUT / "selftest-trajectory.csv"
    csv_path.write_text("\n".join(",".join(r) for r in table) + "\n", encoding="utf-8")
    assert not fails(gate.check_trajectory(csv_path, table, ode_tol))
    table[3][1] = str(Decimal(table[3][1]) * (1 + Decimal("1e-12")))
    csv_path.write_text("\n".join(",".join(r) for r in table) + "\n", encoding="utf-8")
    assert fails(gate.check_trajectory(csv_path, gate.read_csv(REFERENCE / "trajectory.csv"),
                                       ode_tol)), "a trajectory value off the reference passed"
    print("gate: ok")


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {w["name"] for w in spec["workloads"]}
    assert listed <= set(WORKLOADS), f"not in workloads.py: {sorted(listed - set(WORKLOADS))}"
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, name, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                proc.stdout
            declared = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, f"{name} trace {trace}: {sorted(set(got) ^ set(declared))}"
            values = {k: v["value"] for k, v in result["metrics"].items()}
            assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
            if trace:
                parts = sum(values[k] for k in LAYER_SELF) + values["trace.outside_s"]
                assert math.isclose(parts, values["trace.wall_s"], rel_tol=1e-6), \
                    (parts, values["trace.wall_s"])
                # the process lives longer than its cli.run span
                assert values["trace.outside_s"] > 0, values["trace.outside_s"]
            else:
                assert all(v > 0 for v in values.values()), values
            print(f"{name} trace {trace}: {len(values)} metrics ok")


def check_without_source():
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(bare, "certify", 0)
    shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode != 0 and not (lines and lines[-1].startswith("{")), proc.stdout
    print(f"without source: exit {proc.returncode}, no result")


if __name__ == "__main__":
    check_gate()
    check_without_source()
    check_metrics()
    print("selftest: ok")
