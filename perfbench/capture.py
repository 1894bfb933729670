"""Capture the reference outputs the correctness gate compares against.

    python3 perfbench/capture.py

Runs each workload once at the reference seed and stores its output under
``perfbench/reference/``: the report JSON without its ``timestamp``, or the
trajectory CSV as written.  Re-capturing changes what counts as correct, so
it belongs in a change that alters the benchmark, never in one that claims a
speed-up.
"""

import json
import shutil
import sys

from run import OUT, REFERENCE, child_env, spawn
from workloads import REFERENCE_SEED, WORKLOADS


def main():
    OUT.mkdir(exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    env = child_env()
    for w in WORKLOADS.values():
        out = OUT / f"capture-{w.name}.{w.output}"
        log = OUT / f"capture-{w.name}.log"
        argv = [sys.executable, "-m", "pv5lab.cli", *w.argv(REFERENCE_SEED, out)]
        wall, code, _rss = spawn(argv, env, log, timeout=600)
        if code != 0:
            raise SystemExit(f"{w.name}: exit code {code}; see {log}")
        target = REFERENCE / f"{w.name}.{w.output}"
        if w.output == "json":
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc["summary"]["required_pass"] is not True:
                raise SystemExit(f"{w.name}: REQUIRED checks fail; no reference written")
            del doc["timestamp"]
            with open(target, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
        else:
            shutil.copyfile(out, target)
        print(f"{w.name}: {wall:.2f} s -> {target.relative_to(REFERENCE.parent.parent)}")


if __name__ == "__main__":
    main()
