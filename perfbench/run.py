"""Benchmark of the pv5lab command line, one fresh process per timed run.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 0

Run from anywhere; the program is the checkout's own ``src/pv5lab``, which
needs no build.  Each invocation is a fresh ``python3 -m pv5lab.cli``
process, so every run pays the interpreter start, the imports and the
node and state caches as a user does.  Invocations run one at a time, with
``PV5_THREADS`` unset.

With ``--trace 0`` the run measures set-up time (median of several
``pv5lab --help`` starts), then starts workload invocations until
``--seconds`` have passed, and reports the end-to-end
metrics: medians over the invocations that passed the correctness gate.
The host's speed drifts by more than the bounds, over seconds to minutes,
so every timing is scaled to a fixed reference speed: a calibration loop of
mpmath arithmetic, run in this process between invocations and, with the
invocation stopped, once a second during it, measures the speed as the
invocation goes (see ``calibrate`` and ``spawn_sliced``).
With ``--trace 1`` it takes the untraced median the same way, then runs
the workload once more under ``tracer.py`` and reports the per-layer
metrics.  Every invocation's output goes through ``gate.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; operations are
output rows, so ``failed / attempted`` is the failed-row fraction
``fail_frac``.  The lines before it give every metric with its unit and
sample count, the failed-row fraction and the environment.  The full
record, with every sample, is written under ``perfbench/out/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import mpmath
import mpmath.libmp

import gate
import tracer
from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "pv5lab"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

#: ``pv5lab --help`` starts per run, in batches; setup_s is their median
SETUP_BATCHES = 3
SETUP_STARTS = 5  # per batch

#: every invocation must end this many seconds after the run started
RUN_LIMIT_S = 170

#: iterations of one calibration pass; about 0.3 s at the reference speed
CAL_ITERATIONS = 15000

#: seconds a calibration pass takes at the reference speed (the median
#: measured on the 2-vCPU Xeon VM of baseline.json); timings are scaled to it
CAL_REF_S = 0.33

#: an invocation runs this long between two probes of the host's speed
SLICE_S = 1.0

#: iterations of one probe taken during an invocation; about 0.1 s
PROBE_ITERATIONS = 4500


def calibrate(iterations=CAL_ITERATIONS):
    """Seconds a full pass of a fixed loop of 256-bit mpmath arithmetic takes.

    The loop does the kind of work pv5lab does (pure-Python mpf products,
    quotients, square roots, exponentials and logarithms), with nothing of
    pv5lab in it, so its time moves only with the host's speed.  A shorter
    probe runs ``iterations`` of it and is scaled to a full pass.
    """
    ctx = mpmath.MPContext()
    ctx.prec = 256
    start = time.perf_counter()
    x = ctx.mpf(1) / 3
    s = ctx.mpf(0)
    for i in range(iterations):
        s += x * x / (i + 1)
        x = ctx.sqrt(x + 1)
        if i % 10 == 0:
            s += ctx.exp(-x) * ctx.log(x + i)
    return (time.perf_counter() - start) * CAL_ITERATIONS / iterations


def scaled(slices, cals):
    """Time at the reference speed of consecutive slices of wall time.

    ``cals`` holds one calibration more than ``slices``: the one before the
    first slice, those between slices and the one after the last.
    """
    return sum(d * CAL_REF_S / ((a + b) / 2) for d, a, b in zip(slices, cals, cals[1:]))


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PV5_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, env, log_path, timeout):
    """Run one child process; (wall seconds spawn to exit, exit code, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def spawn_sliced(argv, env, log_path, timeout):
    """Run one child, stopping it every ``SLICE_S`` seconds to probe the host's speed.

    Returns (wall seconds of each running slice, the probes taken between
    slices, exit code, peak RSS MB).  The child runs in a process group of
    its own, so the stop reaches every process it starts; the slices leave
    out the stops.
    """
    slices, probes = [], []
    with open(log_path, "wb") as log:
        deadline = time.perf_counter() + timeout
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        pidfd = os.pidfd_open(proc.pid)
        reaped = False
        try:
            while True:
                start = time.perf_counter()
                wait = max(0.0, min(SLICE_S, deadline - start))
                if select.select([pidfd], [], [], wait)[0]:
                    _pid, status, usage = os.wait4(proc.pid, 0)
                    reaped = True
                    slices.append(time.perf_counter() - start)
                    break
                stop = signal.SIGKILL if start + wait >= deadline else signal.SIGSTOP
                os.killpg(proc.pid, stop)
                _pid, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                slices.append(time.perf_counter() - start)
                if not os.WIFSTOPPED(status):
                    reaped = True  # killed, or it ended before the stop reached it
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGCONT)  # any process it left
                    break
                probes.append(calibrate(PROBE_ITERATIONS))
                os.killpg(proc.pid, signal.SIGCONT)
        finally:
            os.close(pidfd)
            if not reaped:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return slices, probes, proc.returncode, usage.ru_maxrss / 1024


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment(env):
    """What the numbers depend on, recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "PV5_THREADS": env.get("PV5_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


class Run:
    """One benchmark run of one workload: invocations, gate verdicts, samples."""

    def __init__(self, workload, seed, seconds, env):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.env = env
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = []  # dicts: wall_s, raw_wall_s, cal_s, rss_mb, exit_code, valid, margin_digits
        self.cal = None  # the latest calibration, the "before" of the next invocation
        self.setup_raw = []  # raw --help start times
        self.cal_log = []  # every calibration, in order
        self.out_path = OUT / f"{workload.name}.{workload.output}"
        self.log_path = OUT / f"{workload.name}.log"
        ref_path = REFERENCE / f"{workload.name}.{workload.output}"
        if workload.output == "json":
            with open(ref_path, encoding="utf-8") as fh:
                self.reference = json.load(fh)
        else:
            self.reference = gate.read_csv(ref_path)

    def elapsed(self):
        return time.perf_counter() - self.start

    def remaining(self):
        return RUN_LIMIT_S - self.elapsed()

    def calibrate(self):
        before, self.cal = self.cal, calibrate()
        self.cal_log.append(self.cal)
        return before, self.cal

    def setup_samples(self):
        """Scaled ``--help`` start times, and the raw ones."""
        argv = [sys.executable, "-m", "pv5lab.cli", "--help"]
        raw, out = [], []
        self.calibrate()
        for _ in range(SETUP_BATCHES):
            batch = []
            for _ in range(SETUP_STARTS):
                wall, code, _rss = spawn(argv, self.env, self.log_path, self.remaining())
                if code != 0:
                    raise SystemExit(f"perfbench: 'pv5lab --help' exited with {code}; "
                                     f"see {self.log_path}")
                batch.append(wall)
            # the starts are too short to calibrate one by one: scale them as a batch
            before, after = self.calibrate()
            out.extend(scaled([w], [before, after]) for w in batch)
            raw.extend(batch)
        return out, raw

    def invoke(self, prefix=("-m", "pv5lab.cli"), sliced=True):
        """One gated invocation of the workload; returns its sample.

        A traced invocation is not ``sliced``: its spans would count the stops.
        """
        self.out_path.unlink(missing_ok=True)
        argv = [sys.executable, *prefix, *self.w.argv(self.seed, self.out_path)]
        if sliced:
            slices, probes, code, rss = spawn_sliced(argv, self.env, self.log_path,
                                                     self.remaining())
        else:
            wall, code, rss = spawn(argv, self.env, self.log_path, self.remaining())
            slices, probes = [wall], []
        if self.w.output == "json":
            verdict = gate.check_report(self.out_path, self.reference,
                                        self.w.flag("--rel-tol"),
                                        same_seed=self.seed == REFERENCE_SEED)
        else:
            verdict = gate.check_trajectory(self.out_path, self.reference,
                                            self.w.flag("--ode-tol"))
        if code != 0:
            verdict.fail_all(f"exit code {code}; see {self.log_path}")
        self.attempted += verdict.rows
        self.failed += verdict.failed
        self.problems.extend(verdict.problems)
        before, after = self.calibrate()
        cals = [before, *probes, after]
        sample = {"wall_s": scaled(slices, cals), "raw_wall_s": sum(slices),
                  "cal_s": cals, "rss_mb": rss, "exit_code": code,
                  "valid": not verdict.problems and verdict.failed == 0,
                  "margin_digits": verdict.margin_digits}
        self.samples.append(sample)
        return sample

    def timed(self):
        """Invoke the workload while the run's seconds have not elapsed."""
        while True:
            self.invoke()
            if self.elapsed() >= self.seconds:
                return

    def valid(self, key):
        """Values of ``key`` over the valid samples (all samples if none is)."""
        chosen = [s for s in self.samples if s["valid"]] or self.samples
        return [s[key] for s in chosen]


def measure(workload, seed, seconds, trace, env):
    """One run; returns (run, metric values, sample counts)."""
    run = Run(workload, seed, seconds, env)
    # compile the bytecode once: users do not pay that on every start;
    # warm the calibration loop's constants (ln 2, pi, ...) the same way
    spawn([sys.executable, "-m", "pv5lab.cli", "--help"], env, run.log_path, run.remaining())
    calibrate()
    run.start = time.perf_counter()
    if not trace:
        setup, run.setup_raw = run.setup_samples()
        run.timed()
        walls = run.valid("wall_s")
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(run.valid("rss_mb")),
            "required_margin_digits": min(s["margin_digits"] for s in run.samples),
        }
        counts = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(walls)}
        return run, values, counts
    run.calibrate()
    run.timed()
    untraced = statistics.median(run.valid("wall_s"))
    spans_path = OUT / f"{workload.name}-spans.json"
    spans_path.unlink(missing_ok=True)
    run_id = f"{workload.name}-seed{seed}-{time.time_ns()}"
    traced = run.invoke(prefix=[str(HERE / "tracer.py"), "--out", str(spans_path),
                                "--run-id", run_id, "--"], sliced=False)
    if not spans_path.is_file():
        raise SystemExit(f"perfbench: the traced run wrote no spans; see {run.log_path}")
    with open(spans_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    # spans are unscaled seconds; the overhead compares times scaled alike
    values = tracer.layer_metrics(doc, traced["raw_wall_s"], traced["wall_s"] - untraced)
    # the overhead is taken against the median of the untraced invocations
    return run, values, {"trace.overhead_s": len(run.samples) - 1}


def emit(names, values, units):
    """Metric entries, in BENCHMARK.json order; every declared metric is required."""
    missing = [n for n in names if n not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {', '.join(missing)}")
    return {n: {"value": values[n], "unit": units[n]} for n in names}


def main(argv=None):
    ap = argparse.ArgumentParser(description="pv5lab command-line benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement window of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        print(f"perfbench: no pv5lab source at {SOURCE}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in section]
    units = {m["name"]: m["unit"] for m in section}
    OUT.mkdir(exist_ok=True)
    env = child_env()
    env_block = environment(env)
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        workload = WORKLOADS[name]
        run, values, counts = measure(workload, args.seed, args.seconds, args.trace, env)
        metrics = emit(names, values, units)
        record = {
            "workload": name,
            "seed": args.seed if workload.seeded else None,
            "argv": workload.argv(args.seed, "<out>"),
            "trace": args.trace,
            "seconds": args.seconds,
            "environment": env_block,
            "attempted": run.attempted,
            "failed": run.failed,
            "fail_frac": run.failed / run.attempted,
            "problems": run.problems,
            "samples": run.samples,
            "setup_raw_s": run.setup_raw,
            "cal_ref_s": CAL_REF_S,
            "sample_counts": counts,
            "metrics": metrics,
        }
        with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        seed_note = f"seed {args.seed}" if workload.seeded else "seed-free"
        print(f"== {name} ({seed_note}, trace {args.trace}, {len(run.samples)} invocations)")
        for metric, entry in metrics.items():
            count = counts.get(metric)
            note = f"  (median of {count})" if count else ""
            print(f"  {metric:26s} {entry['value']:.6g} {entry['unit']}{note}")
        if not args.trace:
            raw = statistics.median(run.valid("raw_wall_s"))
            print(f"  {'(unscaled wall_s)':26s} {raw:.6g} s  (median; host speed "
                  f"{CAL_REF_S / statistics.median(run.cal_log):.3g} of the reference)")
        print(f"  {'fail_frac':26s} {record['fail_frac']:.6g} ratio"
              f"  ({run.failed} of {run.attempted} rows)")
        for problem in run.problems[:5]:
            print(f"  gate: {problem}")
        print(f"  environment: {json.dumps(env_block)}")
        result["correct"] = result["correct"] and run.failed == 0 and not run.problems
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        prefix = f"{name}/" if len(chosen) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
