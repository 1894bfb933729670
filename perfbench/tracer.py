"""Outside-in tracing of one pv5lab run, and the per-layer metrics it gives.

Run as a script, it imports pv5lab, wraps the public functions and methods
of each layer module in span recorders, runs ``pv5lab.cli.run`` on the argv
after ``--`` in this same process, and writes the spans and counters to a
JSON file when the run ends:

    python3 perfbench/tracer.py --out spans.json --run-id ID -- verify ...

Spans live in memory as [name, start, end, parent]; every span of one file
shares the file's run id.  A span's self time is its duration minus the
durations of its direct children (the program is single-threaded, so the
children are disjoint).  ``layer_metrics`` turns a span file into the
per-layer metrics; ``run.py`` calls it.

The wrappers exist only in the traced process; the timed pv5lab
processes never load them.
"""

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

#: the modules of src/pv5lab that do work; ``errors`` does none
LAYERS = ("model", "quadrature", "orthopoly", "ladder", "verify", "ode", "report", "cli")


class Tracer:
    """Span recorder plus the counters that spans alone cannot give."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = {"extensions": 0, "rhs_evals": 0, "report_bytes": 0,
                       "rows_ok": 0, "rows_skipped": 0, "rows_error": 0,
                       "steps": 0, "rejected": 0}
        self.tables = []
        self.states = {}  # id -> OrthoState returned by orthopoly.build

    def wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    # -- counting hooks, applied beneath the span wrapper ----------------
    def _hooked(self, name, fn):
        counts = self.counts
        if name == "quadrature.WeightTable.__init__":
            def hooked(table, *args, **kwargs):
                fn(table, *args, **kwargs)
                self.tables.append(table)
        elif name == "quadrature.WeightTable.raw_integral":
            def hooked(table, *args, **kwargs):
                before = table.nlevels
                out = fn(table, *args, **kwargs)
                counts["extensions"] += table.nlevels > before
                return out
        elif name == "orthopoly.build":
            def hooked(*args, **kwargs):
                state = fn(*args, **kwargs)
                self.states[id(state)] = state
                return state
        elif name == "ode.integrate_ivp":
            def hooked(*args, **kwargs):
                traj = fn(*args, **kwargs)
                counts["steps"] += traj.meta["steps"]
                counts["rejected"] += traj.meta["rejected"]
                return traj
        elif name == "ode.riccati_rhs":
            def hooked(*args, **kwargs):
                rhs = fn(*args, **kwargs)

                def counted(t, y):
                    counts["rhs_evals"] += 1
                    return rhs(t, y)
                return counted
        elif name == "verify.check_suite":
            def hooked(*args, **kwargs):
                reports = fn(*args, **kwargs)
                for rep in reports:
                    key = {"ok": "rows_ok", "skipped": "rows_skipped"}.get(rep.status, "rows_error")
                    counts[key] += 1
                return reports
        elif name == "report.emit_report":
            def hooked(reports, summary, path, *args, **kwargs):
                doc = fn(reports, summary, path, *args, **kwargs)
                with open(path, "rb") as fh:
                    counts["report_bytes"] += len(fh.read())
                return doc
        elif name == "report.csv_text":
            def hooked(*args, **kwargs):
                text = fn(*args, **kwargs)
                counts["report_bytes"] += len(text.encode("utf-8"))
                return text
        elif name == "report.checks_csv":
            def hooked(reports, bits, fh):
                start = fh.tell()
                fn(reports, bits, fh)
                counts["report_bytes"] += fh.tell() - start
        else:
            return fn
        return functools.wraps(fn)(hooked)

    def install(self):
        """Wrap every public function and method of each layer module.

        Modules that import a function by name (``from .model import
        v_prime``) hold their own binding, so every binding in every
        pv5lab module that refers to a wrapped function is replaced.
        """
        modules = {layer: importlib.import_module(f"pv5lab.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    span = f"{layer}.{name}"
                    replaced[id(obj)] = self.wrap(span, self._hooked(span, obj))
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        span = f"{layer}.{name}.{attr}"
                        counted = span == "quadrature.WeightTable.__init__"
                        if inspect.isfunction(fn) and (counted or not attr.startswith("_")):
                            setattr(obj, attr, self.wrap(span, self._hooked(span, fn)))
        for mod in [m for n, m in sys.modules.items() if n == "pv5lab" or n.startswith("pv5lab.")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, name, replaced[id(obj)])
        return modules["cli"]

    def document(self, exit_code):
        """The span file: spans, counters and end-of-run table and state data."""
        return {
            "run_id": self.run_id,
            "exit_code": exit_code,
            "counts": self.counts,
            "tables": {
                # the unwrapped method, so that reading the count adds no span
                "nodes": sum(type(t).node_count.__wrapped__(t) for t in self.tables),
                "level_max": max((t.nlevels - 1 for t in self.tables), default=0),
            },
            "state_levels": [s.level for s in self.states.values()],
            "spans": self.spans,
        }


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    out = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(doc, traced_wall_s, overhead_s):
    """Per-layer metrics from one span file.

    ``traced_wall_s`` is the spawn-to-exit wall time of the traced process,
    in the same unscaled seconds as the spans; ``overhead_s`` is the traced
    wall time minus the median untraced one of the same workload and seed,
    measured in the same benchmark run.  The eight
    ``<layer>`` self times (``model.s`` for model) sum to the duration of
    the ``cli.run`` span, and ``trace.outside_s`` is the rest of the traced
    wall time: interpreter start, imports, wrapping and the span file.
    """
    spans = doc["spans"]
    selfs = self_times(spans)
    by_name = {}
    inclusive = {}
    calls = {}
    for (name, start, end, _parent), own in zip(spans, selfs):
        by_name[name] = by_name.get(name, 0.0) + own
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def in_layer(table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    def named(table, *names):
        return sum(table.get(n, 0) for n in names)

    c = doc["counts"]
    levels = doc["state_levels"]
    traced_run = named(inclusive, "cli.run")
    steps = c["steps"]
    return {
        "quadrature.tables": named(calls, "quadrature.WeightTable.__init__"),
        "quadrature.nodes": doc["tables"]["nodes"],
        "quadrature.fill_s": named(by_name, "quadrature.WeightTable.ensure_levels"),
        "quadrature.integrals": named(calls, "quadrature.WeightTable.raw_integral"),
        "quadrature.integral_s": named(by_name, "quadrature.WeightTable.raw_integral"),
        "quadrature.extensions": c["extensions"],
        "quadrature.level_max": doc["tables"]["level_max"],
        "quadrature.freeze_s": named(by_name, "quadrature.WeightTable.freeze"),
        "quadrature.self_s": in_layer(by_name, "quadrature"),
        "orthopoly.builds": named(calls, "orthopoly.build"),
        "orthopoly.states": len(levels),
        "orthopoly.build_s": named(by_name, "orthopoly.build"),
        "orthopoly.self_s": in_layer(by_name, "orthopoly"),
        "orthopoly.level_mean": sum(levels) / len(levels) if levels else 0.0,
        "ladder.computes": named(calls, "ladder.compute"),
        "ladder.compute_s": named(inclusive, "ladder.compute"),
        "ladder.ab_calls": named(calls, "ladder.A_integral", "ladder.B_integral"),
        "ladder.ab_s": named(inclusive, "ladder.A_integral", "ladder.B_integral"),
        "ladder.self_s": in_layer(by_name, "ladder"),
        "verify.rows": c["rows_ok"] + c["rows_skipped"] + c["rows_error"],
        "verify.rows_ok": c["rows_ok"],
        "verify.rows_skipped": c["rows_skipped"],
        "verify.rows_error": c["rows_error"],
        "verify.self_s": in_layer(by_name, "verify"),
        "ode.integrate_s": named(by_name, "ode.integrate_ivp"),
        "ode.steps": steps,
        "ode.rejected": c["rejected"],
        "ode.rhs_evals": c["rhs_evals"],
        "ode.accept_ratio": steps / (steps + c["rejected"]) if steps else 0.0,
        "ode.self_s": in_layer(by_name, "ode"),
        "model.calls": in_layer(calls, "model"),
        "model.s": in_layer(by_name, "model"),
        "report.emit_s": named(inclusive, "report.emit_report", "report.checks_csv",
                               "report.csv_text"),
        "report.self_s": in_layer(by_name, "report"),
        "report.bytes": c["report_bytes"],
        "cli.self_s": in_layer(by_name, "cli"),
        "trace.spans": len(spans),
        "trace.wall_s": traced_wall_s,
        "trace.outside_s": traced_wall_s - traced_run,
        "trace.overhead_s": overhead_s,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="span file to write")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("pv5lab_argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    pv_argv = args.pv5lab_argv[1:] if args.pv5lab_argv[:1] == ["--"] else args.pv5lab_argv
    tracer = Tracer(args.run_id)
    cli = tracer.install()
    code = cli.run(pv_argv)
    doc = tracer.document(code)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
