"""Benchmark of the schubres CLI: restrict, table and verify workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload restrict --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own interpreter, and prints every report.

Each workload runs in one fresh interpreter with one closed-loop client
and no threads: the next operation starts when the previous one returns.
An operation is one ``schubres.cli.main(argv)`` call on inputs made from
``--seed``; its output is checked after its time is taken.  A pass runs
the workload's fixed list of operations; passes repeat while the next one
would still end within ``--seconds``, and at least one runs.  Before every
pass the ``schubres`` modules are dropped and imported again, so every
pass starts from the same cold state.  That matters for ``restrict``:
``tau_typea`` reuses the process-wide, ``lru_cache``d ``root_system``, so
the type A queries of a pass are not independent of each other (the chain
and Billey routes build a fresh root system per query, as a CLI user
pays).

Times are taken under the ``SpeedProbe`` of ``speed.py`` and rescaled to
a reference speed, so that a machine whose other tenants slow it down
for minutes at a time still gives the same figures; the report also
prints them as measured.  End-to-end metrics (``--trace 0``):

* ``setup_s``: median time to import ``schubres`` (bytecode already
  compiled) and build the workload's root systems, over SETUP_SAMPLES
  set-ups before the first pass and one at the start of every pass;
* ``wall_s``: the sum over the pass's operations of each one's mean time;
* ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile over the
  operations (a query, a table, a suite run) of each one's mean time;
* ``items_per_s``: items of a pass per second of ``wall_s``, where an item
  is a restrict query, a Bruhat pair u <= v of a table, or a suite case;
  with a fixed number of items per pass it is the reciprocal of
  ``wall_s`` times that number, so the two move together;
* ``peak_rss_mb``: peak resident set size of the process.

``--trace 1`` runs one pass without wrappers, then imports ``schubres``
afresh, installs the wrappers of ``tracer.py`` and runs one pass under
them; it reports the per-layer metrics of that pass, and the cost of
tracing as ``trace.overhead_s`` (traced pass minus untraced pass, both
from a cold start on the same operations, in seconds as measured).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-run inputs and traces go
to ``perfbench/out/``.  See ``METRICS.md`` for what each metric should
move on which workload.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = "perfbench/out"

#: Timed set-ups made before the first pass; every pass adds one.
SETUP_SAMPLES = 30


def plain_timer(fn):
    """Run ``fn()``; returns its result and its (start, end, seconds)."""
    start = perf_counter()
    result = fn()
    end = perf_counter()
    return result, (start, end, end - start)


def fresh_import(groups, timer=plain_timer):
    """Drop and re-import ``schubres``, then build ``groups``' root
    systems.  Returns the CLI module and the timed span of the import and
    the builds (the old modules' garbage is collected before it)."""
    for name in [m for m in sys.modules if m == "schubres" or m.startswith("schubres.")]:
        del sys.modules[name]
    gc.collect()

    def setup():
        cli = importlib.import_module("schubres.cli")
        rootsys = sys.modules["schubres.rootsys"]
        for family, rank in groups:
            rootsys.build_root_system(rootsys.LieType(family, rank))
        return cli

    return timer(setup)


def call(cli, op, timer):
    """One operation: (exit status, captured stdout) and its timed span.

    Garbage left by earlier operations is collected first, untimed: a CLI
    user starts every command in a fresh process, and the root system of
    a finished command lives on in reference cycles until a full
    collection, which would otherwise land on whichever operation follows.
    """
    gc.collect()
    buf = io.StringIO()

    def main():
        with contextlib.redirect_stdout(buf):
            return cli.main(op.argv)

    rc, span = timer(main)
    return (rc, buf.getvalue()), span


class Tally:
    """Outcome of every operation run, and the spans of those that passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.spans = {}  # operation index -> [(start, end, seconds)]
        self.items = {}  # operation index -> items it covers

    def run(self, i, op, run_op):
        """Run and check operation ``i``; returns its seconds, or 0 if it
        failed."""
        self.attempted += 1
        try:
            (rc, stdout), span = run_op()
            self.items[i] = op.check(rc, stdout)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted and reported
            self.failed += 1
            print(f"FAILED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 0.0
        self.spans.setdefault(i, []).append(span)
        return span[2]


def run_pass(cli, ops, tally, timer=plain_timer, tracer=None):
    """All operations once; returns the pass time (sum of operation times)."""
    total = 0.0
    for i, op in enumerate(ops):
        if tracer is None:
            total += tally.run(i, op, lambda: call(cli, op, timer))
        else:
            total += tally.run(i, op, lambda: tracer.run_op(i, lambda: call(cli, op, timer)))
    return total


def measure(workload, ops, seconds):
    """The end-to-end metrics, from passes run under a SpeedProbe until
    ``seconds`` would be over by the next one (at least one pass)."""
    # Set-up is timed with bytecode already compiled, also where the
    # environment tells Python not to write it.
    compileall.compile_dir(str(SRC / "schubres"), quiet=1)
    fresh_import(workload.groups)
    tally = Tally()
    setups = []
    passes = 0
    with SpeedProbe() as probe:
        for _ in range(SETUP_SAMPLES):
            setups.append(fresh_import(workload.groups, probe.time)[1])
        begin = perf_counter()
        while True:
            cli, span = fresh_import(workload.groups, probe.time)
            setups.append(span)
            started = perf_counter()
            run_pass(cli, ops, tally, probe.time)
            passes += 1
            del cli
            now = perf_counter()
            if now - begin + (now - started) > seconds:
                break
    # Each operation's time is the mean over the passes of its time at the
    # reference speed; see speed.py.
    times = [
        statistics.fmean(probe.rescale(span) for span in spans)
        for spans in tally.spans.values()
    ] or [0.0]
    raw = [min(span[2] for span in spans) for spans in tally.spans.values()] or [0.0]
    wall = sum(times)
    metrics = [
        ("setup_s", statistics.median(probe.rescale(span) for span in setups), "s"),
        ("wall_s", wall, "s"),
        ("op_p50_ms", statistics.median(times) * 1e3, "ms"),
        ("op_p90_ms", _p90(times) * 1e3, "ms"),
        ("items_per_s", sum(tally.items.values()) / wall if wall else 0.0, "1/s"),
        (
            "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    ]
    report = {
        "passes": passes,
        "setups": len(setups),
        "samples": len(probe.took),
        "kernel_ms": statistics.median(probe.took) * 1e3,
        "raw": [
            ("setup_s", min(span[2] for span in setups), "s"),
            ("wall_s", sum(raw), "s"),
            ("op_p50_ms", statistics.median(raw) * 1e3, "ms"),
            ("op_p90_ms", _p90(raw) * 1e3, "ms"),
        ],
    }
    return tally, metrics, report


def measure_traced(workload, ops, seed):
    """The per-layer metrics: one untraced pass, then one pass under the
    wrappers of tracer.py, each from a fresh import and in raw seconds."""
    from tracer import Tracer

    compileall.compile_dir(str(SRC / "schubres"), quiet=1)
    tally = Tally()
    untraced = run_pass(fresh_import(workload.groups)[0], ops, tally)
    cli = fresh_import(workload.groups)[0]
    tracer = Tracer()
    tracer.install()
    traced = run_pass(cli, ops, tally, tracer=tracer)
    path = f"{OUT}/trace-{workload.name}-{seed}.json"
    tracer.write(path, {"workload": workload.name, "seed": seed, "ops": [op.label for op in ops]})
    metrics = tracer.metrics() + [
        ("trace.wall_s", traced, "s"),
        ("trace.untraced_wall_s", untraced, "s"),
        ("trace.overhead_s", traced - untraced, "s"),
    ]
    report = {"passes": 2, "trace_file": path, "functions": tracer.functions()}
    return tally, metrics, report


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


#: The names ROADMAP-style reports use for the generic metrics.
ALIASES = {
    ("restrict", "op_p50_ms"): "query_p50_ms",
    ("restrict", "op_p90_ms"): "query_p90_ms",
    ("restrict", "items_per_s"): "queries_per_s",
    ("table", "items_per_s"): "pairs_per_s",
    ("verify", "items_per_s"): "cases_per_s",
}


def print_report(workload, args, inputs, tally, metrics, report):
    print(f"workload {workload.name}: {workload.why}")
    print(
        f"seed {args.seed}, {inputs['count']} operations per pass, inputs sha256 "
        f"{inputs['sha256']} ({inputs['path']})"
    )
    print(
        f"{report['passes']} pass(es), {tally.attempted} operations, {tally.failed} "
        f"failed, fail_ratio {tally.failed / tally.attempted:.4f}; a pass covers "
        f"{sum(tally.items.values())} {workload.item}"
    )
    for name, value, unit in metrics:
        alias = ALIASES.get((workload.name, name))
        note = f"  ({alias})" if alias else ""
        print(f"  {name:40s} {value:>16.6g} {unit}{note}")
    if "raw" in report:
        print(
            f"times above are at the reference speed; {report['samples']} speed samples, "
            f"median kernel time {report['kernel_ms']:.3f} ms. As measured (set-up: "
            f"fastest of {report['setups']}; operations: fastest of their runs):"
        )
        for name, value, unit in report["raw"]:
            print(f"  {name:40s} {value:>16.6g} {unit}")
    if "functions" in report:
        print(f"trace written to {report['trace_file']}; functions by self time:")
        funcs = sorted(report["functions"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, f in funcs:
            if f["calls"]:
                print(
                    f"  {name:40s} calls {f['calls']:>10d}  self {f['self_s']:10.4f} s"
                    f"  total {f['total_s']:10.4f} s"
                )


def run_all(args):
    """Every workload in its own interpreter; prints their reports and,
    last, their results keyed by workload."""
    results = {}
    for name in WORKLOADS:
        argv = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["restrict", "table", "verify", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schubres" / "__init__.py").is_file():
        print(f"error: no schubres sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    ops = workload.ops(args.seed, OUT)
    inputs = {"path": f"{OUT}/{workload.name}-inputs-{args.seed}.json"}
    text = json.dumps([op.argv for op in ops], indent=1)
    with open(inputs["path"], "w", encoding="utf-8") as fh:
        fh.write(text)
    inputs["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    inputs["count"] = len(ops)
    if args.trace:
        tally, metrics, report = measure_traced(workload, ops, args.seed)
    else:
        tally, metrics, report = measure(workload, ops, args.seconds)
    print_report(workload, args, inputs, tally, metrics, report)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
            }
        )
    )
    return 0

if __name__ == "__main__":
    sys.exit(main())
