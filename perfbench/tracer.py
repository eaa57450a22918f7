"""Outside-in tracer for schubres: wrappers around each layer's public functions.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces
every binding of a target function in the imported ``schubres`` modules
(``from .weyl import bruhat_leq`` binds a separate name in ``schubert``,
``verify``, ``cli`` and ``typea``; ``verify.SUITES`` holds the suites) and
the class attributes for methods and properties, with one wrapper per
target.  A wrapper counts calls, adds the call's self time (its duration
minus the time covered by the wrapped calls it makes, wrappers included)
and records a span (name, start, end, parent, operation id) in memory.
The wrappers' own work outside the spans they time is left out of every
self time and reported as ``trace.bookkeeping_s``.  Spans beyond
``SPAN_CAP`` are counted but not kept, so a traced run has a fixed memory
budget for them; the counts and times stay exact.

The tracer is only installed on a freshly imported copy of the package
that the benchmark discards afterwards, and not at all when tracing is off.
"""

from __future__ import annotations

import gc
import json
import sys
import weakref
from array import array
from time import perf_counter

#: (layer, function, module, attribute) for every wrapped function.  The
#: metric name is ``<layer>.<function>``; ``_linalg`` belongs to ``weyl``.
TARGETS = (
    ("rootsys", "build_root_system", "rootsys", "build_root_system"),
    ("rootsys", "root_system", "rootsys", "root_system"),
    ("rootsys", "pairing", "rootsys", "pairing"),
    ("rootsys", "reflect", "rootsys", "reflect"),
    ("weyl", "mul", "weyl", "WeylElement.__mul__"),
    ("weyl", "length", "weyl", "WeylElement.length"),
    ("weyl", "inverse", "weyl", "WeylElement.inverse"),
    ("weyl", "act", "weyl", "WeylElement.act"),
    ("weyl", "bruhat_leq", "weyl", "bruhat_leq"),
    ("weyl", "covers_above", "weyl", "covers_above"),
    ("weyl", "element_from_word", "weyl", "element_from_word"),
    ("weyl", "inversion_roots", "weyl", "inversion_roots"),
    ("weyl", "enumerate_elements", "weyl", "enumerate_elements"),
    ("weyl", "mat_mul", "_linalg", "mat_mul"),
    ("weyl", "mat_inv", "_linalg", "mat_inv"),
    ("poly", "add", "poly", "Polynomial.__add__"),
    ("poly", "mul", "poly", "Polynomial.__mul__"),
    ("poly", "expand", "poly", "expand"),
    ("poly", "cancel_factor", "poly", "cancel_factor"),
    ("poly", "divide_linear", "poly", "divide_linear"),
    ("poly", "evaluate", "poly", "Polynomial.evaluate"),
    ("poly", "to_text", "poly", "Polynomial.to_text"),
    ("poly", "to_json", "poly", "Polynomial.to_json"),
    ("schubert", "tau_chain", "schubert", "tau_chain"),
    ("schubert", "enumerate_c0", "schubert", "enumerate_c0"),
    ("schubert", "chain_contribution", "schubert", "chain_contribution"),
    ("schubert", "tau_billey", "schubert", "tau_billey"),
    ("schubert", "enumerate_reduced_subwords", "schubert", "enumerate_reduced_subwords"),
    ("schubert", "_subword_sums", "schubert", "_subword_sums"),
    ("schubert", "enumerate_max_chains", "schubert", "enumerate_max_chains"),
    ("schubert", "gt_term_eval", "schubert", "gt_term_eval"),
    ("typea", "tau_typea", "typea", "tau_typea"),
    ("typea", "element_to_perm", "typea", "element_to_perm"),
    ("verify", "suite_oracle", "verify", "suite_oracle"),
    ("verify", "suite_gt", "verify", "suite_gt"),
    ("cli", "main", "cli", "main"),
    ("cli", "emit", "cli", "_emit"),
)

#: Functions whose result length is counted as ``<name>.<what>``.
RESULT_COUNTS = {
    "schubert.enumerate_c0": "chains",
    "schubert.enumerate_max_chains": "chains",
    "schubert.enumerate_reduced_subwords": "subwords",
}

#: Layers every workload runs, whose self time is a per-layer metric.
TIMED_LAYERS = ("rootsys", "weyl", "poly", "schubert", "cli")

#: ``rs._cache`` tables of the seed; others still count in the total.
CACHE_TABLES = (
    "elements",
    "simple_reflections",
    "reflections",
    "reduced_words",
    "covers_above",
    "bruhat",
    "all_elements",
    "tau_chain",
)

#: Most spans kept in memory per traced run.
SPAN_CAP = 200_000

JSON_DUMPS = "cli.json_dumps"


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fn, _, _ in TARGETS]
        self.names.append(JSON_DUMPS)
        self.names.append("bench.op")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.counts = {
            f"{name}.{what}": 0 for name, what in RESULT_COUNTS.items()
        }
        self.counts.update(
            {"schubert.tau_chain.hits": 0, "verify.cases": 0, "cli.bytes_out": 0}
        )
        # Span columns; a span's id is its index.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.op = -1
        self._open = []  # stack of [span id, child time]
        self.bookkeeping_s = 0.0
        self.t0 = perf_counter()
        # Root systems built during the current operation, then weakly held.
        self._op_systems = []
        self._systems = []
        self.cache_peak = {table: 0 for table in CACHE_TABLES}
        self.cache_peak_total = 0

    # -- spans

    def _enter(self, idx):
        sid = len(self.span_name)
        if sid < SPAN_CAP:
            self.span_name.append(idx)
            self.span_parent.append(self._open[-1][0] if self._open else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            sid = -1
            self.spans_dropped += 1
        frame = [sid, 0.0]
        self._open.append(frame)
        return frame

    def _exit(self, idx, frame, start, end):
        self._open.pop()
        duration = end - start
        self.calls[idx] += 1
        self.self_s[idx] += duration - frame[1]
        self.total_s[idx] += duration
        sid = frame[0]
        if sid >= 0:
            self.span_start[sid] = start - self.t0
            self.span_end[sid] = end - self.t0

    def _charge(self, outer, duration):
        """Charge a finished call to its caller as child time: its span
        plus the wrapper's own work around it, which began at ``outer``.
        That work counts in no function's self time, only in
        ``trace.bookkeeping_s``."""
        spent = perf_counter() - outer
        self.bookkeeping_s += spent - duration
        if self._open:
            self._open[-1][1] += spent

    def wrap(self, idx, fn, before=None, after=None):
        enter, exit_, charge = self._enter, self._exit, self._charge

        def traced(*args, **kwargs):
            outer = perf_counter()
            if before is not None:
                before(args)
            frame = enter(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                exit_(idx, frame, start, end)
                charge(outer, end - start)
                raise
            end = perf_counter()
            exit_(idx, frame, start, end)
            if after is not None:
                after(args, result)
            charge(outer, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, call):
        """Run ``call()`` as operation ``op_id`` under a root span."""
        self.op = op_id
        idx = len(self.names) - 1  # bench.op
        frame = self._enter(idx)
        start = perf_counter()
        try:
            return call()
        finally:
            self._exit(idx, frame, start, perf_counter())
            self._snapshot_caches()

    # -- installation

    def install(self):
        """Wrap every target in the imported ``schubres`` modules."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "schubres" or name.startswith("schubres.")
        }
        for idx, (layer, fn, module, attr) in enumerate(TARGETS):
            name = f"{layer}.{fn}"
            owner = modules.get(f"schubres.{module}")
            if owner is None:
                continue
            before, after = self._hooks(name)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = cls.__dict__.get(member) if cls is not None else None
                if orig is None:
                    continue
                if isinstance(orig, property):
                    setattr(cls, member, property(self.wrap(idx, orig.fget)))
                    continue
                wrapped = self.wrap(idx, orig, before, after)
                for key, value in list(cls.__dict__.items()):
                    if value is orig:  # also catches aliases like __rmul__
                        setattr(cls, key, wrapped)
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            _rebind(modules.values(), orig, self.wrap(idx, orig, before, after))
        cli = modules.get("schubres.cli")
        if cli is not None and hasattr(cli, "json"):
            cli.json = _JsonProxy(
                cli.json, self.wrap(self.names.index(JSON_DUMPS), cli.json.dumps)
            )

    def _hooks(self, name):
        counts = self.counts
        if name in RESULT_COUNTS:
            key = f"{name}.{RESULT_COUNTS[name]}"

            def after(args, result):
                counts[key] += len(result)

            return None, after
        if name == "schubert.tau_chain":

            def before(args):
                u, v = args[0], args[1]
                if (u, v) in u.rs._cache.get("tau_chain", {}):
                    counts["schubert.tau_chain.hits"] += 1

            return before, None
        if name.startswith("verify.suite_"):

            def after(args, result):
                counts["verify.cases"] += result.cases

            return None, after
        if name == "cli.emit":

            def after(args, result):
                counts["cli.bytes_out"] += len(args[0].encode("utf-8")) + 1

            return None, after
        if name == "rootsys.build_root_system":

            def after(args, result):
                self._op_systems.append(result)

            return None, after
        return None, None

    # -- cache snapshot

    def _snapshot_caches(self):
        """Entries in the caches of every root system still reachable after
        an operation, or built during it; keeps the largest seen.  Elements
        and their root system refer to each other, so unreachable systems
        are collected first to make the count independent of when the
        garbage collector last ran."""
        gc.collect()
        alive = [rs for rs in (ref() for ref in self._systems) if rs is not None]
        alive += self._op_systems
        sizes = {}
        for rs in alive:
            for table, entries in rs._cache.items():
                sizes[table] = sizes.get(table, 0) + len(entries)
        for table in CACHE_TABLES:
            self.cache_peak[table] = max(self.cache_peak[table], sizes.get(table, 0))
        self.cache_peak_total = max(self.cache_peak_total, sum(sizes.values()))
        self._systems = [weakref.ref(rs) for rs in alive]
        self._op_systems = []

    # -- results

    def functions(self):
        """Calls, self time and total time of every wrapped function."""
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_s[i],
                "total_s": self.total_s[i],
            }
            for i, name in enumerate(self.names)
        }

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(
            s for name, s in zip(self.names, self.self_s) if name.startswith(prefix)
        )

    def metrics(self):
        """The per-layer metrics, as (name, value, unit)."""
        funcs = self.functions()
        out = [(f"{layer}.self_s", self.layer_self_s(layer), "s") for layer in TIMED_LAYERS]
        out += [
            (f"{name}.calls", funcs[name]["calls"], "count")
            for name in self.names[: len(TARGETS)]
        ]
        out += [
            (key, value, "B" if key == "cli.bytes_out" else "count")
            for key, value in self.counts.items()
        ]
        tau = funcs["schubert.tau_chain"]["calls"]
        out.append(
            (
                "schubert.tau_chain.hit_ratio",
                self.counts["schubert.tau_chain.hits"] / tau if tau else 0.0,
                "ratio",
            )
        )
        out.append(
            (
                "cli.serialize_s",
                funcs["poly.to_json"]["total_s"] + funcs[JSON_DUMPS]["total_s"],
                "s",
            )
        )
        out += [
            (f"cache.{table}.entries", self.cache_peak[table], "count")
            for table in CACHE_TABLES
        ]
        out.append(("cache.total_entries", self.cache_peak_total, "count"))
        out.append(("trace.bookkeeping_s", self.bookkeeping_s, "s"))
        out.append(("trace.spans", len(self.span_name), "count"))
        out.append(("trace.spans_dropped", self.spans_dropped, "count"))
        return out

    def write(self, path, meta):
        """Write the kept spans and the per-function totals as JSON."""
        doc = dict(meta)
        doc["names"] = self.names
        doc["functions"] = self.functions()
        doc["spans"] = {
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        doc["spans_dropped"] = self.spans_dropped
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(modules, orig, wrapped):
    """Replace ``orig`` by ``wrapped`` in every module namespace and in
    module-level dicts such as ``verify.SUITES``."""
    for mod in modules:
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            if value is orig:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapped


class _JsonProxy:
    """Stands in for the ``json`` module inside ``schubres.cli`` so that
    only the CLI's own ``json.dumps`` calls are timed."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)
