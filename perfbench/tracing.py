"""Trace mode: spans around calls into toricfan's public functions.

`Tracer.install` rebinds each traced name in every toricfan module namespace
that holds it (the defining module, importers such as `from .lattice import
phase_one`, and the package itself), so calls between library modules get
spans nested under their caller.  Nothing under `src/` is edited, and a name
a module no longer has is skipped and listed in `Tracer.skipped`.

A span records its name, start, end, parent span and operation id.  Spans
are recorded only while an operation is open; they are kept in memory and
written out once, at the end of the run.

Run as a script, this file is the traced form of `python -m toricfan.cli`:
`python tracing.py SPAWN_TIME SPANS_FILE CLI_ARGS...` runs the command line
with the tracer installed and writes its spans, its start-up time (from
SPAWN_TIME, a `perf_counter` reading of the parent, to the end of
`import toricfan.cli`) and its output size to SPANS_FILE.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

TRACED = {
    "lattice": ("phase_one", "solve_columns", "unimodular_inverse", "determinant"),
    "fan": ("validate", "walls"),
    "intersection": ("all_relations", "wall_relation"),
    "mori": ("is_projective", "is_extremal", "classify_contraction"),
    "birational": ("star_subdivision", "blow_up_curve", "blow_down"),
    "ewald": ("suspend", "ewald_blow_down", "ewald_tower"),
    "analyzer": ("analyze_pair",),
    "gallery": ("get_fan",),
}

# span fields
NAME, START, END, PARENT, OP, SIZE = range(6)


def _size(name, args):
    """The per-call size counted next to the span, where one is defined."""
    if name == "lattice.phase_one":
        rows = args[0]
        return len(rows) * (len(rows[0]) if rows else 0)
    if name == "fan.validate":
        n = len(args[0].max_cones)
        return n * (n - 1) // 2
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.skipped = []
        self.cli = {"startup_s": 0.0, "stdout_bytes": 0}
        self._restore = []

    def install(self, modules):
        """Rebind the traced names in `modules`, a dict short name -> module
        that includes the package itself under the key ''."""
        for short, names in TRACED.items():
            home = modules.get(short)
            for fname in names:
                original = getattr(home, fname, None) if home is not None else None
                if not callable(original):
                    self.skipped.append(f"{short}.{fname}")
                    continue
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, _size(name, args)]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def open(self, op, name="bench.op"):
        """Start the root span of an operation."""
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, None, op, 0])

    def close(self):
        self.spans[self.stack.pop()][END] = perf_counter()
        self.op = None

    def graft(self, record):
        """Attach what a traced child process recorded under the open span."""
        offset = len(self.spans)
        parent = self.stack[-1]
        for name, start, end, par, _, size in record["spans"]:
            self.spans.append([name, start, end, parent if par is None else par + offset, self.op, size])
        for key in self.cli:
            self.cli[key] += record[key]


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def nesting_errors(spans, tolerance=1e-6):
    """Spans that do not lie inside their parent's interval."""
    bad = 0
    for s in spans:
        p = s[PARENT]
        if p is not None:
            parent = spans[p]
            if s[START] < parent[START] - tolerance or s[END] > parent[END] + tolerance or s[OP] != parent[OP]:
                bad += 1
    return bad


def layer_metrics(tracer, ops, setups):
    """Per-layer metrics from the spans of the traced operations.

    Counts and times are per operation, except `gallery.get_fan.*`, which
    are per set-up.  `<layer>.lp_calls` and `.lp_s` count the phase_one
    spans whose direct parent is that layer's span.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
    calls = dict.fromkeys(names + ["bench.op"], 0)
    self_s = dict.fromkeys(names + ["bench.op"], 0.0)
    size = {"lattice.phase_one": 0, "fan.validate": 0}
    lp = {key: [0, 0.0] for key in ("fan.validate", "mori.is_projective", "mori.is_extremal")}
    cli_run_self = 0.0
    in_setup = {"gallery.get_fan": [0, 0.0]}
    for s, own in zip(spans, selfs):
        name = s[NAME]
        if s[OP] == "setup":
            if name in in_setup:
                in_setup[name][0] += 1
                in_setup[name][1] += own
            continue
        if name == "cli.run":
            cli_run_self += own
            continue
        if name not in calls:
            continue
        calls[name] += 1
        self_s[name] += own
        if name in size:
            size[name] += s[SIZE]
        if name == "lattice.phase_one" and s[PARENT] is not None:
            parent = spans[s[PARENT]][NAME]
            if parent in lp:
                lp[parent][0] += 1
                lp[parent][1] += s[END] - s[START]
    n = max(ops, 1)
    out = {}
    for name in names + ["bench.op"]:
        if name == "gallery.get_fan":
            out[f"{name}.calls"] = (in_setup[name][0] / max(setups, 1), "calls/setup")
            out[f"{name}.self_s"] = (in_setup[name][1] / max(setups, 1), "s/setup")
            continue
        if name != "bench.op":
            out[f"{name}.calls"] = (calls[name] / n, "calls/op")
        out[f"{name}.self_s"] = (self_s[name] / n, "s/op")
    out["lattice.phase_one.cells"] = (size["lattice.phase_one"] / n, "cells/op")
    out["fan.validate.cone_pairs"] = (size["fan.validate"] / n, "pairs/op")
    for key, (count, secs) in lp.items():
        out[f"{key}.lp_calls"] = (count / n, "calls/op")
        out[f"{key}.lp_s"] = (secs / n, "s/op")
    out["cli.startup_ms"] = (tracer.cli["startup_s"] * 1000.0 / n, "ms/op")
    out["cli.run.self_s"] = (cli_run_self / n, "s/op")
    out["cli.stdout_bytes"] = (tracer.cli["stdout_bytes"] / n, "bytes/op")
    return out


def _child(argv):
    """Traced `python -m toricfan.cli`: write spans and start-up time."""
    import contextlib
    import io
    import sys

    spawned = float(argv[1])
    import importlib
    import pkgutil

    import toricfan
    import toricfan.cli as cli

    ready = perf_counter()
    modules = {"": toricfan}
    for info in pkgutil.iter_modules(toricfan.__path__):
        modules[info.name] = importlib.import_module(f"toricfan.{info.name}")
    tracer = Tracer()
    tracer.install(modules)
    buffer = io.StringIO()
    tracer.open(0, "cli.run")
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.run(argv[3:])
    finally:
        tracer.close()
        tracer.uninstall()
    text = buffer.getvalue()
    sys.stdout.write(text)
    record = {"spans": tracer.spans, "startup_s": ready - spawned, "stdout_bytes": len(text.encode())}
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    import sys

    sys.exit(_child(sys.argv))
