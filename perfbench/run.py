"""Benchmark for toricfan: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`.  The load is one single-threaded closed loop: each operation starts
when the previous one has returned.  The run

1. builds the workload's inputs from the seed several times, clearing the
   library's caches first each time, and reports the median as `setup_s`;
2. cycles through the rounds of one pass (see workloads.py) and stops at the
   first round boundary once the operations have taken `--seconds` in all
   (checks and calibration not counted); every result is checked by the
   independent checker (checker.py) after its round, outside the timed
   region;
3. prints a human summary, then one JSON line: `correct`, `attempted`,
   `failed` and the metrics.

On a shared machine the speed drifts by tens of percent over seconds, for
wall and CPU time alike (up to 1.8x on the 2-core reference machine of
README.md).  So a fixed piece of exact arithmetic (`calibration`) is timed
before and after every operation and set-up, and each timing is scaled by
CAL_NOMINAL_S over the mean of the two samples: times read as they would on
a machine where the calibration takes CAL_NOMINAL_S.  Command-line operations are calibrated the same way
against a bare interpreter start (`child_calibration`, CHILD_NOMINAL_S).
The summary lines also print the unscaled figures.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` the
run executes one pass exactly, each round once untraced and once traced
(alternating which goes first), and reports the per-layer metrics of the traced rounds plus the tracing overhead;
spans are written to `perfbench/out/`.  The exit code is 0 when every check
passed, 1 when one failed and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up runs at least SETUPS times, and more (up to SETUPS_MAX) while the
# set-ups so far took less than SETUP_MIN_S in all
SETUPS, SETUPS_MAX, SETUP_MIN_S = 3, 9, 3.0
CAL_NOMINAL_S = 0.0025
CHILD_NOMINAL_S = 0.06
CAL_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(9)] for i in range(7)]
WORKLOADS = ("scan", "pairs", "tower", "cli")

sys.path.insert(0, str(HERE))

import checker as checker_mod  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class Library:
    """The toricfan modules of this checkout, by short name."""

    def __init__(self):
        if not (SRC / "toricfan" / "__init__.py").is_file():
            raise FileNotFoundError(f"no toricfan package under {SRC}")
        sys.path.insert(0, str(SRC))
        import toricfan

        if Path(toricfan.__file__).resolve().parent != SRC / "toricfan":
            raise FileNotFoundError(f"toricfan was imported from {toricfan.__file__}, not {SRC}")
        self.modules = {"": toricfan}
        for info in pkgutil.iter_modules(toricfan.__path__):
            self.modules[info.name] = importlib.import_module(f"toricfan.{info.name}")

    def __getattr__(self, name):
        try:
            return self.modules[name]
        except KeyError:
            raise AttributeError(name) from None

    def clear_caches(self):
        """Empty every functools cache held in a toricfan module."""
        for module in self.modules.values():
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def calibration():
    """Seconds taken by two Gauss-Jordan eliminations of a fixed 7 x 9
    rational matrix, the same kind of work as the library's hot loops.  The
    collector is paused so that a collection of the library's garbage is
    not charged to the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            m = [row[:] for row in CAL_MATRIX]
            for c in range(7):
                p = m[c][c]
                m[c] = [a / p for a in m[c]]
                for r in range(7):
                    if r != c and m[r][c]:
                        f = m[r][c]
                        m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def child_calibration():
    """Seconds to start an interpreter that imports the standard modules the
    command line uses, and to wait for it to exit: what dominates a cold
    command, and what the in-process kernel does not track."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, fractions, json"], check=True, timeout=60)
    return time.perf_counter() - start


def scale(before, after, nominal=CAL_NOMINAL_S):
    """Factor that turns a time measured between calibrations `before` and
    `after` into one at the nominal machine speed."""
    return 2 * nominal / (before + after)


def _quantile_ms(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))] * 1000.0


class Runner:
    def __init__(self, lib, name, seed, seconds, traced):
        self.lib, self.name, self.seed, self.seconds = lib, name, seed, seconds
        self.tracer = tracing.Tracer() if traced else None
        self.checker = checker_mod.Checker()
        self.workdir = None
        # a command-line operation runs in a child process, and is calibrated
        # against one
        self.cpu_clock = _children_cpu if name == "cli" else time.process_time
        self.op_calibration = (child_calibration, CHILD_NOMINAL_S) if name == "cli" else (calibration, CAL_NOMINAL_S)
        # (wall s, cpu s, calibration factor) per operation, untraced / traced
        self.samples = {False: [], True: []}
        self.attempted = self.failed = self.setups = 0
        self.errors = []

    # -- the workload's hooks

    def setup(self, rng):
        if self.name == "cli":
            return wl.cli_setup(self.lib, rng, self.workdir)
        return getattr(wl, f"{self.name}_setup")(self.lib, rng)

    def plan(self, inputs, rng):
        if self.name == "cli":
            return wl.cli_plan(self.lib, inputs, self.checker, rng, self.launch)
        return getattr(wl, f"{self.name}_plan")(self.lib, inputs, self.checker, rng)

    def launch(self, argv):
        traced = self.tracer is not None and self.tracer.op is not None
        spans_file = os.path.join(self.workdir, "spans.json") if traced else None
        result = wl.run_cli(str(SRC), argv, spans_file)
        if traced:
            with open(spans_file, encoding="utf-8") as handle:
                self.tracer.graft(json.load(handle))
        return result

    # -- phases

    def run(self):
        OUT.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
        try:
            return self._run()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self):
        if self.tracer is not None:
            self.tracer.install(self.lib.modules)
        setups = []
        before = calibration()
        while len(setups) < SETUPS or (sum(t for t, _ in setups) < SETUP_MIN_S and len(setups) < SETUPS_MAX):
            self.lib.clear_caches()
            if self.tracer is not None:
                self.tracer.open("setup", "bench.setup")
            start = time.perf_counter()
            inputs = self.setup(random.Random(self.seed))
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.close()
            after = calibration()
            setups.append((elapsed, scale(before, after)))
            before = after
        self.setups = len(setups)
        self.lib.clear_caches()
        rounds = self.plan(inputs, random.Random(self.seed))
        if self.tracer is None:
            i = 0
            while sum(w for w, _, _ in self.samples[False]) < self.seconds or i == 0:
                self.run_round(rounds[i % len(rounds)], traced=False)
                i += 1
        else:
            # alternate which of the two goes first, so that neither always
            # meets the library and the machine in the same state
            for i, rnd in enumerate(rounds):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    self.run_round(rnd, traced)
        # for the command line, the largest resident set of a child process
        who = resource.RUSAGE_CHILDREN if self.name == "cli" else resource.RUSAGE_SELF
        peak_kb = resource.getrusage(who).ru_maxrss
        return self.report(setups, peak_kb / 1024.0, len(rounds))

    def run_round(self, rnd, traced):
        """Run one round and then check its results (a traced round is only
        measured).  Everything alive before the round (inputs, the checker's
        results, earlier rounds' leftovers) is frozen out of the collector
        and no check runs between operations, so the library's collections
        scan only its own objects, as in a process without the benchmark."""
        self.lib.clear_caches()
        ctx = rnd.start()
        gc.collect()
        gc.freeze()
        calibrate, nominal = self.op_calibration
        before = calibrate()
        done = []
        for op in rnd.ops:
            self.attempted += not traced
            if traced:
                self.tracer.open(self.attempted)
            wall0, cpu0 = time.perf_counter(), self.cpu_clock()
            try:
                result = op.run(ctx)
            except Exception:
                if traced:
                    raise
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=3))
                break
            wall = time.perf_counter() - wall0
            cpu = self.cpu_clock() - cpu0
            if traced:
                self.tracer.close()
            after = calibrate()
            self.samples[traced].append((wall, cpu, scale(before, after, nominal)))
            before = after
            done.append((op, result))
        if not traced:
            for op, result in done:
                try:
                    op.check(result)
                except (checker_mod.CheckFailed, KeyError, TypeError, ValueError) as exc:
                    self.errors.append(f"check failed: {exc!r}")

    def report(self, setups, peak_mb, pass_rounds):
        correct = not any(e.startswith("check failed") for e in self.errors)
        for err in self.errors[:5]:
            print(err, file=sys.stderr)
        untraced = self.samples[False]
        if not untraced:
            print(f"error: all {self.attempted} operations failed", file=sys.stderr)
            return 1
        walls = [w * k for w, _, k in untraced]
        raw = {}
        if self.tracer is None:
            metrics = {
                "setup_s": (statistics.median(t * k for t, k in setups), "s"),
                "ops_per_s": (len(walls) / sum(walls), "ops/s"),
                "op_p50_ms": (statistics.median(walls) * 1000.0, "ms"),
                "cpu_ms_per_op": (sum(c * k for _, c, k in untraced) / len(walls) * 1000.0, "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            raw = {
                "setup_s": statistics.median(t for t, _ in setups),
                "ops_per_s": len(walls) / sum(w for w, _, _ in untraced),
                "op_p50_ms": statistics.median(w for w, _, _ in untraced) * 1000.0,
                "cpu_ms_per_op": sum(c for _, c, _ in untraced) / len(walls) * 1000.0,
            }
        else:
            traced = self.samples[True]
            metrics = tracing.layer_metrics(self.tracer, len(traced), self.setups)
            overhead = (sum(w * k for w, _, k in traced) - sum(walls)) / len(traced)
            metrics["trace.overhead_ms_per_op"] = (overhead * 1000.0, "ms/op")
            nesting = tracing.nesting_errors(self.tracer.spans)
            if nesting:
                correct = False
                print(f"check failed: {nesting} spans lie outside their parent", file=sys.stderr)
            path = OUT / f"spans-{self.name}-{self.seed}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"skipped": self.tracer.skipped, "spans": self.tracer.spans}, handle)
            self.tracer.uninstall()
        print(f"workload {self.name} seed {self.seed}: {self.attempted} ops attempted, "
              f"{self.failed} failed, {pass_rounds} rounds per pass, "
              f"checks {'passed' if correct else 'FAILED'}")
        for name, (value, unit) in metrics.items():
            extra = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
            print(f"  {name} = {value:.6g} {unit}{extra}")
        factors = [k for _, _, k in untraced]
        print(f"  calibration factor median {statistics.median(factors):.4g}, "
              f"range {min(factors):.3g}-{max(factors):.3g}")
        if self.tracer is None and len(walls) >= 100:
            print(f"  op_p90_ms = {_quantile_ms(walls, 0.9):.6g} ms (not a gated metric)")
        line = {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(line))
        return 0 if correct else 1


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib = Library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return Runner(lib, args.workload, args.seed, args.seconds, bool(args.trace)).run()


if __name__ == "__main__":
    sys.exit(main())
