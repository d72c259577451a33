"""Seeded benchmark of the idr fit -> predict -> score loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload all --seed 1 --seconds 52 --trace 0

``--workload`` is one of gamma-chain-cli, cw2-poset-lib,
icx-subagg-cli or ``all``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the CLI in-process with a span recorder on every
call between ``idr`` modules and prints the per-layer metrics.
``--smoke`` shrinks every input so that a run takes seconds.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Development seed, whose crps_ratio is pinned in reference.json.
DEFAULT_SEED = 1
#: Seed to confirm a claim on, never used while writing the change.
HELD_OUT_SEED = 20191

#: Set-ups, and child imports of idr.cli, timed per run; the median is reported.
SAMPLES = 3
#: Children are killed this long after a workload starts.
CHILD_BUDGET_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("predict_s", "s"),
    ("score_s", "s"),
    ("loop_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_mb", "MB"),
    ("crps_ratio", "ratio"),
)
LAYERS = ("cli", "orders", "solvers", "fitting", "prediction", "subagging", "scoring", "stepfun")
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("orders.self_s", "s"),
    ("orders.calls", "count"),
    ("orders.nodes", "count"),
    ("orders.cover_edges", "count"),
    ("orders.cover_edges_exact", "count"),
    ("orders.reach_mb", "MB"),
    ("solvers.self_s", "s"),
    ("solvers.calls", "count"),
    ("fitting.self_s", "s"),
    ("fitting.cells", "count"),
    ("fitting.cdf_mb", "MB"),
    ("prediction.self_s", "s"),
    ("prediction.calls", "count"),
    ("subagging.self_s", "s"),
    ("subagging.members", "count"),
    ("subagging.grid_cells", "count"),
    ("scoring.self_s", "s"),
    ("scoring.cases", "count"),
    ("serialize.dump_s", "s"),
    ("serialize.load_s", "s"),
    ("serialize.model_bytes", "bytes"),
    ("stepfun.self_s", "s"),
    ("stepfun.calls", "count"),
    ("trace.overhead_s", "s"),
)


def environment(wl_module, deadline: float) -> dict:
    """What numbers from another machine must match before comparing."""
    import numpy
    import scipy

    code, _ = wl_module.run_child(
        [sys.executable, "-c", "import numba"], wl_module.child_env(SRC), WORK / "numba-check.log", deadline
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": code == 0,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Run:
    """One workload at one seed: set-up, timed loops, checks."""

    def __init__(self, wl_module, workload, seed: int, seconds: float, workdir: Path, smoke: bool):
        self.w = wl_module
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.samples = 1 if smoke else SAMPLES
        self.deadline = time.monotonic() + CHILD_BUDGET_S
        self.reference = None
        if not smoke and seed == DEFAULT_SEED:
            self.reference = json.loads(REFERENCE.read_text())["crps_ratio"][workload.name]

    def setup(self):
        """Generate the inputs, write them, warm the entry point up once."""
        inputs = self.w.make_inputs(self.workload, self.seed)
        self.workload.write(inputs, self.workdir)
        warm = [sys.executable, "-c", f"import {self.workload.entry}"]
        self.w.run_child(warm, self.w.child_env(SRC), self.workdir / "warmup.log", self.deadline)
        return inputs

    def timed_setups(self):
        times = []
        for _ in range(self.samples):
            start = perf_counter()
            inputs = self.setup()
            times.append(perf_counter() - start)
        return inputs, statistics.median(times)

    def one_loop(self, inputs, runner, index: int):
        loop = self.workload.loop(inputs, self.workdir, runner, index)
        self.show_failures(loop)
        return loop

    def show_failures(self, loop):
        for op, reasons in loop.failed_ops.items():
            print(f"  FAILED {self.workload.name} {op}: {'; '.join(reasons)}", file=sys.stderr)

    def repeat(self, one_loop) -> list:
        return self.w.repeat(one_loop, self.seconds, self.workload.min_loops, self.deadline)

    def check_reference(self, loops: list) -> float:
        """crps_ratio over the first ``min_loops`` loops, which every run
        completes; a score failure on the last of them if it is off the
        reference."""
        first = loops[: self.workload.min_loops]
        ratio = sum(l.crps for l in first) / sum(l.true_crps for l in first)
        if self.reference is not None and not abs(ratio / self.reference - 1.0) <= 1e-9:
            first[-1].fail("score", f"crps_ratio {ratio!r} differs from reference {self.reference!r}")
            self.show_failures(first[-1])
        return ratio

    def untraced(self) -> tuple[dict, list]:
        inputs, setup_s = self.timed_setups()
        if self.workload.entry == "idr.cli":
            runner = self.w.ChildCli(SRC, self.workdir, self.deadline)
            loops = self.repeat(lambda k: self.one_loop(inputs, runner, k))
        else:
            loops = self.w.ChildLib(SRC, self.workdir, self.deadline)(self.workload, self.seconds)
            for loop in loops:
                self.show_failures(loop)
        med = statistics.median
        metrics = {
            "setup_s": setup_s,
            "fit_s": med(l.times["fit_s"] for l in loops),
            "predict_s": med(l.times["predict_s"] for l in loops),
            "score_s": med(l.times["score_s"] for l in loops),
            "loop_s": med(sum(l.times.values()) for l in loops),
            "peak_rss_mb": med(l.peak_rss_mb for l in loops),
            "model_mb": med(l.model_bytes / 1e6 for l in loops[: self.workload.min_loops]),
            "crps_ratio": self.check_reference(loops),
        }
        return metrics, loops

    def traced(self) -> tuple[dict, list]:
        from tracing import Tracer, layer_times

        inputs = self.setup()
        env = self.w.child_env(SRC)
        import_times = []
        for _ in range(self.samples):
            start = perf_counter()
            self.w.run_child([sys.executable, "-c", "import idr.cli"], env, self.workdir / "import.log", self.deadline)
            import_times.append(perf_counter() - start)

        is_cli = self.workload.entry == "idr.cli"
        plain = self.w.InProcessCli() if is_cli else None
        tracer = Tracer()
        counts: dict = {}
        self.w.observe_counts(tracer, counts)
        recording = self.w.InProcessCli(tracer) if is_cli else None

        def traced_loop(k):
            counts.clear()
            first = len(tracer.spans)
            tracer.install()
            try:
                loop = self.one_loop(inputs, recording, k)
            finally:
                tracer.uninstall()
            row = {f"{layer}.{kind}": zero for layer in LAYERS for kind, zero in (("self_s", 0.0), ("calls", 0))}
            row.update(layer_times(tracer.spans, first))
            row.update(self.w.count_metrics(counts))
            row["serialize.model_bytes"] = loop.model_bytes
            return loop, row

        def pair(k):
            # the same input both ways; alternate which side runs first, so drift cancels
            if k % 2 == 0:
                plain_loop = self.one_loop(inputs, plain, k)
                traced = traced_loop(k)
            else:
                traced = traced_loop(k)
                plain_loop = self.one_loop(inputs, plain, k)
            return plain_loop, *traced

        pairs = self.repeat(pair)
        plain_loops, traced_loops, layer_rows = (list(side) for side in zip(*pairs))
        spans_path = self.workdir / "spans.json"
        tracer.write(spans_path)
        print(f"  spans: {spans_path}", file=sys.stderr)

        med = statistics.median
        metrics = {
            name: (med if unit == "s" else statistics.median_low)(r[name] for r in layer_rows)
            for name, unit in PER_LAYER
            if name in layer_rows[0]
        }
        metrics["cli.import_s"] = med(import_times)
        metrics["trace.overhead_s"] = med(sum(l.times.values()) for l in traced_loops) - med(
            sum(l.times.values()) for l in plain_loops
        )
        self.check_reference(traced_loops)
        return metrics, plain_loops + traced_loops


def report(name: str, metrics: dict, units: dict, loops: list, ops: int) -> tuple[int, int]:
    attempted = len(loops) * ops
    failed = sum(len(l.failed_ops) for l in loops)
    print(f"{name}: {len(loops)} loop(s), attempted={attempted} failed={failed}")
    for loop in loops:
        print("  loop " + " ".join(f"{op}={t:.4f}" for op, t in loop.times.items()), file=sys.stderr)
    for key, value in metrics.items():
        print(f"  {key:26s} {value!r} {units[key]}")
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; confirm claims on the held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=52.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; every workload in seconds")
    args = parser.parse_args(argv)

    if not (SRC / "idr" / "__init__.py").is_file():
        print(f"error: {SRC / 'idr'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # one thread, like every process the benchmark starts
    sys.path.insert(0, str(SRC))
    import workloads as wl_module

    sizes = wl_module.SIZES["smoke" if args.smoke else "full"]
    names = wl_module.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in sizes for n in names):
        parser.error(f"--workload must be one of {', '.join(wl_module.WORKLOADS)} or all")

    WORK.mkdir(exist_ok=True)
    env = environment(wl_module, time.monotonic() + CHILD_BUDGET_S)
    print("environment: " + json.dumps(env, sort_keys=True))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        workdir = WORK / f"{name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
        workdir.mkdir(exist_ok=True)
        workload = sizes[name]()
        run = Run(wl_module, workload, args.seed, args.seconds, workdir, args.smoke)
        metrics, loops = run.traced() if args.trace else run.untraced()
        metrics = {key: metrics[key] for key in units}
        a, f = report(name, metrics, units, loops, workload.ops)
        attempted += a
        failed += f
        prefix = "" if len(names) == 1 else f"{name}."
        all_metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
        (workdir / "result.json").write_text(
            json.dumps({"environment": env, "seed": args.seed, "trace": args.trace, "metrics": metrics}, indent=1)
        )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
