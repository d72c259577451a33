"""The benchmark's seeded inputs, its three workloads and their checks.

Every workload draws y from the same heteroskedastic gamma law at a
latent s: shape sqrt(s), scale min(max(s, 1), 6).  The law and its
closed-form CRPS are written out here, not imported from ``idr``, so
the program under test never supplies its own reference.

One loop is fit, then predict, then score, each waiting for the one
before (a closed loop with one client).  A loop returns its timings
and what its checks found; :func:`repeat` runs loops until a run's
time is up.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import special

QUANTILES = (0.1, 0.5, 0.9)
THRESHOLD = 2.0
ALPHA = 0.5
PIT_SEED = 5


def gamma_law(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape and scale of the response law at latent ``s``."""
    return np.sqrt(s), np.clip(s, 1.0, 6.0)


def draw_gamma(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    shape, scale = gamma_law(s)
    return rng.gamma(shape, scale)


def true_crps(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """CRPS of the true gamma law at ``s`` against outcomes ``y``."""
    k, theta = gamma_law(s)
    f1 = special.gammainc(k, y / theta)
    f2 = special.gammainc(k + 1.0, y / theta)
    inv_beta = np.exp(special.gammaln(k + 0.5) - special.gammaln(k) - special.gammaln(0.5))
    return y * (2.0 * f1 - 1.0) - k * theta * (2.0 * f2 - 1.0) - theta * inv_beta


@dataclass
class Inputs:
    """One workload's generated data: column name -> values."""

    train: dict[str, np.ndarray]
    test: dict[str, np.ndarray]
    s_test: np.ndarray


@dataclass
class Loop:
    """What one fit -> predict -> score loop measured and found."""

    times: dict[str, float]
    peak_rss_mb: float
    model_bytes: int
    #: mean CRPS of the model, and of the true law, over the loop's test cases
    crps: float
    true_crps: float
    failed_ops: dict[str, list[str]] = field(default_factory=dict)

    def fail(self, op: str, why: str):
        self.failed_ops.setdefault(op, []).append(why)


def write_csv(path: Path, columns: dict[str, np.ndarray]):
    names = list(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*([repr(float(v)) for v in columns[n]] for n in names)))


def read_numeric_csv(path: Path, rows: int, header: list[str]) -> tuple[dict[str, np.ndarray] | None, str]:
    """Parse an output CSV; returns (columns, "") or (None, reason)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        return None, f"{path.name}: {exc}"
    if not table or table[0][: len(header)] != header:
        return None, f"{path.name}: header {table[0] if table else None} lacks {header}"
    body = table[1:]
    if len(body) != rows:
        return None, f"{path.name}: {len(body)} rows, expected {rows}"
    try:
        cols = {h: np.array([float(r[i]) for r in body]) for i, h in enumerate(header)}
    except (ValueError, IndexError) as exc:
        return None, f"{path.name}: {exc}"
    if not all(np.isfinite(c).all() for c in cols.values()):
        return None, f"{path.name}: non-finite values"
    return cols, ""


def quantiles_nondecreasing(q: np.ndarray) -> bool:
    """``q`` has one column per level in QUANTILES, in that order."""
    return bool(np.all(np.diff(q, axis=1) >= 0))


def repeat(one_loop, seconds: float, min_loops: int, deadline: float) -> list:
    """Call ``one_loop(index)`` for index 0, 1, ... and return the results.

    Runs at least ``min_loops`` loops, then starts another only while
    one more of median length would end less than half a loop after
    ``seconds`` from the start, and before ``deadline`` (a
    ``time.monotonic`` value).  So a run lasts ``seconds`` give or take
    half a loop, however long its loops are.
    """
    results, lengths = [], []
    started = perf_counter()
    while True:
        begin = perf_counter()
        results.append(one_loop(len(results)))
        lengths.append(perf_counter() - begin)
        if len(results) >= min_loops:
            typical = statistics.median(lengths)
            if perf_counter() - started + typical / 2 > seconds or time.monotonic() + typical > deadline:
                return results


# ---------------------------------------------------------------- processes


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], env: dict[str, str], log: Path, deadline: float) -> tuple[int, float]:
    """Run a child to completion; returns (exit code, peak RSS in MB).

    The child is killed, and -9 returned, once ``deadline`` passes.
    """
    with open(log, "wb") as out:
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT, env=env)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class ChildCli:
    """Runs each ``idr`` command in its own interpreter, as a user would."""

    def __init__(self, src: Path, workdir: Path, deadline: float):
        self.env = child_env(src)
        self.workdir = workdir
        self.deadline = deadline

    def __call__(self, op: str, args: list[str]) -> tuple[int, float]:
        cmd = [sys.executable, "-m", "idr.cli", *args]
        return run_child(cmd, self.env, self.workdir / f"{op}.log", self.deadline)


class ChildLib:
    """Runs a whole run's library loops in one fresh interpreter, which
    times each loop itself, so that interpreter start-up and imports
    stay out of the timings and the child's peak RSS is the work's."""

    def __init__(self, src: Path, workdir: Path, deadline: float):
        self.env = child_env(src)
        self.workdir = workdir
        self.deadline = deadline

    def __call__(self, workload, seconds: float) -> list[Loop]:
        out = self.workdir / "libloops.json"
        out.unlink(missing_ok=True)
        # the child stops starting loops a few seconds before it would be killed
        budget = self.deadline - time.monotonic() - 5.0
        cmd = [sys.executable, __file__, str(self.workdir), *map(str, workload.sizes), str(seconds), str(budget)]
        code, rss = run_child(cmd, self.env, self.workdir / "libloops.log", self.deadline)
        if code != 0 or not out.exists():
            loop = Loop({f"{op}_s": math.nan for op in ("fit", "predict", "score")}, rss, 0, math.nan, math.nan)
            for op in ("fit", "predict", "score"):
                loop.fail(op, f"library loops exited with code {code}; see {self.workdir / 'libloops.log'}")
            return [loop]
        loops = [Loop(**fields) for fields in json.loads(out.read_text())]
        for loop in loops:
            loop.peak_rss_mb = rss
        return loops


class InProcessCli:
    """Runs ``idr`` commands through click in this interpreter, one span each."""

    def __init__(self, tracer=None):
        import idr.cli

        self.main = idr.cli.main
        self.tracer = tracer

    def _invoke(self, args: list[str]) -> int:
        sink = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                self.main.main(args, prog_name="idr", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # click usage errors and anything the command lets escape
            return 1
        return 0

    def __call__(self, op: str, args: list[str]) -> tuple[int, float]:
        if self.tracer is None:
            code = self._invoke(args)
        else:
            code = self.tracer.call(f"cli.{op}", self._invoke, args)
        return code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- workloads


class CliWorkload:
    """A table written to CSV and run through ``idr fit/predict/score``."""

    entry = "idr.cli"
    ops = 3  # fit, predict, score
    min_loops = 1  # every loop runs on the same inputs

    def __init__(self, name: str, order: str, n_train: int, n_test: int, fit_flags: tuple[str, ...] = ()):
        self.name = name
        self.order = order
        self.n_train = n_train
        self.n_test = n_test
        self.fit_flags = fit_flags

    def write(self, inputs: Inputs, workdir: Path):
        write_csv(workdir / "train.csv", inputs.train)
        write_csv(workdir / "test.csv", inputs.test)

    def commands(self, workdir: Path) -> list[tuple[str, list[str]]]:
        train, test = str(workdir / "train.csv"), str(workdir / "test.csv")
        model = str(workdir / "model.json")
        return [
            ("fit", ["fit", "--data", train, "--response", "y", "--order", self.order,
                     "--out", model, *self.fit_flags]),
            ("predict", ["predict", "--model", model, "--data", test,
                         "--quantiles", ",".join(map(str, QUANTILES)),
                         "--thresholds", str(THRESHOLD), "--out", str(workdir / "preds.csv")]),
            ("score", ["score", "--model", model, "--data", test, "--response", "y",
                       "--thresholds", str(THRESHOLD), "--alphas", str(ALPHA),
                       "--out", str(workdir / "scores.csv")]),
        ]

    def loop(self, inputs: Inputs, workdir: Path, runner, index: int = 0) -> Loop:
        for stale in ("model.json", "preds.csv", "scores.csv"):
            (workdir / stale).unlink(missing_ok=True)
        times, rss, codes = {}, [], {}
        for op, args in self.commands(workdir):
            start = perf_counter()
            codes[op], peak = runner(op, args)
            times[f"{op}_s"] = perf_counter() - start
            rss.append(peak)
        model = workdir / "model.json"
        result = Loop(times, max(rss), model.stat().st_size if model.exists() else 0, math.nan, math.nan)
        for op, code in codes.items():
            if code != 0:
                result.fail(op, f"exit code {code}")

        q_names = [f"q{a:g}" for a in QUANTILES]
        preds, why = read_numeric_csv(workdir / "preds.csv", self.n_test, q_names + [f"p_le_{THRESHOLD:g}"])
        if preds is None:
            result.fail("predict", why)
        elif not quantiles_nondecreasing(np.column_stack([preds[n] for n in q_names])):
            result.fail("predict", "quantiles decrease in alpha")

        scores, why = read_numeric_csv(
            workdir / "scores.csv", self.n_test, ["crps", "pit", f"brier_{THRESHOLD:g}", f"qs_{ALPHA:g}"]
        )
        if scores is None:
            result.fail("score", why)
        else:
            result.crps = float(scores["crps"].mean())
            result.true_crps = float(true_crps(inputs.s_test, inputs.test["y"]).mean())
        return result


class GammaChain(CliWorkload):
    """One total-order covariate, x = s: the README quick-start path."""

    def __init__(self, n_train: int, n_test: int):
        super().__init__("gamma-chain-cli", "x:total", n_train, n_test)

    def inputs(self, rng: np.random.Generator) -> Inputs:
        def table(n):
            s = rng.uniform(0.0, 10.0, size=n)
            return s, {"x": s, "y": draw_gamma(rng, s)}

        _, train = table(self.n_train)
        s_test, test = table(self.n_test)
        return Inputs(train, test, s_test)


class IcxSubagg(CliWorkload):
    """A noisy point forecast (total) plus an exchangeable ensemble (icx),
    fitted by subsample aggregation: the paper's ensemble use case."""

    MEMBERS = 10

    def __init__(self, n_train: int, n_test: int, count: int, size: int):
        flags = ("--subagg-count", str(count), "--subagg-size", str(size), "--seed", "3")
        super().__init__("icx-subagg-cli", f"hres:total;p1-p{self.MEMBERS}:icx", n_train, n_test, flags)

    def inputs(self, rng: np.random.Generator) -> Inputs:
        def table(n):
            s = rng.uniform(0.0, 10.0, size=n)
            cols = {"hres": s + rng.normal(size=n)}
            for j in range(1, self.MEMBERS + 1):
                cols[f"p{j}"] = draw_gamma(rng, s)
            cols["y"] = draw_gamma(rng, s)
            return s, cols

        _, train = table(self.n_train)
        s_test, test = table(self.n_test)
        return Inputs(train, test, s_test)


class Cw2Poset:
    """Two covariates under the componentwise order, s = their mean,
    fitted and scored through library calls only: the poset min-cut
    solver without the CLI or serialization around it.

    One loop fits, predicts and scores one table; loop k takes table
    k of a seeded pool, wrapping round.  The min-cut work depends on
    the sample (the fit time of one table varies by about a third
    between tables), so the run's median over many distinct tables is
    far steadier across seeds than one table's time.  ``crps_ratio``
    and ``model_mb`` come from the first ``reference_tables`` loops,
    which every run completes, so they do not depend on speed."""

    entry = "idr"
    name = "cw2-poset-lib"
    ops = 3

    def __init__(self, pool: int, n_train: int, n_test: int, reference_tables: int):
        self.sizes = (pool, n_train, n_test, reference_tables)
        self.pool = pool
        self.n_train = n_train
        self.n_test = n_test
        self.min_loops = reference_tables

    def inputs(self, rng: np.random.Generator) -> list[Inputs]:
        def table(n):
            x = rng.uniform(0.0, 10.0, size=(n, 2))
            s = x.mean(axis=1)
            return s, {"x1": x[:, 0], "x2": x[:, 1], "y": draw_gamma(rng, s)}

        out = []
        for _ in range(self.pool):
            _, train = table(self.n_train)
            s_test, test = table(self.n_test)
            out.append(Inputs(train, test, s_test))
        return out

    def write(self, inputs: list[Inputs], workdir: Path):
        arrays = {}
        for k, table in enumerate(inputs):
            arrays.update({f"{k}.train.{c}": v for c, v in table.train.items()})
            arrays.update({f"{k}.test.{c}": v for c, v in table.test.items()})
            arrays[f"{k}.s_test"] = table.s_test
        np.savez(workdir / "inputs.npz", **arrays)

    def read(self, workdir: Path) -> list[Inputs]:
        with np.load(workdir / "inputs.npz") as data:
            cols = ("x1", "x2", "y")
            return [
                Inputs({c: data[f"{k}.train.{c}"] for c in cols}, {c: data[f"{k}.test.{c}"] for c in cols},
                       data[f"{k}.s_test"])
                for k in range(self.pool)
            ]

    def loop(self, inputs: list[Inputs], workdir: Path, runner=None, index: int = 0) -> Loop:
        """Fit, predict and score table ``index`` (mod the pool) here."""
        table = inputs[index % self.pool]
        result = Loop({"fit_s": 0.0, "predict_s": 0.0, "score_s": 0.0}, 0.0, 0, math.nan, math.nan)
        result.crps = float(self._table(table, result).mean())
        result.true_crps = float(true_crps(table.s_test, table.test["y"]).mean())
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result

    def _table(self, table: Inputs, result: Loop) -> np.ndarray:
        """Fit, predict and score one table; adds its times and checks to ``result``."""
        import idr

        spec = idr.OrderSpec((idr.OrderGroup((0, 1), idr.COMPONENTWISE),))
        x_train = np.column_stack([table.train["x1"], table.train["x2"]])
        x_test = np.column_stack([table.test["x1"], table.test["x2"]])
        y_test = table.test["y"]
        v = np.random.default_rng(PIT_SEED).uniform(size=y_test.size)

        start = perf_counter()
        training = idr.make_training_set(spec, x_train, table.train["y"])
        model = idr.fit_idr(training)
        result.times["fit_s"] = perf_counter() - start

        start = perf_counter()
        rows, _ = idr.predict_rows(model, x_test)
        result.times["predict_s"] = perf_counter() - start

        start = perf_counter()
        grid = model.thresholds
        crps = idr.crps_rows(grid, rows, y_test)
        extra = np.empty((y_test.size, 3))
        for i, (row, y) in enumerate(zip(rows, y_test)):
            cdf = idr.StepCdf(grid, row, validate=False)
            extra[i] = (idr.brier_score(cdf, THRESHOLD, y), idr.quantile_score(cdf, ALPHA, y), idr.pit(cdf, y, v[i]))
        result.times["score_s"] = perf_counter() - start

        text = idr.model_to_json(model)
        result.model_bytes = len(text.encode("utf-8"))
        why = fitted_cdf_problem(model.cdf, model.dag.reach)
        if why:
            result.fail("fit", why)
        reloaded = idr.model_from_json(text)
        if not (np.array_equal(reloaded.cdf, model.cdf) and np.array_equal(reloaded.thresholds, grid)):
            result.fail("fit", "JSON round trip changed the model")

        if rows.shape != (y_test.size, grid.size) or not np.isfinite(rows).all():
            result.fail("predict", f"prediction rows of shape {rows.shape} or not finite")
        else:
            levels = np.array(QUANTILES)
            q = grid[np.argmax(rows[:, :, None] >= levels[None, None, :], axis=1)]
            if not quantiles_nondecreasing(q):
                result.fail("predict", "quantiles decrease in alpha")

        if not (np.isfinite(crps).all() and np.isfinite(extra).all()):
            result.fail("score", "non-finite scores")
        return crps


def fitted_cdf_problem(cdf: np.ndarray, reach: np.ndarray, tol: float = 1e-12) -> str:
    """Why the fitted rows are not valid antitonic CDFs, or ""."""
    if not np.isfinite(cdf).all() or cdf.min() < 0.0 or cdf.max() > 1.0:
        return "fitted CDF values outside [0, 1]"
    if np.any(np.diff(cdf, axis=1) < 0):
        return "a fitted CDF row decreases"
    if np.any(cdf[:, -1] != 1.0):
        return "a fitted CDF row does not end at 1"
    lower, upper = np.nonzero(reach)
    for lo in range(0, lower.size, 4096):
        u, v = lower[lo : lo + 4096], upper[lo : lo + 4096]
        if np.any(cdf[u] < cdf[v] - tol):
            return "fit is not antitonic over dag.reach"
    return ""


def cover_edges_exact(reach: np.ndarray) -> int:
    """Cover edges of a transitively closed order, by a float32 matmul
    (exact while the node count stays below 2**24)."""
    strict = reach & ~np.eye(reach.shape[0], dtype=bool)
    as_float = strict.astype(np.float32)
    return int(np.count_nonzero(strict & ~((as_float @ as_float) > 0)))


def observe_counts(tracer, counts: dict):
    """Have ``tracer`` add up, in ``counts``, the work each layer did."""

    def add(key, amount):
        counts[key] = counts.get(key, 0) + amount

    def on_dag(dag):
        add("reach_cells", dag.n_nodes**2)
        if "dag" not in counts or dag.n_nodes > counts["dag"].n_nodes:
            counts["dag"] = dag

    tracer.observe("orders.build_order_dag", on_dag)
    tracer.observe("fitting.fit_idr", lambda model: add("cells", model.cdf.size))
    tracer.observe("subagging.fit_subagged", lambda model: add("members", len(model.members)))
    tracer.observe("subagging.predict_subagged_rows", lambda rows: add("grid_cells", rows.size))
    tracer.observe("subagging.predict_subagged", lambda pred: add("grid_cells", pred.cdf.jumps.size))
    tracer.observe("scoring.crps_rows", lambda scores: add("cases", scores.size))


def count_metrics(counts: dict) -> dict[str, float]:
    """Per-layer counts of one traced loop; the orders counts describe
    the largest DAG the loop built (the training DAG)."""
    dag = counts["dag"]
    return {
        "orders.nodes": dag.n_nodes,
        "orders.cover_edges": len(dag.edges()),
        "orders.cover_edges_exact": cover_edges_exact(dag.reach),
        "orders.reach_mb": counts.get("reach_cells", 0) / 1e6,
        "fitting.cells": counts.get("cells", 0),
        "fitting.cdf_mb": counts.get("cells", 0) * 8 / 1e6,
        "subagging.members": counts.get("members", 0),
        "subagging.grid_cells": counts.get("grid_cells", 0),
        "scoring.cases": counts.get("cases", 0),
    }


SIZES = {
    "full": {
        "gamma-chain-cli": lambda: GammaChain(500, 1000),
        "cw2-poset-lib": lambda: Cw2Poset(64, 100, 250, reference_tables=16),
        "icx-subagg-cli": lambda: IcxSubagg(1000, 300, count=10, size=60),
    },
    "smoke": {
        "gamma-chain-cli": lambda: GammaChain(60, 40),
        "cw2-poset-lib": lambda: Cw2Poset(3, 30, 20, reference_tables=2),
        "icx-subagg-cli": lambda: IcxSubagg(120, 40, count=3, size=40),
    },
}
WORKLOADS = tuple(SIZES["full"])


def make_inputs(workload, seed: int) -> Inputs:
    """The workload's inputs; the same seed always gives the same data."""
    return workload.inputs(np.random.default_rng([seed, WORKLOADS.index(workload.name)]))


if __name__ == "__main__":
    # A run's cw2-poset-lib loops in a fresh interpreter (see ChildLib):
    #   python workloads.py <workdir> <pool> <n_train> <n_test> <reference_tables> <seconds> <budget>
    work = Path(sys.argv[1])
    lib = Cw2Poset(*map(int, sys.argv[2:6]))
    tables = lib.read(work)
    run_seconds, budget = map(float, sys.argv[6:8])
    done = repeat(lambda k: lib.loop(tables, work, index=k), run_seconds, lib.min_loops, time.monotonic() + budget)
    (work / "libloops.json").write_text(json.dumps([dataclasses.asdict(loop) for loop in done]))
