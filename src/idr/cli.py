"""Command-line front end: fitting, prediction, scoring, simulation.

All file interchange is CSV (comma separator, UTF-8, mandatory header)
and models are stored as versioned JSON.  Every source of randomness
is tied to an explicit --seed so repeated runs produce identical bytes.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import sys
from collections import Counter

import click
import numpy as np

from .fitting import fit_idr, make_training_set
from .orders import (
    COMPONENTWISE,
    EMPIRICAL_ICX,
    EMPIRICAL_STOCHASTIC,
    TOTAL,
    OrderGroup,
    OrderSpec,
)
from .oracles import simulate_gamma, true_gamma_cdf, true_gamma_crps, true_gamma_quantile
from .prediction import empirical_crps_loss, predict_blocks
from .scoring import (brier, brier_rows, crps_rows, finite_mean, pinball, pit_histogram, pit_rows,
                      quantile_score_rows, reliability_bins)
from .serialize import load_model, save_model
from .stepfun import CASE_BLOCK, check_span, evaluate_grid, evaluate_rows, quantile_rows
from .subagging import fit_even_odd, fit_subagged

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

#: Upper limit of --bins, the rows of a table.
MAX_BINS = 1000

_RELATION_ALIASES = {
    "cw": COMPONENTWISE,
    "componentwise": COMPONENTWISE,
    "st": EMPIRICAL_STOCHASTIC,
    "empirical_stochastic": EMPIRICAL_STOCHASTIC,
    "icx": EMPIRICAL_ICX,
    "empirical_icx": EMPIRICAL_ICX,
    "total": TOTAL,
}


class CliDataError(Exception):
    """Malformed input file or unparseable specification (exit 2)."""


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CliDataError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        except (ValueError, KeyError, TypeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


def _lines(numbers) -> str:
    """The first ten of a list of line numbers, and how many more."""
    more = "" if len(numbers) <= 10 else f" (and {len(numbers) - 10} more)"
    return ", ".join(str(n) for n in numbers[:10]) + more


def _load_table(path):
    """Read a CSV file into (header, cells), a float matrix as wide as
    the header with NaN where a cell is no number; the rows are parsed
    a block at a time, so none is kept as strings.  Errors name file
    lines (the header is line 1).  A leading byte-order mark is dropped."""
    blocks, ragged, line = [], [], 2
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CliDataError(f"{path}: file is empty, a header row is required")
            for rows in iter(lambda: list(itertools.islice(reader, CASE_BLOCK)), []):
                ragged += [line + r for r, row in enumerate(rows) if len(row) != len(header)]
                line += len(rows)
                if not ragged:
                    blocks.append(np.array([list(map(_number, row)) for row in rows]).reshape(len(rows), len(header)))
    except UnicodeDecodeError:
        raise CliDataError(f"{path}: not valid UTF-8")
    if ragged:
        raise CliDataError(f"{path}: the header has {len(header)} fields, but not the rows at lines {_lines(ragged)}")
    return header, np.concatenate(blocks or [np.empty((0, len(header)))])


def _ascii_float(text: str) -> float:
    """float(text) for ASCII text without ``_``: float() also reads
    ``1_0`` as 10 and non-ASCII digits such as ``٣``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return float(text)


def _number(text: str) -> float:
    """The number ``text`` holds, or NaN where it holds none."""
    try:
        return _ascii_float(text)
    except ValueError:
        return math.nan


def _column_indices(path, header, names):
    idx = []
    for name in names:
        hits = [i for i, h in enumerate(header) if h == name]
        if not hits:
            raise CliDataError(f"{path}: column {name!r} not found in header")
        if len(hits) > 1:
            raise CliDataError(f"{path}: column {name!r} appears more than once")
        idx.append(hits[0])
    return idx


def _numeric_columns(path, header, cells, names) -> np.ndarray:
    """The named columns of :func:`_load_table` cells as a float
    matrix, rejecting rows with a non-finite cell by file line number."""
    if not len(cells):
        raise ValueError(f"{path}: no data rows")
    block = cells[:, _column_indices(path, header, names)]
    finite = np.isfinite(block)
    if finite.all():
        return block
    lines = (np.flatnonzero(~finite.all(axis=1)) + 2).tolist()
    cols = sorted({name for name, ok in zip(names, finite.all(axis=0)) if not ok})
    raise CliDataError(f"{path}: missing or non-numeric values in columns {cols} at lines {_lines(lines)}")


def parse_order_string(text: str, header: list[str]) -> OrderSpec:
    """Parse the textual order declaration against a data header.

    Groups are separated by semicolons, each written ``columns:relation``
    with columns a comma list of header names or inclusive name ranges
    ``first-last``.  Relations: cw, st, icx, total.  The resulting spec
    indexes into the referenced columns in order of first mention and
    carries their names.
    """
    # a name occurring twice in the header cannot be referenced safely
    positions: dict[str, int] = {}
    dup: set[str] = set()
    for i, h in enumerate(header):
        if h in positions:
            dup.add(h)
        else:
            positions[h] = i

    def resolve(ref: str) -> list[str]:
        if ref in dup:
            raise CliDataError(f"column {ref!r} appears more than once in the header")
        if ref in positions:
            return [ref]
        spans = []
        for cut in range(len(ref)):
            if ref[cut] != "-":
                continue
            a, b = ref[:cut], ref[cut + 1 :]
            if a in positions and b in positions and a not in dup and b not in dup:
                spans.append((a, b))
        if len(spans) != 1:
            kind = "ambiguous range" if len(spans) > 1 else "unknown column or range"
            raise CliDataError(f"{kind} {ref!r} in order specification")
        a, b = spans[0]
        lo, hi = positions[a], positions[b]
        if lo > hi:
            raise CliDataError(f"range {ref!r} runs right to left in the header")
        return header[lo : hi + 1]

    names: list[str] = []
    seen: set[str] = set()
    groups: list[OrderGroup] = []
    for raw_item in text.split(";"):
        item = raw_item.strip()
        if not item:
            raise CliDataError("empty group in order specification")
        if ":" not in item:
            raise CliDataError(f"group {item!r} lacks a ':relation' suffix")
        cols_part, rel_part = item.rsplit(":", 1)
        relation = _RELATION_ALIASES.get(rel_part.strip().lower())
        if relation is None:
            raise CliDataError(f"unknown relation {rel_part.strip()!r} (use cw, st, icx or total)")
        cols: list[int] = []
        for ref in cols_part.split(","):
            ref = ref.strip()
            if not ref:
                raise CliDataError(f"empty column reference in group {item!r}")
            for name in resolve(ref):
                if name in seen:
                    raise CliDataError(f"column {name!r} referenced more than once")
                seen.add(name)
                cols.append(len(names))
                names.append(name)
        groups.append(OrderGroup(tuple(cols), relation))
    return OrderSpec(tuple(groups), tuple(names))


def _finite_float(text: str, what: str) -> float:
    try:
        val = _ascii_float(text)
    except ValueError:
        raise CliDataError(f"bad {what} value {text!r}")
    if not math.isfinite(val):
        raise CliDataError(f"{what} values must be finite")
    return val


def _float_list(text: str, what: str, low=None, high=None) -> list[float]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        val = _finite_float(part, what)
        if (low is not None and val <= low) or (high is not None and val >= high):
            raise CliDataError(f"{what} value {val} out of range")
        out.append(val)
    if not out:
        raise CliDataError(f"no {what} values given")
    # output columns are named by the values in :g form
    shown = Counter(f"{v:g}" for v in out)
    clash = [repr(v) for v in out if shown[f"{v:g}"] > 1]
    if clash:
        raise CliDataError(f"{what} values {', '.join(clash)} would share an output column")
    return out


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cells(values):
    """One CSV cell per value, made as it is written: the shortest repr
    that reads back as the same float."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _covariate_names(model) -> list[str]:
    spec = model.spec
    if spec.column_names is None:
        raise ValueError("model carries no column names; refit through the command line")
    return list(spec.column_names)


_EPILOG = (
    "Exit codes: 0 success; 2 unparseable input (CSV, order string, "
    "flags); 3 validation failure (inconsistent data, bad model file); "
    "4 I/O failure."
)


@click.group(epilog=_EPILOG)
def main():
    """Distributional regression under order constraints.

    Fit calibrated conditional CDFs to covariate/response tables,
    predict at new covariates, and evaluate with proper scoring rules.
    """


@main.command()
@click.option("--n", type=click.IntRange(min=1), required=True, help="Number of rows to draw.")
@click.option("--seed", type=click.IntRange(min=0), required=True, help="Random seed.")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output CSV path.")
@_handle_errors
def simulate(n, seed, out):
    """Draw (x, y) rows from the built-in gamma benchmark."""
    x, y = simulate_gamma(n, seed)
    _write_csv(out, ["x", "y"], zip(_cells(x), _cells(y)))
    click.echo(f"wrote {n} rows to {out}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=False, dir_okay=False), required=True)
@click.option("--response", required=True, help="Response column name.")
@click.option("--order", "order_text", required=True, help="Order spec, e.g. 'x:total' or 'hres:total;p1-p50:icx'.")
@click.option("--weight", "weight_col", default=None, help="Optional weight column name.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--subagg-count", type=int, default=0, help="Number of subsample fits (0 = plain fit).")
@click.option("--subagg-size", type=int, default=0, help="Rows per subsample (needs --subagg-count).")
@click.option("--split", type=click.Choice(["random", "even-odd"]), default="random",
              help="even-odd: two members from the even and odd rows, without the --subagg options.")
@click.option("--seed", type=click.IntRange(min=0), default=0, help="Seed for subsampling.")
@_handle_errors
def fit(data_path, response, order_text, weight_col, out_path, subagg_count, subagg_size, split, seed):
    """Fit a model and write it as versioned JSON."""
    if subagg_count < 0:
        raise CliDataError("--subagg-count must not be negative")
    if split == "even-odd" and (subagg_count or subagg_size):
        raise CliDataError("--split even-odd takes neither --subagg-count nor --subagg-size")
    if subagg_size and not subagg_count:
        raise CliDataError("--subagg-size needs --subagg-count")
    if subagg_count and subagg_size <= 0:
        raise CliDataError("--subagg-size must be positive when --subagg-count is set")
    header, cells = _load_table(data_path)
    spec = parse_order_string(order_text, header)
    names = list(spec.column_names) + [response]
    if weight_col is not None:
        names.append(weight_col)
    table = _numeric_columns(data_path, header, cells, names)
    d = len(spec.column_names)
    covariates = table[:, :d]
    responses = table[:, d]
    weights = table[:, d + 1] if weight_col is not None else None
    training = make_training_set(spec, covariates, responses, weights)

    # a plain fit's solver has built the cover edges (a chain's cost O(n)); subagged members never read them
    edges = ""
    if split == "even-odd":
        model = fit_even_odd(training, seed)
    elif subagg_count > 0:
        model = fit_subagged(training, subagg_count, subagg_size, seed)
    else:
        model = fit_idr(training)
        edges = f" edges={len(training.dag.edges())}"

    save_model(model, out_path)
    click.echo(f"n={training.n} nodes={training.dag.n_nodes}{edges} mean_crps={empirical_crps_loss(model, training)!r}")


@main.command()
@click.option("--model", "model_path", type=click.Path(dir_okay=False), required=True)
@click.option("--data", "data_path", type=click.Path(dir_okay=False), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--quantiles", default="0.5", help="Comma list of quantile levels in (0,1).")
@click.option("--thresholds", default=None, help="Comma list of thresholds for P(Y <= z).")
@click.option("--interpolate", is_flag=True, help="Linear interpolation (single total-order covariate only).")
@_handle_errors
def predict(model_path, data_path, out_path, quantiles, thresholds, interpolate):
    """Predict CDF summaries at the covariates of a CSV file."""
    model = load_model(model_path)
    names = _covariate_names(model)
    header, cells = _load_table(data_path)
    covariates = _numeric_columns(data_path, header, cells, names)
    alphas = _float_list(quantiles, "quantile", low=0.0, high=1.0)
    zs = _float_list(thresholds, "threshold") if thresholds else []

    cols = np.empty((len(alphas) + len(zs) + 1, covariates.shape[0]))
    provenance = []
    for cut, batch in predict_blocks(model, covariates, interpolate=interpolate):
        cols[:, cut] = np.vstack((quantile_rows(batch.grid, batch.center, alphas).T,
                                  evaluate_grid(batch.grid, batch.center, zs).T, batch.bound_gap))
        provenance += [prov.value for prov in batch.provenance]

    out_header = (
        [f"q{a:g}" for a in alphas] + [f"p_le_{z:g}" for z in zs] + ["provenance", "bound_gap"]
    )
    gaps = ("" if math.isnan(gap) else repr(gap) for gap in cols[-1].tolist())
    _write_csv(out_path, out_header, zip(*map(_cells, cols[:-1]), provenance, gaps))
    click.echo(f"wrote {len(provenance)} predictions to {out_path}")


@main.command()
@click.option("--model", "model_path", type=click.Path(dir_okay=False), default=None)
@click.option("--true-gamma", is_flag=True, help="Score the benchmark's true conditional CDFs instead of a model.")
@click.option("--covariate", default="x", help="Covariate column for --true-gamma.", show_default=True)
@click.option("--data", "data_path", type=click.Path(dir_okay=False), required=True)
@click.option("--response", required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--thresholds", default=None, help="Comma list of Brier-score thresholds.")
@click.option("--alphas", default=None, help="Comma list of quantile-score levels in (0,1).")
@click.option("--seed", type=click.IntRange(min=0), default=0, help="Seed for PIT randomization.")
@_handle_errors
def score(model_path, true_gamma, covariate, data_path, response, out_path, thresholds, alphas, seed):
    """Score predictions case by case and print summary means."""
    if (model_path is None) == (not true_gamma):
        raise CliDataError("give exactly one of --model or --true-gamma")
    if true_gamma:
        try:
            import scipy  # noqa: F401  (the gamma law needs it; idr.oracles imports it lazily)
        except ImportError:
            raise CliDataError("--true-gamma needs scipy, which is not installed; "
                               "install the package with its 'gamma' extra, e.g. pip install '.[gamma]'")
    header, cells = _load_table(data_path)
    ys = _numeric_columns(data_path, header, cells, [response])[:, 0]
    zs = _float_list(thresholds, "threshold") if thresholds else []
    qas = _float_list(alphas, "alpha", low=0.0, high=1.0) if alphas else []
    rng = np.random.default_rng(seed)
    v = rng.uniform(size=ys.size)

    if true_gamma:
        xs = _numeric_columns(data_path, header, cells, [covariate])[:, 0]
        cols = ([true_gamma_crps(xs, ys), true_gamma_cdf(xs, ys)] + [brier(true_gamma_cdf(xs, z), ys, z) for z in zs]
                + [pinball(true_gamma_quantile(xs, a), ys, a) for a in qas])
    else:
        model = load_model(model_path)
        names = _covariate_names(model)
        covariates = _numeric_columns(data_path, header, cells, names)
        grid = model.thresholds
        check_span(np.concatenate([ys, grid]), "outcomes and thresholds")  # all at once: no block sees them all
        cols = np.empty((2 + len(zs) + len(qas), ys.size))
        for cut, batch in predict_blocks(model, covariates, ("center",)):
            f, y = batch.center, ys[cut]
            cols[:, cut] = ([crps_rows(grid, f, y), pit_rows(grid, f, y, v[cut])]
                            + [brier_rows(grid, f, y, z) for z in zs] + [*quantile_score_rows(grid, f, y, qas).T])

    out_header = ["crps", "pit"] + [f"brier_{z:g}" for z in zs] + [f"qs_{a:g}" for a in qas]
    _write_csv(out_path, out_header, zip(*map(_cells, cols)))
    for name, col in zip(out_header, cols):
        click.echo(f"mean_{name}={finite_mean(col)!r}")


@main.command("pit-hist")
@click.option("--scores", "scores_path", type=click.Path(dir_okay=False), required=True,
              help="CSV with a 'pit' column (as written by score).")
@click.option("--bins", type=click.IntRange(1, MAX_BINS), default=10, show_default=True, help="Number of bins.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def pit_hist(scores_path, bins, out_path):
    """Histogram of PIT values, as plot-ready CSV."""
    header, cells = _load_table(scores_path)
    pit_vals = _numeric_columns(scores_path, header, cells, ["pit"])[:, 0]
    lo, hi, k, f = zip(*pit_histogram(pit_vals, bins))
    _write_csv(out_path, ["bin_low", "bin_high", "count", "frequency"],
               zip(_cells(lo), _cells(hi), map(str, k), _cells(f)))
    click.echo(f"wrote {bins} bins to {out_path}")


@main.command()
@click.option("--model", "model_path", type=click.Path(dir_okay=False), required=True)
@click.option("--data", "data_path", type=click.Path(dir_okay=False), required=True)
@click.option("--response", required=True)
@click.option("--threshold", metavar="FLOAT", required=True, help="Event threshold z for P(Y <= z).")
@click.option("--bins", type=click.IntRange(2, MAX_BINS), default=10, show_default=True, help="Number of bins.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def reliability(model_path, data_path, response, threshold, bins, out_path):
    """Reliability-diagram data for the event Y <= z."""
    threshold = _finite_float(threshold, "threshold")
    model = load_model(model_path)
    names = _covariate_names(model)
    header, cells = _load_table(data_path)
    covariates = _numeric_columns(data_path, header, cells, names)
    ys = _numeric_columns(data_path, header, cells, [response])[:, 0]
    probs = np.empty(ys.size)
    for cut, batch in predict_blocks(model, covariates, ("center",)):
        probs[cut] = evaluate_rows(model.thresholds, batch.center, threshold)
    outcomes = (ys <= threshold).astype(float)
    c, m, f, k = zip(*reliability_bins(probs, outcomes, bins))
    _write_csv(out_path, ["bin_center", "mean_forecast", "observed_frequency", "count"],
               zip(_cells(c), _cells(m), _cells(f), map(str, k)))
    click.echo(f"wrote {bins} bins to {out_path}")


if __name__ == "__main__":
    main()
