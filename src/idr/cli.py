"""Command-line front end: fitting, prediction, scoring, simulation.

All file interchange is CSV (comma separator, UTF-8, mandatory header)
and models are stored as versioned JSON.  Every source of randomness
is tied to an explicit --seed so repeated runs produce identical bytes.
"""

from __future__ import annotations

import csv
import functools
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
from .prediction import predict_batch, predict_rows
from .scoring import brier, brier_rows, crps_rows, pinball, pit_rows, quantile_score_rows, reliability_bins
from .serialize import load_model, save_model
from .stepfun import evaluate_rows, quantile_rows
from .subagging import fit_even_odd, fit_subagged

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

#: Upper limit of --bins: the rows of a table, and passes of reliability_bins over the cases.
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
    """Read a CSV file into (header, raw string rows), each row as wide
    as the header; errors name file lines (the header is line 1)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CliDataError(f"{path}: file is empty, a header row is required")
            rows = list(reader)
    except UnicodeDecodeError:
        raise CliDataError(f"{path}: not valid UTF-8")
    ragged = [r + 2 for r, row in enumerate(rows) if len(row) != len(header)]
    if ragged:
        raise CliDataError(f"{path}: the header has {len(header)} fields, but not the rows at lines {_lines(ragged)}")
    return header, rows


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


def _numeric_columns(path, header, rows, names) -> np.ndarray:
    """Extract named columns of :func:`_load_table` rows as a float
    matrix, rejecting bad rows by their file line numbers."""
    if not rows:
        raise ValueError(f"{path}: no data rows")
    idx = _column_indices(path, header, names)
    try:
        block = np.array(rows, dtype=object)[:, idx].astype(float)
        if np.isfinite(block).all():
            return block
    except (ValueError, TypeError):
        pass
    bad = []
    bad_cols = set()
    out = np.empty((len(rows), len(idx)))
    for r, row in enumerate(rows):
        ok = True
        for c, i in enumerate(idx):
            try:
                val = float(row[i]) if row[i].strip() != "" else math.nan
            except ValueError:
                val = math.nan
            if math.isfinite(val):
                out[r, c] = val
            else:
                ok = False
                bad_cols.add(names[c])
        if not ok:
            bad.append(r + 2)
    if bad:
        raise CliDataError(f"{path}: missing or non-numeric values in columns {sorted(bad_cols)} at lines {_lines(bad)}")
    return out


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


def _float_list(text: str, what: str, low=None, high=None) -> list[float]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            val = float(part)
        except ValueError:
            raise CliDataError(f"bad {what} value {part!r}")
        if not math.isfinite(val):
            raise CliDataError(f"{what} values must be finite")
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


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


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
@click.option("--n", type=int, required=True, help="Number of rows to draw.")
@click.option("--seed", type=int, required=True, help="Random seed.")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output CSV path.")
@_handle_errors
def simulate(n, seed, out):
    """Draw (x, y) rows from the built-in gamma benchmark."""
    x, y = simulate_gamma(n, seed)
    _write_csv(out, ["x", "y"], ([_fmt(a), _fmt(b)] for a, b in zip(x, y)))
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
@click.option("--seed", type=int, default=0, help="Seed for subsampling.")
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
    header, rows = _load_table(data_path)
    spec = parse_order_string(order_text, header)
    names = list(spec.column_names) + [response]
    if weight_col is not None:
        names.append(weight_col)
    table = _numeric_columns(data_path, header, rows, names)
    d = len(spec.column_names)
    covariates = table[:, :d]
    responses = table[:, d]
    weights = table[:, d + 1] if weight_col is not None else None
    training = make_training_set(spec, covariates, responses, weights)

    # a plain fit's solver has built the covers (a chain's cost O(n)); subagged members never read them
    edges = ""
    if split == "even-odd":
        model = fit_even_odd(training, seed)
    elif subagg_count > 0:
        model = fit_subagged(training, subagg_count, subagg_size, seed)
    else:
        model = fit_idr(training)
        edges = f" edges={len(training.dag.edges())}"

    save_model(model, out_path)

    rows, _ = predict_rows(model, training.covariates)
    mean_crps = float(np.average(crps_rows(model.thresholds, rows, training.responses), weights=training.weights))
    click.echo(f"n={training.n} nodes={training.dag.n_nodes}{edges} mean_crps={mean_crps!r}")


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
    header, rows = _load_table(data_path)
    covariates = _numeric_columns(data_path, header, rows, names)
    alphas = _float_list(quantiles, "quantile", low=0.0, high=1.0)
    zs = _float_list(thresholds, "threshold") if thresholds else []

    batch = predict_batch(model, covariates, interpolate)

    out_header = (
        [f"q{a:g}" for a in alphas] + [f"p_le_{z:g}" for z in zs] + ["provenance", "bound_gap"]
    )
    cols = [quantile_rows(batch.grid, batch.center, a) for a in alphas]
    cols += [evaluate_rows(batch.grid, batch.center, z) for z in zs]
    out_rows = [
        [_fmt(col[i]) for col in cols] + [prov.value, "" if np.isnan(gap) else _fmt(gap)]
        for i, (prov, gap) in enumerate(zip(batch.provenance, batch.bound_gap))
    ]
    _write_csv(out_path, out_header, out_rows)
    click.echo(f"wrote {len(out_rows)} predictions to {out_path}")


@main.command()
@click.option("--model", "model_path", type=click.Path(dir_okay=False), default=None)
@click.option("--true-gamma", is_flag=True, help="Score the benchmark's true conditional CDFs instead of a model.")
@click.option("--covariate", default="x", help="Covariate column for --true-gamma.", show_default=True)
@click.option("--data", "data_path", type=click.Path(dir_okay=False), required=True)
@click.option("--response", required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--thresholds", default=None, help="Comma list of Brier-score thresholds.")
@click.option("--alphas", default=None, help="Comma list of quantile-score levels in (0,1).")
@click.option("--seed", type=int, default=0, help="Seed for PIT randomization.")
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
    header, rows = _load_table(data_path)
    ys = _numeric_columns(data_path, header, rows, [response])[:, 0]
    zs = _float_list(thresholds, "threshold") if thresholds else []
    qas = _float_list(alphas, "alpha", low=0.0, high=1.0) if alphas else []
    rng = np.random.default_rng(seed)
    v = rng.uniform(size=ys.size)

    if true_gamma:
        xs = _numeric_columns(data_path, header, rows, [covariate])[:, 0]
        crps_vals = true_gamma_crps(xs, ys)
        pit_vals = true_gamma_cdf(xs, ys)
        briers = {z: brier(true_gamma_cdf(xs, z), ys, z) for z in zs}
        qscores = {a: pinball(true_gamma_quantile(xs, a), ys, a) for a in qas}
    else:
        model = load_model(model_path)
        names = _covariate_names(model)
        covariates = _numeric_columns(data_path, header, rows, names)
        grid, (cdf_rows, _) = model.thresholds, predict_rows(model, covariates)
        crps_vals = crps_rows(grid, cdf_rows, ys)
        pit_vals = pit_rows(grid, cdf_rows, ys, v)
        briers = {z: brier_rows(grid, cdf_rows, ys, z) for z in zs}
        qscores = {a: quantile_score_rows(grid, cdf_rows, ys, a) for a in qas}

    out_header = ["crps", "pit"] + [f"brier_{z:g}" for z in zs] + [f"qs_{a:g}" for a in qas]
    cols = [crps_vals, pit_vals] + [briers[z] for z in zs] + [qscores[a] for a in qas]
    out_rows = [[_fmt(col[i]) for col in cols] for i in range(len(ys))]
    _write_csv(out_path, out_header, out_rows)
    for name, col in zip(out_header, cols):
        click.echo(f"mean_{name}={float(np.mean(col))!r}")


@main.command("pit-hist")
@click.option("--scores", "scores_path", type=click.Path(dir_okay=False), required=True,
              help="CSV with a 'pit' column (as written by score).")
@click.option("--bins", type=click.IntRange(1, MAX_BINS), default=10, show_default=True, help="Number of bins.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def pit_hist(scores_path, bins, out_path):
    """Histogram of PIT values, as plot-ready CSV."""
    header, rows = _load_table(scores_path)
    pit_vals = _numeric_columns(scores_path, header, rows, ["pit"])[:, 0]
    if np.any((pit_vals < 0) | (pit_vals > 1)):
        raise ValueError("pit values must lie in [0, 1]")
    idx = np.minimum((pit_vals * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    freqs = counts / pit_vals.size
    edges = np.linspace(0.0, 1.0, bins + 1)
    _write_csv(
        out_path,
        ["bin_low", "bin_high", "count", "frequency"],
        (
            [_fmt(edges[i]), _fmt(edges[i + 1]), str(int(counts[i])), _fmt(freqs[i])]
            for i in range(bins)
        ),
    )
    click.echo(f"wrote {bins} bins to {out_path}")


@main.command()
@click.option("--model", "model_path", type=click.Path(dir_okay=False), required=True)
@click.option("--data", "data_path", type=click.Path(dir_okay=False), required=True)
@click.option("--response", required=True)
@click.option("--threshold", type=float, required=True, help="Event threshold z for P(Y <= z).")
@click.option("--bins", type=click.IntRange(2, MAX_BINS), default=10, show_default=True, help="Number of bins.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def reliability(model_path, data_path, response, threshold, bins, out_path):
    """Reliability-diagram data for the event Y <= z."""
    model = load_model(model_path)
    names = _covariate_names(model)
    header, rows = _load_table(data_path)
    covariates = _numeric_columns(data_path, header, rows, names)
    ys = _numeric_columns(data_path, header, rows, [response])[:, 0]
    cdf_rows, _ = predict_rows(model, covariates)
    probs = evaluate_rows(model.thresholds, cdf_rows, threshold)
    outcomes = (ys <= threshold).astype(float)
    table = reliability_bins(probs, outcomes, bins)
    _write_csv(
        out_path,
        ["bin_center", "mean_forecast", "observed_frequency", "count"],
        ([_fmt(c), _fmt(m), _fmt(f), str(int(k))] for c, m, f, k in table),
    )
    click.echo(f"wrote {bins} bins to {out_path}")


if __name__ == "__main__":
    main()
