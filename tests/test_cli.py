"""End-to-end command-line runs against temporary CSV files."""

import csv
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from idr import TOTAL, OrderGroup, OrderSpec, fit_even_odd, load_model, make_training_set, save_model
from idr.cli import EXIT_IO, EXIT_PARSE, EXIT_VALIDATION, MAX_BINS, _load_table, main
from idr.prediction import predict_rows
from idr.scoring import crps_rows
from idr.stepfun import CASE_BLOCK
from model_files import in_full, reverse_rows

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


def all_output(result):
    try:
        return result.output + result.stderr
    except ValueError:
        return result.output


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def chain_files(tmp_path):
    """The worked three-point chain plus a fitted model file."""
    data = tmp_path / "train.csv"
    write_csv(data, ["x", "y"], [[1, 3], [2, 1], [3, 2]])
    model = tmp_path / "model.json"
    res = invoke("fit", "--data", data, "--response", "y", "--order", "x:total", "--out", model)
    assert res.exit_code == 0, all_output(res)
    return data, model, res


def test_fit_worked_chain(chain_files):
    _, model, res = chain_files
    assert "n=3" in res.output
    assert "nodes=3" in res.output
    assert "edges=2" in res.output
    assert "mean_crps=" in res.output
    doc = json.loads(model.read_text())
    assert doc["version"] == "5.0"
    assert doc["thresholds"] == [1.0, 2.0, 3.0]
    # the two distinct rows, lowest first: the first as its jumps, the
    # second where its jumps differ, at threshold 0; jump values are
    # indices into the table of distinct values
    assert np.allclose(doc["cdf_rows"]["values"], [0.5, 2 / 3, 1.0], atol=1e-15)
    assert doc["cdf_rows"]["jump_index"] == [[1, 2], [0]]
    assert doc["cdf_rows"]["jump_value"] == [[1, 2], [0]]
    assert doc["node_row"] == [1, 1, 0]
    assert np.allclose(doc["climatology"]["cum"], [1 / 3, 2 / 3, 1.0], atol=1e-15)
    want = [[0.5, 2 / 3, 1.0], [0.5, 2 / 3, 1.0], [0.0, 2 / 3, 1.0]]
    assert np.allclose(load_model(model).cdf, want, atol=1e-15)


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = invoke("simulate", "--n", 600, "--seed", 7, "--out", a)
    r2 = invoke("simulate", "--n", 600, "--seed", 7, "--out", b)
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    xs = np.array([float(row["x"]) for row in read_csv(a)])
    assert xs.size == 600
    assert np.all((xs > 0) & (xs < 10))


def test_simulated_conditional_mean_near_four(tmp_path):
    out = tmp_path / "big.csv"
    res = invoke("simulate", "--n", 1_000_000, "--seed", 12, "--out", out)
    assert res.exit_code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    sel = (data[:, 0] > 3.9) & (data[:, 0] < 4.1)
    assert sel.sum() > 1000
    assert abs(data[sel, 1].mean() - 8.0) / 8.0 < 0.02


def test_subagged_fit_is_byte_identical(tmp_path):
    sim = tmp_path / "sim.csv"
    invoke("simulate", "--n", 300, "--seed", 1, "--out", sim)
    outs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        res = invoke(
            "fit", "--data", sim, "--response", "y", "--order", "x:total",
            "--out", out, "--subagg-count", 5, "--subagg-size", 100, "--seed", 1,
        )
        assert res.exit_code == 0, all_output(res)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_subagged_fit_scores_its_training_rows_a_block_at_a_time(tmp_path):
    """The in-sample CRPS of a subagged fit predicts and scores a block of
    training rows at a time: `idr fit` peaks under half of the dense
    (rows, union grid) float64 matrix that predicting every row at once
    holds, and prints the mean CRPS of that matrix unchanged."""
    sim, out = tmp_path / "sim.csv", tmp_path / "model.json"
    assert invoke("simulate", "--n", 4000, "--seed", 1, "--out", sim).exit_code == 0
    gc.collect()
    tracemalloc.start()
    try:
        res = invoke("fit", "--data", sim, "--response", "y", "--order", "x:total", "--out", out,
                     "--subagg-count", 10, "--subagg-size", 200, "--seed", 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, all_output(res)
    model = load_model(out)
    table = np.array([[float(r["x"]), float(r["y"])] for r in read_csv(sim)])
    dense = table.shape[0] * model.thresholds.size * 8
    assert peak < dense / 2, (peak, dense)
    rows, _ = predict_rows(model, table[:, :1])
    whole = float(np.average(crps_rows(model.thresholds, rows, table[:, 1]), weights=np.ones(table.shape[0])))
    assert res.output.endswith(f" mean_crps={whole!r}\n")


@pytest.mark.parametrize("flags", [
    ("--subagg-count", -3, "--subagg-size", 60),
    ("--subagg-size", 60),
    ("--split", "even-odd", "--subagg-count", 5, "--subagg-size", 60),
    ("--split", "even-odd", "--subagg-size", 60),
    ("--subagg-count", 5),
    ("--subagg-count", 5, "--subagg-size", -3),
], ids=["negative-count", "size-without-count", "even-odd-with-count", "even-odd-with-size",
        "count-without-size", "count-with-negative-size"])
def test_fit_rejects_subagging_flags_it_would_ignore(tmp_path, flags):
    # the flags are checked before the data is read: a missing file is never opened
    missing = tmp_path / "missing.csv"
    out = tmp_path / "model.json"
    res = invoke("fit", "--data", missing, "--response", "y", "--order", "x:total", "--out", out, *flags)
    assert res.exit_code == EXIT_PARSE, all_output(res)
    assert "--subagg" in all_output(res)
    assert not out.exists()


def test_even_odd_fit_predicts_like_the_library_model(tmp_path):
    """idr fit --split even-odd writes a two-member model marked even-odd,
    and idr predict gives what a fit_even_odd model saved from the
    library gives."""
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    invoke("simulate", "--n", 200, "--seed", 4, "--out", train)
    invoke("simulate", "--n", 50, "--seed", 5, "--out", test)
    cli_model, lib_model = tmp_path / "cli.json", tmp_path / "lib.json"
    res = invoke("fit", "--data", train, "--response", "y", "--order", "x:total", "--split", "even-odd",
                 "--out", cli_model)
    assert res.exit_code == 0, all_output(res)
    doc = json.loads(cli_model.read_text())
    assert doc["split"] == "even-odd" and len(doc["members"]) == 2
    table = np.loadtxt(train, delimiter=",", skiprows=1)
    spec = OrderSpec((OrderGroup((0,), TOTAL),), column_names=("x",))
    save_model(fit_even_odd(make_training_set(spec, table[:, :1], table[:, 1])), lib_model)
    preds = []
    for model in (cli_model, lib_model):
        out = tmp_path / f"{model.stem}.csv"
        res = invoke("predict", "--model", model, "--data", test, "--quantiles", "0.1,0.5,0.9",
                     "--thresholds", "2.0", "--out", out)
        assert res.exit_code == 0, all_output(res)
        preds.append(out.read_bytes())
    assert preds[0] == preds[1]
    assert len(read_csv(tmp_path / "cli.csv")) == 50


def test_ensemble_order_string_runs_end_to_end(tmp_path):
    rng = np.random.default_rng(3)
    n = 60
    header = ["hres", "ctr"] + [f"p{i}" for i in range(1, 51)] + ["y"]
    base = rng.uniform(0, 5, size=n)
    rows = np.column_stack([
        base + rng.normal(scale=0.2, size=n),
        base + rng.normal(scale=0.4, size=n),
        base[:, None] + rng.normal(scale=0.5, size=(n, 50)),
        base + rng.normal(scale=0.3, size=n),
    ])
    data = tmp_path / "ens.csv"
    write_csv(data, header, rows.tolist())
    model = tmp_path / "ens.json"
    res = invoke(
        "fit", "--data", data, "--response", "y",
        "--order", "hres:total;ctr:total;p1-p50:icx", "--out", model,
    )
    assert res.exit_code == 0, all_output(res)
    assert "nodes=" in res.output
    # spot check a prediction run on the same table
    pred = tmp_path / "pred.csv"
    res = invoke("predict", "--model", model, "--data", data, "--out", pred,
                 "--quantiles", "0.25,0.75")
    assert res.exit_code == 0, all_output(res)
    rows = read_csv(pred)
    assert len(rows) == n
    assert all(float(r["q0.25"]) <= float(r["q0.75"]) for r in rows)


def test_predict_at_training_points(chain_files):
    data, model, _ = chain_files
    out = data.parent / "pred.csv"
    res = invoke("predict", "--model", model, "--data", data, "--out", out,
                 "--quantiles", "0.5,0.9", "--thresholds", "1,2")
    assert res.exit_code == 0, all_output(res)
    rows = read_csv(out)
    assert [r["provenance"] for r in rows] == ["at_training_point"] * 3
    # medians from the fitted matrix rows
    assert [float(r["q0.5"]) for r in rows] == [1.0, 1.0, 2.0]
    assert [float(r["p_le_1"]) for r in rows] == [0.5, 0.5, 0.0]


def test_predict_interpolates_linearly(chain_files):
    data, model, _ = chain_files
    query = data.parent / "q.csv"
    write_csv(query, ["x"], [[2.25]])
    out = data.parent / "interp.csv"
    res = invoke("predict", "--model", model, "--data", query, "--out", out,
                 "--thresholds", "1", "--interpolate")
    assert res.exit_code == 0, all_output(res)
    row = read_csv(out)[0]
    assert row["provenance"] == "interpolated"
    # 0.75 * F(x=2) + 0.25 * F(x=3) at threshold 1
    assert float(row["p_le_1"]) == pytest.approx(0.75 * 0.5 + 0.25 * 0.0)
    # plain averaging of the two neighbors gives a different value
    res = invoke("predict", "--model", model, "--data", query, "--out", out,
                 "--thresholds", "1")
    assert float(read_csv(out)[0]["p_le_1"]) == pytest.approx(0.25)


def test_predict_incomparable_query_is_climatological(tmp_path):
    data = tmp_path / "cw.csv"
    write_csv(data, ["a", "b", "y"], [[0, 0, 1], [1, 1, 2], [2, 2, 3]])
    model = tmp_path / "cw.json"
    assert invoke("fit", "--data", data, "--response", "y", "--order", "a,b:cw",
                  "--out", model).exit_code == 0
    query = tmp_path / "q.csv"
    write_csv(query, ["a", "b"], [[9, -9]])
    out = tmp_path / "p.csv"
    res = invoke("predict", "--model", model, "--data", query, "--out", out,
                 "--quantiles", "0.5")
    assert res.exit_code == 0, all_output(res)
    row = read_csv(out)[0]
    assert row["provenance"] == "climatological"
    assert float(row["q0.5"]) == 2.0  # pooled responses (1,2,3)


def test_score_perfect_model_has_zero_crps(tmp_path):
    data = tmp_path / "perfect.csv"
    write_csv(data, ["x", "y"], [[1, 1], [2, 2], [3, 3]])
    model = tmp_path / "m.json"
    invoke("fit", "--data", data, "--response", "y", "--order", "x:total", "--out", model)
    out = tmp_path / "scores.csv"
    res = invoke("score", "--model", model, "--data", data, "--response", "y",
                 "--out", out, "--thresholds", "2", "--alphas", "0.5")
    assert res.exit_code == 0, all_output(res)
    assert "mean_crps=0.0" in res.output
    rows = read_csv(out)
    assert [float(r["crps"]) for r in rows] == [0.0, 0.0, 0.0]
    assert [float(r["qs_0.5"]) for r in rows] == [0.0, 0.0, 0.0]


def test_score_model_crps_matches_library(tmp_path):
    rng = np.random.default_rng(8)
    n = 50
    x = rng.uniform(0, 10, size=n)
    y = x + rng.normal(size=n)
    train = tmp_path / "train.csv"
    write_csv(train, ["x", "y"], np.column_stack([x, y]).tolist())
    model = tmp_path / "m.json"
    invoke("fit", "--data", train, "--response", "y", "--order", "x:total", "--out", model)

    test = tmp_path / "test.csv"
    xt = rng.uniform(0, 10, size=20)
    yt = xt + rng.normal(size=20)
    write_csv(test, ["x", "y"], np.column_stack([xt, yt]).tolist())
    out = tmp_path / "s.csv"
    res = invoke("score", "--model", model, "--data", test, "--response", "y", "--out", out)
    assert res.exit_code == 0, all_output(res)

    from idr import crps, load_model, predict_cdf

    m = load_model(model)
    want = [crps(predict_cdf(m, [v]).cdf, t) for v, t in zip(xt, yt)]
    got = [float(r["crps"]) for r in read_csv(out)]
    assert got == pytest.approx(want, abs=1e-10)


def test_true_gamma_scores_are_seed_stable(tmp_path):
    means = []
    for seed in (101, 102):
        sim = tmp_path / f"sim{seed}.csv"
        invoke("simulate", "--n", 10_000, "--seed", seed, "--out", sim)
        out = tmp_path / f"sc{seed}.csv"
        res = invoke("score", "--true-gamma", "--data", sim, "--response", "y",
                     "--out", out, "--seed", seed)
        assert res.exit_code == 0, all_output(res)
        line = next(l for l in res.output.splitlines() if l.startswith("mean_crps="))
        means.append(float(line.split("=", 1)[1]))
    assert abs(means[0] - means[1]) / means[0] < 0.02


def test_true_gamma_rejects_covariates_outside_its_support(tmp_path):
    """The benchmark's law needs x > 0; x = 0 or -1 must not score as NaN."""
    for x in (-1, 0):
        data = tmp_path / f"x{x}.csv"
        write_csv(data, ["x", "y"], [[2.0, 1.5], [x, 0.5]])
        res = invoke("score", "--true-gamma", "--data", data, "--response", "y",
                     "--out", tmp_path / "s.csv")
        assert res.exit_code == EXIT_VALIDATION, all_output(res)
        assert "x > 0" in all_output(res)
        assert "nan" not in res.output


def test_true_gamma_without_scipy_names_the_extra(tmp_path, monkeypatch):
    """scipy is optional: without it --true-gamma exits 2, and a fitted
    model still goes through fit, predict and score."""
    sim = tmp_path / "sim.csv"
    assert invoke("simulate", "--n", 50, "--seed", 3, "--out", sim).exit_code == 0
    monkeypatch.setitem(sys.modules, "scipy", None)
    res = invoke("score", "--true-gamma", "--data", sim, "--response", "y", "--out", tmp_path / "s.csv")
    assert res.exit_code == EXIT_PARSE, all_output(res)
    assert "scipy" in all_output(res) and "'gamma' extra" in all_output(res)
    assert not (tmp_path / "s.csv").exists()
    model = tmp_path / "m.json"
    for args in (("fit", "--data", sim, "--response", "y", "--order", "x:total", "--out", model),
                 ("predict", "--model", model, "--data", sim, "--out", tmp_path / "p.csv"),
                 ("score", "--model", model, "--data", sim, "--response", "y", "--out", tmp_path / "s.csv")):
        res = invoke(*args)
        assert res.exit_code == 0, all_output(res)


def test_fit_and_score_reject_a_response_span_that_overflows(tmp_path):
    """Finite responses of -1e308 and 1e308 are 2e308 apart; the CRPS
    of such a table cannot be computed in floats."""
    wide = tmp_path / "wide.csv"
    write_csv(wide, ["x", "y"], [[1.0, -1e308], [2.0, 1e308], [3.0, 0.0]])
    res = invoke("fit", "--data", wide, "--response", "y", "--order", "x:total", "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_VALIDATION, all_output(res)
    assert "span of the responses" in all_output(res)
    assert not (tmp_path / "m.json").exists()

    # outcomes that overflow on their own, outcomes that overflow only
    # against a model grid near the top of the float range, and outcomes
    # that overflow only together, in different blocks of cases
    for train_ys, test_ys in (((1.0, 2.0, 1.5), (-1e308, 1e308, 0.0)),
                              ((5e307, 1e308, 9e307), (-1e308, -1e308, -1e308)),
                              ((1.0, 2.0, 1.5), (-1e308,) + (0.0,) * (CASE_BLOCK - 1) + (1e308,))):
        train, test, model = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "ok.json"
        write_csv(train, ["x", "y"], [[i + 1.0, y] for i, y in enumerate(train_ys)])
        write_csv(test, ["x", "y"], [[i + 1.0, y] for i, y in enumerate(test_ys)])
        res = invoke("fit", "--data", train, "--response", "y", "--order", "x:total", "--out", model)
        assert res.exit_code == 0, all_output(res)
        res = invoke("score", "--model", model, "--data", test, "--response", "y", "--out", tmp_path / "s.csv")
        assert res.exit_code == EXIT_VALIDATION, (test_ys, all_output(res))
        assert "span of the outcomes" in all_output(res)
        assert not (tmp_path / "s.csv").exists()


def test_predict_score_and_reliability_hold_one_block_of_rows_at_a_time(tmp_path):
    """`idr predict`, `score` and `reliability` keep per-case columns and
    one block of (cases, grid) rows at a time.  Above the peak of a
    one-row run, which loads the model, they stay under ten blocks
    and 1 kB a case, at 5k and at 20k rows, on a chain and a subagged
    model; the whole centre matrix alone takes 8 bytes a threshold a case."""
    train = tmp_path / "train.csv"
    assert invoke("simulate", "--n", 2400, "--seed", 1, "--out", train).exit_code == 0
    for n in (1, 5000, 20000):
        assert invoke("simulate", "--n", n, "--seed", 2, "--out", tmp_path / f"test{n}.csv").exit_code == 0
    commands = (("predict", "--quantiles", "0.1,0.5,0.9", "--thresholds", 2),
                ("score", "--response", "y", "--thresholds", 2, "--alphas", 0.5),
                ("reliability", "--response", "y", "--threshold", 2))

    def peak(command, model, n):
        gc.collect()
        tracemalloc.start()
        try:
            res = invoke(command[0], "--model", model, "--data", tmp_path / f"test{n}.csv",
                         "--out", tmp_path / "out.csv", *command[1:])
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0, all_output(res)
        return top

    for flags in ((), ("--subagg-count", 2, "--subagg-size", 1800, "--seed", 1)):
        model = tmp_path / "model.json"
        res = invoke("fit", "--data", train, "--response", "y", "--order", "x:total", "--out", model, *flags)
        assert res.exit_code == 0, all_output(res)
        grid = load_model(model).thresholds.size
        assert grid >= 2000
        for command in commands:
            base = peak(command, model, 1)
            for n in (5000, 20000):
                over = peak(command, model, n) - base - 1000 * n
                assert over < 10 * CASE_BLOCK * grid * 8, (flags, command[0], n, over / (CASE_BLOCK * grid * 8))


def test_a_read_table_keeps_one_float_a_cell(tmp_path):
    """The rows of a CSV file are parsed as they are read: a 20k-row
    two-column table holds under 24 bytes a row once read, one float a
    cell, and peaks under 64, not the 230 bytes a row of its strings."""
    n, data = 20000, tmp_path / "t.csv"
    assert invoke("simulate", "--n", n, "--seed", 2, "--out", data).exit_code == 0
    gc.collect()
    tracemalloc.start()
    try:
        header, cells = _load_table(data)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 24 * n and peak < 64 * n, (held / n, peak / n)
    assert header == ["x", "y"] and np.array_equal(cells, np.loadtxt(data, delimiter=",", skiprows=1))


def _mean_crps(res) -> float:
    assert res.exit_code == 0, all_output(res)
    return float(res.output.split("mean_crps=")[1].split()[0])


def test_score_prints_a_finite_mean_where_the_sum_overflows(tmp_path):
    """Three outcomes of 1e308 against a model of y in [1, 2] each score
    finite, but their sum overflows: `score` prints their mean, and
    numpy warns of nothing."""
    train, test, model = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "m.json"
    write_csv(train, ["x", "y"], [[i, 1.0 + i % 2] for i in range(20)])
    write_csv(test, ["x", "y"], [[i, 1e308] for i in range(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invoke("fit", "--data", train, "--response", "y", "--order", "x:total", "--out", model).exit_code == 0
        res = invoke("score", "--model", model, "--data", test, "--response", "y", "--out", tmp_path / "s.csv")
    scores = [float(r["crps"]) for r in read_csv(tmp_path / "s.csv")]
    assert _mean_crps(res) == scores[0] == scores[2] and math.isfinite(scores[0])


def test_fit_prints_a_finite_mean_where_the_sum_overflows(tmp_path):
    """40 responses alternating between 0 and 1e308 each score finite
    in-sample, but their sum overflows: `fit`, plain and subagged,
    prints the exactly rounded mean to 1e-12, and numpy warns of nothing."""
    wide, model = tmp_path / "wide.csv", tmp_path / "m.json"
    write_csv(wide, ["x", "y"], [[i, 1e308 * (i % 2)] for i in range(40)])
    x, y = np.arange(40.0)[:, None], 1e308 * (np.arange(40) % 2)
    for flags in ((), ("--subagg-count", 2, "--subagg-size", 20)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = invoke("fit", "--data", wide, "--response", "y", "--order", "x:total", "--out", model, *flags)
        got, fitted = _mean_crps(res), load_model(model)
        want = math.fsum(crps_rows(fitted.thresholds, predict_rows(fitted, x)[0], y) / 40)
        assert math.isfinite(got) and got == pytest.approx(want, rel=1e-12), (flags, got, want)


def test_fit_rejects_weights_whose_sum_overflows(tmp_path):
    data = tmp_path / "heavy.csv"
    write_csv(data, ["x", "y", "w"], [[1.0, 1.0, 1e308], [2.0, 2.0, 1e308], [3.0, 3.0, 1.0]])
    res = invoke("fit", "--data", data, "--response", "y", "--order", "x:total", "--weight", "w",
                 "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_VALIDATION, all_output(res)
    assert "sum of the weights" in all_output(res)
    assert not (tmp_path / "m.json").exists()


def test_pit_histogram_of_true_model_is_flat(tmp_path):
    sim = tmp_path / "sim.csv"
    invoke("simulate", "--n", 10_000, "--seed", 21, "--out", sim)
    scores = tmp_path / "scores.csv"
    res = invoke("score", "--true-gamma", "--data", sim, "--response", "y",
                 "--out", scores, "--seed", 21)
    assert res.exit_code == 0, all_output(res)
    hist = tmp_path / "hist.csv"
    res = invoke("pit-hist", "--scores", scores, "--bins", 10, "--out", hist)
    assert res.exit_code == 0, all_output(res)
    rows = read_csv(hist)
    assert len(rows) == 10
    freqs = [float(r["frequency"]) for r in rows]
    assert sum(int(r["count"]) for r in rows) == 10_000
    assert all(0.08 <= f <= 0.12 for f in freqs), freqs


def test_reliability_table(tmp_path):
    rng = np.random.default_rng(5)
    n = 400
    x = rng.uniform(0, 10, size=n)
    y = x + rng.normal(size=n)
    data = tmp_path / "d.csv"
    write_csv(data, ["x", "y"], np.column_stack([x, y]).tolist())
    model = tmp_path / "m.json"
    invoke("fit", "--data", data, "--response", "y", "--order", "x:total", "--out", model)
    out = tmp_path / "rel.csv"
    res = invoke("reliability", "--model", model, "--data", data, "--response", "y",
                 "--threshold", 5.0, "--bins", 10, "--out", out)
    assert res.exit_code == 0, all_output(res)
    rows = read_csv(out)
    assert len(rows) == 10
    assert sum(int(r["count"]) for r in rows) == n


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------

def test_bad_order_string_is_a_parse_error(tmp_path):
    data = tmp_path / "d.csv"
    write_csv(data, ["x", "y"], [[1, 1]])
    res = invoke("fit", "--data", data, "--response", "y", "--order", "x:sideways",
                 "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_PARSE
    assert "error" in all_output(res)


def test_unknown_order_column_is_a_parse_error(tmp_path):
    data = tmp_path / "d.csv"
    write_csv(data, ["x", "y"], [[1, 1]])
    res = invoke("fit", "--data", data, "--response", "y", "--order", "z:total",
                 "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_PARSE
    assert "z" in all_output(res)


def test_missing_file_is_an_io_error(tmp_path):
    res = invoke("fit", "--data", tmp_path / "nope.csv", "--response", "y",
                 "--order", "x:total", "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_IO


def test_empty_data_is_a_validation_error(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("x,y\n")
    res = invoke("fit", "--data", data, "--response", "y", "--order", "x:total",
                 "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_VALIDATION


def test_malformed_model_file_is_a_validation_error(tmp_path):
    golden = Path(__file__).resolve().parent / "golden"
    v1 = json.loads((golden / "v1" / "cw_model.json").read_text())
    v1["cdf_matrix"].pop()
    v2 = json.loads((golden / "cw_model.json").read_text())
    v2["node_row"].pop()
    for doc, field in ((v1, "cdf_matrix"), (v2, "node_row")):
        model = tmp_path / "short.json"
        model.write_text(json.dumps(doc))
        res = invoke("predict", "--model", model, "--data", golden / "cw_test.csv",
                     "--quantiles", "0.5", "--out", tmp_path / "p.csv")
        assert res.exit_code == EXIT_VALIDATION, all_output(res)
        assert field in all_output(res)
        assert not (tmp_path / "p.csv").exists()


def _field_paths(obj, path=""):
    """The path of every field of every object in a model document, as
    the reader names them: ``members[2].cdf_rows.values``."""
    for key, value in obj.items():
        yield f"{path}{key}"
        items = value if isinstance(value, list) else [value]
        for i, item in enumerate(items):
            if isinstance(item, dict):
                yield from _field_paths(item, f"{path}{key}[{i}]." if isinstance(value, list) else f"{path}{key}.")


def _without(doc, path):
    """A copy of ``doc`` without the field at ``path``."""
    doc = json.loads(json.dumps(doc))
    *steps, last = path.replace("[", ".").replace("]", "").split(".")
    obj = doc
    for step in steps:
        obj = obj[int(step)] if isinstance(obj, list) else obj[step]
    del obj[last]
    return doc


#: fields that a model file may leave out
OPTIONAL_FIELDS = {"column_names", "split"}


@pytest.mark.parametrize("folder", ["", "v1", "v2", "v3", "v4"])
def test_a_missing_model_field_names_itself(folder, tmp_path):
    """Deleting any required field of any golden model, at the top level
    or in a member, one at a time, is a validation error that names the
    field and, in a member, the member's index."""
    golden = Path(__file__).resolve().parent / "golden"
    seen = 0
    for name in ("chain", "cw", "icx"):
        doc = json.loads((golden / folder / f"{name}_model.json").read_text())
        for path in _field_paths(doc):
            # a member before 5.0 carries the type of a plain model, which the reader does not read
            if path.rsplit(".", 1)[-1] in OPTIONAL_FIELDS or path.startswith("members[") and path.endswith("].type"):
                continue
            model = tmp_path / "missing.json"
            model.write_text(json.dumps(_without(doc, path)))
            res = invoke("predict", "--model", model, "--data", golden / f"{name}_test.csv",
                         "--quantiles", "0.5", "--out", tmp_path / "p.csv")
            assert res.exit_code == EXIT_VALIDATION, (name, path, all_output(res))
            named = "version field" if path == "version" else f"lacks the field {path}\n"
            assert named in all_output(res), (name, path, all_output(res))
            seen += path.startswith("members[")
    assert seen > 10


#: a JSON integer literal past the float range
HUGE = 10**400


def _quote(entries, i):
    """Entry ``i`` as a numeric string of the same value."""
    entries[i] = repr(entries[i])


@pytest.mark.parametrize("name, field, edit", [
    ("chain", "node_row", lambda doc: doc["node_row"].__setitem__(doc["node_row"].index(1), True)),
    ("chain", "thresholds", lambda doc: _quote(doc["thresholds"], 1)),
    ("chain", "climatology cum", lambda doc: _quote(doc["climatology"]["cum"], 1)),
    ("chain", "thresholds", lambda doc: doc["thresholds"].__setitem__(-1, HUGE)),
    ("chain", "climatology cum", lambda doc: doc["climatology"]["cum"].__setitem__(1, HUGE)),
    ("chain", "column_names", lambda doc: doc["order_spec"].update(column_names=[5])),
    ("chain", "column_names", lambda doc: doc["order_spec"].update(column_names="x")),
    ("chain", "rows", in_full(reverse_rows)),
    ("icx", "subsample_size", lambda doc: doc.update(subsample_size="5")),
    ("icx", "seed", lambda doc: doc.update(seed=2.7)),
    ("icx", "split", lambda doc: doc.update(split="banana")),
], ids=["node_row_true", "thresholds_string", "cum_string", "thresholds_huge", "cum_huge",
        "column_names_number", "column_names_string", "rows_reversed", "subsample_size_string", "seed_float", "split_unknown"])
def test_model_file_entries_of_the_wrong_kind_are_a_validation_error(tmp_path, name, field, edit):
    """A boolean, a numeric string, a literal past the float range, a
    float seed or an unknown split: exit 3, with no traceback, naming
    the field; in a model file of the current format and of 3.0."""
    golden = Path(__file__).resolve().parent / "golden"
    for folder in (golden, golden / "v3"):
        doc = json.loads((folder / f"{name}_model.json").read_text())
        edit(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        res = invoke("predict", "--model", model, "--data", golden / f"{name}_test.csv",
                     "--quantiles", "0.5", "--out", tmp_path / "p.csv")
        assert res.exit_code == EXIT_VALIDATION, (folder, all_output(res))
        assert isinstance(res.exception, SystemExit)
        assert f"error: {field} must be" in all_output(res)
        assert not (tmp_path / "p.csv").exists()


def test_subagged_members_that_name_their_columns_apart_are_a_validation_error(tmp_path):
    """``idr predict`` reads the columns that member 0 names for every
    member, so a file whose members name them apart is exit 3; in a
    model file of 4.0 and of 3.0.  A file of the current format stores
    one order spec for all members, and a member that carries its own,
    naming the columns apart, is exit 3 too."""
    golden = Path(__file__).resolve().parent / "golden"
    renamed = ["hres", "p2", "p1", "p3", "p4"]
    for folder in (golden, golden / "v4", golden / "v3"):
        doc = json.loads((folder / "icx_model.json").read_text())
        if folder == golden:
            doc["members"][1]["order_spec"] = {**doc["order_spec"], "column_names": renamed}
            message = "error: members must not carry an order_spec"
        else:
            doc["members"][1]["order_spec"]["column_names"] = renamed
            message = "error: members must share the order spec and its column names"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        res = invoke("predict", "--model", model, "--data", golden / "icx_test.csv",
                     "--quantiles", "0.5", "--out", tmp_path / "p.csv")
        assert res.exit_code == EXIT_VALIDATION, (folder, all_output(res))
        assert message in all_output(res)
        assert not (tmp_path / "p.csv").exists()


def test_model_file_with_order_equivalent_node_keys_is_a_validation_error(tmp_path):
    """Two stored icx keys whose tail sums round alike would be one node:
    the load names that fault, not the order of the keys."""
    data = tmp_path / "train.csv"
    write_csv(data, ["a", "b", "y"], [[0, 1e16, 0], [5, 3e16, 1]])
    model = tmp_path / "model.json"
    assert invoke("fit", "--data", data, "--response", "y", "--order", "a,b:icx",
                  "--out", model).exit_code == 0
    doc = json.loads(model.read_text())
    assert doc["node_keys"] == [[0.0, 1e16], [5.0, 3e16]]
    doc["node_keys"] = [[0.0, 1e16], [1.0, 1e16]]
    model.write_text(json.dumps(doc))
    res = invoke("predict", "--model", model, "--data", data, "--quantiles", "0.5", "--out", tmp_path / "p.csv")
    assert res.exit_code == EXIT_VALIDATION, all_output(res)
    assert "order-equivalent" in all_output(res)


def test_malformed_rows_report_line_numbers(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("x,y\n1,2\n,3\n4,oops\n")
    res = invoke("fit", "--data", data, "--response", "y", "--order", "x:total",
                 "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_PARSE
    err = all_output(res)
    assert "lines 3, 4" in err
    assert "'x'" in err and "'y'" in err


def test_csv_files_that_start_with_a_byte_order_mark_read_as_without_it(tmp_path):
    """Spreadsheet exports start with a UTF-8 byte-order mark; fit,
    predict and score on such files write the bytes and stdout they
    write on the same files without it."""
    rows = [[x, (7 * x) % 5 + 0.5] for x in range(12)]
    outputs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        folder = tmp_path / name
        folder.mkdir()
        data = folder / "data.csv"
        write_csv(data, ["x", "y"], rows)
        data.write_text(bom + data.read_text(encoding="utf-8"), encoding="utf-8")
        model, preds, scores = folder / "model.json", folder / "p.csv", folder / "s.csv"
        runs = [
            invoke("fit", "--data", data, "--response", "y", "--order", "x:total", "--out", model),
            invoke("predict", "--model", model, "--data", data, "--quantiles", "0.5", "--thresholds", "2",
                   "--out", preds),
            invoke("score", "--model", model, "--data", data, "--response", "y", "--out", scores),
        ]
        for res in runs:
            assert res.exit_code == 0, (name, all_output(res))
        outputs.append(([res.output.replace(str(folder), "") for res in runs],
                        [f.read_bytes() for f in (model, preds, scores)]))
    assert (tmp_path / "bom" / "data.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]


def test_number_cells_that_are_not_ascii_or_hold_an_underscore_are_a_parse_error(tmp_path):
    """float() reads ``1_0`` as 10 and ``\u0663`` (Arabic-Indic three) as 3;
    such a cell is no number, so the fit exits 2 naming its line.  ASCII
    cells padded with spaces still load."""
    data = tmp_path / "cells.csv"
    data.write_text("x,y\n 1.5 ,2\n1_0,1\n\u0663,3\n2,+4e0\n", encoding="utf-8")
    res = invoke("fit", "--data", data, "--response", "y", "--order", "x:total", "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_PARSE, all_output(res)
    assert "['x'] at lines 3, 4" in all_output(res)
    assert not (tmp_path / "m.json").exists()
    data.write_text("x,y\n 1.5 ,2\n2,+4e0\n", encoding="utf-8")
    res = invoke("fit", "--data", data, "--response", "y", "--order", "x:total", "--out", tmp_path / "m.json")
    assert res.exit_code == 0, all_output(res)
    assert "n=2 nodes=2" in res.output


@pytest.mark.parametrize("command, flag, value", [
    ("predict", "--thresholds", "1_0"),
    ("predict", "--quantiles", "0.\u0665"),
    ("score", "--alphas", "0.1_0"),
    ("reliability", "--threshold", "\u0662"),
])
def test_flag_values_that_are_not_ascii_or_hold_an_underscore_are_a_parse_error(chain_files, tmp_path,
                                                                                 command, flag, value):
    """``--thresholds 1_0`` would name an output column ``p_le_10``; such
    a value is a bad flag value, exit 2, and nothing is written."""
    data, model, _ = chain_files
    out = tmp_path / "out.csv"
    extra = () if command == "predict" else ("--response", "y")
    res = invoke(command, "--model", model, "--data", data, *extra, flag, value, "--out", out)
    assert res.exit_code == EXIT_PARSE, all_output(res)
    assert f"value {value!r}" in all_output(res)
    assert not out.exists()


def test_icx_tail_sums_that_overflow_exit_3_without_a_numpy_warning(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    sane, wide = tmp_path / "sane.csv", tmp_path / "wide.csv"
    write_csv(sane, ["a", "b", "y"], [[1.0, 2.0, 0.5], [2.0, 3.0, 1.5], [0.0, 4.0, 1.0]])
    write_csv(wide, ["a", "b", "y"], [[1.5e308, 1.5e308, 0.5], [1.6e308, 1.0e308, 1.5], [0.0, 4.0, 1.0]])
    model = tmp_path / "m.json"

    def run(*args):
        cmd = [sys.executable, "-m", "idr.cli", *map(str, args)]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

    fit = ("fit", "--response", "y", "--order", "a,b:icx", "--out", model)
    out = run(*fit, "--data", wide)
    assert out.returncode == EXIT_VALIDATION, out.stderr
    assert "overflow the float range" in out.stderr and "Warning" not in out.stderr, out.stderr
    assert not model.exists()
    out = run(*fit, "--data", sane)
    assert out.returncode == 0, out.stderr
    out = run("predict", "--model", model, "--data", wide, "--out", tmp_path / "p.csv")
    assert out.returncode == EXIT_VALIDATION, out.stderr
    assert "overflow the float range" in out.stderr and "Warning" not in out.stderr, out.stderr


def test_rows_with_more_or_fewer_fields_than_the_header_are_a_parse_error(tmp_path):
    """An extra field, a missing unused column and a blank line are all
    rejected by line number, also where the named columns parse."""
    data = tmp_path / "ragged.csv"
    data.write_text("x,y,note\n1,2,a\n1,2,3,4\n3,1\n\n4,5,b\n")
    res = invoke("fit", "--data", data, "--response", "y", "--order", "x:total", "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_PARSE, all_output(res)
    assert "lines 3, 4, 5" in all_output(res) and "3 fields" in all_output(res)
    assert not (tmp_path / "m.json").exists()
    data.write_text("x,y\n1,2,3\n2,1\n")
    res = invoke("fit", "--data", data, "--response", "y", "--order", "x:total", "--out", tmp_path / "m.json")
    assert res.exit_code == EXIT_PARSE, all_output(res)
    assert "lines 2" in all_output(res)


def test_importing_the_cli_leaves_scipy_stats_unloaded(tmp_path):
    """Only the gamma benchmark needs scipy.stats, and loads it itself.
    A chain fit loads neither scipy.optimize nor numba either."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    data = tmp_path / "train.csv"
    write_csv(data, ["x", "y"], [[x, (7 * x) % 5] for x in range(40)])
    fit = ["fit", "--data", str(data), "--response", "y", "--order", "x:total", "--out", str(tmp_path / "m.json")]
    for run in ("", f"idr.cli.main({fit!r}, standalone_mode=False); "):
        code = ("import sys, idr.cli; " + run
                + "print([m for m in ('scipy.stats', 'scipy.optimize', 'numba') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == "[]", (run, out.stdout)
    assert (tmp_path / "m.json").exists()


def test_fits_and_a_subagged_model_load_leave_numpy_ma_unloaded(tmp_path):
    """A plain np.unique imports numpy.ma (tens of ms a process); a plain
    fit, a subagged fit and a subagged model's load and predict never do."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    data = tmp_path / "train.csv"
    write_csv(data, ["x", "y"], [[x, (7 * x) % 5] for x in range(40)])
    plain, sub, out = (str(tmp_path / name) for name in ("plain.json", "sub.json", "pred.csv"))
    fit = ["fit", "--data", str(data), "--response", "y", "--order", "x:total"]
    commands = [fit + ["--out", plain], fit + ["--subagg-count", "3", "--subagg-size", "20", "--out", sub],
                ["predict", "--model", sub, "--data", str(data), "--out", out]]
    code = ("import sys, idr.cli\n"
            f"for args in {commands!r}:\n"
            "    idr.cli.main(args, standalone_mode=False)\n"
            "print('numpy.ma' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "False", res.stdout
    assert os.path.exists(out)


def test_poset_prediction_computes_no_key_per_row(tmp_path, monkeypatch):
    """The batch path finds every query's canonical key in one pass: the
    one-row canonical_key is never called, in process or by idr predict."""
    import idr
    from idr import load_model, predict_batch

    def one_row_key(*args, **kwargs):
        raise AssertionError("canonical_key called on the batch prediction path")

    for name, module in list(sys.modules.items()):
        if (name == "idr" or name.startswith("idr.")) and hasattr(module, "canonical_key"):
            monkeypatch.setattr(module, "canonical_key", one_row_key)
    with pytest.raises(AssertionError):
        idr.orders.canonical_key(None, [0.0])
    golden = Path(__file__).resolve().parent / "golden"
    model = load_model(golden / "icx_model.json")
    x = np.loadtxt(golden / "icx_test.csv", delimiter=",", skiprows=1)[:, :5]
    for member in model.members:
        assert len(predict_batch(member, x).provenance) == len(x)
    assert len(predict_batch(model, x).provenance) == len(x)
    res = invoke("predict", "--model", golden / "icx_model.json", "--data", golden / "icx_test.csv",
                 "--quantiles", "0.5", "--out", tmp_path / "p.csv")
    assert res.exit_code == 0, all_output(res)
    assert len(read_csv(tmp_path / "p.csv")) == len(x)


def test_exit_codes_documented_in_help():
    res = invoke("--help")
    assert res.exit_code == 0
    for token in ("2", "3", "4"):
        assert token in res.output


def test_order_range_and_duplicate_detection(tmp_path):
    header = ["a", "b", "c", "y"]
    data = tmp_path / "d.csv"
    write_csv(data, header, [[1, 2, 3, 4], [2, 3, 4, 5]])
    # ranges use header positions: a-c covers a, b, c
    res = invoke("fit", "--data", data, "--response", "y", "--order", "a-c:st",
                 "--out", tmp_path / "m.json")
    assert res.exit_code == 0, all_output(res)
    res = invoke("fit", "--data", data, "--response", "y", "--order", "a:total;a-c:st",
                 "--out", tmp_path / "m2.json")
    assert res.exit_code == EXIT_PARSE  # 'a' appears twice


def test_values_that_would_share_an_output_column_are_a_parse_error(chain_files, tmp_path):
    """Output columns are named by the values in ':g' form, so values
    that print alike would give two columns one name: exit 2, naming
    the values, and no output file."""
    data, model, _ = chain_files
    out = tmp_path / "out.csv"
    cases = [
        (("predict", "--quantiles", "0.5,0.5"), ["0.5"]),
        (("predict", "--quantiles", "0.1,0.1234567,0.1234568"), ["0.1234567", "0.1234568"]),
        (("predict", "--thresholds", "1.0000001,1.0000002"), ["1.0000001", "1.0000002"]),
        (("score", "--response", "y", "--thresholds", "2,2"), ["2.0"]),
        (("score", "--response", "y", "--alphas", "0.5,0.5"), ["0.5"]),
    ]
    for (command, *flags), values in cases:
        res = invoke(command, "--model", model, "--data", data, *flags, "--out", out)
        assert res.exit_code == EXIT_PARSE, (flags, all_output(res))
        for value in values:
            assert value in all_output(res)
        assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_reliability_threshold_that_is_not_finite_is_a_parse_error(chain_files, tmp_path, value):
    """The event threshold is checked like the --thresholds of predict
    and score: exit 2 and no table, before the model is read."""
    data, model, _ = chain_files
    out = tmp_path / "rel.csv"
    res = invoke("reliability", "--model", model, "--data", data, "--response", "y",
                 "--threshold", value, "--out", out)
    assert res.exit_code == EXIT_PARSE, all_output(res)
    assert "threshold values must be finite" in all_output(res)
    assert not out.exists()


def test_negative_seeds_and_an_empty_simulation_are_a_parse_error(chain_files, tmp_path):
    """--seed takes 0 and up and simulate's --n 1 and up, as --help says;
    any other value exits 2 before a file is read or written."""
    data, model, _ = chain_files
    out = tmp_path / "out.csv"
    cases = [
        (("simulate", "--n", 10, "--seed", -1, "--out", out), "--seed"),
        (("simulate", "--n", 0, "--seed", 1, "--out", out), "--n"),
        (("score", "--model", model, "--data", data, "--response", "y", "--seed", -1, "--out", out), "--seed"),
        (("fit", "--data", data, "--response", "y", "--order", "x:total", "--seed", -5,
          "--subagg-count", 2, "--subagg-size", 2, "--out", out), "--seed"),
    ]
    for args, flag in cases:
        res = invoke(*args)
        assert res.exit_code == EXIT_PARSE, (args, all_output(res))
        assert flag in all_output(res) and "Traceback" not in all_output(res)
        assert not out.exists()
    assert "x>=1" in invoke("simulate", "--help").output
    for command in ("simulate", "fit", "score"):
        assert "x>=0" in invoke(command, "--help").output


def test_bins_outside_their_range_are_a_parse_error(chain_files, tmp_path):
    """--bins takes 1 to MAX_BINS for pit-hist and 2 to MAX_BINS for
    reliability, as --help says; any other value exits 2 before a file
    is read, also one too large for a C integer."""
    data, model, _ = chain_files
    out = tmp_path / "out.csv"
    for command, low in (("pit-hist", 1), ("reliability", 2)):
        help_text = invoke(command, "--help").output
        assert f"{low}<=x<={MAX_BINS}" in help_text
        for bins in (low - 1, MAX_BINS + 1, 10**30):
            args = ["--scores", tmp_path / "missing.csv"] if command == "pit-hist" else [
                "--model", model, "--data", data, "--response", "y", "--threshold", 2.0]
            res = invoke(command, *args, "--bins", bins, "--out", out)
            assert res.exit_code == EXIT_PARSE, (command, bins, all_output(res))
            assert "--bins" in all_output(res) and "Traceback" not in all_output(res)
            assert not out.exists()
