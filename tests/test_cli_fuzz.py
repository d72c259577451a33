"""Fuzz of the command line's input contract.

Hypothesis writes small CSV tables from a pool of awkward cells (NaN and
inf text, empty cells, +-1e308, 5e-324, ``-0.0``, padded numbers, ``1_0``
and non-ASCII digits), with repeated header names and covariate keys,
one-row and empty tables, a byte-order mark or not, and weights near the
overflow of their sum.  Every command runs on them with flags drawn from
similar pools and odd order strings: ``fit`` (plain, subagged and
even-odd), then ``predict``, ``score`` and ``reliability`` on the model it
wrote, or on a fixed valid model; ``pit-hist`` and ``simulate``.  Each
run must end with exit code 0, 2, 3 or 4 (success, parse, validation and
I/O errors), with no traceback and no RuntimeWarning, which is an error
here.  The searches are derandomized, so every run draws the same
examples.
"""

import csv
import io
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from idr.cli import main  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

NUMBERS = ["0", "1", "-1", "2.5", "3", "1e308", "-1e308", "1.7e308", "8.9e307", "5e-324", "-5e-324", "-0.0"]
BAD_CELLS = ["nan", "NaN", "inf", "-inf", "", " 2 ", "1_0", "٣", "x", "1e309", "0x10"]
CELLS = st.sampled_from(NUMBERS) | st.sampled_from(BAD_CELLS)
NAMES = ["x", "y", "w", "a", "b"]
ORDERS = st.sampled_from(["x:total", "a,b:cw", "a-b:icx", "a,b:st", "x:total;a,b:cw"]) | st.sampled_from([
    "X:TOTAL", " x : total ", "a-b:cw;x:total", "x;", ":total", "x:", "x:total;", "b-a:cw", "x:nope",
    "x:total;x:cw", "a-b-x:cw", "", "y:total", "x,x:cw", "٣:total", "a:total",
])
LEVELS = st.sampled_from([
    "0.5", "0.1,0.9", "0", "1", "nan", "1e308", "5e-324", "0.1,0.1", "0.1,0.10", "0.٥", ",", "", "1_0",
    "inf", "-0.5", "0.5,", " 0.25 ",
])
THRESHOLDS = st.sampled_from(["2", "0,1e308", "-1e308", "5e-324", "nan", "inf", "1,1.0", "", "1_0", "-0.0", "3,x"])

runner = CliRunner()


def run(*args):
    """Run the command line on ``args`` and check its contract."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, [str(a) for a in args])
    output = res.output
    assert res.exit_code in (0, 2, 3, 4), (args, res.exit_code, output, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)
    assert "Traceback" not in output, (args, output)
    return res


@st.composite
def tables(draw, names=st.sampled_from(NAMES), min_rows=0):
    """CSV text: a header of 1-4 names (repeats allowed) and up to six
    rows of pooled cells, some rows repeated, maybe after a BOM."""
    header = draw(st.lists(names, min_size=1, max_size=4))
    pool = draw(st.lists(st.lists(CELLS, min_size=len(header), max_size=len(header)), min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(pool), min_size=min_rows, max_size=6))
    if draw(st.booleans()) and rows:
        rows[-1] = rows[-1][:-1]  # one ragged row
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header] + rows)
    return ("\ufeff" if draw(st.booleans()) else "") + text.getvalue()


@st.composite
def clean_tables(draw):
    """A table with the columns x, y, w, a, b and 1-6 rows of numbers
    from the pool, so that fits get through parsing more often."""
    rows = draw(st.lists(st.lists(st.sampled_from(NUMBERS), min_size=5, max_size=5), min_size=1, max_size=6))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([NAMES] + rows)
    return text.getvalue()


ANY_TABLE = tables() | clean_tables()


@st.composite
def pit_tables(draw):
    """A ``pit`` column of 1-6 values in [0, 1], at its ends and beside."""
    cells = st.sampled_from(["0", "-0.0", "5e-324", "0.5", "0.9999999999999999", "1", "1.0000000000000002"])
    return "pit\n" + "".join(f"{c}\n" for c in draw(st.lists(cells, min_size=1, max_size=6)))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Valid model files on the columns x (a chain) and a, b (a
    componentwise order), plain and subagged."""
    d = tmp_path_factory.mktemp("models")
    rows = [[i % 4, (i * 7) % 5, 1 + i % 3, i % 3, (i * 2) % 5] for i in range(12)]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([NAMES] + rows)
    data = write(d / "train.csv", text.getvalue())
    out = []
    for name, extra in (("chain", ["--order", "x:total"]), ("cw", ["--order", "a,b:cw", "--weight", "w"]),
                        ("sub", ["--order", "a,b:cw", "--subagg-count", 2, "--subagg-size", 6])):
        path = d / f"{name}.json"
        assert run("fit", "--data", data, "--response", "y", "--out", path, *extra).exit_code == 0
        out.append(path)
    return out


FIT_MODES = st.sampled_from([[], ["--subagg-count", "2", "--subagg-size", "2"], ["--split", "even-odd"],
                             ["--subagg-count", "3", "--subagg-size", "9"], ["--subagg-count", "-1"]])


@SETTINGS
@given(table=ANY_TABLE, order=ORDERS, response=st.sampled_from(NAMES + ["z"]),
       weight=st.none() | st.sampled_from(NAMES), mode=FIT_MODES, levels=LEVELS, zs=THRESHOLDS)
def test_fit_then_predict_and_score_keep_the_contract(tmp_path_factory, table, order, response, weight, mode,
                                                      levels, zs):
    d = tmp_path_factory.mktemp("fit")
    data, model = write(d / "data.csv", table), d / "model.json"
    args = ["fit", "--data", data, "--response", response, "--order", order, "--out", model, *mode]
    if weight is not None:
        args += ["--weight", weight]
    if run(*args).exit_code == 0:
        run("predict", "--model", model, "--data", data, "--quantiles", levels, "--thresholds", zs,
            "--out", d / "p.csv")
        run("predict", "--model", model, "--data", data, "--interpolate", "--out", d / "i.csv")
        run("score", "--model", model, "--data", data, "--response", response, "--thresholds", zs,
            "--alphas", levels, "--out", d / "s.csv")
        run("reliability", "--model", model, "--data", data, "--response", response, "--threshold", zs,
            "--bins", "2", "--out", d / "r.csv")


@SETTINGS
@given(table=ANY_TABLE, which=st.integers(0, 2), levels=LEVELS, zs=THRESHOLDS, interpolate=st.booleans())
def test_predict_keeps_the_contract(tmp_path_factory, models, table, which, levels, zs, interpolate):
    d = tmp_path_factory.mktemp("predict")
    args = ["predict", "--model", models[which], "--data", write(d / "data.csv", table), "--quantiles", levels,
            "--out", d / "p.csv"]
    if zs:
        args += ["--thresholds", zs]
    run(*args, *(["--interpolate"] if interpolate else []))


@SETTINGS
@given(table=ANY_TABLE, which=st.integers(0, 2), response=st.sampled_from(NAMES), levels=LEVELS, zs=THRESHOLDS,
       seed=st.sampled_from(["0", "7", "-1", "x"]))
def test_score_keeps_the_contract(tmp_path_factory, models, table, which, response, levels, zs, seed):
    d = tmp_path_factory.mktemp("score")
    run("score", "--model", models[which], "--data", write(d / "data.csv", table), "--response", response,
        "--thresholds", zs, "--alphas", levels, "--seed", seed, "--out", d / "s.csv")


@SETTINGS
@given(table=ANY_TABLE, which=st.integers(0, 2), response=st.sampled_from(NAMES), zs=THRESHOLDS,
       bins=st.sampled_from(["2", "10", "1", "0", "1001", "x"]))
def test_reliability_keeps_the_contract(tmp_path_factory, models, table, which, response, zs, bins):
    d = tmp_path_factory.mktemp("reliability")
    run("reliability", "--model", models[which], "--data", write(d / "data.csv", table), "--response", response,
        "--threshold", zs, "--bins", bins, "--out", d / "r.csv")


@SETTINGS
@given(table=tables(names=st.sampled_from(["pit", "pit", "x"])) | pit_tables(),
       bins=st.sampled_from(["1", "3", "10", "0", "1000", "1001", "-2", "٣"]))
def test_pit_hist_keeps_the_contract(tmp_path_factory, table, bins):
    d = tmp_path_factory.mktemp("pit")
    run("pit-hist", "--scores", write(d / "scores.csv", table), "--bins", bins, "--out", d / "h.csv")


@SETTINGS
@given(n=st.sampled_from(["1", "2", "5", "0", "-1", "1e3", "٣", ""]),
       seed=st.sampled_from(["0", "1", "-1", "4294967296", "x"]))
def test_simulate_keeps_the_contract(tmp_path_factory, n, seed):
    run("simulate", "--n", n, "--seed", seed, "--out", tmp_path_factory.mktemp("sim") / "s.csv")
