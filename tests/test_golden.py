"""Byte-for-byte command-line output against committed golden files.

The inputs and outputs under ``tests/golden/`` were written by the
command line as it stood before prediction and scoring moved onto one
batch path; the three ``*_model.json`` files were rewritten when the
model format moved to 2.0, at 3.0, at 4.0 and again at 5.0.  Each
``v<major>/`` directory keeps them as that older format wrote them
(``v3/`` as 3.0, which lists every row's jumps in full; ``v4/`` as 4.0,
whose subagged icx model repeats the order spec, node keys and
thresholds in every member), and predict, score and reliability on
those copies must give the same outputs.
Every command below must reproduce each file it writes, and its
stdout, exactly.  ``python tests/test_golden.py`` rewrites the
golden files at the top level and leaves the ``v<major>/`` directories
as they are; do that only for a change meant to alter the output.  At
a format bump, first copy the three model files into a new
``v<old major>/``.
"""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from idr.cli import main
from idr.serialize import FORMAT_VERSION

GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = ("chain_model.json", "cw_model.json", "icx_model.json")
#: one directory per older format, named v<major>
OLD_FORMATS = sorted(p for p in GOLDEN.glob("v*") if p.is_dir())
INPUTS = ("chain_test.csv", "chain_tied_train.csv", "cw_train.csv", "cw_weighted_train.csv", "cw_test.csv",
          "icx_train.csv", "icx_test.csv")
ICX = "hres:total;p1-p4:icx"

# (command line, files it writes); later commands read earlier outputs
COMMANDS = [
    ("simulate --n 40 --seed 5 --out chain_train.csv", ["chain_train.csv"]),
    ("fit --data chain_train.csv --response y --order x:total --out chain_model.json", ["chain_model.json"]),
    ("predict --model chain_model.json --data chain_test.csv --quantiles 0.1,0.5,0.9 --thresholds 1,4 "
     "--out chain_predict.csv", ["chain_predict.csv"]),
    ("predict --model chain_model.json --data chain_test.csv --quantiles 0.1,0.5,0.9 --thresholds 1,4 "
     "--interpolate --out chain_interp.csv", ["chain_interp.csv"]),
    ("score --model chain_model.json --data chain_test.csv --response y --thresholds 1,4 --alphas 0.1,0.9 "
     "--seed 7 --out chain_score.csv", ["chain_score.csv"]),
    ("score --true-gamma --data chain_train.csv --response y --thresholds 1,4 --alphas 0.1,0.9 "
     "--seed 7 --out gamma_score.csv", ["gamma_score.csv"]),
    ("pit-hist --scores chain_score.csv --bins 5 --out chain_pit.csv", ["chain_pit.csv"]),
    ("reliability --model chain_model.json --data chain_test.csv --response y --threshold 4 --bins 5 "
     "--out chain_rel.csv", ["chain_rel.csv"]),
    ("fit --data chain_tied_train.csv --response y --order x:total --out chain_tied_model.json",
     ["chain_tied_model.json"]),
    ("fit --data cw_train.csv --response y --order a,b:cw --out cw_model.json", ["cw_model.json"]),
    ("predict --model cw_model.json --data cw_test.csv --quantiles 0.25,0.5 --thresholds 3 "
     "--out cw_predict.csv", ["cw_predict.csv"]),
    ("score --model cw_model.json --data cw_test.csv --response y --thresholds 3 --alphas 0.5 "
     "--seed 2 --out cw_score.csv", ["cw_score.csv"]),
    ("fit --data cw_weighted_train.csv --response y --order a,b:cw --weight w --out cw_weighted_model.json",
     ["cw_weighted_model.json"]),
    (f"fit --data icx_train.csv --response y --order {ICX} --subagg-count 4 --subagg-size 25 --seed 3 "
     "--out icx_model.json", ["icx_model.json"]),
    ("predict --model icx_model.json --data icx_test.csv --quantiles 0.1,0.5,0.9 --thresholds 2 "
     "--out icx_predict.csv", ["icx_predict.csv"]),
    ("score --model icx_model.json --data icx_test.csv --response y --thresholds 2 --alphas 0.9 "
     "--seed 4 --out icx_score.csv", ["icx_score.csv"]),
    ("reliability --model icx_model.json --data icx_test.csv --response y --threshold 2 --bins 4 "
     "--out icx_rel.csv", ["icx_rel.csv"]),
]


def run_all(workdir: Path, commands=COMMANDS) -> str:
    """Run ``commands`` with ``workdir`` as the current directory;
    returns their stdout, each block headed by its command line."""
    runner = CliRunner()
    log = []
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for line, _ in commands:
            res = runner.invoke(main, line.split())
            assert res.exit_code == 0, (line, res.output)
            log.append(f"$ idr {line}\n{res.stdout}")
    finally:
        os.chdir(old)
    return "".join(log)


def test_cli_output_matches_golden_files(tmp_path):
    for name in INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    stdout = run_all(tmp_path)
    assert stdout == (GOLDEN / "stdout.txt").read_text(encoding="utf-8")
    for _, outputs in COMMANDS:
        for name in outputs:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_every_older_format_is_kept():
    majors = [p.name[1:] for p in OLD_FORMATS]
    current = FORMAT_VERSION.split(".")[0]
    assert majors == [str(k) for k in range(1, int(current))]


@pytest.mark.parametrize("folder", OLD_FORMATS, ids=lambda p: p.name)
def test_older_format_models_reproduce_the_golden_outputs(folder, tmp_path):
    """Predict, score and reliability on the model files of an older
    format still write every golden file and stdout line."""
    for name in INPUTS:
        shutil.copy(GOLDEN / name, tmp_path / name)
    for name in MODELS:
        doc = json.loads((folder / name).read_text(encoding="utf-8"))
        assert doc["version"] == f"{folder.name[1:]}.0"
        shutil.copy(folder / name, tmp_path / name)
    commands = [c for c in COMMANDS if "--model " in c[0]]
    assert {c[0].split()[0] for c in commands} == {"predict", "score", "reliability"}
    blocks = (GOLDEN / "stdout.txt").read_text(encoding="utf-8").split("$ idr ")[1:]
    want = {block.split("\n", 1)[0]: "$ idr " + block for block in blocks}
    assert run_all(tmp_path, commands) == "".join(want[line] for line, _ in commands)
    for _, outputs in commands:
        for name in outputs:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _write_inputs(rng):
    def write(name, header, rows):
        lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
        (GOLDEN / name).write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")

    # chain queries: training keys, points between them, below and above all
    train = np.loadtxt(GOLDEN / "chain_train.csv", delimiter=",", skiprows=1)
    xs = np.concatenate([train[:5, 0], rng.uniform(0, 10, size=8), [-1.0, 0.0, 10.5, 12.0]])
    write("chain_test.csv", ["x", "y"], np.column_stack([xs, rng.gamma(2.0, 2.0, size=xs.size)]))

    # componentwise grid; queries at keys, between, below, above and
    # incomparable to every training point
    ab = rng.integers(0, 5, size=(30, 2)).astype(float)
    write("cw_train.csv", ["a", "b", "y"], np.column_stack([ab, ab.sum(axis=1) + rng.normal(size=30)]))
    q = np.vstack([ab[:4], [[2.5, 2.5], [1.5, 3.5], [-1.0, -1.0], [9.0, 9.0], [-1.0, 9.0], [9.0, -1.0]]])
    write("cw_test.csv", ["a", "b", "y"], np.column_stack([q, q.sum(axis=1) + rng.normal(size=len(q))]))

    # a point forecast plus a four-member exchangeable ensemble
    def ensemble(n):
        base = rng.uniform(0, 5, size=n)
        return np.column_stack([
            base + rng.normal(scale=0.3, size=n),
            base[:, None] + rng.normal(scale=0.6, size=(n, 4)),
            base + rng.normal(scale=0.5, size=n),
        ])

    icx = ensemble(60)
    write("icx_train.csv", ["hres", "p1", "p2", "p3", "p4", "y"], icx)
    # below all, above all, incomparable to all
    tail = np.array([[-5.0] * 5 + [0.0], [20.0] * 5 + [6.0], [20.0] + [-5.0] * 4 + [1.0]])
    write("icx_test.csv", ["hres", "p1", "p2", "p3", "p4", "y"], np.vstack([icx[:3], ensemble(9), tail]))

    # the componentwise table with integer weights 1-3, drawn last so that
    # the tables above keep their draws
    cw = np.loadtxt(GOLDEN / "cw_train.csv", delimiter=",", skiprows=1)
    write("cw_weighted_train.csv", ["a", "b", "y", "w"], np.column_stack([cw, rng.integers(1, 4, size=len(cw))]))

    # 48 rows on three tied chain covariates, fixed: pooling w * fl(c / w)
    # in place of the indicator sums c fits y <= 2 as 0.5625000000000001,
    # not 27 / 48
    x = np.repeat([8.0, 9.0, 10.0], [3, 38, 7])
    y = np.repeat([1.0, 3, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 6], [1, 2, 2, 11, 8, 11, 3, 1, 2, 1, 1, 3, 1, 1])
    write("chain_tied_train.csv", ["x", "y"], np.column_stack([x, y]))


if __name__ == "__main__":
    # the chain training table comes from the first command, the other
    # inputs from a fixed seed; then every output is rewritten in place.
    # Every command writes at the top level only, so the older formats
    # under v<major>/ stay as they were written; this checks that.
    kept = {p: p.read_bytes() for folder in OLD_FORMATS for p in folder.iterdir()}
    GOLDEN.mkdir(exist_ok=True)
    run_all(GOLDEN, COMMANDS[:1])
    _write_inputs(np.random.default_rng(20240))
    (GOLDEN / "stdout.txt").write_text(run_all(GOLDEN), encoding="utf-8")
    if kept != {p: p.read_bytes() for folder in OLD_FORMATS for p in folder.iterdir()}:
        raise SystemExit("the rewrite changed a file under golden/v<major>/")
