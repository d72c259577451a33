"""Library input rules, each asserted by its message: one case per rule
that no other test reaches, with the call that breaks it."""

import json
from pathlib import Path

import numpy as np
import pytest

from idr import (
    TOTAL,
    OrderGroup,
    OrderSpec,
    StepCdf,
    canonical_key,
    elementary_probability_score,
    fit_even_odd,
    fit_idr,
    interpolate_total_order,
    make_training_set,
    model_from_json,
    model_to_json,
    pav_antitonic,
    pit_histogram,
    predict_batch,
    predict_cdf,
)
from idr.oracles import simulate_gamma

GOLDEN = Path(__file__).resolve().parent / "golden"
TOTAL1 = OrderSpec((OrderGroup((0,), TOTAL),))
MODEL = fit_idr(make_training_set(TOTAL1, [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]))


def _ragged_node_keys() -> str:
    doc = json.loads((GOLDEN / "chain_model.json").read_text())
    doc["node_keys"][1] = doc["node_keys"][1] * 2
    return json.dumps(doc)


RULES = {
    "simulate-gamma-n": (lambda: simulate_gamma(0, 1), ValueError, "n must be at least 1"),
    "order-group-duplicate": (lambda: OrderGroup((0, 0), "componentwise"), ValueError,
                              "duplicate column inside a group"),
    "canonical-key-1d": (lambda: canonical_key(TOTAL1, [[1.0]]), ValueError,
                         "expected a 1-d covariate vector, got shape (1, 1)"),
    "predict-cdf-1d": (lambda: predict_cdf(MODEL, [[1.0]]), ValueError,
                       "expected a 1-d covariate vector, got shape (1, 1)"),
    "interpolate-scalar": (lambda: interpolate_total_order(MODEL, [1.0, 2.0]), ValueError,
                           "interpolation takes a single scalar covariate"),
    "elementary-probability-c": (lambda: elementary_probability_score(StepCdf.point_mass(1.0), 1.0, 1.0, 0.5),
                                 ValueError, "c must lie strictly between 0 and 1"),
    "pit-histogram-empty": (lambda: pit_histogram([], 5), ValueError,
                            "need a non-empty 1-d array of pit values and at least 1 bin"),
    "pit-histogram-bins": (lambda: pit_histogram([0.5], 0), ValueError,
                           "need a non-empty 1-d array of pit values and at least 1 bin"),
    "node-keys-ragged": (lambda: model_from_json(_ragged_node_keys()), ValueError,
                         "node_keys must be a rectangular array"),
    "serialize-type": (lambda: model_to_json(StepCdf.point_mass(1.0)), TypeError, "cannot serialize StepCdf"),
    "model-file-object": (lambda: model_from_json("[1, 2]"), ValueError, "model file must contain a JSON object"),
    "solver-values-finite": (lambda: pav_antitonic([1.0, np.nan]), ValueError, "values must be finite"),
    "pav-values-1d": (lambda: pav_antitonic([[1.0, 2.0]]), ValueError, "values must be 1-d"),
    "even-odd-rows": (lambda: fit_even_odd(make_training_set(TOTAL1, [1.0], [1.0])), ValueError,
                      "even/odd split needs at least two rows"),
}


@pytest.mark.parametrize("rule", RULES)
def test_input_rule_raises_its_message(rule):
    call, error, message = RULES[rule]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_one_dimensional_covariates_read_as_one_column():
    """As README § Library use promises for ``predict_batch``."""
    flat, column = predict_batch(MODEL, [0.5, 2.0, 9.0]), predict_batch(MODEL, [[0.5], [2.0], [9.0]])
    assert np.array_equal(flat.center, column.center)
    assert flat.provenance == column.provenance
