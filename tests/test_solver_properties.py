"""Property test of the poset solver on small drawn posets.

Hypothesis draws posets of at most 10 nodes under every relation,
columns that change one node at a time (like neighbouring thresholds)
or arbitrary ones, and unit, integer or float weights.  The fit must
equal the strict-pair reference, which solves every column from
scratch, bit for bit, and the brute-force projection to 1e-10.  The
search is derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from idr import (  # noqa: E402
    COMPONENTWISE,
    EMPIRICAL_ICX,
    EMPIRICAL_STOCHASTIC,
    TOTAL,
    OrderGroup,
    OrderSpec,
    antitonic_l2_fit,
    build_order_dag,
)

from brute_force import brute_force_antitonic, strict_pair_antitonic  # noqa: E402

SPECS = [
    OrderSpec((OrderGroup((0, 1), COMPONENTWISE),)),
    OrderSpec((OrderGroup((0, 1, 2), EMPIRICAL_STOCHASTIC),)),
    OrderSpec((OrderGroup((0, 1, 2), EMPIRICAL_ICX),)),
    OrderSpec((OrderGroup((0,), TOTAL), OrderGroup((1, 2), EMPIRICAL_ICX))),
]

#: simple fractions meet each other often, as indicator means do
VALUES = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0]),
                   st.floats(-1.0, 1.0, allow_subnormal=False))


@st.composite
def problems(draw):
    spec = draw(st.sampled_from(SPECS))
    d = sum(len(g.columns) for g in spec.groups)
    points = draw(arrays(float, (draw(st.integers(1, 10)), d), elements=st.integers(0, 3).map(float)))
    dag = build_order_dag(spec, points)
    n = dag.n_nodes
    weights = draw(st.sampled_from([
        st.just(np.ones(n)),
        arrays(float, n, elements=st.integers(1, 4).map(float)),
        arrays(float, n, elements=st.floats(0.25, 4.0)),
    ]))
    first = draw(arrays(float, n, elements=VALUES))
    if draw(st.booleans()):
        cols = [first]
        for node, value in draw(st.lists(st.tuples(st.integers(0, n - 1), VALUES), max_size=8)):
            cols.append(cols[-1].copy())
            cols[-1][node] = value
        values = np.column_stack(cols)
    else:
        values = np.column_stack([first, draw(arrays(float, (n, draw(st.integers(0, 4))), elements=VALUES))])
    return dag, values, draw(weights)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(problems())
def test_fit_matches_the_references(problem):
    dag, values, weights = problem
    fit = antitonic_l2_fit(dag, values, weights)
    if not dag.is_chain:
        assert np.array_equal(fit, strict_pair_antitonic(dag, values, weights))
    for k in range(values.shape[1]):
        oracle = brute_force_antitonic(dag, values[:, k], weights)
        assert np.allclose(fit[:, k], oracle, rtol=0, atol=1e-10)
