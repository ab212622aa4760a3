"""Property test of the Gaussian-rational number format (needs ``hypothesis``)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import gaussian_mismatches  # noqa: E402

# exact zeros and small denominators, so equal values and reductions turn up
parts = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
)
operands = st.tuples(parts, parts)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(operands, operands)
def test_triples_match_fraction_pairs(p, q):
    assert gaussian_mismatches(p, q) == []
