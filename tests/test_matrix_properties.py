"""Property tests of the exact matrix routines (needs ``hypothesis``)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gcdeform.scalar import (  # noqa: E402
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    mat_left_inverse,
    mat_mul,
    mat_rank,
    mat_rref,
)

SETTINGS = hypothesis.settings(max_examples=100, deadline=None)

parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# about a third of the entries are zero, so zero rows and columns turn up
nonzero = st.builds(GaussianRational.of, parts, parts)
entries = st.one_of(st.just(GR_ZERO), nonzero, nonzero)


@st.composite
def matrices(draw, tall=False):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n if tall else 1, 6))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))


@SETTINGS
@hypothesis.given(matrices())
def test_rank_of_transpose(matrix):
    transpose = [list(col) for col in zip(*matrix)]
    assert mat_rank(matrix) == mat_rank(transpose)


@SETTINGS
@hypothesis.given(matrices())
def test_rref_is_idempotent(matrix):
    rows, pivots = mat_rref(matrix)
    assert mat_rref(rows) == (rows, pivots)


@SETTINGS
@hypothesis.given(matrices(tall=True))
def test_left_inverse_is_a_left_inverse(matrix):
    n = len(matrix[0])
    hypothesis.assume(mat_rank(matrix) == n)
    identity = [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]
    assert mat_mul(mat_left_inverse(matrix), matrix) == identity
