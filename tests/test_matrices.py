"""The fraction-free matrix routines against the ``Fraction`` Gauss-Jordan reference.

``mat_rank``, ``mat_rref``, ``mat_inverse`` and ``mat_left_inverse`` all go
through one sparse elimination over the Gaussian integers.  They are compared
with ``reference_rref`` on seeded matrices of three kinds: sparse ones up to
6 x 6 with mixed denominators up to 12, some made rank deficient or given a
zero row or column; dense ones up to 8 x 8 with every entry nonzero and
denominators up to 81, where the exact divisions keep the integers small; and
a few edge shapes.
"""

import collections
import random
from fractions import Fraction

import pytest

from gcdeform.scalar import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    SingularMatrixError,
    _eliminate,
    _integer_row,
    mat_inverse,
    mat_left_inverse,
    mat_mul,
    mat_rank,
    mat_rref,
)
from oracles import permutation_det, reference_rref


def _identity(n):
    return [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]


def _entry(rng):
    # mixed denominators up to 12, so rows need different common denominators
    if rng.random() < 0.25:
        return GR_ZERO
    return GaussianRational.of(
        Fraction(rng.randint(-5, 5), rng.randint(1, 12)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 12)) if rng.random() < 0.7 else 0,
    )


def _dense_entry(rng):
    # never zero, denominators up to 81: the entries of a polynomial matrix at
    # a seeded point, as ``_generic_rank`` ranks them on symplectic abelian-8/10
    re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 81))
    return GaussianRational.of(re, Fraction(rng.randint(-40, 40), rng.randint(1, 81)))


def _random_matrix(rng):
    """A seeded matrix and its shape: dense up to 8 x 8, else sparse up to 6 x 6."""
    shape = rng.choice(("plain", "multiple", "zero-column", "zero-row", "dense"))
    if shape == "dense":
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        return [[_dense_entry(rng) for _ in range(n)] for _ in range(m)], shape
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    matrix = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    if shape == "multiple" and m >= 2:
        # one row a Gaussian-rational multiple of another: rank deficient
        src, dst = rng.sample(range(m), 2)
        factor = _entry(rng) or GR_ONE
        matrix[dst] = [factor * x for x in matrix[src]]
    elif shape == "zero-column" and n:
        col = rng.randrange(n)
        for row in matrix:
            row[col] = GR_ZERO
    elif shape == "zero-row" and m:
        matrix[rng.randrange(m)] = [GR_ZERO] * n
    return matrix, shape


def _reference_inverse(matrix):
    n = len(matrix)
    rows, pivots = reference_rref([list(r) + e for r, e in zip(matrix, _identity(n))])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]]


def _reference_left_inverse(matrix):
    # one solve of matrix^T x = e_j per column, free coordinates zero
    m, n = len(matrix), len(matrix[0])
    left = []
    for e in _identity(n):
        augmented = [[matrix[i][j] for i in range(m)] + [e[j]] for j in range(n)]
        rows, pivots = reference_rref(augmented)
        if m in pivots:
            return None
        x = [GR_ZERO] * m
        for r, c in enumerate(pivots):
            x[c] = rows[r][m]
        left.append(x)
    return left


def _raises_singular(fn, matrix):
    try:
        return fn(matrix)
    except SingularMatrixError:
        return None


def test_matrix_routines_match_fraction_reference():
    rng = random.Random(20261018)
    seen = collections.Counter()
    for _ in range(400):
        matrix, shape = _random_matrix(rng)
        m, n = len(matrix), len(matrix[0])
        seen[shape] += 1
        rows, pivots = reference_rref(matrix)
        assert mat_rref(matrix) == (rows, pivots)
        assert mat_rank(matrix) == len(pivots)

        left = _reference_left_inverse(matrix)
        assert _raises_singular(mat_left_inverse, matrix) == left
        if left is not None:
            assert mat_mul(left, matrix) == _identity(n)
        seen["left inverse" if left is not None else "no left inverse"] += 1

        square = [row[:m] for row in matrix] if n >= m else matrix[:n]
        inverse = _reference_inverse(square)
        assert _raises_singular(mat_inverse, square) == inverse
        seen["invertible" if inverse is not None else "singular"] += 1
    for case in ("left inverse", "no left inverse", "invertible", "singular", "dense"):
        assert seen[case] >= 25, seen


@pytest.mark.parametrize(
    "matrix",
    [
        [],
        [[]],
        [[GR_ZERO, GR_ZERO], [GR_ZERO, GR_ZERO]],
        [[GaussianRational.of(0, Fraction(1, 3))]],
        [[GR_ZERO, GaussianRational.of(2, 1)], [GaussianRational.of(Fraction(1, 2)), GR_ONE]],
    ],
    ids=["empty", "no-columns", "zero", "one-by-one", "zero-corner"],
)
def test_matrix_routines_on_edge_shapes(matrix):
    assert mat_rref(matrix) == reference_rref(matrix)
    assert mat_rank(matrix) == len(reference_rref(matrix)[1])
    if matrix and matrix[0]:
        assert _raises_singular(mat_left_inverse, matrix) == _reference_left_inverse(matrix)
        assert _raises_singular(mat_inverse, matrix) == _reference_inverse(matrix)


def test_left_inverse_of_empty_matrix_is_empty():
    assert mat_left_inverse([]) == []
    assert mat_inverse([]) == []


def _gaussian_integer(rng):
    # zero with probability 0.4, so about a third of the 1 x 1 to 5 x 5
    # matrices drawn from these entries are singular
    if rng.random() < 0.4:
        return GR_ZERO
    return GaussianRational.of(rng.randint(-3, 3), rng.randint(-2, 2))


def test_each_pivot_is_a_leading_minor():
    """Bareiss's invariant, which makes every division exact: on a nonsingular
    Gaussian-integer matrix, the k-th pivot found is the minor of the first k
    rows and the first k pivot columns, taken in the order they were found."""
    rng = random.Random(20261020)
    singular = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        matrix = [[_gaussian_integer(rng) for _ in range(n)] for _ in range(n)]
        pivots, consistent = _eliminate(map(_integer_row, map(enumerate, matrix)), n, jordan=False)
        assert consistent
        if permutation_det(matrix).is_zero():
            assert len(pivots) < n
            singular += 1
            continue
        order = list(pivots)
        for k, c in enumerate(order, 1):
            leading = permutation_det([[row[j] for j in order[:k]] for row in matrix[:k]])
            assert GaussianRational.of(*pivots[c][c]) == leading.constant_value()
    assert 10 <= singular <= 50
