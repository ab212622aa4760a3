import itertools
import random
from fractions import Fraction

import pytest

from gcdeform.frame import (
    ComplexOp,
    ExteriorForm,
    FrameAlgebra,
    FrameError,
    eigenframe,
    kodaira_frame,
    kodaira_preset,
)
from gcdeform.scalar import GR_ONE, GR_ZERO, GaussianRational, PolyScalar, function, parameter, poly
from oracles import permutation_det, random_gaussian, random_poly, reference_ce_differential

GR = GaussianRational.of


def test_kodaira_preset_is_a_lie_algebra():
    g, J = kodaira_preset()
    assert g.validate_jacobi() == []
    assert g.basis == ("X", "Y", "U", "V")


def test_abelian_passes_jacobi():
    g = FrameAlgebra.build(("A", "B", "C"), {})
    assert g.validate_jacobi() == []


def test_seeded_defect_mutant_fails_jacobi():
    # [X,Y] = U together with [X,U] = X breaks the identity at (X, Y, U)
    g = FrameAlgebra.build(
        ("X", "Y", "U", "V"),
        {("X", "Y"): {"U": GR_ONE}, ("X", "U"): {"X": GR_ONE}},
    )
    violations = g.validate_jacobi()
    assert len(violations) == 1
    v = violations[0]
    assert v.triple == ("X", "Y", "U")
    assert v.defect == (GR_ZERO, GR_ZERO, GR(-1), GR_ZERO)
    assert "-U" in str(v)


def test_rotation_extension_satisfies_jacobi():
    # [X,Y] = U with [X,U] = Y is a genuine Lie algebra (no violation)
    g = FrameAlgebra.build(
        ("X", "Y", "U", "V"),
        {("X", "Y"): {"U": GR_ONE}, ("X", "U"): {"Y": GR_ONE}},
    )
    assert g.validate_jacobi() == []


def test_conflicting_bracket_entries_rejected():
    with pytest.raises(FrameError):
        FrameAlgebra.build(
            ("X", "Y"),
            {("X", "Y"): {"X": GR_ONE}, ("Y", "X"): {"X": GR_ONE}},
        )


def test_complex_op_requires_square_minus_one():
    with pytest.raises(FrameError):
        ComplexOp.build(((GR_ONE, GR_ZERO), (GR_ZERO, GR_ONE)))
    _, J = kodaira_preset()
    assert J.dim == 4


def test_eigenframe_kodaira_single_bracket():
    frame = kodaira_frame()
    alg = frame.algebra
    assert alg.basis == ("T", "W", "Tbar", "Wbar")
    assert alg.dual_names == ("omega", "rho", "omegabar", "rhobar")
    assert len(alg.table) == 1
    (i, j), vec = alg.table[0]
    assert (alg.basis[i], alg.basis[j]) == ("T", "Tbar")
    half_i = GR(0, Fraction(1, 2))
    assert vec == (GR_ZERO, half_i, GR_ZERO, half_i)


def test_eigenframe_round_trip_recovers_real_basis():
    frame = kodaira_frame()
    P = frame.change_of_basis
    n = 4
    t_col = [P[i][0] for i in range(n)]
    tbar_col = [P[i][2] for i in range(n)]
    x = [a + b for a, b in zip(t_col, tbar_col)]
    assert x == [GR_ONE, GR_ZERO, GR_ZERO, GR_ZERO]
    y = [(a - b) * GR(0, 1) for a, b in zip(t_col, tbar_col)]
    assert y == [GR_ZERO, GR_ONE, GR_ZERO, GR_ZERO]


def test_eigenframe_eigenvalue_relation():
    g, J = kodaira_preset()
    frame = eigenframe(g, J, tangent_names=("T", "W"), dual_names=("omega", "rho"))
    P = frame.change_of_basis
    for a in range(2):
        col = [P[i][a] for i in range(4)]
        assert J.apply(col) == [GR(0, 1) * c for c in col]
    for a in range(2, 4):
        col = [P[i][a] for i in range(4)]
        assert J.apply(col) == [GR(0, -1) * c for c in col]


def test_eigenframe_abelian():
    g = FrameAlgebra.build(("X", "Y", "U", "V"), {})
    _, J = kodaira_preset()
    frame = eigenframe(g, J)
    assert frame.algebra.table == ()
    assert frame.algebra.basis == ("Z1", "Z2", "Z1bar", "Z2bar")


def test_wedge_evaluation_is_determinant():
    names = ("a", "b", "c")
    form = ExteriorForm.basis(names, (0, 1))
    v1 = [poly(GR(2)), poly(GR(3)), poly(GR_ZERO)]
    v2 = [poly(GR(5)), poly(GR(7)), poly(GR_ZERO)]
    assert form.evaluate([v1, v2]) == poly(GR(2 * 7 - 3 * 5))


def test_evaluation_matches_permutation_expansion():
    rng = random.Random(314)
    names = ("a", "b", "c", "d")
    symbols = [parameter("s"), parameter("t")]
    for k in range(4):
        for _ in range(5):
            data = {
                idx: random_poly(rng, symbols)
                for idx in itertools.combinations(range(4), k)
                if rng.random() < 0.6
            }
            vectors = [[random_poly(rng, symbols) for _ in names] for _ in range(k)]
            expected = PolyScalar.zero()
            for idx, c in data.items():
                expected = expected + c * permutation_det([[v[i] for i in idx] for v in vectors])
            assert ExteriorForm.build(names, data).evaluate(vectors) == expected


def test_wedge_sign_normalization():
    names = ("a", "b")
    swapped = ExteriorForm.build(names, {(1, 0): PolyScalar.const(GR_ONE)})
    assert swapped == -ExteriorForm.basis(names, (0, 1))
    assert ExteriorForm.build(names, {(0, 0): PolyScalar.const(GR_ONE)}).is_zero()
    names = ("a", "b", "c")
    cyclic = ExteriorForm.build(names, {(2, 0, 1): PolyScalar.const(GR_ONE)})
    transposed = ExteriorForm.build(names, {(1, 0, 2): PolyScalar.const(GR_ONE)})
    assert cyclic == -transposed == ExteriorForm.basis(names, (0, 1, 2))


def _dual_form(frame, data):
    return ExteriorForm.build(frame.algebra.dual_names, data)


def test_ce_differential_kodaira_coframe():
    frame = kodaira_frame()
    alg = frame.algebra
    d_omega = alg.ce_differential(ExteriorForm.basis(alg.dual_names, (0,)))
    assert d_omega.is_zero()
    d_rho = alg.ce_differential(ExteriorForm.basis(alg.dual_names, (1,)))
    # d rho evaluates to -i/2 at (T, Tbar)
    minus_half_i = PolyScalar.const(GR(0, Fraction(-1, 2)))
    assert d_rho == _dual_form(frame, {(0, 2): minus_half_i})
    d_rhobar = alg.ce_differential(ExteriorForm.basis(alg.dual_names, (3,)))
    assert d_rhobar == _dual_form(frame, {(0, 2): minus_half_i})


def test_ce_differential_constant_zero_form():
    frame = kodaira_frame()
    const = ExteriorForm.build(frame.algebra.dual_names, {(): poly(parameter("t"))})
    assert frame.algebra.ce_differential(const).is_zero()


def test_ce_differential_rejects_function_coefficients():
    frame = kodaira_frame()
    bad = ExteriorForm.build(frame.algebra.dual_names, {(0,): poly(function("u1"))})
    with pytest.raises(FrameError):
        frame.algebra.ce_differential(bad)


def test_ce_differential_squares_to_zero():
    frame = kodaira_frame()
    alg = frame.algebra
    rng = random.Random(17)
    t = [parameter(f"s{k}") for k in range(4)]
    for _ in range(20):
        data = {}
        for k in range(4):
            coeff = poly(t[k]).scale(random_gaussian(rng, 2))
            data[(k,)] = coeff
        form = ExteriorForm.build(alg.dual_names, data)
        df = alg.ce_differential(form)
        assert alg.ce_differential(df).is_zero()


def _random_algebra(rng, n, upper):
    """Random structure constants; ``upper`` keeps c^k_ij = 0 unless k > j > i."""
    basis = [f"e{a}" for a in range(n)]
    brackets = {}
    for i, j in itertools.combinations(range(n), 2):
        targets = range(j + 1, n) if upper else range(n)
        rhs = {basis[k]: random_gaussian(rng, 2) for k in targets if rng.random() < 0.5}
        if rhs:
            brackets[(basis[i], basis[j])] = rhs
    return FrameAlgebra.build(basis, brackets)


def test_ce_differential_matches_wedge_expansion():
    rng = random.Random(99)
    symbols = [parameter("s"), parameter("t")]
    algebras = [kodaira_frame().algebra, kodaira_preset()[0]]
    algebras += [_random_algebra(rng, rng.randint(3, 6), upper=True) for _ in range(12)]
    # constants c^k_ij with k in {i, j} put the slot's own index back in
    algebras += [_random_algebra(rng, rng.randint(3, 5), upper=False) for _ in range(6)]
    for alg in algebras:
        n = alg.dim
        for degree in range(4):
            for _ in range(3):
                data = {
                    idx: random_poly(rng, symbols)
                    for idx in itertools.combinations(range(n), degree)
                    if rng.random() < 0.6
                }
                form = ExteriorForm.build(alg.dual_names, data)
                assert alg.ce_differential(form) == reference_ce_differential(alg, form)


def test_eigenframe_rejects_dimension_mismatch():
    g = FrameAlgebra.build(("A", "B"), {})
    _, J = kodaira_preset()
    with pytest.raises(FrameError):
        eigenframe(g, J)


def test_complex_op_rejects_non_square():
    with pytest.raises(FrameError):
        ComplexOp.build(((GR_ZERO, GR_ONE),))
