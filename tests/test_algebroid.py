import itertools
import random
from fractions import Fraction

import pytest

from cli_sweep import WORKSPACES as SWEEP
from gcdeform.algebroid import (
    AlgebroidError,
    IsotropicSubbundle,
    build_complex_eigenbundle,
    build_symplectic_eigenbundle,
    complex_eigenbundle,
)
from gcdeform.cli import build_workspace, parse_workspace
from gcdeform.courant import GenSection, courant_bracket
from gcdeform.frame import (
    ComplexFrame,
    ExteriorForm,
    FrameAlgebra,
    bracket_vectors,
    eigenframe,
    kodaira_preset,
)
from gcdeform.scalar import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PolyScalar,
    function,
    parameter,
    poly,
)
from oracles import courant_oracle, random_gaussian, reference_schouten_table, reference_theta

GR = GaussianRational.of
HALF_I = GR(0, Fraction(1, 2))


def lform(sub, data):
    return ExteriorForm.build(sub.lform_names, data)


# ---------------------------------------------------------------------------
# eigenbundle constructions
# ---------------------------------------------------------------------------


def test_complex_eigenbundle_kodaira(ksub):
    assert ksub.names == ("Tbar", "Wbar", "omega", "rho")
    assert ksub.type_index() == 2
    assert len(ksub.algebroid.table) == 1
    (i, j), vec = ksub.algebroid.table[0]
    assert (ksub.names[i], ksub.names[j]) == ("Tbar", "rho")
    assert vec == (GR_ZERO, GR_ZERO, HALF_I, GR_ZERO)


def test_complex_eigenbundle_abelian():
    g = FrameAlgebra.build(("X", "Y", "U", "V"), {})
    _, J = kodaira_preset()
    frame, sub = complex_eigenbundle(g, J)
    assert sub.algebroid.table == ()


def test_restriction_and_anchor_compatibility(ksub):
    n = ksub.rank
    for a in range(n):
        for b in range(n):
            br = courant_bracket(ksub.generators[a], ksub.generators[b])
            coeffs = ksub.express(br)
            assert coeffs is not None
            unit_a = [poly(GR_ONE if k == a else GR_ZERO) for k in range(n)]
            unit_b = [poly(GR_ONE if k == b else GR_ZERO) for k in range(n)]
            via_algebroid = bracket_vectors(ksub.algebroid.brackets, unit_a, unit_b)
            assert [c.constant_value() for c in coeffs] == [
                c.constant_value() for c in via_algebroid
            ]
            # anchor of the bracket equals the frame bracket of the anchors
            anchor_br = [c.constant_value() for c in br.tangent]
            xa = [poly(c) for c in ksub.anchor[a]]
            xb = [poly(c) for c in ksub.anchor[b]]
            frame_br = bracket_vectors(ksub.frame.algebra.brackets, xa, xb)
            assert anchor_br == [c.constant_value() for c in frame_br]


def test_symplectic_eigenbundle_closed_form():
    g, _ = kodaira_preset()
    duals = g.dual_names
    two = PolyScalar.const(GR(2))
    w = ExteriorForm.build(duals, {(0, 2): two, (1, 3): two})
    dw = g.ce_differential(w)
    assert dw.is_zero()
    frame, sub = build_symplectic_eigenbundle(g, w)
    assert sub.type_index() == 0
    assert sub.rank == 4


def test_symplectic_eigenbundle_non_closed_form():
    g, _ = kodaira_preset()
    duals = g.dual_names
    one = PolyScalar.const(GR_ONE)
    w = ExteriorForm.build(duals, {(0, 1): one, (2, 3): one})
    assert not g.ce_differential(w).is_zero()
    with pytest.raises(AlgebroidError, match="not involutive"):
        build_symplectic_eigenbundle(g, w)


def test_symplectic_eigenbundle_abelian_any_form():
    g = FrameAlgebra.build(("X", "Y", "U", "V"), {})
    one = PolyScalar.const(GR_ONE)
    w = ExteriorForm.build(g.dual_names, {(0, 1): one, (2, 3): one})
    _, sub = build_symplectic_eigenbundle(g, w)
    assert sub.type_index() == 0


def test_symplectic_eigenbundle_rejects_degenerate():
    g = FrameAlgebra.build(("X", "Y", "U", "V"), {})
    w = ExteriorForm.build(g.dual_names, {(0, 1): PolyScalar.const(GR_ONE)})
    with pytest.raises(AlgebroidError, match="degenerate"):
        build_symplectic_eigenbundle(g, w)


def test_generator_names_are_checked(ksub):
    # L and L* are built straight from index tables, so the names are checked
    # before any bracket is taken
    for names in (("a", "b", "c"), ("a", "b", "c", "a")):
        with pytest.raises(AlgebroidError, match="one distinct name per generator"):
            IsotropicSubbundle.build(ksub.frame, ksub.generators, names)


def test_isotropy_violation_reported(kframe):
    gens = [GenSection.basis(kframe, n) for n in ("T", "omega", "Tbar", "Wbar")]
    with pytest.raises(AlgebroidError, match="not isotropic"):
        IsotropicSubbundle.build(kframe, gens, ("a", "b", "c", "d"))


# ---------------------------------------------------------------------------
# theta identification
# ---------------------------------------------------------------------------


def test_theta_table(ksub, kframe):
    # 2<., .> identifies the conjugate span with the dual of L
    t = GenSection.basis(kframe, "T")
    w = GenSection.basis(kframe, "W")
    omegabar = GenSection.basis(kframe, "omegabar")
    rhobar = GenSection.basis(kframe, "rhobar")
    assert ksub.theta(t.constant_vector()) == [GR_ZERO, GR_ZERO, GR_ONE, GR_ZERO]
    assert ksub.theta(w.constant_vector()) == [GR_ZERO, GR_ZERO, GR_ZERO, GR_ONE]
    assert ksub.theta(omegabar.constant_vector()) == [GR_ONE, GR_ZERO, GR_ZERO, GR_ZERO]
    assert ksub.theta(rhobar.constant_vector()) == [GR_ZERO, GR_ONE, GR_ZERO, GR_ZERO]


def test_theta_inverse_round_trip(ksub):
    for a, h in enumerate(ksub.splitting.duals):
        coeffs = ksub.theta(h)
        assert coeffs == [GR_ONE if k == a else GR_ZERO for k in range(4)]


def test_theta_rejects_sections_outside_conjugate_span(ksub, kframe):
    with pytest.raises(AlgebroidError):
        ksub.theta(GenSection.basis(kframe, "Tbar").constant_vector())


# ---------------------------------------------------------------------------
# invariant differential
# ---------------------------------------------------------------------------


def test_d_L_invariant_on_deformation_form(ksub, kmap):
    emap, _ = kmap
    t12 = parameter("t12")
    expected = lform(ksub, {(0, 1, 3): poly(t12).scale(HALF_I)})
    assert ksub.d_L_invariant(emap.form) == expected


def test_d_L_invariant_degree_one(ksub):
    t = [parameter(f"s{k}") for k in range(4)]
    sigma = lform(ksub, {(k,): poly(t[k]) for k in range(4)})
    expected = lform(ksub, {(0, 3): poly(t[2]).scale(-HALF_I)})
    assert ksub.d_L_invariant(sigma) == expected


def test_d_L_invariant_constant():
    g, J = kodaira_preset()
    _, sub = complex_eigenbundle(g, J, ("T", "W"), ("omega", "rho"))
    const = lform(sub, {(): poly(parameter("c"))})
    assert sub.d_L_invariant(const).is_zero()


def test_d_L_squares_to_zero_on_basis(ksub):
    for degree in (0, 1, 2, 3):
        for idx in itertools.combinations(range(4), degree):
            f = ExteriorForm.basis(ksub.lform_names, idx)
            assert ksub.d_L_invariant(ksub.d_L_invariant(f)).is_zero()


# ---------------------------------------------------------------------------
# general differential
# ---------------------------------------------------------------------------


def _general_sections():
    u = [function(f"u{i}") for i in range(1, 5)]
    a = [function(f"a{i}") for i in range(1, 5)]
    b = [function(f"b{i}") for i in range(1, 5)]
    return (
        [poly(s) for s in u],
        [poly(s) for s in a],
        [poly(s) for s in b],
        u,
        a,
        b,
    )


def test_d_L_general_full_identity(ksub, kmap):
    emap, _ = kmap
    x0, x1, x2, u, a, b = _general_sections()
    result = ksub.d_L_general(emap.form, [x0, x1, x2])
    t12 = poly(parameter("t12"))

    def m(*gens):
        out = PolyScalar.const(GR_ONE)
        for g in gens:
            out = out * poly(g)
        return out

    bracket = (
        m(a[3], b[0], u[1])
        - m(a[0], b[3], u[1])
        - m(a[1], b[0], u[3])
        + m(a[1], b[3], u[0])
        + m(a[0], b[1], u[3])
        - m(a[3], b[1], u[0])
    )
    assert result == (t12 * bracket).scale(HALF_I)
    assert not result.has_derivations()


def test_d_L_general_matches_invariant_evaluation(ksub, kmap):
    emap, _ = kmap
    x0, x1, x2, *_ = _general_sections()
    d_form = ksub.d_L_invariant(emap.form)
    assert d_form.evaluate([x0, x1, x2]) == ksub.d_L_general(emap.form, [x0, x1, x2])


def test_d_L_general_degree_one(ksub):
    t = [parameter(f"s{k}") for k in range(4)]
    sigma = lform(ksub, {(k,): poly(t[k]) for k in range(4)})
    x0, x1, _, u, a, _ = _general_sections()
    result = ksub.d_L_general(sigma, [x0, x1])
    expected = (
        (poly(a[0]) * poly(u[3]) - poly(u[0]) * poly(a[3])) * poly(t[2])
    ).scale(HALF_I)
    assert result == expected
    assert not result.has_derivations()


def test_d_L_general_derivative_cancellation_on_basis(ksub):
    x0, x1, x2, *_ = _general_sections()
    for idx in itertools.combinations(range(4), 2):
        f = ExteriorForm.basis(ksub.lform_names, idx)
        out = ksub.d_L_general(f, [x0, x1, x2])
        assert not out.has_derivations()
    for idx in itertools.combinations(range(4), 1):
        f = ExteriorForm.basis(ksub.lform_names, idx)
        out = ksub.d_L_general(f, [x0, x1])
        assert not out.has_derivations()


# ---------------------------------------------------------------------------
# Schouten bracket
# ---------------------------------------------------------------------------


def test_schouten_table_single_pair(ksub):
    table = ksub.schouten_table()
    assert set(table) == {(2, 1), (1, 2)}
    assert table[(2, 1)] == [(0, GR(0, Fraction(-1, 2)))]
    assert table[(1, 2)] == [(0, HALF_I)]


def assert_schouten_table_matches_references(sub):
    """L*'s table against the Courant oracle's brackets of the duals, taken
    through the reference theta, and against the per-pair theta loop; L* is a
    Lie algebra."""
    hs = [GenSection.constant(sub.frame, h) for h in sub.splitting.duals]
    table = {}
    for a, b in itertools.product(range(sub.rank), repeat=2):
        coeffs = reference_theta(sub, courant_oracle(sub.frame, hs[a], hs[b]))
        entry = [(c, v) for c, v in enumerate(coeffs) if not v.is_zero()]
        if entry:
            table[(a, b)] = entry
    assert table == sub.schouten_table() == reference_schouten_table(sub)
    assert sub.dual_algebroid.validate_jacobi() == []
    return table


def test_schouten_table_matches_oracle(ksub):
    # By hand: on invariant sections the Courant bracket is
    # i_X d(eta) - i_Y d(xi), and the only nonzero differentials are
    # d(rho) = d(rhobar) = -(i/2) omega^omegabar.  Theta sends Wbar* to rhobar
    # and omega* to T, so [rhobar, T] = -i_T d(rhobar) = (i/2) omegabar and
    # the one generator bracket on L* is [Wbar*, omega*] = (i/2) Tbar*.
    table = assert_schouten_table_matches_references(ksub)
    assert table == {(1, 2): [(0, HALF_I)], (2, 1): [(0, -HALF_I)]}


# every swept workspace that builds: the refusals end before a subbundle exists
BUILT = sorted(name for name in SWEEP if not name.startswith(("refuse_", "names_")))


@pytest.mark.parametrize("name", BUILT)
def test_schouten_table_matches_oracle_on_the_sweep(name):
    sub = build_workspace(parse_workspace(SWEEP[name])).sub
    assert_schouten_table_matches_references(sub)


def test_schouten_displayed_case_vanishes(ksub):
    a = ExteriorForm.basis(ksub.lform_names, (0, 2))  # Tbar* ^ omega*
    b = ExteriorForm.basis(ksub.lform_names, (1, 3))  # Wbar* ^ rho*
    assert ksub.schouten_bracket(a, b).is_zero()


def test_schouten_basis_pairs(ksub):
    # exactly the three pairs meeting the non-closed direction Wbar*^omega*
    # survive; the other eighteen vanish
    pairs = list(itertools.combinations_with_replacement(
        list(itertools.combinations(range(4), 2)), 2
    ))
    assert len(pairs) == 21
    nonzero = {}
    for i1, i2 in pairs:
        f1 = ExteriorForm.basis(ksub.lform_names, i1)
        f2 = ExteriorForm.basis(ksub.lform_names, i2)
        br = ksub.schouten_bracket(f1, f2)
        if not br.is_zero():
            nonzero[(i1, i2)] = br
    assert set(nonzero) == {
        ((1, 2), (1, 2)),
        ((1, 2), (1, 3)),
        ((1, 2), (2, 3)),
    }
    assert nonzero[((1, 2), (1, 2))] == lform(
        ksub, {(0, 1, 2): PolyScalar.const(GR(0, 1))}
    )
    assert nonzero[((1, 2), (1, 3))] == lform(ksub, {(0, 1, 3): PolyScalar.const(HALF_I)})
    assert nonzero[((1, 2), (2, 3))] == lform(ksub, {(0, 2, 3): PolyScalar.const(HALF_I)})


def test_schouten_self_bracket_carries_only_obstructed_direction(ksub, kmap):
    emap, _ = kmap
    br = ksub.schouten_bracket(emap.form, emap.form)
    assert not br.is_zero()
    t12 = parameter("t12")
    assert br.scale(GR_ONE).terms  # sanity
    zeroed = ExteriorForm.build(
        ksub.lform_names, {idx: c.substitute({t12: GR_ZERO}) for idx, c in br.terms}
    )
    assert zeroed.is_zero()


def test_schouten_reduced_family_self_bracket_vanishes(ksub, kfamily):
    form = kfamily.reduced_map.form
    assert ksub.schouten_bracket(form, form).is_zero()


def test_schouten_graded_skew_symmetry(ksub):
    rng = random.Random(42)
    params = [parameter(f"p{k}") for k in range(3)]

    def random_form(degree):
        data = {}
        for idx in itertools.combinations(range(4), degree):
            if rng.random() < 0.6:
                data[idx] = poly(rng.choice(params)).scale(random_gaussian(rng, 2))
        return ExteriorForm.build(ksub.lform_names, data)

    for _ in range(20):
        a1, b1 = random_form(1), random_form(2)
        assert (ksub.schouten_bracket(a1, b1) + ksub.schouten_bracket(b1, a1)).is_zero()
        a2, b2 = random_form(2), random_form(2)
        assert (ksub.schouten_bracket(a2, b2) - ksub.schouten_bracket(b2, a2)).is_zero()
        c1, d1 = random_form(1), random_form(1)
        assert (ksub.schouten_bracket(c1, d1) + ksub.schouten_bracket(d1, c1)).is_zero()


def test_schouten_degree_one_self_brackets_abelian():
    g = FrameAlgebra.build(("X", "Y", "U", "V"), {})
    _, J = kodaira_preset()
    _, sub = complex_eigenbundle(g, J)
    a = ExteriorForm.build(
        sub.lform_names,
        {(0,): poly(parameter("c1")), (2,): poly(parameter("c2"))},
    )
    assert sub.schouten_bracket(a, a).is_zero()


def test_schouten_rejects_function_coefficients(ksub):
    bad = lform(ksub, {(0, 1): poly(function("u1"))})
    with pytest.raises(AlgebroidError):
        ksub.schouten_bracket(bad, bad)
