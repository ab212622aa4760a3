"""Acceptance gate: one test per criterion, exact equality everywhere.

Each test prints a single pass/fail line.  Run with ``pytest -v -s`` to see
the lines for passing criteria as well.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from gcdeform.algebroid import build_symplectic_eigenbundle
from gcdeform.courant import GenSection, bracket_table, courant_bracket
from gcdeform.deformation import (
    CLASSICAL_COMPLEX,
    COMPLEX_NONCLASSICAL,
    SYMPLECTIC,
    classify,
    deform_subbundle,
    gauge_image,
    mc_residual,
    stratify_type,
    type_of,
)
from gcdeform.frame import ExteriorForm, FrameAlgebra, kodaira_preset
from gcdeform.scalar import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PolyScalar,
    function,
    mat_rank,
    parameter,
    poly,
    solve_linear,
)
from oracles import courant_oracle, random_poly, small_binding

GR = GaussianRational.of
HALF_I = GR(0, Fraction(1, 2))


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL - {desc}")
        raise
    print(f"[acceptance] criterion {n}: PASS - {desc}")


def _span_vectors(forms, names, degree):
    slots = list(itertools.combinations(range(len(names)), degree))
    return [
        [f.coefficient(idx).constant_value() for idx in slots] for f in forms
    ]


def _same_span(forms_a, forms_b, names, degree):
    va = _span_vectors(forms_a, names, degree)
    vb = _span_vectors(forms_b, names, degree)
    ra, rb = mat_rank(va), mat_rank(vb)
    return ra == rb == mat_rank(va + vb)


def test_criterion_1_compatibility_shape(kmap):
    with criterion(1, "compatibility constraint yields the six-parameter pencil"):
        emap, report = kmap
        assert [s.name for s in report.free] == [
            "t11", "t12", "t14", "t21", "t22", "t32",
        ]
        assert len(report.eliminated) == 10
        # bilinear form antisymmetric on all generator pairs
        for j, k in itertools.product(range(4), repeat=2):
            total = emap.form.coefficient((j, k)) + emap.form.coefficient((k, j))
            assert total.is_zero()
        # zero pattern: diagonal vanishes, each off-diagonal slot carries
        # exactly one free parameter
        slot_params = {}
        for j in range(4):
            assert emap.form.coefficient((j, j)).is_zero()
            for k in range(j + 1, 4):
                c = emap.form.coefficient((j, k))
                gens = c.generators()
                assert len(gens) == 1 and len(c.terms) == 1
                slot_params[(j, k)] = next(iter(gens)).name
        assert slot_params == {
            (0, 1): "t32",
            (0, 2): "t11",
            (0, 3): "t21",
            (1, 2): "t12",
            (1, 3): "t22",
            (2, 3): "t14",
        }


def test_criterion_2_differential_of_the_pencil(ksub, kmap):
    with criterion(2, "d_L of the pencil is the exact t12 obstruction"):
        emap, _ = kmap
        u = [function(f"u{i}") for i in range(1, 5)]
        a = [function(f"a{i}") for i in range(1, 5)]
        b = [function(f"b{i}") for i in range(1, 5)]
        args = [[poly(s) for s in u], [poly(s) for s in a], [poly(s) for s in b]]
        result = ksub.d_L_general(emap.form, args)

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
        expected = (poly(parameter("t12")) * bracket).scale(HALF_I)
        assert result == expected
        assert not result.has_derivations()

        d_form = ksub.d_L_invariant(emap.form)
        assert d_form == ExteriorForm.build(
            ksub.lform_names, {(0, 1, 3): poly(parameter("t12")).scale(HALF_I)}
        )
        surviving = {g.name for _, c in d_form.terms for g in c.generators()}
        assert surviving == {"t12"}


def test_criterion_3_schouten_vanishing(ksub, kmap):
    with criterion(3, "Schouten bracket vanishes on the d_L-closed part of the pencil"):
        emap, _ = kmap
        slots = list(itertools.combinations(range(4), 2))
        closed = [
            idx
            for idx in slots
            if ksub.d_L_invariant(ExteriorForm.basis(ksub.lform_names, idx)).is_zero()
        ]
        assert closed == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
        (obstructed,) = [idx for idx in slots if idx not in closed]

        def bracket(i1, i2):
            f1 = ExteriorForm.basis(ksub.lform_names, i1)
            f2 = ExteriorForm.basis(ksub.lform_names, i2)
            return ksub.schouten_bracket(f1, f2)

        closed_pairs = list(itertools.combinations_with_replacement(closed, 2))
        assert len(closed_pairs) == 15
        nonzero_closed = [p for p in closed_pairs if not bracket(*p).is_zero()]
        assert not nonzero_closed, (
            "the Schouten bracket must vanish on d_L-closed directions; "
            f"nonzero closed pairs {nonzero_closed}"
        )

        # ker d_L on the pencil, solved from the coefficients of d_L(form)
        closedness = solve_linear(
            [c.terms for _, c in ksub.d_L_invariant(emap.form).terms], emap.parameters
        )
        assert closedness.consistent and not closedness.residual
        assert {p.name for p in closedness.bindings} == {"t12"}
        kernel = ExteriorForm.build(
            ksub.lform_names,
            {idx: c.substitute(closedness.bindings) for idx, c in emap.form.terms},
        )
        assert ksub.d_L_invariant(kernel).is_zero()
        assert ksub.schouten_bracket(kernel, kernel).is_zero()

        # the complement: the only nonzero basis brackets involve the one
        # non-closed direction Wbar*^omega*, and every term of the full
        # pencil's self-bracket carries its parameter t12
        all_pairs = list(itertools.combinations_with_replacement(slots, 2))
        nonzero_pairs = {p for p in all_pairs if not bracket(*p).is_zero()}
        assert nonzero_pairs == {
            (obstructed, (1, 2)),
            (obstructed, (1, 3)),
            (obstructed, (2, 3)),
        }
        self_bracket = ksub.schouten_bracket(emap.form, emap.form)
        assert not self_bracket.is_zero()
        for _, c in self_bracket.terms:
            for m, _ in c.terms:
                assert set(closedness.bindings) <= set(m.generators()), (
                    f"self-bracket term {m} of {self_bracket} is free of t12"
                )


def test_criterion_4_gauge_image(ksub):
    with criterion(4, "gauge image is the line through Tbar*^rho*"):
        basis = gauge_image(ksub)
        assert len(basis) == 1
        target = [ExteriorForm.basis(ksub.lform_names, (0, 3))]
        assert _same_span(basis, target, ksub.lform_names, 2)


def test_criterion_5_solution_set_and_family(ksub, kmap, kfamily):
    with criterion(5, "solution set t12 = 0; four free parameters after gauge"):
        emap, _ = kmap
        mc = mc_residual(emap)
        # t12 = 0 solves every constraint...
        t12 = parameter("t12")
        for _, c in mc.nonzero():
            assert c.substitute({t12: GR_ZERO}).is_zero()
        # ...and is forced: substituting any binding with t12 != 0 leaves a
        # nonzero residual (the (0,1,2) slot is (i/2) t12^2)
        slot = dict(mc.nonzero())[(0, 1, 2)]
        rng = random.Random(4)
        for _ in range(10):
            value = GR(rng.randint(1, 5), rng.randint(-3, 3))
            assert not slot.substitute({t12: value}).is_zero()
        assert {s.name for s in kfamily.solved} == {"t12"}
        assert kfamily.solved[t12].is_zero()
        assert [p.name for p in kfamily.free] == ["t32", "t11", "t22", "t14"]
        targets = [
            ExteriorForm.basis(ksub.lform_names, idx)
            for idx in ((0, 1), (0, 2), (1, 3), (2, 3))
        ]
        assert _same_span(kfamily.reduced_basis, targets, ksub.lform_names, 2)


def _bind(emap, **values):
    by_name = {p.name: p for p in emap.parameters}
    out = {
        by_name[k]: v if isinstance(v, GaussianRational) else GR(v)
        for k, v in values.items()
    }
    for p in emap.parameters:
        out.setdefault(p, GR_ZERO)
    return out


def test_criterion_6_type_strata(ksub, kfamily):
    with criterion(6, "two strata (t14 != 0 -> k=0, t14 = 0 -> k=2)"):
        red = kfamily.reduced_map
        result = stratify_type(red)
        assert result.refused is None
        assert len(result.strata) == 2
        generic, special = result.strata
        assert generic.k == 0
        assert generic.zero == () and [str(p) for p in generic.nonzero] == ["t14"]
        assert special.k == 2
        assert [str(p) for p in special.zero] == ["t14"] and special.nonzero == ()
        # sample points, one per stratum, in (t32, t11, t22, t14) order
        assert type_of(red, _bind(red, t14=1)) == 0
        assert type_of(red, _bind(red, t32=1)) == 2
        # undeformed structure
        assert type_of(red, _bind(red)) == 2
        assert ksub.type_index() == 2
        # symplectic eigenbundle reports type zero
        g, _ = kodaira_preset()
        two = PolyScalar.const(GR(2))
        w = ExteriorForm.build(g.dual_names, {(0, 2): two, (1, 3): two})
        _, symp = build_symplectic_eigenbundle(g, w)
        assert symp.type_index() == 0


def test_criterion_7_remark_labels(kfamily):
    with criterion(7, "classical and non-classical complex-type labels"):
        red = kfamily.reduced_map
        k, label = classify(red, _bind(red))
        assert (k, label) == (2, CLASSICAL_COMPLEX)
        small = GR(Fraction(1, 8))
        k, label = classify(red, _bind(red, t11=small, t22=small))
        assert (k, label) == (2, CLASSICAL_COMPLEX)
        k, label = classify(red, _bind(red, t32=1))
        assert (k, label) == (2, COMPLEX_NONCLASSICAL)
        result = stratify_type(red)
        complex_stratum = result.strata[1]
        assert complex_stratum.substrata == (
            (CLASSICAL_COMPLEX, "t32 = 0"),
            (COMPLEX_NONCLASSICAL, "t32 != 0"),
        )


def test_criterion_8_property_suites(kframe, ksub):
    with criterion(8, "skewness, d_L^2 = 0, graded skewness, oracle table, jacobi"):
        # Courant skew-symmetry on 100 randomized function-coefficient pairs
        rng = random.Random(20240811)
        names = list(kframe.tangent_names) + list(kframe.cotangent_names)
        funcs = [function(f"f{k}") for k in range(4)]
        for _ in range(100):
            s1 = GenSection.make(
                kframe,
                {rng.choice(names): random_poly(rng, funcs, 2) for _ in range(2)},
            )
            s2 = GenSection.make(
                kframe,
                {rng.choice(names): random_poly(rng, funcs, 2) for _ in range(2)},
            )
            assert (courant_bracket(s1, s2) + courant_bracket(s2, s1)).is_zero()

        # d_L squares to zero on the full exterior basis
        for degree in range(5):
            for idx in itertools.combinations(range(4), degree):
                f = ExteriorForm.basis(ksub.lform_names, idx)
                assert ksub.d_L_invariant(ksub.d_L_invariant(f)).is_zero()

        # Schouten graded skew-symmetry on randomized degree-(1,2) pairs
        params = [parameter(f"p{k}") for k in range(3)]
        for _ in range(25):
            data1 = {
                (k,): random_poly(rng, params, 1) for k in range(4) if rng.random() < 0.7
            }
            data2 = {
                idx: random_poly(rng, params, 1)
                for idx in itertools.combinations(range(4), 2)
                if rng.random() < 0.7
            }
            a = ExteriorForm.build(ksub.lform_names, data1)
            b = ExteriorForm.build(ksub.lform_names, data2)
            assert (ksub.schouten_bracket(a, b) + ksub.schouten_bracket(b, a)).is_zero()

        # bracket table equals the independent oracle on all 64 pairs
        gens = [GenSection.basis(kframe, n) for n in names]
        table = bracket_table(gens)
        for a in range(8):
            for b in range(8):
                assert table[a][b].coeffs == courant_oracle(kframe, gens[a], gens[b]).coeffs

        # jacobi passes on the preset and fails on a seeded defect
        g, _ = kodaira_preset()
        assert g.validate_jacobi() == []
        mutant = FrameAlgebra.build(
            ("X", "Y", "U", "V"),
            {("X", "Y"): {"U": GR_ONE}, ("X", "U"): {"X": GR_ONE}},
        )
        violations = mutant.validate_jacobi()
        assert violations and violations[0].triple == ("X", "Y", "U")


def test_criterion_9_family_members_are_structures(kfamily):
    with criterion(9, "twenty random members: flat, isotropic, involutive, separated"):
        rng = random.Random(1234)
        red = kfamily.reduced_map
        for _ in range(20):
            bindings = {p: small_binding(rng) for p in red.parameters}
            bound = red.substitute(
                {p: PolyScalar.const(v) for p, v in bindings.items()}
            )
            assert mc_residual(bound).is_trivial()
            structure = deform_subbundle(red, bindings)
            assert structure.isotropic
            assert structure.involutive
            assert structure.separated
