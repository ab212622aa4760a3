import random
from fractions import Fraction

import pytest

from gcdeform.scalar import (
    GR_I,
    GR_ONE,
    DerivationSymbol,
    GaussianRational,
    Monomial,
    PolyScalar,
    ScalarError,
    SubstitutionError,
    function,
    parameter,
    parse_gaussian,
    poly,
    solve_linear,
)
from oracles import gaussian_mismatches, random_gaussian, random_poly, reference_solve_linear


GR = GaussianRational.of


def test_gaussian_arithmetic():
    one_plus_i = GR(1, 1)
    one_minus_i = GR(1, -1)
    assert one_plus_i * one_minus_i == GR(2)
    assert GR(Fraction(1, 2)) + GR(Fraction(1, 3)) == GR(Fraction(5, 6))
    assert -GR(0, 1) == GR(0, -1)
    assert GR(1) / GR(0, 1) == GR(0, -1)
    assert GR(3, 4).conjugate() == GR(3, -4)


def _part(rng):
    # shared factors between numerators and denominators, so inputs and
    # results need reducing; about a quarter of the parts are exact zeros
    if rng.random() < 0.25:
        return rng.choice((0, Fraction(0, 5)))
    value = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 8, 12)))
    return int(value) if value.denominator == 1 and rng.random() < 0.5 else value


def test_gaussian_rational_matches_fraction_pair_reference():
    rng = random.Random(7)
    values = [(_part(rng), _part(rng)) for _ in range(60)]
    mismatches = []
    for _ in range(1500):
        mismatches += gaussian_mismatches(rng.choice(values), rng.choice(values))
    assert mismatches == []


def test_gaussian_rational_canonical_form():
    half = GR(Fraction(1, 2))
    assert GR(Fraction(2, 4)) == half and hash(GR(Fraction(2, 4))) == hash(half)
    assert GaussianRational(Fraction(2, 6), Fraction(4, 6)) == GR(Fraction(1, 3), Fraction(2, 3))
    assert GR(2, Fraction(4, 2)) == GaussianRational(Fraction(2), 2)
    assert half + half == GR(1) and hash(half + half) == hash(GR(1))
    zero = GR(Fraction(3, 7)) - GR(Fraction(6, 14))
    assert zero == GR(0) and hash(zero) == hash(GR(0)) and zero.is_zero() and not zero
    assert GR(0, Fraction(-1, 3)).conjugate() == GR(0, Fraction(1, 3))
    assert GR(1) != 1 and GR(1) != GR(0, 1)
    assert gaussian_mismatches((Fraction(2, 4), 0), (Fraction(1, 2), 0)) == []
    assert gaussian_mismatches((0, 0), (0, Fraction(0, 3))) == []


def test_gaussian_rational_is_immutable_and_exact():
    x = GR(Fraction(1, 2), 3)
    assert x.re == Fraction(1, 2) and isinstance(x.re, Fraction)
    assert x.im == 3 and isinstance(x.im, Fraction)
    with pytest.raises(AttributeError):
        x.re = Fraction(1)
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(TypeError):
        GR(0.5)
    assert {x: 1}[GR(Fraction(2, 4), Fraction(6, 2))] == 1
    assert repr(x) == "GaussianRational(re=Fraction(1, 2), im=Fraction(3, 1))"


def test_gaussian_rational_defers_to_a_polynomial_operand():
    """A Gaussian rational returns ``NotImplemented`` on an operand it cannot
    coerce, so a polynomial answers through its reflected method."""
    rng = random.Random("mixed operands")
    t, s = parameter("t"), parameter("s")
    for _ in range(30):
        c, p = random_gaussian(rng), random_poly(rng, [t, s])
        assert c + p == p + c == poly(c) + p
        assert c - p == -(p - c) == poly(c) - p
        assert c * p == p * c == poly(c) * p
    assert GR_ONE * poly(t) == poly(t) and (GR_ONE + poly(t)) - poly(t) == poly(GR_ONE)
    # integers and fractions still coerce; floats and division by a polynomial do not
    assert GR(1, 1) * 2 == 2 * GR(1, 1) == GR(2, 2) and GR(1) - Fraction(1, 2) == GR(Fraction(1, 2))
    with pytest.raises(TypeError):
        GR(1) * 0.5
    with pytest.raises(TypeError):
        GR(1) / poly(t)


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR(1) / GR(0)


def test_gaussian_rendering():
    assert str(GR(Fraction(1, 2))) == "1/2"
    assert str(GR(0, 1)) == "i"
    assert str(GR(0, -1)) == "-i"
    assert str(GR(0, Fraction(1, 2))) == "1/2*i"
    assert str(GR(Fraction(1, 2), Fraction(-1, 3))) == "1/2 - 1/3*i"
    assert str(GR(0)) == "0"


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", GR(3)),
        ("-1/2", GR(Fraction(-1, 2))),
        ("i", GR(0, 1)),
        ("-i", GR(0, -1)),
        ("i/2", GR(0, Fraction(1, 2))),
        ("1/2*i", GR(0, Fraction(1, 2))),
        ("2*i", GR(0, 2)),
        ("1/2+1/3*i", GR(Fraction(1, 2), Fraction(1, 3))),
        ("(1/2 - i)", GR(Fraction(1, 2), -1)),
    ],
)
def test_parse_gaussian(text, value):
    assert parse_gaussian(text) == value


def test_parse_gaussian_rejects_junk():
    for bad in ("", "x", "1//2", "1/0", "--2", "1 2"):
        with pytest.raises(ScalarError):
            parse_gaussian(bad)


def test_parse_gaussian_allows_spaces_beside_operators():
    half_minus_i = GR(Fraction(1, 2), -1)
    assert parse_gaussian("1/2 - i") == half_minus_i
    assert parse_gaussian("(1/2 - i)") == half_minus_i
    assert parse_gaussian(" ( 1 / 2 - i ) ") == half_minus_i
    assert parse_gaussian("- 1") == GR(-1)
    assert parse_gaussian("2 * i") == GR(0, 2)


def test_parse_render_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        v = random_gaussian(rng)
        assert parse_gaussian(str(v)) == v


def test_poly_additive_inverse_cancels():
    t12 = parameter("t12")
    half_i = GR(0, Fraction(1, 2))
    p = poly(t12).scale(half_i) + poly(t12).scale(-half_i)
    assert p.is_zero()


def test_poly_difference_of_squares():
    t11, u1 = parameter("t11"), function("u1")
    lhs = (poly(t11) + poly(u1)) * (poly(t11) - poly(u1))
    rhs = poly(t11) * poly(t11) - poly(u1) * poly(u1)
    assert lhs == rhs


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    syms = [parameter("a"), parameter("b"), function("f"), function("g")]
    for _ in range(40):
        p, q, r = (random_poly(rng, syms) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()


def test_substitute_examples():
    t14, t32, t12, t3 = (parameter(n) for n in ("t14", "t32", "t12", "t3"))
    x = function("x")
    p = poly(t14) * poly(x) + poly(t32)
    assert p.substitute({t14: GR(0)}) == poly(t32)

    a4, b1, u2 = function("a4"), function("b1"), function("u2")
    q = poly(t12) * poly(a4) * poly(b1) * poly(u2)
    assert q.substitute({t12: GR(1)}) == poly(a4) * poly(b1) * poly(u2)

    r = poly(t3).scale(GR_I)
    assert r.substitute({t3: GR(2)}) == PolyScalar.const(GR(0, 2))


def test_substitute_agrees_with_evaluation():
    # independent cross-check: evaluating before and after substitution at
    # random rational points gives the same value
    rng = random.Random(99)
    t3 = parameter("t3")
    f = function("f")
    p = poly(t3).scale(GR_I) * poly(f) + poly(t3) * poly(t3)
    q = p.substitute({t3: GR(2)})
    for _ in range(20):
        point = {t3: GR(2), f: random_gaussian(rng)}
        assert p.evaluate(point) == q.evaluate(point)


def test_substitute_commutes_with_arithmetic():
    rng = random.Random(5)
    a, b = parameter("a"), parameter("b")
    f = function("f")
    binding = {a: GR(Fraction(2, 3)), b: GR(0, 1)}
    for _ in range(25):
        p = random_poly(rng, [a, b, f])
        q = random_poly(rng, [a, b, f])
        assert (p * q).substitute(binding) == p.substitute(binding) * q.substitute(binding)
        assert (p + q).substitute(binding) == p.substitute(binding) + q.substitute(binding)


def test_substitute_rejects_non_parameters():
    f = function("f")
    with pytest.raises(SubstitutionError):
        poly(f).substitute({f: GR(1)})
    d = DerivationSymbol("T", f)
    with pytest.raises(SubstitutionError):
        PolyScalar.of(d).substitute({d: GR(1)})


def test_derivation_symbol_constraints():
    with pytest.raises(ScalarError):
        DerivationSymbol("T", parameter("t11"))
    d = DerivationSymbol("T", function("u1"))
    with pytest.raises(ScalarError):
        DerivationSymbol("W", d)


def test_differentiate_product_rule():
    u, v = function("u"), function("v")
    p = poly(u) * poly(v)
    du, dv = DerivationSymbol("T", u), DerivationSymbol("T", v)
    expected = PolyScalar.of(du) * poly(v) + poly(u) * PolyScalar.of(dv)
    assert p.differentiate("T") == expected
    assert poly(parameter("t")).differentiate("T").is_zero()
    # squared function: 2 f T(f)
    sq = poly(u) * poly(u)
    assert sq.differentiate("T") == (PolyScalar.of(du) * poly(u)).scale(GR(2))


def test_differentiate_rejects_second_derivatives():
    from gcdeform.scalar import DerivationDepthError

    u = function("u")
    once = poly(u).differentiate("T")
    with pytest.raises(DerivationDepthError):
        once.differentiate("W")


def test_monomial_ordering_deterministic():
    t11, t12 = parameter("t11"), parameter("t12")
    p = poly(t12) + poly(t11) * poly(t12) + poly(t11) * poly(t11)
    assert str(p) == "t11^2 + t11*t12 + t12"
    u1 = function("u1")
    d = DerivationSymbol("Tbar", u1)
    q = PolyScalar.of(d) * poly(u1)
    assert str(q) == "u1*Tbar(u1)"


def test_solve_linear_single_constraint():
    names = ["t11", "t12", "t21", "t22", "t14", "t32"]
    syms = {n: parameter(n) for n in names}
    system = [poly(syms["t12"]).scale(GR(0, Fraction(1, 2)))]
    sol = solve_linear(system, [syms[n] for n in names])
    assert sol.bindings == {syms["t12"]: PolyScalar.zero()}
    assert [s.name for s in sol.free] == ["t11", "t21", "t22", "t14", "t32"]
    assert not sol.residual and sol.consistent


def test_solve_linear_empty_system():
    syms = [parameter("a"), parameter("b")]
    sol = solve_linear([], syms)
    assert sol.free == syms and not sol.bindings


def test_solve_linear_invertible_system():
    t11, t22 = parameter("t11"), parameter("t22")
    sol = solve_linear([poly(t11) - poly(t22), poly(t11) + poly(t22)], [t11, t22])
    assert sol.bindings[t11].is_zero() and sol.bindings[t22].is_zero()
    assert not sol.free


def test_solve_linear_prefers_early_unknowns_free():
    a, b = parameter("a"), parameter("b")
    sol = solve_linear([poly(a) + poly(b)], [a, b])
    assert sol.free == [a]
    assert sol.bindings[b] == -poly(a)


def test_solve_linear_back_substitution_property():
    rng = random.Random(13)
    syms = [parameter(f"x{i}") for i in range(4)]
    for _ in range(20):
        system = []
        for _ in range(rng.randint(1, 3)):
            row = PolyScalar.zero()
            for s in syms:
                row = row + poly(s).scale(random_gaussian(rng, 2))
            system.append(row)
        sol = solve_linear(system, syms)
        if not sol.consistent:
            continue
        # the bindings must satisfy every equation identically in the free
        # unknowns, not only where the free unknowns are zero
        for p in system:
            assert p.substitute(sol.bindings).is_zero()


def test_solve_linear_inconsistent():
    a = parameter("a")
    sol = solve_linear([poly(a), poly(a) + PolyScalar.const(GR_ONE)], [a])
    assert not sol.consistent


def test_solve_linear_nonlinear_residual():
    a, b = parameter("a"), parameter("b")
    quad = poly(a) * poly(b)
    sol = solve_linear([quad, poly(a)], [a, b])
    assert sol.residual == [quad]
    assert sol.bindings[a].is_zero()


def _random_linear_system(rng, unknowns, params):
    """Linear rows with parameter rests, plus duplicate, dependent,
    inconsistent and nonlinear rows."""
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(rng.choice(rows))
        elif rows and kind < 0.35:
            combo = PolyScalar.zero()
            for r in rng.sample(rows, min(len(rows), 2)):
                combo = combo + r.scale(random_gaussian(rng, 2))
            if rng.random() < 0.5:
                combo = combo + random_poly(rng, params, 2)
            rows.append(combo)
        elif kind < 0.45:
            u = rng.choice(unknowns)
            other = rng.choice(unknowns + params)
            rows.append(poly(u) * poly(other) + poly(rng.choice(unknowns)))
        else:
            row = random_poly(rng, params, 2) if rng.random() < 0.7 else PolyScalar.zero()
            for u in unknowns:
                if rng.random() < 0.5:
                    row = row + poly(u).scale(random_gaussian(rng, 2))
            rows.append(row)
    return rows


def test_solve_linear_matches_reference():
    rng = random.Random(2024)
    unknowns = [parameter(f"x{i}") for i in range(5)]
    params = [parameter("s"), parameter("t")]
    kinds = {"consistent": 0, "inconsistent": 0, "residual": 0}
    for _ in range(600):
        order = rng.sample(unknowns, rng.randint(1, len(unknowns)))
        system = _random_linear_system(rng, order, params)
        got = solve_linear(system, order)
        want = reference_solve_linear(system, order)
        assert list(got.bindings.items()) == list(want.bindings.items())
        assert (got.free, got.residual, got.consistent) == (
            want.free,
            want.residual,
            want.consistent,
        )
        kinds["consistent" if got.consistent else "inconsistent"] += 1
        kinds["residual"] += bool(got.residual)
    assert min(kinds.values()) >= 50, kinds
