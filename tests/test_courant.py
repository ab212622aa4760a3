import collections
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gcdeform import cli, courant
from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.courant import (
    CourantError,
    GenSection,
    bracket_table,
    courant_bracket,
    lie_derivative,
    pair,
)
from gcdeform.frame import ComplexFrame, FrameAlgebra, eigenframe, kodaira_preset
from gcdeform.scalar import (
    GR_HALF,
    GR_ONE,
    GR_ZERO,
    DerivationDepthError,
    DerivationSymbol,
    GaussianRational,
    PolyScalar,
    function,
    parameter,
    poly,
)
from oracles import (
    contract,
    courant_oracle,
    random_gaussian,
    random_poly,
    reference_courant_bracket,
    reference_lie_derivative,
    reference_pair,
)

GR = GaussianRational.of
HALF_I = GR(0, Fraction(1, 2))


def _names(frame):
    return list(frame.tangent_names) + list(frame.cotangent_names)


def _basis_sections(frame):
    return [GenSection.basis(frame, n) for n in _names(frame)]


def test_pair_dual_and_isotropy(kframe):
    omega = GenSection.basis(kframe, "omega")
    t = GenSection.basis(kframe, "T")
    w = GenSection.basis(kframe, "W")
    assert pair(omega, t) == PolyScalar.const(GR_HALF)
    assert pair(t, w).is_zero()


def test_pair_symbolic(kframe):
    u1, u3, a1, a3 = (function(n) for n in ("u1", "u3", "a1", "a3"))
    # sections of the isotropic eigenbundle pair to zero
    s1 = GenSection.make(kframe, {"Tbar": u1, "omega": u3})
    s2 = GenSection.make(kframe, {"Tbar": a1, "omega": a3})
    assert pair(s1, s2).is_zero()
    # pairing the conjugate co-frame against the same tangents is the dual sum
    s1b = GenSection.make(kframe, {"Tbar": u1, "omegabar": u3})
    s2b = GenSection.make(kframe, {"Tbar": a1, "omegabar": a3})
    expected = (poly(u3) * poly(a1) + poly(a3) * poly(u1)).scale(GR_HALF)
    assert pair(s1b, s2b) == expected


def test_bracket_table_matches_oracle(kframe):
    gens = _basis_sections(kframe)
    names = _names(kframe)
    table = bracket_table(gens)
    nonzero = set()
    for a, b in itertools.product(range(8), repeat=2):
        expected = courant_oracle(kframe, gens[a], gens[b])
        assert table[a][b].coeffs == expected.coeffs, (names[a], names[b])
        if not expected.is_zero():
            nonzero.add((names[a], names[b]))
    expected_nonzero = {
        ("T", "Tbar"), ("Tbar", "T"),
        ("T", "rho"), ("rho", "T"),
        ("T", "rhobar"), ("rhobar", "T"),
        ("Tbar", "rho"), ("rho", "Tbar"),
        ("Tbar", "rhobar"), ("rhobar", "Tbar"),
    }
    assert nonzero == expected_nonzero


def test_bracket_table_specific_values(kframe):
    t = GenSection.basis(kframe, "T")
    tbar = GenSection.basis(kframe, "Tbar")
    rho = GenSection.basis(kframe, "rho")
    rhobar = GenSection.basis(kframe, "rhobar")
    assert courant_bracket(tbar, rho) == GenSection.make(kframe, {"omega": HALF_I})
    assert courant_bracket(t, rhobar) == GenSection.make(kframe, {"omegabar": -HALF_I})
    assert courant_bracket(t, tbar) == GenSection.make(
        kframe, {"W": HALF_I, "Wbar": HALF_I}
    )


def test_bracket_table_abelian():
    g = FrameAlgebra.build(("X", "Y", "U", "V"), {})
    _, J = kodaira_preset()
    frame = eigenframe(g, J)
    gens = [GenSection.basis(frame, n) for n in _names(frame)]
    table = bracket_table(gens)
    assert all(table[a][b].is_zero() for a in range(8) for b in range(8))


def test_bracket_table_requires_constants(kframe):
    s = GenSection.make(kframe, {"Tbar": function("u1")})
    with pytest.raises(CourantError):
        bracket_table([s])


def test_lie_derivative_general(kframe):
    u1, u2, a3, a4 = (function(n) for n in ("u1", "u2", "a3", "a4"))
    x = GenSection.make(kframe, {"Tbar": u1, "Wbar": u2})
    f = GenSection.make(kframe, {"omega": a3, "rho": a4})
    result = lie_derivative(x, f)

    def xof(h):
        return poly(u1) * poly(h).differentiate("Tbar") + poly(u2) * poly(h).differentiate("Wbar")

    expected_omega = xof(a3) + (poly(u1) * poly(a4)).scale(HALF_I)
    expected_rho = xof(a4)
    assert result.cotangent[0] == expected_omega
    assert result.cotangent[1] == expected_rho
    assert result.cotangent[2].is_zero() and result.cotangent[3].is_zero()


def test_lie_derivative_invariant_values(kframe):
    t = GenSection.basis(kframe, "T")
    omegabar = GenSection.basis(kframe, "omegabar")
    rhobar = GenSection.basis(kframe, "rhobar")
    assert lie_derivative(t, omegabar).is_zero()
    assert lie_derivative(t, rhobar) == GenSection.make(kframe, {"omegabar": -HALF_I})


def test_lie_derivative_agrees_with_ce_differential(kframe):
    # constant-coefficient cross-check against the frame-level differential
    alg = kframe.algebra
    from gcdeform.frame import ExteriorForm

    for a in range(4):
        direction = GenSection.basis(kframe, alg.basis[a])
        unit = [poly(GR_ONE if k == a else GR_ZERO) for k in range(4)]
        for k in range(4):
            f = GenSection.basis(kframe, kframe.cotangent_names[k])
            via_sections = lie_derivative(direction, f)
            df = alg.ce_differential(ExteriorForm.basis(alg.dual_names, (k,)))
            contracted = df.interior(unit)
            for b in range(4):
                assert via_sections.cotangent[b] == contracted.coefficient((b,))


def test_courant_general_formula(kframe):
    u = [function(f"u{i}") for i in range(1, 5)]
    a = [function(f"a{i}") for i in range(1, 5)]
    x0 = GenSection.make(
        kframe, {"Tbar": u[0], "Wbar": u[1], "omega": u[2], "rho": u[3]}
    )
    x1 = GenSection.make(
        kframe, {"Tbar": a[0], "Wbar": a[1], "omega": a[2], "rho": a[3]}
    )
    out = courant_bracket(x0, x1)

    def xof(h):
        return poly(u[0]) * poly(h).differentiate("Tbar") + poly(u[1]) * poly(h).differentiate("Wbar")

    def yof(h):
        return poly(a[0]) * poly(h).differentiate("Tbar") + poly(a[1]) * poly(h).differentiate("Wbar")

    assert out.coeffs[2] == xof(a[0]) - yof(u[0])          # Tbar component
    assert out.coeffs[3] == xof(a[1]) - yof(u[1])          # Wbar component
    twist = (poly(u[0]) * poly(a[3]) - poly(a[0]) * poly(u[3])).scale(HALF_I)
    assert out.cotangent[0] == xof(a[2]) - yof(u[2]) + twist
    assert out.cotangent[1] == xof(a[3]) - yof(u[3])
    assert out.coeffs[0].is_zero() and out.coeffs[1].is_zero()
    assert out.cotangent[2].is_zero() and out.cotangent[3].is_zero()


def test_courant_self_bracket_vanishes(kframe):
    rng = random.Random(3)
    for s in _basis_sections(kframe):
        assert courant_bracket(s, s).is_zero()
    names = _names(kframe)
    for _ in range(10):
        entries = {n: poly(GR(rng.randint(-2, 2), rng.randint(-2, 2))) for n in names}
        s = GenSection.make(kframe, entries)
        assert courant_bracket(s, s).is_zero()


def test_courant_skew_symmetry_randomized(kframe):
    rng = random.Random(20240811)
    names = _names(kframe)
    funcs = [function(f"f{k}") for k in range(4)]
    for _ in range(100):
        s1 = GenSection.make(
            kframe, {rng.choice(names): random_poly(rng, funcs, 2) for _ in range(2)}
        )
        s2 = GenSection.make(
            kframe, {rng.choice(names): random_poly(rng, funcs, 2) for _ in range(2)}
        )
        assert (courant_bracket(s1, s2) + courant_bracket(s2, s1)).is_zero()


def test_pairing_preserved_on_isotropic_constants(ksub):
    gens = ksub.generators
    for a, b, c in itertools.product(gens, repeat=3):
        lhs = pair(courant_bracket(a, b), c) + pair(b, courant_bracket(a, c))
        assert lhs.is_zero()


def test_l_generators_close_under_bracket(ksub):
    for a, b in itertools.combinations(ksub.generators, 2):
        br = courant_bracket(a, b)
        assert ksub.express(br) is not None


def test_anomaly_slot_regression(kframe):
    # [u*rho, v*W]: the d-term must contract the second section's tangent part
    # against the first section's form part
    u, v = function("u"), function("v")
    s1 = GenSection.make(kframe, {"rho": u})
    s2 = GenSection.make(kframe, {"W": v})
    out = courant_bracket(s1, s2)
    du = {b: poly(u).differentiate(kframe.tangent_names[b]) for b in range(4)}
    dv = {b: poly(v).differentiate(kframe.tangent_names[b]) for b in range(4)}
    assert all(c.is_zero() for c in out.tangent)
    for b in range(4):
        expected = du[b] * poly(v).scale(GR_HALF) - dv[b] * poly(u).scale(GR_HALF)
        if b == 1:  # rho slot also carries -v W(u)
            expected = expected - poly(v) * poly(u).differentiate("W")
        assert out.cotangent[b] == expected


def test_conjugate_constant_sections(kframe):
    s = GenSection.make(kframe, {"T": GR(1, 2), "rho": GR(0, 1)})
    c = s.conjugate()
    assert c == GenSection.make(kframe, {"Tbar": GR(1, -2), "rhobar": GR(0, -1)})
    assert c.conjugate() == s


def test_conjugate_rejects_symbolic_sections(kframe):
    from gcdeform.scalar import ScalarError

    s = GenSection.make(kframe, {"T": function("u1")})
    with pytest.raises(ScalarError):
        s.conjugate()


# ---------------------------------------------------------------------------
# The constant-section structure table against the exterior-calculus oracle
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"

IWASAWA = (
    "basis X1 Y1 X2 Y2 X3 Y3\n"
    "bracket X1 X2 = -X3\nbracket Y1 Y2 = X3\nbracket X1 Y2 = -Y3\nbracket Y1 X2 = -Y3\n"
    "J X1 = Y1\nJ Y1 = -X1\nJ X2 = Y2\nJ Y2 = -X2\nJ X3 = Y3\nJ Y3 = -X3\n"
)

WORKSPACES = {
    "kodaira": KODAIRA_WORKSPACE,
    "iwasawa": IWASAWA,
    **{path.stem: path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ws"))},
}


def test_corpus_workspaces_are_all_present():
    assert len(WORKSPACES) == 7


@pytest.mark.parametrize("name", sorted(WORKSPACES))
def test_constant_bracket_matches_oracle_on_every_basis_pair(name):
    frame = build_workspace(parse_workspace(WORKSPACES[name])).frame
    gens = _basis_sections(frame)
    for a, b in itertools.product(range(len(gens)), repeat=2):
        expected = courant_oracle(frame, gens[a], gens[b])
        assert courant_bracket(gens[a], gens[b]) == expected, (name, a, b)


def _random_two_step_nilpotent(rng, n):
    """Strictly upper-triangular structure constants, brackets landing in the
    last ``n - p`` basis elements, which are central; so Jacobi holds."""
    p = rng.randint(2, n - 1)
    basis = [f"e{k}" for k in range(n)]
    brackets = {}
    for i, j in itertools.combinations(range(p), 2):
        rhs = {basis[k]: random_gaussian(rng, 2) for k in range(p, n) if rng.random() < 0.6}
        if rhs:
            brackets[(basis[i], basis[j])] = rhs
    return FrameAlgebra.build(basis, brackets)


def _random_constant_section(rng, frame):
    return GenSection.make(
        frame, {n: random_gaussian(rng, 3) for n in _names(frame) if rng.random() < 0.5}
    )


def test_constant_bracket_matches_oracle_on_random_nilpotent_algebras():
    rng = random.Random(20261018)
    t = parameter("t")
    for _ in range(36):
        g = _random_two_step_nilpotent(rng, rng.randint(3, 6))
        assert g.validate_jacobi() == []
        frame = ComplexFrame.complexified(g)
        for _ in range(5):
            s1 = _random_constant_section(rng, frame)
            s2 = _random_constant_section(rng, frame)
            table = courant_bracket(s1, s2)
            assert table == courant_oracle(frame, s1, s2)
            # a parameter coefficient is carried bilinearly: it has no derivative
            assert courant_bracket(s1.scale(t), s2) == table.scale(t)
            pairing = (contract(s1.cotangent, s2.tangent) + contract(s2.cotangent, s1.tangent))
            assert pair(s1, s2) == pairing.scale(GR_HALF)
            assert pair(s1.scale(t), s2) == pairing.scale(GR_HALF) * poly(t)


def test_report_brackets_only_through_the_table(monkeypatch, capsys):
    calls = []
    derivative = courant.directional

    def counted(*args):
        calls.append(args)
        return derivative(*args)

    monkeypatch.setattr(courant, "directional", counted)
    builds = []
    table = ComplexFrame.__dict__["courant_table"]
    build = table.func
    monkeypatch.setattr(table, "func", lambda frame: builds.append(frame) or build(frame))
    assert cli.main(["report", "--preset", "kodaira"]) == 0
    capsys.readouterr()
    assert calls == [] and len(builds) == 1
    # the counter sees the Leibniz terms of a section with a function coefficient
    frame = builds[0]
    courant_bracket(GenSection.make(frame, {"T": function("u")}), GenSection.basis(frame, "rho"))
    assert calls


# ---------------------------------------------------------------------------
# The one bracket formula against the two-path reference
# ---------------------------------------------------------------------------

NILPOTENT_SEEDS = range(20261019, 20261025)


def _frame(name):
    if name in WORKSPACES:
        return build_workspace(parse_workspace(WORKSPACES[name])).frame
    g = _random_two_step_nilpotent(random.Random(int(name.split("-")[1])), 6)
    assert g.validate_jacobi() == []
    return ComplexFrame.complexified(g)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DerivationDepthError:
        return DerivationDepthError


def _random_section(rng, frame, symbols):
    """About half the slots set, each to a Gaussian rational or, with symbols,
    more often to a small polynomial in them."""
    return GenSection.make(frame, {
        n: random_poly(rng, symbols, 2) if symbols and rng.random() < 0.6
        else random_gaussian(rng, 3)
        for n in _names(frame) if rng.random() < 0.5
    })


@pytest.mark.parametrize(
    "name", sorted(WORKSPACES) + [f"nilpotent-{seed}" for seed in NILPOTENT_SEEDS]
)
def test_one_formula_matches_the_two_path_reference(name):
    frame = _frame(name)
    zeros = (PolyScalar.zero(),) * frame.dim
    rng = random.Random(f"one formula {name}")
    u, v = function("u"), function("v")
    kinds = {
        "constant": [],
        "parameter": [parameter("s"), parameter("t")],
        "function": [parameter("t"), u, v],
        "derivative": [parameter("t"), u, DerivationSymbol(frame.tangent_names[-1], u)],
    }
    seen = collections.Counter()
    for kind, symbols in kinds.items():
        for _ in range(12):
            s1, s2 = _random_section(rng, frame, symbols), _random_section(rng, frame, symbols)
            x, f = GenSection(frame, s1.tangent + zeros), GenSection(frame, zeros + s2.cotangent)
            for new, old, args in (
                (courant_bracket, reference_courant_bracket, (s1, s2)),
                (pair, reference_pair, (s1, s2)),
                (lie_derivative, reference_lie_derivative, (x, f)),
            ):
                got = _outcome(new, *args)
                assert got == _outcome(old, *args), (kind, new.__name__, args)
                if got is DerivationDepthError:
                    seen[kind, new.__name__, "refused"] += 1
                elif new is courant_bracket and any(c.has_derivations() for c in got.coeffs):
                    seen[kind, "leibniz"] += 1
    # positive controls: functions bring Leibniz terms, and a derivative
    # symbol that would be differentiated again is refused
    assert seen["function", "leibniz"] > 0
    assert seen["derivative", "courant_bracket", "refused"] > 0
    assert seen["derivative", "lie_derivative", "refused"] > 0
