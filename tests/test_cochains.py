"""The linear stage on constant matrices against the assembly it replaced.

Each subbundle keeps one ``CochainComplex``: the sparse d_L matrices of
degrees 1 and 2 and the Schouten tensor on pairs of 2-form slots, summed into
slot positions from the structure constants.  They are compared with
``reference_cochains``, which builds them through exterior forms, and the
d_L rows also with ``reference_ce_differential``, which wedges basis forms
around each d(e*_k) and so shares no code with the engine's rows, and each
tensor entry, in both orders, with ``schouten_bracket`` on two basis forms;
Kodaira x Kodaira adds a rank-8 complex with a nonzero tensor.  ``ce_rows``,
the one routine behind every degree, is also run on all degrees 0..n, where
the cohomology dimensions it gives are pinned.  ``mc_residual``
reads the Maurer-Cartan constraints off them, and is compared here with
``reference_mc_constraints``, which applies d_L and the Schouten bracket to
the form itself.  ``DeformationMap.substitute`` substitutes into the entries
and the form without proving compatibility again, and is compared with
``from_entries`` on the substituted entries.  All run on the preset, the
corpus workspaces and a workspace given by generators; the MC comparison also
runs on the Iwasawa frame, whose constraints are not all linear.
``solve_linear`` is compared with ``reference_solve_linear`` at pencil size,
on the compatibility and Maurer-Cartan systems of these workspaces.
"""

import itertools
import random
from pathlib import Path

import pytest

from cli_sweep import WORKSPACES as SWEEP
from gcdeform.algebroid import ce_rows
from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.deformation import DeformationError, DeformationMap, _compatibility, mc_residual
from gcdeform.frame import ExteriorForm
from gcdeform.scalar import (
    GR_ZERO,
    Monomial,
    PolyScalar,
    function,
    mat_mul,
    mat_rank,
    mat_rref,
    parameter,
    solve_linear,
)
from oracles import (
    dense,
    form_vector,
    random_gaussian,
    random_poly,
    reference_ce_differential,
    reference_cochains,
    reference_mc_constraints,
    reference_rref,
    reference_solve_linear,
    sparse,
)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
GENERATORS = (
    "basis X Y U V\nbracket X Y = U\n"
    "generator X - i*U*\ngenerator Y - i*V*\n"
    "generator U + i*X*\ngenerator V + i*Y*\n"
)
IWASAWA = (
    "basis X1 Y1 X2 Y2 X3 Y3\n"
    "bracket X1 X2 = -X3\nbracket Y1 Y2 = X3\nbracket X1 Y2 = -Y3\nbracket Y1 X2 = -Y3\n"
    "J X1 = Y1\nJ Y1 = -X1\nJ X2 = Y2\nJ Y2 = -X2\nJ X3 = Y3\nJ Y3 = -X3\n"
)
# the preset's bracket and J on two copies of X Y U V: rank 8, a nonzero
# Schouten table and Maurer-Cartan constraints that are not all linear
KODAIRA_X_KODAIRA = SWEEP["kodaira_x_kodaira.ws"]
# two symplectic forms whose compatibility elimination reduces rows by earlier
# pivots (the standard forms pair each unknown into one row only)
DENSE_SYMPLECTIC = {
    "kodaira_symplectic_skew": (
        "basis X Y U V\nbracket X Y = U\n"
        "symplectic X U = 1\nsymplectic Y V = 1\nsymplectic X V = 1/2\n"
    ),
    "abelian6_dense_symplectic": (
        "basis X1 Y1 X2 Y2 X3 Y3\n"
        "symplectic X1 Y1 = 1\nsymplectic X2 Y2 = 1\nsymplectic X3 Y3 = 1\n"
        "symplectic X1 X2 = 1/2\nsymplectic X1 Y3 = 2\nsymplectic Y1 X3 = -1\n"
        "symplectic Y2 X3 = 1/3\nsymplectic Y1 Y2 = 3\n"
    ),
}
CORPUS_TEXTS = {path.stem: path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ws"))}
WORKSPACES = {
    "kodaira": KODAIRA_WORKSPACE,
    "kodaira_symplectic_generators": GENERATORS,
    **CORPUS_TEXTS,
}
NAMES = sorted(WORKSPACES)
S, U = parameter("s"), parameter("u")


@pytest.fixture(scope="module")
def workspaces():
    texts = {**WORKSPACES, **DENSE_SYMPLECTIC, "iwasawa": IWASAWA, "kodaira_x_kodaira": KODAIRA_X_KODAIRA,
             "r2": SWEEP["r2.ws"]}
    return {name: build_workspace(parse_workspace(text)) for name, text in texts.items()}


def _maps(ws, name):
    """The pencil, and the reduced family where one exists."""
    pencil = ws.pencil[0]
    return [pencil] if name == "iwasawa" else [pencil, ws.family.reduced_map]


def _bindings(rng, params):
    """Seeded bindings of a nonempty subset of ``params``: constants, zero and
    the polynomials s^2 and s*u + 1 in fresh parameters."""
    values = [
        lambda: PolyScalar.const(random_gaussian(rng)),
        lambda: PolyScalar.zero(),
        lambda: PolyScalar.of(S) * PolyScalar.of(S),
        lambda: PolyScalar.of(S) * PolyScalar.of(U) + 1,
    ]
    chosen = rng.sample(params, rng.randint(1, len(params)))
    return {p: rng.choice(values)() for p in chosen}


def test_workspaces_are_all_present():
    assert len(WORKSPACES) == 7


@pytest.mark.parametrize("name", NAMES)
def test_substitute_matches_from_entries(workspaces, name):
    sub = workspaces[name].sub
    rng = random.Random(f"substitute-{name}")
    for emap in _maps(workspaces[name], name):
        params = list(emap.parameters)
        cases = [{p: PolyScalar.of(S) * PolyScalar.of(S) for p in params},
                 {p: PolyScalar.of(S) * PolyScalar.of(U) + 1 for p in params}]
        cases += [_bindings(rng, params) for _ in range(12)]
        for bindings in cases:
            made = emap.substitute(bindings)
            entries = [[c.substitute(bindings) for c in row] for row in emap.entries]
            remaining = [p for p in emap.parameters if p not in bindings]
            assert made == DeformationMap.from_entries(sub, entries, remaining)


@pytest.mark.parametrize("name", NAMES + ["iwasawa"])
def test_mc_constraints_match_reference(workspaces, name):
    rng = random.Random(f"mc-{name}")
    maps = _maps(workspaces[name], name)
    pencil = maps[0]
    maps += [pencil.substitute(_bindings(rng, list(pencil.parameters))) for _ in range(4)]
    for emap in maps:
        assert mc_residual(emap).constraints == reference_mc_constraints(emap)


@pytest.mark.parametrize("name", NAMES + ["iwasawa"])
def test_mc_constraints_match_reference_on_random_forms(workspaces, name):
    sub = workspaces[name].sub
    rng = random.Random(f"mc-forms-{name}")
    slots = list(itertools.combinations(range(sub.rank), 2))
    symbols = [parameter("p1"), parameter("p2")]
    for trial in range(12):
        # constant coefficients, then polynomial ones in two parameters
        coefficient = (lambda: random_gaussian(rng)) if trial < 8 else (lambda: random_poly(rng, symbols))
        data = {idx: coefficient() for idx in slots if rng.random() < 0.6}
        emap = DeformationMap.from_form(sub, ExteriorForm.build(sub.lform_names, data))
        assert mc_residual(emap).constraints == reference_mc_constraints(emap)


def test_mc_residual_refuses_function_coefficients(workspaces):
    # the constant complex is d_L on constant forms only
    sub = workspaces["kodaira"].sub
    form = ExteriorForm.build(sub.lform_names, {(0, 1): PolyScalar.of(function("f"))})
    with pytest.raises(DeformationError, match="parameter-only coefficients"):
        mc_residual(DeformationMap.from_form(sub, form))


def _composes_to_zero(d, slots, p) -> bool:
    """Whether the sparse rows d[p + 1] after d[p] give the zero matrix."""
    first, second = (dense(d[q], len(slots[q + 1])) for q in (p, p + 1))
    return all(x == GR_ZERO for row in mat_mul(first, second) for x in row)


def _basis_rows(algebra, slots, p):
    """d of each basis p-form by ``reference_ce_differential``, as sparse rows."""
    basis = (ExteriorForm.basis(algebra.dual_names, idx) for idx in slots[p])
    return [sparse(form_vector(reference_ce_differential(algebra, f), slots[p + 1])) for f in basis]


@pytest.mark.parametrize("name", NAMES + ["iwasawa", "kodaira_x_kodaira"])
def test_cochain_matrices(workspaces, name):
    sub = workspaces[name].sub
    cx = sub.cochains
    assert cx.slots == tuple(tuple(itertools.combinations(range(sub.rank), p)) for p in range(4))
    # the pipeline builds the degrees it reads, and no other
    assert sorted(cx.d) == [1, 2]
    # the assembly through exterior forms
    ref = reference_cochains(sub)
    assert cx.d == ref.d
    assert cx.schouten == ref.schouten
    # the tensor is empty exactly when the transported table is
    assert bool(cx.schouten) == bool(sub.schouten_table())
    # d_L squares to zero
    assert _composes_to_zero(cx.d, cx.slots, 1)
    # each row is d_L of a basis form, by wedging basis forms around each
    # d(e*_k): a route that shares no code with the structure-constant rows
    for p in (1, 2):
        assert cx.d[p] == _basis_rows(sub.algebroid, cx.slots, p)
    # the gauge rows are the nonzero rows of the rref of d[1], made dense
    rows, pivots = reference_rref(dense(cx.d[1], len(cx.slots[2])))
    assert cx.gauge == rows[: len(pivots)]
    # each tensor entry, in both orders, is the bracket of two basis 2-forms
    # summed through exterior forms by ``schouten_bracket``
    for (s, a), (u, b) in itertools.product(enumerate(cx.slots[2]), repeat=2):
        bracket = sub.schouten_bracket(*(ExteriorForm.basis(sub.lform_names, idx) for idx in (a, b)))
        assert cx.schouten.get((s, u), []) == sparse(form_vector(bracket, cx.slots[3]))


# dim H^k(L) = dim C^k - rank d_k - rank d_(k-1), k = 0..rank
BETTI = {
    "kodaira": [1, 3, 4, 3, 1],
    "kodaira_symplectic": [1, 3, 4, 3, 1],
    "kodaira_symplectic_generators": [1, 3, 4, 3, 1],
    "abelian4_complex": [1, 4, 6, 4, 1],
    "abelian4_symplectic": [1, 4, 6, 4, 1],
    "abelian6_complex": [1, 6, 15, 20, 15, 6, 1],
    "abelian6_symplectic": [1, 6, 15, 20, 15, 6, 1],
    "r2": [1, 1, 0],
    "iwasawa": [1, 5, 11, 14, 11, 5, 1],
    "kodaira_x_kodaira": [1, 6, 17, 30, 36, 30, 17, 6, 1],
}
# the workspaces of type 0, where the anchor identifies L with T (x) C
SYMPLECTIC = {"kodaira_symplectic", "kodaira_symplectic_generators", "abelian4_symplectic",
              "abelian6_symplectic", "r2"}


def _betti(d, slots) -> list[int]:
    """dim C^k - rank d_k - rank d_(k-1) for k = 0..n, from the sparse rows of d_0..d_n."""
    ranks = [mat_rank(dense(rows, len(slots[p + 1]))) for p, rows in enumerate(d)]
    return [len(slots[k]) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(len(d))]


@pytest.mark.parametrize("name", sorted(BETTI))
def test_ce_rows_give_cohomology_in_every_degree(workspaces, name):
    """``ce_rows`` on every degree 0..n of L: each row against the wedge route,
    d_(p+1) d_p = 0, and the cohomology dimensions; on the symplectic
    workspaces, also the Chevalley-Eilenberg cohomology of the base algebra."""
    ws = workspaces[name]
    sub, n = ws.sub, ws.sub.rank
    slots = [tuple(itertools.combinations(range(n), p)) for p in range(n + 2)]
    d = [ce_rows(sub.algebroid, p) for p in range(n + 1)]
    for p in range(n + 1):
        assert d[p] == _basis_rows(sub.algebroid, slots, p)
    for p in range(n):
        assert _composes_to_zero(d, slots, p)
    assert _betti(d, slots) == BETTI[name]
    assert (sub.type_index() == 0) == (name in SYMPLECTIC)
    if name in SYMPLECTIC:
        assert _betti([_basis_rows(ws.algebra, slots, p) for p in range(n + 1)], slots) == BETTI[name]


@pytest.mark.parametrize(
    "name", ["kodaira", *CORPUS_TEXTS, "iwasawa", "kodaira_x_kodaira", *DENSE_SYMPLECTIC]
)
def test_solve_linear_matches_reference_at_pencil_size(workspaces, name):
    """The compatibility system of a fresh n x n parameter matrix (16 to 64
    unknowns) and the Maurer-Cartan system of its pencil, which on Iwasawa
    and Kodaira x Kodaira keeps nonlinear rows, against the elimination on
    (coefficients, rest) pairs.  The compatibility system is also read as a
    constant matrix, its unknown columns latest-listed first: ``mat_rref`` of
    it matches ``reference_rref``, and its rows, read as bindings, are
    ``solve_linear``'s, so the two share one pivot rule."""
    sub = workspaces[name].sub
    n = sub.rank
    raw = [[parameter(f"t{i + 1}{j + 1}") for j in range(n)] for i in range(n)]
    compatibility = _compatibility(sub, [[PolyScalar.of(s) for s in row] for row in raw])
    pencil = workspaces[name].pencil[0]
    polys = [PolyScalar.from_dict(dict(terms)) for terms in compatibility.values()]
    systems = [
        (polys, [s for row in raw for s in row]),
        ([c for _, c in mc_residual(pencil).nonzero()], list(pencil.parameters)),
    ]
    for system, unknowns in systems:
        got = solve_linear([p.terms for p in system], unknowns)
        want = reference_solve_linear(system, unknowns)
        assert list(got.bindings.items()) == list(want.bindings.items())
        assert (got.free, got.residual, got.consistent) == (want.free, want.residual, want.consistent)
    assert 16 <= n * n <= 64

    system, unknowns = systems[0]
    columns = [Monomial.of(s) for s in reversed(unknowns)]
    # the compatibility rows are linear forms in the unknowns, with no other term
    assert {m for p in system for m, _ in p.terms} <= set(columns)
    matrix = [[p.coefficient(m) for m in columns] for p in system]
    rows, pivots = mat_rref(matrix)
    assert (rows, pivots) == reference_rref(matrix)
    # the binding of a pivot unknown u is u minus its row
    bindings = {}
    for row, c in zip(rows, pivots):
        terms = {m: -x for j, (m, x) in enumerate(zip(columns, row)) if j != c}
        bindings[unknowns[-1 - c]] = PolyScalar.from_dict(terms)
    # the compatibility rows as built, their terms in no fixed order, solve alike
    assert bindings == solve_linear(list(compatibility.values()), unknowns).bindings
