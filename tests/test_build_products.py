"""The workspace build on sparse constant products, against the dense routines.

``scalar.mat_mul`` skips every zero factor, and the construction stage goes
through it: J^2 and J applied to a vector, the eigenframe's transform of its
nonzero brackets by P^-1, the splitting's duals P^-T conj(g), and the
subbundle build's pairing of every generator bracket with the generators and
the duals in one ``courant.pairings`` product.  Those brackets, of L's
generators, of the duals and of the eigenframe's new basis vectors, are
summed by ``frame.bracket_vectors`` over the nonzero slots of each vector
(``nonzero_brackets``, inside ``closure``).  ``validate_jacobi`` reads the
brackets of basis elements off the stored table.  Each is compared with the
dense routine it replaced (``tests/oracles.py``) on the preset, every corpus
workspace, the workspace given by generators, a symplectic form whose
generators have three nonzero slots and 36 seeded two-step nilpotent
algebras; the Jacobi check also on mutated tables that break the identity.
"""

import itertools
import random
from pathlib import Path

import pytest

from cli_sweep import WORKSPACES as SWEEP
from gcdeform.algebroid import AlgebroidError, Splitting, build_complex_eigenbundle, closure
from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.courant import GenSection, doubled_pair, pairings
from gcdeform.frame import ComplexFrame, ComplexOp, FrameAlgebra, FrameError, eigenframe, nonzero_brackets
from gcdeform.frame import nonzeros
from gcdeform.scalar import GR_ONE, GR_ZERO, GaussianRational, SingularMatrixError, mat_inverse, mat_mul
from oracles import (
    courant_oracle,
    random_gaussian,
    random_two_step_nilpotent,
    reference_bracket_vectors,
    reference_duals,
    reference_eigenframe,
    reference_mat_mul,
    reference_validate_jacobi,
)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
WORKSPACES = {
    "kodaira": KODAIRA_WORKSPACE,
    **{path.stem: path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ws"))},
    "kodaira_symplectic_generators": SWEEP["kodaira_symplectic_generators.ws"],
    # a closed form whose X row has two entries: the generator L_X has three nonzero slots
    "kodaira_symplectic_dense": (
        "basis X Y U V\nbracket X Y = U\n"
        "symplectic X U = 1\nsymplectic Y V = 1\nsymplectic X V = 1/2\n"
    ),
}


@pytest.fixture(scope="module")
def workspaces():
    return {name: build_workspace(parse_workspace(text)) for name, text in WORKSPACES.items()}


def nilpotent_algebras():
    """The 36 seeded algebras of ``test_courant.py``, dimensions 3 to 6."""
    rng = random.Random(20261018)
    return [random_two_step_nilpotent(rng, rng.randint(3, 6)) for _ in range(36)]


def random_matrix(rng, rows, cols, density=0.4):
    return [
        [random_gaussian(rng) if rng.random() < density else GR_ZERO for _ in range(cols)]
        for _ in range(rows)
    ]


def conjugated_j(rng, n):
    """S J0 S^-1 for the standard J0 (e_2a -> e_2a+1) and a random rational S:
    it squares to -1 and has few zero entries."""
    j0 = [[GR_ZERO] * n for _ in range(n)]
    for a in range(0, n, 2):
        j0[a + 1][a], j0[a][a + 1] = GR_ONE, -GR_ONE
    while True:
        s = [[GaussianRational.of(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            s_inv = mat_inverse(s)
        except SingularMatrixError:
            continue
        return ComplexOp.build(mat_mul(mat_mul(s, j0), s_inv))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (FrameError, AlgebroidError) as exc:
        return (type(exc), str(exc))


# -- mat_mul and pairings --------------------------------------------------------


def test_mat_mul_matches_the_dense_product():
    rng = random.Random("mat_mul")
    shapes = [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)) for _ in range(60)]
    for rows, inner, cols in shapes + [(3, 4, 2), (1, 1, 1)]:
        for density in (0.0, 0.3, 1.0):  # all zero, sparse, dense
            a = random_matrix(rng, rows, inner, density)
            b = random_matrix(rng, inner, cols, rng.choice((0.0, 0.5, 1.0)))
            assert mat_mul(a, b) == reference_mat_mul(a, b)
    # no rows, and no columns: the dense product agrees where it is defined
    b = random_matrix(rng, 3, 2)
    assert mat_mul([], b) == reference_mat_mul([], b) == []
    assert mat_mul(random_matrix(rng, 2, 3), [[], [], []]) == [[], []]
    assert reference_mat_mul(random_matrix(rng, 2, 3), [[], [], []]) == [[], []]
    assert mat_mul([[], []], []) == [[], []]


def test_mat_mul_skips_every_zero_factor(monkeypatch):
    products = []
    mul = GaussianRational.__mul__

    def counted(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(GaussianRational, "__mul__", counted)
    rng = random.Random("zero factors")
    a, b = random_matrix(rng, 4, 5), random_matrix(rng, 5, 3)
    mat_mul(a, b)
    assert products and all(x and y for x, y in products)
    pairs = sum(1 for row in a for x, brow in zip(row, b) if x for y in brow if y)
    assert len(products) == pairs


def test_pairings_is_doubled_pair_entry_by_entry(workspaces):
    rng = random.Random("pairings")
    for d in (1, 2, 3):
        for _ in range(20):
            xs = random_matrix(rng, rng.randint(0, 4), 2 * d, rng.random())
            ys = random_matrix(rng, rng.randint(1, 4), 2 * d, rng.random())
            table = pairings(xs, ys)
            assert table == [[doubled_pair(x, y) for y in ys] for x in xs]
    for name, ws in workspaces.items():
        split = ws.sub.splitting
        for xs, ys in itertools.product((split.vectors, split.conj_vectors, split.duals), repeat=2):
            assert pairings(xs, ys) == [[doubled_pair(x, y) for y in ys] for x in xs], name


# -- the Jacobi check ------------------------------------------------------------


def test_validate_jacobi_matches_the_dense_reference(workspaces):
    algebras = [ws.algebra for ws in workspaces.values()] + nilpotent_algebras()
    algebras += [ws.frame.algebra for ws in workspaces.values()]
    for g in algebras:
        assert g.validate_jacobi() == reference_validate_jacobi(g) == []


def mutated(rng, g: FrameAlgebra) -> FrameAlgebra:
    """``g`` with random brackets added, some given in the order b < a."""
    basis = g.basis
    brackets = {
        (basis[i], basis[j]): {basis[k]: c for k, c in enumerate(vec) if c}
        for (i, j), vec in g.table
    }
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(g.dim), 2)
        key = (basis[i], basis[j])
        if key in brackets or key[::-1] in brackets:
            continue
        brackets[key] = {basis[rng.randrange(g.dim)]: random_gaussian(rng, 2)}
    return FrameAlgebra.build(basis, brackets)


def test_validate_jacobi_reports_the_same_violations_on_mutated_tables(workspaces):
    rng = random.Random("jacobi mutations")
    algebras = [ws.algebra for ws in workspaces.values()] + nilpotent_algebras()
    violated = 0
    for g in algebras:
        for _ in range(4):
            h = mutated(rng, g)
            found = h.validate_jacobi()
            assert found == reference_validate_jacobi(h), h.table
            violated += bool(found)
    # the mutations break the identity on most tables
    assert violated > 2 * len(algebras)


# -- the eigenframe, the duals and the subbundle build ------------------------------


def test_eigenframe_matches_the_dense_reference(workspaces):
    for name, ws in workspaces.items():
        if ws.jop is None:
            continue
        names = (ws.spec.names_eigen, ws.spec.names_duals)
        frame = eigenframe(ws.algebra, ws.jop, *names)
        assert frame == reference_eigenframe(ws.algebra, ws.jop, *names) == ws.frame, name
    rng = random.Random("eigenframes")
    checked = 0
    for g in nilpotent_algebras():
        if g.dim % 2:  # refused by both, with the same message
            J = conjugated_j(rng, g.dim + 1)
            assert outcome(eigenframe, g, J) == outcome(reference_eigenframe, g, J)
            continue
        J = conjugated_j(rng, g.dim)
        frame = eigenframe(g, J)
        assert frame == reference_eigenframe(g, J)
        checked += 1
    assert checked >= 10


def test_duals_match_the_dense_reference(workspaces):
    for name, ws in workspaces.items():
        split = ws.sub.splitting
        assert split.duals == reference_duals(split), name
    rng = random.Random("duals")
    for g in nilpotent_algebras():
        frame = ComplexFrame.complexified(g)
        split = Splitting(frame, random_matrix(rng, g.dim, 2 * g.dim, 0.6))
        if split.inverse is None:
            continue
        assert split.duals == reference_duals(split)
        for a, h in enumerate(split.duals):
            assert [doubled_pair(h, v) for v in split.vectors] == [
                GR_ONE if b == a else GR_ZERO for b in range(g.dim)
            ]


def reference_nonzero_brackets(table, vectors) -> list:
    """Every pair of dense vectors bracketed by ``reference_bracket_vectors``,
    the nonzero brackets kept."""
    pairs = itertools.combinations(range(len(vectors)), 2)
    brs = [(ab, reference_bracket_vectors(table, vectors[ab[0]], vectors[ab[1]])) for ab in pairs]
    return [(ab, br) for ab, br in brs if any(br)]


def reference_closure(frame, sections, members, coordinates) -> list:
    """``closure`` from the dense brackets, each paired by ``doubled_pair``."""
    return [(ab, br, [doubled_pair(br, m) for m in members], [doubled_pair(br, c) for c in coordinates])
            for ab, br in reference_nonzero_brackets(frame.courant_table, sections)]


def test_closure_matches_the_dense_reference(workspaces):
    """L's bracket, from the generators, and L*'s, from the duals: both
    ``closure`` calls of the subbundle build, on every workspace."""
    widest, brackets = 0, 0
    for name, ws in workspaces.items():
        split = ws.sub.splitting
        for sections, members, coords in ((split.vectors, split.vectors, split.duals),
                                          (split.duals, split.conj_vectors, split.vectors)):
            closed = closure(ws.frame, sections, members, coords)
            assert closed == reference_closure(ws.frame, sections, members, coords), name
            widest = max(widest, *(len(nonzeros(v)) for v in sections))
            brackets += len(closed)
    # positive controls: some bracket is nonzero, and some section has more
    # nonzero slots than a basis section plus its image
    assert brackets and widest >= 3


def test_nonzero_brackets_match_the_dense_reference(workspaces):
    """The sums behind ``closure`` and ``eigenframe``: of constant sections over
    the Courant table, and of the eigenframe's new basis vectors over the real
    frame's table, also on seeded nilpotent algebras."""
    rng = random.Random("nonzero brackets")
    cases = []
    for ws in workspaces.values():
        split = ws.sub.splitting
        cases += [(ws.frame.courant_table, vs) for vs in (split.vectors, split.conj_vectors, split.duals)]
        if ws.frame.real is not None:
            cases.append((ws.algebra.brackets, [list(col) for col in zip(*ws.frame.change_of_basis)]))
    for g in nilpotent_algebras():
        if g.dim % 2 == 0:
            frame = eigenframe(g, conjugated_j(rng, g.dim))
            cases.append((g.brackets, [list(col) for col in zip(*frame.change_of_basis)]))
        cases.append((g.brackets, random_matrix(rng, 4, g.dim, 0.5)))
    for table, vectors in cases:
        assert nonzero_brackets(table, vectors) == reference_nonzero_brackets(table, vectors)
    assert sum(bool(nonzero_brackets(table, vectors)) for table, vectors in cases) > len(cases) // 2


def reference_algebroid(split: Splitting, names) -> dict:
    """Each bracket, taken by the Courant oracle, and its coordinates pair by
    pair, through ``Splitting.coordinates``, or the refusal of the first
    bracket outside L."""
    brackets = {}
    sections = [GenSection.constant(split.frame, v) for v in split.vectors]
    for a, b in itertools.combinations(range(len(sections)), 2):
        br = courant_oracle(split.frame, sections[a], sections[b]).constant_vector()
        coeffs = split.coordinates(br)
        if coeffs is None:
            shown = GenSection.constant(split.frame, br)
            return (AlgebroidError, f"not involutive: [{names[a]}, {names[b]}] = {shown}")
        brackets[(a, b)] = tuple(coeffs)
    return brackets


def algebroid_table(sub) -> dict:
    table = dict(sub.algebroid.table)
    pairs = itertools.combinations(range(sub.rank), 2)
    return {ab: table.get(ab, (GR_ZERO,) * sub.rank) for ab in pairs}


def test_subbundle_build_matches_the_pair_by_pair_coordinates(workspaces):
    for name, ws in workspaces.items():
        split = Splitting(ws.frame, ws.sub.splitting.vectors)
        assert algebroid_table(ws.sub) == reference_algebroid(split, ws.sub.names), name
    frames = [ws.frame for ws in workspaces.values() if ws.jop is not None]
    rng = random.Random("eigenbundles")
    for g in nilpotent_algebras():
        if g.dim % 2 == 0:
            frames.append(eigenframe(g, conjugated_j(rng, g.dim)))
    refused = 0
    for frame in frames:
        m = frame.dim // 2
        names = frame.tangent_names[m:] + frame.cotangent_names[:m]
        gens = [GenSection.basis(frame, name).constant_vector() for name in names]
        expected = reference_algebroid(Splitting(frame, gens), names)
        assert outcome(lambda: algebroid_table(build_complex_eigenbundle(frame))) == expected
        refused += isinstance(expected, tuple)
    # both branches are reached: integrable and non-integrable J
    assert 0 < refused < len(frames)
