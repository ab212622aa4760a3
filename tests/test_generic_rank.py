"""The generic rank of the tangent projection.

A family with more than eight parameters is refused stratification but still
gets its generic rank from ``_generic_rank``, which takes the rank at the
origin and at seeded points and expands minors only while that bound is below
min(rows, cols), so no minor is built when a point reaches the full rank.  A
stratified descent node first eliminates on constant pivots, which decide a
leaf's rank without a minor; any other node reads its r x r minors anyway, so
it takes r top-down as the largest size with a nonzero minor.  Neither
evaluates a point.  All are compared with ``reference_generic_rank``, which
expands every minor from the largest size down, and the constant pivots also
with ``permutation_det`` minors of seeded matrices.  The points themselves
are compared with the ``Fraction``-built ones.
"""

import collections
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gcdeform import cli, deformation, scalar
from gcdeform.algebroid import complex_eigenbundle
from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.deformation import DeformationMap, constrain_map, stratify_type
from gcdeform.frame import ComplexOp, FrameAlgebra
from gcdeform.scalar import GR_ONE, GR_ZERO, GaussianRational, parameter
from oracles import (
    LEAF,
    LEAF_SHUFFLED,
    MIXED,
    NO_CONSTANT,
    constant_rank_mismatches,
    pivot_rank_case,
    random_gaussian,
    reference_generic_rank,
)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
WORKSPACES = {
    "kodaira": KODAIRA_WORKSPACE,
    "kodaira_symplectic_generators": (
        "basis X Y U V\nbracket X Y = U\n"
        "generator X - i*U*\ngenerator Y - i*V*\n"
        "generator U + i*X*\ngenerator V + i*Y*\n"
    ),
    **{path.stem: path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ws"))},
}


def _symplectic_abelian(dim: int) -> str:
    pairs = range(1, dim // 2 + 1)
    return "basis " + " ".join(f"X{i} Y{i}" for i in pairs) + "\n" + "".join(
        f"symplectic X{i} Y{i} = 1\n" for i in pairs
    )


def generic_rank(e: DeformationMap) -> int:
    return deformation._generic_rank(e.projection)


@pytest.mark.parametrize("seeds", [deformation._RANK_POINT_SEEDS, ()], ids=["points", "origin"])
@pytest.mark.parametrize("name", sorted(WORKSPACES))
def test_generic_rank_matches_top_down_reference(monkeypatch, name, seeds):
    # with the origin alone, every rank below full is raised through minors
    monkeypatch.setattr(deformation, "_RANK_POINT_SEEDS", seeds)
    ws = build_workspace(parse_workspace(WORKSPACES[name]))
    maps = [ws.pencil[0], ws.family.reduced_map]
    for e in maps:
        assert generic_rank(e) == reference_generic_rank(e)
    # the reported rank is the certified one, refused or stratified
    assert stratify_type(maps[1]).generic_rank == reference_generic_rank(maps[1])


def test_generic_rank_climbs_from_the_origin_through_minors(monkeypatch):
    # abelian-6 complex has rank 3 at the origin and generic rank 5: from the
    # origin alone, nonzero 4- and 5-minors raise the bound one step at a
    # time, and the vanishing 6 x 6 minor stops it
    monkeypatch.setattr(deformation, "_RANK_POINT_SEEDS", ())
    text = (CORPUS / "abelian6_complex.ws").read_text(encoding="utf-8")
    e = build_workspace(parse_workspace(text)).pencil[0]
    matrix = e.projection
    origin = {g: GR_ZERO for row in matrix for c in row for g in c.generators()}
    assert scalar.mat_rank([[c.evaluate(origin) for c in row] for row in matrix]) == 3
    sizes = collections.Counter()
    counted_minor = scalar.minor

    def counted(matrix, rows, cols, table):
        sizes[len(rows)] += 1
        return counted_minor(matrix, rows, cols, table)

    monkeypatch.setattr(deformation, "minor", counted)
    assert deformation._generic_rank(matrix) == reference_generic_rank(e) == 5
    assert set(sizes) == {4, 5, 6}


def test_generic_rank_binds_symbols_outside_the_parameters(ksub, kmap):
    # the padded parameters do not occur in the entries, and the entries'
    # own symbols are not among the parameters
    emap, _ = kmap
    padded = DeformationMap(
        sub=ksub, entries=emap.entries,
        parameters=tuple(parameter(f"q{k}") for k in range(9)),
    )
    assert generic_rank(padded) == reference_generic_rank(padded) == 4


def _random_abelian_complex(rng):
    """A two-step nilpotent algebra of dimension 4 or 6 with an abelian
    complex structure, J e_2a = e_2a+1: the brackets of the first 2q basis
    elements land in the central rest and satisfy [Jx, Jy] = [x, y], which
    makes J integrable."""
    m = rng.randint(2, 3)
    q = rng.randint(1, m - 1)
    basis = [f"e{k}" for k in range(2 * m)]

    def jmap(k):  # J e_k as (index, sign)
        return (k + 1, 1) if k % 2 == 0 else (k - 1, -1)

    brackets = collections.defaultdict(dict)
    for z in range(2 * q, 2 * m):
        if rng.random() < 0.3:
            continue
        w = {
            (i, j): random_gaussian(rng, 2).re
            for i, j in itertools.combinations(range(2 * q), 2)
            if rng.random() < 0.7
        }
        for i, j in itertools.combinations(range(2 * q), 2):
            (ji, si), (jj, sj) = jmap(i), jmap(j)
            turned = w.get((ji, jj), 0) if ji < jj else -w.get((jj, ji), 0)
            c = (w.get((i, j), 0) + si * sj * turned) / 2
            if c:
                brackets[(basis[i], basis[j])][basis[z]] = GaussianRational(c, 0)
    g = FrameAlgebra.build(basis, dict(brackets))
    matrix = [[GR_ZERO] * (2 * m) for _ in range(2 * m)]
    for k in range(2 * m):
        target, sign = jmap(k)
        matrix[target][k] = GR_ONE if sign > 0 else -GR_ONE
    return g, ComplexOp.build(matrix)


@pytest.mark.parametrize("seeds", [deformation._RANK_POINT_SEEDS, ()], ids=["points", "origin"])
def test_generic_rank_matches_top_down_reference_on_random_nilpotent_algebras(monkeypatch, seeds):
    monkeypatch.setattr(deformation, "_RANK_POINT_SEEDS", seeds)
    rng = random.Random(20261019)
    ranks = collections.Counter()
    for _ in range(36):
        g, J = _random_abelian_complex(rng)
        assert g.validate_jacobi() == []
        _, sub = complex_eigenbundle(g, J)
        emap, _ = constrain_map(sub)
        rank = generic_rank(emap)
        assert rank == reference_generic_rank(emap)
        ranks[(g.dim, rank)] += 1
    # the draws reach both dimensions and a rank below the full one
    assert {dim for dim, _ in ranks} == {4, 6}
    assert any(rank < dim for dim, rank in ranks)


def test_strata_refuses_symplectic_abelian10_with_generic_rank(tmp_path, capsys):
    # 45 parameters; the origin has full rank, so no minor is expanded
    # (symplectic abelian-8 is pinned the same way in test_cli.py)
    ws = tmp_path / "abelian10.ws"
    ws.write_text(_symplectic_abelian(10), encoding="utf-8")
    assert cli.main(["strata", "--format", "machine", "--input", str(ws)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"generic_rank": 10, "strata": [], "refused": "too many parameters"}


def test_constrain_map_separates_indices_from_rank_ten():
    sub = build_workspace(parse_workspace(_symplectic_abelian(10))).sub
    _, report = constrain_map(sub)
    assert len(report.free) == 45 and report.free[0].name == "t1_1"
    names = {p.name for p in [*report.free, *report.eliminated]}
    assert names == {f"t{i}_{j}" for i in range(1, 11) for j in range(1, 11)}


def test_refused_family_builds_no_minor(monkeypatch):
    calls = []
    counted_minor = scalar.minor

    def counted(*args):
        calls.append(args[1:3])
        return counted_minor(*args)

    for module in (scalar, deformation):
        monkeypatch.setattr(module, "minor", counted)
    text = (CORPUS / "abelian6_symplectic.ws").read_text(encoding="utf-8")
    data = cli.run_pipeline(parse_workspace(text), "strata", fmt="machine")
    assert calls == []
    assert '"refused": "too many parameters"' in data
    # positive control: the stratified preset reads its minors through the name
    cli.run_pipeline(parse_workspace(KODAIRA_WORKSPACE), "strata", fmt="machine")
    assert len(calls) > 0


def test_refused_strata_text_prints_the_generic_rank(tmp_path, capsys):
    ws = tmp_path / "abelian6.ws"
    ws.write_text(_symplectic_abelian(6), encoding="utf-8")
    assert cli.main(["strata", "--input", str(ws)]) == 0
    assert capsys.readouterr().out == "generic rank: 6\nrefused: too many parameters\n"


def test_stratified_nodes_evaluate_no_point(monkeypatch):
    """A stratified node takes its rank from its minors, so stratifying the
    preset evaluates no entry at a point, neither as a polynomial nor through
    the Gaussian-integer ``_evaluate``; the refused branch does, through the
    latter."""
    calls = collections.Counter()
    evaluate, integer_evaluate = scalar.PolyScalar.evaluate, deformation._evaluate

    def counted(self, point):
        calls["evaluate"] += 1
        return evaluate(self, point)

    def integer_counted(*args):
        calls["_evaluate"] += 1
        return integer_evaluate(*args)

    monkeypatch.setattr(scalar.PolyScalar, "evaluate", counted)
    monkeypatch.setattr(deformation, "_evaluate", integer_counted)
    family = build_workspace(parse_workspace(KODAIRA_WORKSPACE)).family
    strata = stratify_type(family.reduced_map)
    assert strata.strata and not calls
    # positive control: the points of ``_generic_rank`` go through the name
    assert generic_rank(family.reduced_map) == strata.generic_rank
    assert calls["_evaluate"] > 0


@pytest.mark.parametrize("name", sorted(WORKSPACES))
def test_every_descent_node_has_the_reference_rank(monkeypatch, name):
    nodes = []
    rank_and_minors = deformation._rank_and_minors

    def recorded(e):
        r, minors = rank_and_minors(e)
        nodes.append((e, r))
        return r, minors

    monkeypatch.setattr(deformation, "_rank_and_minors", recorded)
    ws = build_workspace(parse_workspace(WORKSPACES[name]))
    strata = stratify_type(ws.family.reduced_map)
    if strata.refused == "too many parameters":
        assert nodes == []
        return
    assert len(nodes) == len(strata.strata) and nodes[0][1] == strata.generic_rank
    for e, r in nodes:
        assert r == reference_generic_rank(e), name


def test_constant_pivot_rank_matches_minor_route():
    """Seeded 1..5 x 1..5 matrices: whenever constant pivots decide a rank, it
    is the largest size with a nonzero minor and a minor of that size is a
    nonzero constant; they decide every leaf whose constant rows come first."""
    rng = random.Random("constant pivots")
    gens = [parameter("s"), parameter("t")]
    seen = collections.Counter()
    for _ in range(240):
        kind, matrix = pivot_rank_case(rng, gens, rng.randint(1, 5), rng.randint(1, 5))
        assert constant_rank_mismatches(kind, matrix) == []
        seen[kind, deformation._constant_rank(matrix) is not None] += 1
    # shuffled leaves are mostly decided, and mixed rows sometimes leave a nonzero entry
    assert seen[LEAF, True] and seen[LEAF_SHUFFLED, True] and seen[NO_CONSTANT, False]
    assert seen[MIXED, True] and seen[MIXED, False]


def test_rank_points_match_the_fraction_built_points():
    """``_rank_points`` builds each coordinate from its two integer draws; the
    points, values in coordinate order, equal those built from ``Fraction``
    parts, draw by draw, and a second call returns the same points."""
    seeds = deformation._RANK_POINT_SEEDS
    points = deformation._rank_points(15, seeds)
    assert points[0] == (GR_ZERO,) * 15
    for seed, point in zip(seeds, points[1:], strict=True):
        rng, k = random.Random(seed), 30
        parts = map(Fraction, rng.choices(range(-9, 10), k=k), rng.choices(range(1, 10), k=k))
        assert point == tuple(GaussianRational(next(parts), next(parts)) for _ in range(15))
    assert deformation._rank_points(15, seeds) is points
