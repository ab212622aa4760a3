"""The pairing with the conjugate against the span routines it replaced.

``Splitting`` decides membership in L, coordinates on L, separation and
involutivity by pairings against the generators and their conjugates; the
references in ``oracles`` decide the same facts with a left inverse per span
and a rank of the stacked generators.  ``deform_subbundle`` and ``classify``,
which evaluate a ground point once, in Gaussian integers, and build no vector, are
compared with ``reference_deform``, which grounds the map by substitution and
builds the deformed generators as sections.  The views of a deformation map
(its form, columns, deformed generators and tangent rows, all read off the
entries) are compared with the builders they replaced.  All run on the preset,
the corpus workspaces and a workspace given by generators, at seeded points.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gcdeform.algebroid import AlgebroidError, Splitting, closure
from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.courant import GenSection
from gcdeform.deformation import (
    CLASSICAL_COMPLEX,
    COMPLEX_NONCLASSICAL,
    SYMPLECTIC,
    DeformationError,
    DeformationMap,
    classify,
    deform_subbundle,
    type_of,
)
from gcdeform.frame import ExteriorForm
from gcdeform.scalar import GaussianRational, PolyScalar, function, mat_rank, parameter, poly
from oracles import (
    from_form,
    random_gaussian,
    reference_classify,
    reference_columns,
    reference_deform,
    random_poly,
    reference_express,
    reference_form_entries,
    reference_projection_matrix,
    reference_theta,
    reference_theta_inverse,
    reference_transported_form,
    reference_vectors,
    reference_verdicts,
)

GR = GaussianRational.of
CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
GENERATORS = (
    "basis X Y U V\nbracket X Y = U\n"
    "generator X - i*U*\ngenerator Y - i*V*\n"
    "generator U + i*X*\ngenerator V + i*Y*\n"
)
WORKSPACES = {
    "kodaira": KODAIRA_WORKSPACE,
    "kodaira_symplectic_generators": GENERATORS,
    **{path.stem: path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ws"))},
}
NAMES = sorted(WORKSPACES)

# unit-size values put some deformed subbundles on the boundary of separation
VALUES = [GR(0), GR(0), GR(1), GR(-1), GR(0, 1), GR(0, -1), GR(1, 1), GR(Fraction(1, 2)),
          GR(Fraction(-1, 4), Fraction(1, 8))]


@pytest.fixture(scope="module")
def workspaces():
    return {name: build_workspace(parse_workspace(text)) for name, text in WORKSPACES.items()}


def combination(sections, coeffs) -> GenSection:
    out = GenSection.zero(sections[0].frame)
    for s, c in zip(sections, coeffs):
        out = out + s.scale(c)
    return out


def test_workspaces_are_all_present():
    assert len(WORKSPACES) == 7


@pytest.mark.parametrize("name", NAMES)
def test_express_matches_span_reference(workspaces, name):
    sub = workspaces[name].sub
    rng = random.Random(f"express-{name}")
    n, frame = sub.rank, sub.frame
    basis = [GenSection.basis(frame, s) for s in frame.tangent_names + frame.cotangent_names]
    symbols = [parameter("p1"), parameter("p2"), function("u1"), function("u2")]
    sections = []
    for _ in range(15):
        # constant sections inside L, pushed off L, and anywhere
        inside = combination(sub.generators, [random_gaussian(rng) for _ in range(n)])
        conj = GenSection.constant(frame, sub.splitting.conj_vectors[rng.randrange(n)])
        off = conj.scale(random_gaussian(rng) or 1)
        anywhere = combination(basis, [random_gaussian(rng) for _ in basis])
        sections += [inside, inside + off, anywhere]
        # parameter and function coefficients, inside L and pushed off it
        symbolic = combination(sub.generators, [random_poly(rng, symbols) for _ in range(n)])
        off = basis[rng.randrange(len(basis))].scale(random_poly(rng, symbols))
        sections += [symbolic, symbolic + off]
    results = [sub.express(s) for s in sections]
    assert results == [reference_express(sub, s) for s in sections]
    assert any(r is None for r in results) and any(r is not None for r in results)


@pytest.mark.parametrize("name", NAMES)
def test_theta_matches_span_reference(workspaces, name):
    sub = workspaces[name].sub
    rng = random.Random(f"theta-{name}")
    hs = tuple(GenSection.constant(sub.frame, h) for h in sub.splitting.duals)
    assert hs == reference_theta_inverse(sub)
    conj = [GenSection.constant(sub.frame, c) for c in sub.splitting.conj_vectors]
    for _ in range(20):
        y = combination(conj, [random_gaussian(rng) for _ in conj])
        assert sub.theta(y.constant_vector()) == reference_theta(sub, y)
        z = y + sub.generators[rng.randrange(sub.rank)].scale(random_gaussian(rng) or 1)
        for theta in (lambda s: sub.theta(s.constant_vector()), lambda s: reference_theta(sub, s)):
            with pytest.raises(AlgebroidError, match="not in the conjugate span"):
                theta(z)


@pytest.mark.parametrize("name", NAMES)
def test_from_form_matches_span_reference(workspaces, name):
    ws = workspaces[name]
    sub = ws.sub
    rng = random.Random(f"from-form-{name}")
    symbols = [parameter("p1"), parameter("p2")]
    forms = [ws.pencil[0].form, ws.family.reduced_map.form]
    for _ in range(10):
        data = {(a, b): random_poly(rng, symbols) for a in range(sub.rank)
                for b in range(a + 1, sub.rank) if rng.random() < 0.5}
        forms.append(ExteriorForm.build(sub.lform_names, data))
    for form in forms:
        made = from_form(sub, form)
        assert made.form == form
        assert [list(row) for row in made.entries] == reference_form_entries(sub, form)


def _points(params, rng, count, pinned=()):
    points = [{p: values.get(p.name, GR(0)) for p in params} for values in pinned]
    while len(points) < count:
        points.append({p: rng.choice(VALUES) for p in params})
    return points


def _reference_type(structure):
    d = structure.ground.sub.frame.dim
    return d - mat_rank([[c.constant_value() for c in g.tangent] for g in structure.generators])


@pytest.mark.parametrize("name", NAMES)
def test_verdicts_match_span_reference(workspaces, name):
    ws = workspaces[name]
    rng = random.Random(f"verdicts-{name}")
    pinned = {
        # t12 != 0 leaves the MC zero set: not involutive
        "pencil": [{"t12": GR(1)}, {"t12": GR(0, 1), "t11": GR(1)}],
        # |t11| = 1 puts L on its conjugate: not separated, still involutive
        "family": [{"t11": GR(1)}, {"t11": GR(1), "t14": GR(1)}, {"t11": GR(0, 1)},
                   {"t11": GR(Fraction(3, 5), Fraction(4, 5))}, {"t11": GR(Fraction(99, 100))},
                   {"t11": GR(1, 1)}],
    } if name == "kodaira" else {}
    seen = set()
    for label, emap in (("pencil", ws.pencil[0]), ("family", ws.family.reduced_map)):
        for point in _points(emap.parameters, rng, 50, pinned.get(label, ())):
            structure = deform_subbundle(emap, point)
            verdicts = (structure.isotropic, structure.involutive, structure.separated)
            assert verdicts == reference_verdicts(structure.generators), (label, point)
            if structure.separated:
                assert type_of(emap, point) == _reference_type(structure)
            seen.add((label, verdicts))
    if name == "kodaira":
        assert ("pencil", (True, False, True)) in seen
        assert ("family", (True, True, False)) in seen
        assert ("family", (True, True, True)) in seen


@pytest.mark.parametrize("t11, verdict", [
    (GR(1), "refused"),
    (GR(0, 1), "refused"),
    (GR(Fraction(3, 5), Fraction(4, 5)), "refused"),
    (GR(Fraction(99, 100)), (2, CLASSICAL_COMPLEX)),
    (GR(1, 1), (2, CLASSICAL_COMPLEX)),
], ids=["1", "i", "0.6+0.8i", "0.99", "1+i"])
def test_separation_locus_on_the_t11_axis(workspaces, t11, verdict):
    """The preset family leaves the generalized complex structures on |t11| = 1,
    every other parameter 0; the points just off that circle stay separated."""
    family = workspaces["kodaira"].family.reduced_map
    point = {p: t11 if p.name == "t11" else GR(0) for p in family.parameters}
    structure = deform_subbundle(family, point)
    assert structure.separated == (verdict != "refused")
    if verdict == "refused":
        with pytest.raises(DeformationError, match="not a generalized complex structure"):
            classify(family, point)
    else:
        assert classify(family, point) == verdict


def test_dependent_generators_are_neither_separated_nor_independent(workspaces):
    sub = workspaces["kodaira"].sub
    gens = sub.generators[:-1] + sub.generators[:1]
    splitting = Splitting(sub.frame, [g.constant_vector() for g in gens])
    assert reference_verdicts(gens) == (True, False, False)
    assert splitting.non_isotropic_pair() is None
    assert splitting.inverse is None and not splitting.independent()



def _classified(emap, point):
    try:
        return classify(emap, point)
    except DeformationError as exc:
        return f"DeformationError: {exc}"


def _reference_classified(emap, point):
    try:
        return reference_classify(emap, point)
    except DeformationError as exc:
        return f"DeformationError: {exc}"


@pytest.mark.parametrize("name", NAMES)
def test_deform_matches_substitution_reference(workspaces, name):
    ws = workspaces[name]
    rng = random.Random(f"deform-{name}")
    pinned = {
        # t12 != 0 leaves the MC zero set: not involutive
        "pencil": [{"t12": GR(1)}],
        # |t11| = 1 puts L on its conjugate: not separated; t14 = t32 = 0 is
        # classical, and t11 = 99/100 and 1 + i pin the separated side
        "family": [{"t11": GR(1)}, {"t11": GR(0, 1)}, {"t11": GR(Fraction(3, 5), Fraction(4, 5))},
                   {"t11": GR(Fraction(99, 100))}, {"t11": GR(1, 1)},
                   {"t11": GR(Fraction(1, 2)), "t22": GR(0, Fraction(1, 3))}],
    } if name == "kodaira" else {}
    seen = set()
    for label, emap in (("pencil", ws.pencil[0]), ("family", ws.family.reduced_map)):
        for point in _points(emap.parameters, rng, 50, pinned.get(label, ())):
            structure = deform_subbundle(emap, point)
            ref = reference_deform(emap, point)
            where = (label, {p.name: str(v) for p, v in point.items()})
            # the closed form P + E^T P^T conj(E) against the pairing of the sections
            assert structure.splitting.pairing == ref.pairing, where
            assert [g.coeffs for g in structure.generators] == [g.coeffs for g in ref.generators], where
            # the nonzero brackets of the closure routine, in pair order
            vectors = structure.splitting.vectors
            closed = {ab: br for ab, br, _, _ in closure(emap.sub.frame, vectors, vectors)}
            zero = [GaussianRational.of(0)] * len(vectors[0])
            pairs = itertools.combinations(range(len(vectors)), 2)
            assert [closed.get(ab, zero) for ab in pairs] == ref.brackets, where
            verdicts = (structure.isotropic, structure.involutive, structure.separated)
            assert verdicts == (ref.isotropic, ref.involutive, ref.separated), where
            assert structure.ground.entries == ref.ground.entries, where
            assert structure.ground.form == ref.ground.form, where
            verdict = _classified(emap, point)
            assert verdict == _reference_classified(emap, point), where
            seen.add((label, verdicts, verdict if isinstance(verdict, tuple) else "refused"))
    if name == "kodaira":
        assert ("pencil", (True, False, True), (2, COMPLEX_NONCLASSICAL)) in seen
        assert ("family", (True, True, False), "refused") in seen
        for kind in ((0, SYMPLECTIC), (2, CLASSICAL_COMPLEX), (2, COMPLEX_NONCLASSICAL)):
            assert ("family", (True, True, True), kind) in seen


def _substituted(emap, rng):
    """The map itself, then one seeded parameter t bound to 0, to s^2 and to
    s*u + 1, with the fresh s and u added to the parameters."""
    yield "as built", emap
    if not emap.parameters:
        return
    t = rng.choice(emap.parameters)
    s, u = parameter("s"), parameter("u")
    for label, value, fresh in (
        ("0", PolyScalar.zero(), ()),
        ("s^2", poly(s) * poly(s), (s,)),
        ("s*u + 1", poly(s) * poly(u) + 1, (s, u)),
    ):
        bound = emap.substitute({t: value})
        yield f"{t.name} -> {label}", DeformationMap(bound.sub, bound.entries, bound.parameters + fresh)


@pytest.mark.parametrize("name", NAMES)
def test_map_views_match_their_builders(workspaces, name):
    """The form, columns, deformed generators and tangent rows of a map are
    views of its entries; each equals the builder it replaced, and the type
    read off the tangent rows at a point equals the rank of the eagerly built
    generators there."""
    ws = workspaces[name]
    rng = random.Random(f"views-{name}")
    d = ws.sub.frame.dim
    classified = 0
    for family, base in (("pencil", ws.pencil[0]), ("family", ws.family.reduced_map)):
        for label, emap in _substituted(base, rng):
            where = (family, label)
            form = reference_transported_form(emap.sub, emap.entries)
            assert emap.form == form, where
            assert emap.columns == reference_columns(form, emap.sub.cochains.slots[2]), where
            assert emap.projection == reference_projection_matrix(emap), where
            assert [v[:d] for v in emap.vectors] == emap.projection, where
            for point in _points(emap.parameters, rng, 8):
                structure = deform_subbundle(emap, point)
                vectors = reference_vectors(emap, structure.values)
                assert structure.splitting.vectors == vectors, (where, point)
                k = d - mat_rank([v[:d] for v in vectors])
                assert structure.type_index == k, (where, point)
                if structure.separated:
                    assert classify(emap, point)[0] == k, (where, point)
                    classified += 1
    assert classified
