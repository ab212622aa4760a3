"""The pairing with the conjugate against the span routines it replaced.

``Splitting`` decides membership in L, coordinates on L, separation and
involutivity by pairings against the generators and their conjugates; the
references in ``oracles`` decide the same facts with a left inverse per span
and a rank of the stacked generators.  Both run on the preset, the corpus
workspaces and a workspace given by generators, at seeded points.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from gcdeform.algebroid import AlgebroidError, Splitting
from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.courant import GenSection
from gcdeform.deformation import DeformationMap, deform_subbundle, type_of
from gcdeform.frame import ExteriorForm
from gcdeform.scalar import GaussianRational, function, mat_rank, parameter
from oracles import (
    random_gaussian,
    random_poly,
    reference_express,
    reference_form_entries,
    reference_theta,
    reference_theta_inverse,
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
        off = sub.splitting.conjugates[rng.randrange(n)].scale(random_gaussian(rng) or 1)
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
    assert tuple(sub.theta_inverse_sections()) == reference_theta_inverse(sub)
    conj = sub.splitting.conjugates
    for _ in range(20):
        y = combination(conj, [random_gaussian(rng) for _ in conj])
        assert sub.theta(y) == reference_theta(sub, y)
        z = y + sub.generators[rng.randrange(sub.rank)].scale(random_gaussian(rng) or 1)
        for theta in (sub.theta, lambda s: reference_theta(sub, s)):
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
        made = DeformationMap.from_form(sub, form)
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
        # t11 = 1 puts L on its conjugate: not separated, still involutive
        "family": [{"t11": GR(1)}, {"t11": GR(1), "t14": GR(1)}],
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


def test_dependent_generators_are_neither_separated_nor_independent(workspaces):
    sub = workspaces["kodaira"].sub
    gens = list(sub.generators)
    splitting = Splitting(gens[:-1] + gens[:1])
    assert reference_verdicts(splitting.sections) == (True, False, False)
    assert splitting.non_isotropic_pair() is None
    assert not splitting.separated and not splitting.independent()

