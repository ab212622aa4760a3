import collections
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gcdeform import algebroid, courant, deformation, frame, scalar
from gcdeform.algebroid import Splitting, build_symplectic_eigenbundle, complex_eigenbundle
from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.courant import GenSection, pair
from gcdeform.deformation import (
    CLASSICAL_COMPLEX,
    COMPLEX_NONCLASSICAL,
    SYMPLECTIC,
    DeformationError,
    DeformationMap,
    classify,
    constrain_map,
    deform_subbundle,
    gauge_image,
    mc_residual,
    reduce_family,
    _minimal_hitting_sets,
    _nonzero_minors,
    _normalize_minor,
    solve_mc_system,
    stratify_type,
    type_of,
)
from gcdeform.frame import ExteriorForm, FrameAlgebra, kodaira_preset
from gcdeform.scalar import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PolyScalar,
    mat_rank,
    minor,
    parameter,
    poly,
)
from oracles import permutation_det, random_poly, small_binding

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
GR = GaussianRational.of
HALF_I = GR(0, Fraction(1, 2))


def t(name):
    return parameter(name)


def bind_all(emap, **values):
    by_name = {p.name: p for p in emap.parameters}
    out = {}
    for name, v in values.items():
        out[by_name[name]] = v if isinstance(v, GaussianRational) else GR(v)
    for p in emap.parameters:
        out.setdefault(p, GR_ZERO)
    return out


# ---------------------------------------------------------------------------
# constrain_map
# ---------------------------------------------------------------------------


def test_constrain_map_parameter_count(kmap):
    emap, report = kmap
    assert [s.name for s in report.free] == ["t11", "t12", "t14", "t21", "t22", "t32"]
    assert len(report.eliminated) == 10


def test_constrain_map_eliminated_relations(kmap):
    _, report = kmap
    rendered = {s.name: str(v) for s, v in report.eliminated.items()}
    assert rendered == {
        "t13": "0",
        "t24": "0",
        "t31": "0",
        "t42": "0",
        "t23": "-t14",
        "t33": "-t11",
        "t34": "-t21",
        "t41": "-t32",
        "t43": "-t12",
        "t44": "-t22",
    }


def test_constrain_map_form_slots(kmap):
    emap, _ = kmap
    expected = {
        (0, 1): "t32",
        (0, 2): "-t11",
        (0, 3): "-t21",
        (1, 2): "-t12",
        (1, 3): "-t22",
        (2, 3): "t14",
    }
    for idx, value in expected.items():
        assert str(emap.form.coefficient(idx)) == value
    # diagonal of the bilinear form vanishes identically
    for j in range(4):
        assert emap.form.coefficient((j, j)).is_zero()


def test_constrained_bilinear_form_antisymmetric(kmap):
    emap, _ = kmap
    for j, k in itertools.product(range(4), repeat=2):
        assert (emap.form.coefficient((j, k)) + emap.form.coefficient((k, j))).is_zero()


def test_zero_map_satisfies_compatibility(ksub):
    zero = [[PolyScalar.zero()] * 4 for _ in range(4)]
    emap = DeformationMap.from_entries(ksub, zero)
    assert emap.form.is_zero()


def test_incompatible_entries_rejected(ksub):
    entries = [[PolyScalar.zero()] * 4 for _ in range(4)]
    entries[0][0] = poly(GR_ONE)  # its pairing partner is missing
    with pytest.raises(DeformationError, match=r"^pairing compatibility fails at \(Tbar, omega\)$"):
        DeformationMap.from_entries(ksub, entries)
    # entries (0, 0) and (2, 2) meet in that pair: -s cancels s there, 1 - s
    # leaves the constant after the s terms cancel
    s = poly(t("s"))
    entries[0][0], entries[2][2] = s, -s
    DeformationMap.from_entries(ksub, entries)
    entries[2][2] = 1 - s
    with pytest.raises(DeformationError, match=r"^pairing compatibility fails at \(Tbar, omega\)$"):
        DeformationMap.from_entries(ksub, entries)


def test_from_form_round_trip(ksub, kmap):
    emap, _ = kmap
    rebuilt = DeformationMap.from_form(ksub, emap.form)
    assert rebuilt.entries == emap.entries


# ---------------------------------------------------------------------------
# Maurer-Cartan
# ---------------------------------------------------------------------------


def test_mc_residual_kodaira(ksub, kmap):
    emap, _ = kmap
    mc = mc_residual(emap)
    nonzero = dict(mc.nonzero())
    assert set(nonzero) == {(0, 1, 2), (0, 1, 3), (0, 2, 3)}
    t12, t22, t14 = poly(t("t12")), poly(t("t22")), poly(t("t14"))
    assert nonzero[(0, 1, 2)] == (t12 * t12).scale(HALF_I)
    assert nonzero[(0, 1, 3)] == (t12 + t12 * t22).scale(HALF_I)
    assert nonzero[(0, 2, 3)] == (t12 * t14).scale(-HALF_I)
    # every constraint vanishes exactly on t12 = 0
    for c in nonzero.values():
        assert c.substitute({t("t12"): GR_ZERO}).is_zero()


def test_mc_residual_zero_map(ksub):
    zero = DeformationMap.from_entries(ksub, [[PolyScalar.zero()] * 4 for _ in range(4)])
    assert mc_residual(zero).is_trivial()


def test_mc_residual_t14_direction_unobstructed(ksub, kmap):
    emap, _ = kmap
    only_t14 = emap.substitute(
        {p: PolyScalar.zero() for p in emap.parameters if p.name != "t14"}
    )
    assert mc_residual(only_t14).is_trivial()


# ---------------------------------------------------------------------------
# gauge image
# ---------------------------------------------------------------------------


def test_gauge_image_kodaira(ksub):
    basis = gauge_image(ksub)
    assert len(basis) == 1
    assert basis[0] == ExteriorForm.basis(ksub.lform_names, (0, 3))


def test_gauge_image_abelian():
    g = FrameAlgebra.build(("X", "Y", "U", "V"), {})
    _, J = kodaira_preset()
    _, sub = complex_eigenbundle(g, J)
    assert gauge_image(sub) == []


def test_gauge_image_inside_kernel(ksub):
    for b in gauge_image(ksub):
        assert ksub.d_L_invariant(b).is_zero()


# ---------------------------------------------------------------------------
# family reduction
# ---------------------------------------------------------------------------


def test_reduce_family_kodaira(ksub, kfamily):
    assert [p.name for p in kfamily.free] == ["t32", "t11", "t22", "t14"]
    assert {s.name for s in kfamily.solved} == {"t12"}
    assert kfamily.solved[t("t12")].is_zero()
    assert [p.name for p in kfamily.dropped_gauge] == ["t21"]
    names = ksub.lform_names
    expected = [
        ExteriorForm.basis(names, (0, 1)),
        -ExteriorForm.basis(names, (0, 2)),
        -ExteriorForm.basis(names, (1, 3)),
        ExteriorForm.basis(names, (2, 3)),
    ]
    assert kfamily.reduced_basis == expected


def test_reduced_family_residual_is_zero(kfamily):
    assert mc_residual(kfamily.reduced_map).is_trivial()


def test_reduce_family_trivial_gauge():
    g = FrameAlgebra.build(("X", "Y", "U", "V"), {})
    _, J = kodaira_preset()
    _, sub = complex_eigenbundle(g, J)
    emap, report = constrain_map(sub)
    family = reduce_family(mc_residual(emap))
    assert not family.solved and not family.dropped_gauge
    assert set(p.name for p in family.free) == {s.name for s in report.free}


def test_gauge_directions_are_flat(ksub, kfamily):
    s = parameter("s")
    shifted = kfamily.reduced_map.form + gauge_image(ksub)[0].scale(poly(s))
    shifted_map = DeformationMap.from_form(ksub, shifted)
    assert mc_residual(shifted_map).is_trivial()


# ---------------------------------------------------------------------------
# deformed subbundles
# ---------------------------------------------------------------------------


def test_deform_subbundle_zero_bindings(ksub, kfamily):
    red = kfamily.reduced_map
    structure = deform_subbundle(red, bind_all(red))
    assert structure.isotropic and structure.involutive and structure.separated
    assert [g.coeffs for g in structure.generators] == [
        g.coeffs for g in ksub.generators
    ]


def test_deformed_generators_match_expected_images(kframe, ksub, kfamily):
    red = kfamily.reduced_map
    v = {"t11": GR(Fraction(1, 8)), "t22": GR(Fraction(-1, 8)),
         "t32": GR(0, Fraction(1, 8)), "t14": GR(Fraction(1, 16))}
    structure = deform_subbundle(red, bind_all(red, **v))
    tbar, wbar, omega, rho = structure.generators
    assert tbar == GenSection.make(
        kframe, {"Tbar": GR_ONE, "T": v["t11"], "rhobar": -v["t32"]}
    )
    assert wbar == GenSection.make(
        kframe, {"Wbar": GR_ONE, "W": v["t22"], "omegabar": v["t32"]}
    )
    assert omega == GenSection.make(
        kframe, {"omega": GR_ONE, "W": -v["t14"], "omegabar": -v["t11"]}
    )
    assert rho == GenSection.make(
        kframe, {"rho": GR_ONE, "T": v["t14"], "rhobar": -v["t22"]}
    )
    assert structure.separated and structure.involutive and structure.isotropic


def test_deform_subbundle_isotropy_random(ksub, kfamily):
    rng = random.Random(20240811)
    red = kfamily.reduced_map
    for _ in range(10):
        bindings = {p: small_binding(rng) for p in red.parameters}
        structure = deform_subbundle(red, bindings)
        for a, b in itertools.combinations_with_replacement(structure.generators, 2):
            assert pair(a, b).is_zero()


def test_separation_fails_on_unit_circle(ksub, kfamily):
    red = kfamily.reduced_map
    structure = deform_subbundle(red, bind_all(red, t11=1))
    assert not structure.separated
    with pytest.raises(DeformationError, match="not a generalized complex structure"):
        type_of(red, bind_all(red, t11=1))


def test_unbound_parameters_rejected(kfamily):
    red = kfamily.reduced_map
    with pytest.raises(DeformationError, match="unbound"):
        deform_subbundle(red, {})


# ---------------------------------------------------------------------------
# types and strata
# ---------------------------------------------------------------------------


def test_type_of_sample_points(kfamily):
    red = kfamily.reduced_map
    assert type_of(red, bind_all(red, t14=1)) == 0
    assert type_of(red, bind_all(red, t32=1)) == 2
    assert type_of(red, bind_all(red)) == 2


def test_type_invariant_under_generator_rescaling(kfamily):
    red = kfamily.reduced_map
    structure = deform_subbundle(red, bind_all(red, t14=1))
    rows = [[c.constant_value() for c in g.tangent] for g in structure.generators]
    scaled = [[GR(2) * c for c in rows[0]]] + rows[1:]
    assert mat_rank(scaled) == mat_rank(rows)


def test_classify_labels(kfamily):
    red = kfamily.reduced_map
    assert classify(red, bind_all(red, t14=1)) == (0, SYMPLECTIC)
    assert classify(red, bind_all(red, t32=1)) == (2, COMPLEX_NONCLASSICAL)
    assert classify(red, bind_all(red)) == (2, CLASSICAL_COMPLEX)
    assert classify(red, bind_all(red, t11=GR(Fraction(1, 8)))) == (2, CLASSICAL_COMPLEX)
    assert classify(
        red, bind_all(red, t32=GR(Fraction(1, 8)), t11=GR(Fraction(1, 8)))
    ) == (2, COMPLEX_NONCLASSICAL)


def test_classify_grounds_once(kfamily, monkeypatch):
    """One Gaussian-integer evaluation of the map's integer view per call: the
    entries and the tangent rows at the point come from it together."""
    red = kfamily.reduced_map
    calls = []
    evaluate = deformation._evaluate

    def counted(*args):
        calls.append(args[-1])
        return evaluate(*args)

    monkeypatch.setattr(deformation, "_evaluate", counted)
    point = bind_all(red, t32=GR(1, 1))
    assert classify(red, point) == (2, COMPLEX_NONCLASSICAL)
    assert calls == [point]


def test_classify_works_on_vectors(ksub, kfamily, monkeypatch):
    """A classify evaluates the point once, in Gaussian integers: it evaluates
    and substitutes no polynomial, builds no map and brackets no section;
    reading ``ground`` builds one map.  It decides separation from the
    closed-form pairing, so it pairs no vectors, inverts nothing and leaves
    isotropy and involutivity unread; reading them evaluates the deformed
    generators."""
    red = kfamily.reduced_map
    point = bind_all(red, t32=GR(1, 1), t11=GR(Fraction(1, 3)))
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(PolyScalar, "substitute", counted("substitute", PolyScalar.substitute))
    monkeypatch.setattr(PolyScalar, "evaluate", counted("evaluate", PolyScalar.evaluate))
    monkeypatch.setattr(
        DeformationMap, "from_entries",
        staticmethod(counted("from_entries", DeformationMap.from_entries)),
    )
    # each is rebound wherever it is imported by name
    for home, name in ((courant, "courant_bracket"), (courant, "doubled_pair"),
                       (courant, "pairings"), (frame, "bracket_vectors"), (scalar, "mat_inverse")):
        wrapped = counted(name, getattr(home, name))
        for module in (scalar, frame, courant, algebroid, deformation):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    for name in ("non_isotropic_pair", "involutive"):
        monkeypatch.setattr(Splitting, name, counted(name, getattr(Splitting, name)))

    assert classify(red, point) == (2, COMPLEX_NONCLASSICAL)
    assert classify(red, bind_all(red, t14=1)) == (0, SYMPLECTIC)
    assert not calls
    # positive controls: each patched name is the one the engine reaches
    structure = deform_subbundle(red, point)
    assert structure.ground is structure.ground
    assert calls == {"from_entries": 1}
    calls.clear()
    assert structure.involutive
    read = dict(calls)
    # isotropy and the closure routine pair whole lists, each in one product
    assert set(read) == {"evaluate", "pairings", "bracket_vectors", "non_isotropic_pair", "involutive"}
    assert structure.involutive and structure.isotropic and calls == read
    assert structure.splitting.duals is structure.splitting.duals
    assert calls["mat_inverse"] == 1
    # d_L of a 1-form on two sections brackets them once, as sections
    unit = lambda a: [GR_ONE if k == a else GR_ZERO for k in range(ksub.rank)]
    ksub.d_L_general(ExteriorForm.basis(ksub.lform_names, (0,)), [unit(0), unit(1)])
    red.substitute({})
    assert calls["courant_bracket"] == 1 and calls["substitute"] > 0


@pytest.mark.parametrize("name, ranks", [("abelian4_complex", 1), ("kodaira", 2)])
def test_reduce_family_ranks_the_full_span_only_after_a_drop(monkeypatch, name, ranks):
    """With no gauge direction dropped (abelian-4 has d1 = 0) the kept
    directions are all of them, so the two rank checks would see one matrix."""
    text = KODAIRA_WORKSPACE if name == "kodaira" else (CORPUS / f"{name}.ws").read_text()
    mc = build_workspace(parse_workspace(text)).mc
    mc.solution, mc.deformation.sub.cochains.gauge  # built before counting
    ranked = []

    def rank(matrix):
        ranked.append(matrix)
        return scalar.mat_rank(matrix)

    monkeypatch.setattr(deformation, "mat_rank", rank)
    family = deformation.reduce_family(mc)
    assert len(ranked) == ranks and bool(family.dropped_gauge) == (ranks == 2)


def _random_matrix(rng, symbols, rows, cols):
    return [
        [
            random_poly(rng, symbols, 2) if rng.random() < 0.7 else PolyScalar.zero()
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def test_minor_table_matches_permutation_expansion():
    rng = random.Random(8128)
    symbols = [t(f"m{k}") for k in range(3)]
    shapes = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 3), (3, 2), (3, 5), (5, 4)]
    for rows, cols in shapes:
        for variant in ("plain", "zero row", "zero column"):
            matrix = _random_matrix(rng, symbols, rows, cols)
            if variant == "zero row":
                matrix[rng.randrange(rows)] = [PolyScalar.zero()] * cols
            elif variant == "zero column":
                dead = rng.randrange(cols)
                for row in matrix:
                    row[dead] = PolyScalar.zero()
            table = {}
            for r in range(1, min(rows, cols) + 1):
                expected = []
                for rsel in itertools.combinations(range(rows), r):
                    for csel in itertools.combinations(range(cols), r):
                        det = permutation_det([[matrix[i][j] for j in csel] for i in rsel])
                        assert minor(matrix, rsel, csel, table) == det
                        norm = _normalize_minor(det)
                        if not det.is_zero() and norm not in expected:
                            expected.append(norm)
                # same minors, same order, read back from the filled table
                assert _nonzero_minors(matrix, r, table) == expected


def test_stratify_builds_one_minor_table_per_descent_node(kfamily, monkeypatch):
    reads = []
    nonzero_minors = deformation._nonzero_minors

    def counted(matrix, r, table):
        reads.append((matrix, table))
        return nonzero_minors(matrix, r, table)

    monkeypatch.setattr(deformation, "_nonzero_minors", counted)
    result = stratify_type(kfamily.reduced_map)

    # ``reads`` keeps every matrix and table alive, so their ids are distinct
    matrices = {id(m) for m, _ in reads}
    tables = {id(tb) for _, tb in reads}
    assert len(result.strata) == len(matrices) == len(tables) == 2
    assert len({(id(m), id(tb)) for m, tb in reads}) == 2


def test_stratify_kodaira(kfamily):
    red = kfamily.reduced_map
    result = stratify_type(red)
    assert result.generic_rank == 4
    assert result.refused is None
    assert len(result.strata) == 2
    generic, special = result.strata
    assert generic.zero == () and [str(p) for p in generic.nonzero] == ["t14"]
    assert generic.k == 0 and generic.label == SYMPLECTIC
    assert [str(p) for p in special.zero] == ["t14"] and special.nonzero == ()
    assert special.k == 2 and special.label == "complex type"
    assert special.substrata == (
        (CLASSICAL_COMPLEX, "t32 = 0"),
        (COMPLEX_NONCLASSICAL, "t32 != 0"),
    )


def test_stratify_zero_map(ksub):
    zero = DeformationMap.from_entries(ksub, [[PolyScalar.zero()] * 4 for _ in range(4)])
    result = stratify_type(zero)
    assert len(result.strata) == 1
    stratum = result.strata[0]
    assert stratum.k == 2 and stratum.zero == () and stratum.nonzero == ()
    assert stratum.substrata == ((CLASSICAL_COMPLEX, ""),)


def test_stratify_agrees_with_type_at_sample_points(kfamily):
    rng = random.Random(7)
    red = kfamily.reduced_map
    result = stratify_type(red)
    by_name = {p.name: p for p in red.parameters}
    for stratum in result.strata:
        for _ in range(5):
            bindings = {p: small_binding(rng) for p in red.parameters}
            for z in stratum.zero:
                (sym,) = [g for g in z.generators()]
                bindings[sym] = GR_ZERO
            ok = all(
                not nz.substitute(bindings).constant_value().is_zero()
                for nz in stratum.nonzero
            )
            if not ok:
                continue
            assert type_of(red, bindings) == stratum.k


def test_stratify_refuses_too_many_parameters(ksub, kmap):
    emap, _ = kmap
    extra = [parameter(f"q{k}") for k in range(9)]
    padded = DeformationMap(sub=emap.sub, entries=emap.entries, parameters=tuple(extra))
    result = stratify_type(padded)
    assert result.refused == "too many parameters"
    assert result.generic_rank == 4


def _brute_minimal_hitting_sets(supports):
    universe = sorted({s for sup in supports for s in sup}, key=lambda s: s.name)
    hitting = [
        frozenset(combo)
        for size in range(len(universe) + 1)
        for combo in itertools.combinations(universe, size)
        if all(set(combo) & set(sup) for sup in supports)
    ]
    return {h for h in hitting if not any(other < h for other in hitting)}


def test_minimal_hitting_sets_keep_larger_minimal_sets():
    a, b, c = t("a"), t("b"), t("c")
    found = _minimal_hitting_sets([(a, b), (a, c)])
    assert found == [(a,), (b, c)]


def test_minimal_hitting_sets_match_brute_force():
    rng = random.Random(2024)
    symbols = [t(f"s{k}") for k in range(6)]
    for _ in range(300):
        supports = [
            tuple(rng.sample(symbols, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 5))
        ]
        found = _minimal_hitting_sets(supports)
        assert len(found) == len(set(map(frozenset, found)))
        assert set(map(frozenset, found)) == _brute_minimal_hitting_sets(supports)


def test_solve_mc_system_staged_moves():
    a, b = parameter("a"), parameter("b")
    # pure power forces a = 0, after which the coupled constraint is linear
    system = [poly(a) * poly(a), poly(a) * poly(b) + poly(b)]
    solved, free, residual = solve_mc_system(system, [a, b])
    assert {s.name: str(v) for s, v in solved.items()} == {"a": "0", "b": "0"}
    assert not free and not residual


def test_solve_mc_system_reports_residual_verbatim():
    a, b = parameter("a"), parameter("b")
    quad = poly(a) * poly(b) + poly(a)
    solved, free, residual = solve_mc_system([quad], [a, b])
    assert not solved
    assert residual == [quad]
    assert free == [a, b]


def test_involutivity_agrees_with_mc_zero_set(kmap):
    # dual-route check: integrability of the deformed span is decided by
    # Courant brackets and rank membership alone, with no reference to d_L or
    # the Schouten bracket, and must match the residual's vanishing exactly
    rng = random.Random(1729)
    emap, _ = kmap
    for trial in range(12):
        bindings = {p: small_binding(rng) for p in emap.parameters}
        if trial % 3 == 0:
            bindings[t("t12")] = GR_ZERO
        bound = emap.substitute(
            {p: PolyScalar.const(v) for p, v in bindings.items()}
        )
        residual_zero = mc_residual(bound).is_trivial()
        structure = deform_subbundle(emap, bindings)
        assert structure.separated
        assert structure.involutive == residual_zero
        t12_zero = bindings[t("t12")].is_zero()
        assert residual_zero == t12_zero


def test_involutive_at_a_separated_point_ranks_the_pairing_once(monkeypatch, kfamily):
    """``deform_subbundle`` ranks P(E) for separation, as the Gaussian-integer
    matrix ``integer_pairing``; reading ``involutive`` at a separated point
    takes independence from that rank, not a second one.  Every rank, that
    of ``mat_rank`` too, goes through ``scalar.integer_rank``."""
    ranked = []
    integer_rank = scalar.integer_rank

    def rank(rows, width):
        rows = list(rows)
        ranked.append([dict(row) for row in rows])
        return integer_rank(rows, width)

    for module in (scalar, deformation):
        monkeypatch.setattr(module, "integer_rank", rank)
    red = kfamily.reduced_map
    structure = deform_subbundle(red, bind_all(red, t32=1))
    assert structure.separated and structure.involutive
    assert len(ranked) == 1 and ranked[0] == structure.integer_pairing
    assert len(structure.pairing) == len(structure.pairing[0]) == 4
    # positive control: a rank of the rational pairing reaches the name
    assert scalar.mat_rank(structure.pairing) == 4 and len(ranked) == 2


def test_gauge_reduction_of_random_closed_kodaira_forms():
    # every closed invariant 2-form on the Kodaira algebra has no U*^V* term;
    # each nondegenerate one reduces to b2 = 4 parameters off the gauge span
    g, _ = kodaira_preset()
    slots = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    rng = random.Random(41)
    done = 0
    while done < 40:
        values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in slots]
        w = ExteriorForm.build(g.dual_names, {ij: GR(v) for ij, v in zip(slots, values)})
        xu, xv, yu, yv = values[1], values[2], values[3], values[4]
        if xv * yu == xu * yv:
            continue
        _, sub = build_symplectic_eigenbundle(g, w)
        emap, _ = constrain_map(sub)
        family = reduce_family(mc_residual(emap))
        assert len(family.free) == 4
        assert len(family.dropped_gauge) == len(gauge_image(sub)) == 1
        done += 1
