"""Deformations of an invariant maximal isotropic subbundle.

The deformation parameter space is carved out of a fresh square matrix of
parameters by the pairing-compatibility constraint, the Maurer-Cartan system
is assembled from the algebroid differential and the Schouten bracket, gauge
directions (the image of d_L on degree one) are quotiented out by coordinate
dropping, deformed subbundles are built at ground parameter values, and the
type of each deformed structure is classified by exact rank computations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .algebroid import InternalConsistencyError, IsotropicSubbundle, Splitting
from .courant import GenSection
from .frame import ExteriorForm
from .scalar import (
    GR_HALF,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Monomial,
    PolyScalar,
    Symbol,
    mat_rank,
    mat_rref,
    minor,
    parameter,
    poly,
    solve_linear,
)


class DeformationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Deformation maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformationMap:
    """Map eps: L -> L-bar with its transported 2-form over L*.

    ``entries[i][j]`` is the coefficient of the i-th conjugate generator in
    the image of the j-th generator.  The transport convention is fixed once:
    the associated bilinear form pairs the first slot against the image of the
    second, eps~(x, y) = 2<x, eps(y)>.
    """

    sub: IsotropicSubbundle
    entries: tuple[tuple[PolyScalar, ...], ...]
    form: ExteriorForm
    parameters: tuple[Symbol, ...]

    @staticmethod
    def from_entries(
        sub: IsotropicSubbundle,
        entries: Sequence[Sequence[PolyScalar]],
        parameters: Sequence[Symbol] = (),
    ) -> "DeformationMap":
        n = sub.rank
        entries = tuple(tuple(poly(c) for c in row) for row in entries)
        if len(entries) != n or any(len(r) != n for r in entries):
            raise DeformationError("entry matrix has wrong shape")
        gram = _gram(sub, entries)
        for j in range(n):
            for k in range(j, n):
                if not (gram[j][k] + gram[k][j]).is_zero():
                    raise DeformationError(
                        "pairing compatibility fails at "
                        f"({sub.names[j]}, {sub.names[k]})"
                    )
        data = {
            (j, k): gram[j][k] for j in range(n) for k in range(j + 1, n)
        }
        form = ExteriorForm.build(sub.lform_names, data)
        return DeformationMap(sub, entries, form, tuple(parameters))

    @staticmethod
    def from_form(sub: IsotropicSubbundle, form: ExteriorForm) -> "DeformationMap":
        """Recover the map from a degree-2 element of the exterior square of L*."""
        if form.degrees() not in (set(), {2}):
            raise DeformationError("deformation form must be homogeneous of degree 2")
        # eps(g_k) = -sum_a phi_a h_a with phi = form(g_k, .), and each
        # h_a = sum_i P^-1[i][a] conj(g_i) is read off on the conjugates
        n = sub.rank
        entries = [[PolyScalar.zero()] * n for _ in range(n)]
        for k in range(n):
            phi = form.interior([PolyScalar.const(GR_ONE if a == k else GR_ZERO) for a in range(n)])
            coeffs = [(a, phi.coefficient((a,))) for a in range(n)]
            for i, row in enumerate(sub.splitting.inverse):
                entries[i][k] = -sum((c.scale(row[a]) for a, c in coeffs if c), PolyScalar.zero())
        symbols = {g for _, c in form.terms for g in c.generators() if isinstance(g, Symbol)}
        params = sorted(symbols, key=lambda s: s.sort_key())
        made = DeformationMap.from_entries(sub, entries, params)
        if made.form != form:
            raise InternalConsistencyError("form transport round-trip failed")
        return made

    def substitute(self, bindings: Mapping[Symbol, object]) -> "DeformationMap":
        entries = tuple(
            tuple(c.substitute(bindings) for c in row) for row in self.entries
        )
        remaining = tuple(p for p in self.parameters if p not in bindings)
        return DeformationMap.from_entries(self.sub, entries, remaining)

    def image_section(self, j: int) -> GenSection:
        """eps applied to the j-th generator, as an ambient section."""
        out = GenSection.zero(self.sub.frame)
        for i, conj in enumerate(self.sub.splitting.conjugates):
            c = self.entries[i][j]
            if not c.is_zero():
                out = out + conj.scale(c)
        return out

    def deformed_generator(self, j: int) -> GenSection:
        return self.sub.generators[j] + self.image_section(j)

    def mixed_block_entries(self) -> list[PolyScalar]:
        """Entries mixing tangent-type and cotangent-type generators.

        All of them vanish exactly when the deformation stays a classical
        deformation of the underlying complex structure.  Needs the
        tangent/cotangent split of the subbundle.
        """
        if self.sub.split is None:
            raise DeformationError("subbundle carries no tangent/cotangent split")
        tangent, cotangent = self.sub.split
        out = []
        for i in cotangent:
            for j in tangent:
                out.append(self.entries[i][j])
        for i in tangent:
            for j in cotangent:
                out.append(self.entries[i][j])
        return out


def _gram(sub: IsotropicSubbundle, entries) -> list[list[PolyScalar]]:
    """``[j][k]`` is 2<g_j, eps(g_k)> for the map with these entries."""
    pair2 = sub.splitting.pairing
    n = sub.rank
    return [
        [
            sum((entries[i][k].scale(pair2[j][i]) for i in range(n)), PolyScalar.zero())
            for k in range(n)
        ]
        for j in range(n)
    ]


@dataclass
class ConstraintReport:
    eliminated: dict[Symbol, PolyScalar]
    free: list[Symbol]


def fresh_parameter_matrix(
    sub: IsotropicSubbundle, prefix: str = "t"
) -> list[list[Symbol]]:
    n = sub.rank
    sep = "" if n <= 9 else "_"
    return [
        [parameter(f"{prefix}{i + 1}{sep}{j + 1}") for j in range(n)]
        for i in range(n)
    ]


def constrain_map(
    sub: IsotropicSubbundle, raw: Optional[Sequence[Sequence[Symbol]]] = None
) -> tuple[DeformationMap, ConstraintReport]:
    """Impose the pairing-compatibility constraint on a fresh parameter matrix.

    Returns the constrained map together with the eliminated parameters and
    the surviving free ones.
    """
    if raw is None:
        raw = fresh_parameter_matrix(sub)
    n = sub.rank
    symbols = [s for row in raw for s in row]
    if len(set(symbols)) != n * n:
        raise DeformationError("raw parameters must be distinct fresh symbols")
    # 2<g_j, eps(g_k)> + 2<g_k, eps(g_j)> = 0 for every pair j <= k
    gram = _gram(sub, [[PolyScalar.of(s) for s in row] for row in raw])
    system = [gram[j][k] + gram[k][j] for j in range(n) for k in range(j, n)]
    solution = solve_linear(system, symbols)
    if solution.residual or not solution.consistent:
        raise InternalConsistencyError("compatibility constraint is not linear")
    entries = [
        [PolyScalar.of(raw[i][j]).substitute(solution.bindings) for j in range(n)]
        for i in range(n)
    ]
    emap = DeformationMap.from_entries(sub, entries, tuple(solution.free))
    return emap, ConstraintReport(eliminated=solution.bindings, free=solution.free)


# ---------------------------------------------------------------------------
# Maurer-Cartan system
# ---------------------------------------------------------------------------


@dataclass
class MCSystem:
    """Coefficients of d_L(eps~) + [eps~, eps~]/2 on the degree-3 basis."""

    deformation: DeformationMap
    residual_form: ExteriorForm
    constraints: list[tuple[tuple[int, int, int], PolyScalar]]

    def nonzero(self) -> list[tuple[tuple[int, int, int], PolyScalar]]:
        return [(idx, c) for idx, c in self.constraints if not c.is_zero()]

    def is_trivial(self) -> bool:
        return not self.nonzero()

    @cached_property
    def solution(self) -> tuple[dict[Symbol, PolyScalar], list[Symbol], list[PolyScalar]]:
        """``solve_mc_system`` on the nonzero constraints, computed once."""
        return solve_mc_system([c for _, c in self.nonzero()], self.deformation.parameters)


def mc_residual(e: DeformationMap) -> MCSystem:
    sub = e.sub
    residual = sub.d_L_invariant(e.form) + sub.schouten_bracket(e.form, e.form).scale(
        GR_HALF
    )
    constraints = [
        (idx, residual.coefficient(idx))
        for idx in itertools.combinations(range(sub.rank), 3)
    ]
    return MCSystem(
        deformation=e,
        residual_form=residual,
        constraints=constraints,
    )


def gauge_image(sub: IsotropicSubbundle) -> list[ExteriorForm]:
    """Echelon basis of the image of d_L from degree 1 to degree 2."""
    slots = list(itertools.combinations(range(sub.rank), 2))
    vectors = []
    for a in range(sub.rank):
        df = sub.d_L_invariant(ExteriorForm.basis(sub.lform_names, (a,)))
        vectors.append([df.coefficient(idx).constant_value() for idx in slots])
    rows, pivots = mat_rref(vectors)
    basis = []
    for r in range(len(pivots)):
        data = {slots[c]: PolyScalar.const(rows[r][c]) for c in range(len(slots))}
        basis.append(ExteriorForm.build(sub.lform_names, data))
    return basis


# ---------------------------------------------------------------------------
# Gauge reduction
# ---------------------------------------------------------------------------


@dataclass
class DeformationFamily:
    """Solved Maurer-Cartan family after gauge reduction."""

    deformation: DeformationMap
    solved: dict[Symbol, PolyScalar]
    gauge_basis: list[ExteriorForm]
    dropped_gauge: list[Symbol]
    free: list[Symbol]
    reduced_basis: list[ExteriorForm]
    reduced_map: DeformationMap


def _direction(form: ExteriorForm, param: Symbol) -> ExteriorForm:
    """Derivative of a parameter-linear form along one parameter."""
    mono = Monomial.of(param)
    data = {}
    for idx, c in form.terms:
        data[idx] = PolyScalar.const(c.coefficient(mono))
    return ExteriorForm.build(form.names, data)


def _form_vector(form: ExteriorForm, slots) -> list[GaussianRational]:
    return [form.coefficient(idx).constant_value() for idx in slots]


def solve_mc_system(
    system: Sequence[PolyScalar], unknowns: Sequence[Symbol]
) -> tuple[dict[Symbol, PolyScalar], list[Symbol], list[PolyScalar]]:
    """Exact solution of the constraint system, without variety reasoning.

    Alternates two certified moves until nothing changes: Gaussian elimination
    on the constraints that are linear in the remaining unknowns, and the
    radical of a single-term constraint that is a pure power of one unknown
    (c * t^k = 0 forces t = 0 exactly).  Constraints that survive both moves
    are returned verbatim, unsolved.
    """
    bindings: dict[Symbol, PolyScalar] = {}
    work = [p for p in system if not p.is_zero()]
    while work:
        remaining = [u for u in unknowns if u not in bindings]
        solution = solve_linear(work, remaining)
        if not solution.consistent:
            raise DeformationError("empty solution set")
        new: dict[Symbol, PolyScalar] = dict(solution.bindings)
        if not new:
            for p in solution.residual:
                if len(p.terms) != 1:
                    continue
                gens = set(p.terms[0][0].generators())
                if len(gens) == 1:
                    (g,) = gens
                    if isinstance(g, Symbol) and g in remaining:
                        new[g] = PolyScalar.zero()
                        break
        if not new:
            return bindings, remaining, solution.residual
        bindings = {k: v.substitute(new) for k, v in bindings.items()}
        bindings.update(new)
        work = [p.substitute(new) for p in work]
        work = [p for p in work if not p.is_zero()]
    free = [u for u in unknowns if u not in bindings]
    return bindings, free, []


def reduce_family(
    mc: MCSystem, gauge: Optional[list[ExteriorForm]] = None
) -> DeformationFamily:
    """Solve the Maurer-Cartan system and quotient by the gauge directions.

    The gauge quotient drops, per gauge basis element in echelon order, the
    first-named kept solution coordinate whose direction has nonzero weight
    when that element is written over the gauge elements already placed and
    the kept directions.  ``gauge`` is the subbundle's ``gauge_image`` when
    the caller already has it; otherwise it is computed here.
    """
    e = mc.deformation
    sub = e.sub
    solved, free_syms, residual = mc.solution
    if residual:
        rendered = "; ".join(str(p) for p in residual)
        raise DeformationError(f"nonlinear constraints block reduction: {rendered}")

    solved_map = e.substitute(solved)
    slots = list(itertools.combinations(range(sub.rank), 2))

    directions = {p: _direction(solved_map.form, p) for p in free_syms}
    if gauge is None:
        gauge = gauge_image(sub)

    # Steinitz exchange: each gauge element replaces a kept direction of
    # nonzero weight in its expansion over the placed gauge elements and the
    # kept directions, so these stay a basis of the same span; the expansion
    # is the last column of the rref of [basis | element], all zero when the
    # element lies outside the span
    dropped: list[Symbol] = []
    kept = sorted(free_syms, key=lambda s: s.name)
    placed: list[list[GaussianRational]] = []
    for g in gauge:
        gvec = _form_vector(g, slots)
        basis = placed + [_form_vector(directions[p], slots) for p in kept]
        rows, pivots = mat_rref(list(zip(*basis, gvec)))
        weights = {c: row[-1] for row, c in zip(rows, pivots)}
        hit = [p for a, p in enumerate(kept, len(placed)) if weights.get(a)]
        if not hit:
            raise DeformationError(
                f"gauge direction {g} not expressible in solution coordinates"
            )
        kept.remove(hit[0])
        dropped.append(hit[0])
        placed.append(gvec)

    def slot_order_key(p: Symbol):
        vec = directions[p]
        for rank_idx, idx in enumerate(slots):
            if not vec.coefficient(idx).is_zero():
                return rank_idx
        return len(slots)

    free = sorted((p for p in free_syms if p not in dropped), key=slot_order_key)
    reduced_map = solved_map.substitute({p: PolyScalar.zero() for p in dropped})
    reduced_basis = [directions[p] for p in free]

    # the reduced directions and the gauge span must recover the full
    # solution tangent space and intersect trivially
    all_vecs = [_form_vector(directions[p], slots) for p in free_syms]
    red_vecs = [_form_vector(f, slots) for f in reduced_basis]
    gauge_vecs = [_form_vector(g, slots) for g in gauge]
    full_rank = mat_rank(all_vecs + gauge_vecs)
    if mat_rank(red_vecs + gauge_vecs) != len(red_vecs) + len(gauge_vecs):
        raise InternalConsistencyError("reduced family meets the gauge span")
    if full_rank != len(red_vecs) + len(gauge_vecs):
        raise InternalConsistencyError("reduced family plus gauge span is too small")

    if not mc_residual(reduced_map).is_trivial():
        raise InternalConsistencyError("reduced family fails its own constraint system")

    return DeformationFamily(
        deformation=e,
        solved=solved,
        gauge_basis=gauge,
        dropped_gauge=dropped,
        free=free,
        reduced_basis=reduced_basis,
        reduced_map=reduced_map,
    )


# ---------------------------------------------------------------------------
# Deformed subbundles and types
# ---------------------------------------------------------------------------


@dataclass
class DeformedStructure:
    generators: list[GenSection]
    isotropic: bool
    involutive: bool
    separated: bool
    ground: DeformationMap  # the map at the ground parameter values
    splitting: Splitting = field(compare=False, repr=False)


def _ground(e: DeformationMap, bindings: Mapping[Symbol, GaussianRational]):
    missing = [p for p in e.parameters if p not in bindings]
    if missing:
        names = ", ".join(p.name for p in missing)
        raise DeformationError(f"unbound parameters: {names}")
    unknown = [s for s in bindings if s not in e.parameters]
    if unknown:
        names = ", ".join(s.name for s in unknown)
        raise DeformationError(f"bindings for unknown parameters: {names}")
    return e.substitute({p: PolyScalar.const(v) for p, v in bindings.items()})


def deform_subbundle(
    e: DeformationMap, bindings: Mapping[Symbol, GaussianRational]
) -> DeformedStructure:
    """Generators (1 + eps)(g) at ground parameter values, with verdicts.

    Separation means the deformed span still intersects its conjugate only in
    zero, which is the exact invertibility condition for the deformed
    structure to be generalized complex at these values.  The generators of a
    compatible map are isotropic, and where independent they span a maximal
    isotropic L = L^perp, so involutivity is decided even without separation.
    """
    ground = _ground(e, bindings)
    gens = [ground.deformed_generator(j) for j in range(e.sub.rank)]
    splitting = Splitting(gens)
    isotropic = splitting.non_isotropic_pair() is None
    involutive = isotropic and splitting.independent() and splitting.involutive()
    return DeformedStructure(
        generators=gens,
        isotropic=isotropic,
        involutive=involutive,
        separated=splitting.separated,
        ground=ground,
        splitting=splitting,
    )


def _structure_type(structure: DeformedStructure) -> int:
    if not structure.separated:
        raise DeformationError(
            "not a generalized complex structure at these parameter values"
        )
    return structure.splitting.type_index()


def type_of(e: DeformationMap, bindings: Mapping[Symbol, GaussianRational]) -> int:
    """Type k: corank of the tangent projection of the deformed generators."""
    return _structure_type(deform_subbundle(e, bindings))


SYMPLECTIC = "symplectic type"
COMPLEX = "complex type"
CLASSICAL_COMPLEX = "classical complex"
COMPLEX_NONCLASSICAL = "complex type, non-classical"
OTHER = "other"


def _label(k: int, dim: int) -> str:
    """The stratum label of type k on a frame of dimension ``dim``."""
    if k == 0:
        return SYMPLECTIC
    if k == dim // 2:
        return COMPLEX
    return OTHER


def classify(
    e: DeformationMap, bindings: Mapping[Symbol, GaussianRational]
) -> tuple[int, str]:
    """Type together with its stratum label at ground parameter values."""
    structure = deform_subbundle(e, bindings)
    k = _structure_type(structure)
    label = _label(k, e.sub.frame.dim)
    if label == COMPLEX and e.sub.split is not None:
        mixed = structure.ground.mixed_block_entries()
        return k, CLASSICAL_COMPLEX if all(c.is_zero() for c in mixed) else COMPLEX_NONCLASSICAL
    return k, label


# ---------------------------------------------------------------------------
# Symbolic type stratification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeStratum:
    """Parameter conditions selecting one type value.

    All polynomials in ``zero`` vanish and at least one in ``nonzero`` does
    not; an empty ``nonzero`` list means no further genericity is needed.
    """

    zero: tuple[PolyScalar, ...]
    nonzero: tuple[PolyScalar, ...]
    k: int
    label: str
    substrata: tuple[tuple[str, str], ...] = ()


@dataclass
class Stratification:
    strata: list[TypeStratum]
    generic_rank: int
    refused: Optional[str] = None


def _normalize_minor(p: PolyScalar) -> PolyScalar:
    """Scale to leading coefficient one; reduce a monomial to its radical."""
    if p.is_zero():
        return p
    lead = p.terms[0][1]
    p = p.scale(GR_ONE / lead)
    if len(p.terms) == 1:
        mono = p.terms[0][0]
        gens = sorted(set(mono.generators()), key=lambda g: g.sort_key())
        return PolyScalar.from_dict({Monomial.of(*gens): GR_ONE})
    return p


def _projection_matrix(e: DeformationMap) -> list[list[PolyScalar]]:
    return [
        list(e.deformed_generator(j).tangent) for j in range(e.sub.rank)
    ]


def _distinct_normalized(polys) -> list[PolyScalar]:
    """The distinct normalized forms of the nonzero ``polys``, in first-seen order."""
    return list(dict.fromkeys(_normalize_minor(p) for p in polys if not p.is_zero()))


def _nonzero_minors(matrix, r: int, table: dict) -> list[PolyScalar]:
    """Distinct normalized nonzero r x r minors, read from ``table``."""
    return _distinct_normalized(
        minor(matrix, rsel, csel, table)
        for rsel in itertools.combinations(range(len(matrix)), r)
        for csel in itertools.combinations(range(len(matrix[0])), r)
    )


def _rank_and_minors(e: DeformationMap) -> tuple[int, list[PolyScalar]]:
    """Generic rank of the tangent projection and its nonzero top minors.

    One minor table serves every size tried, from the largest down.
    """
    matrix = _projection_matrix(e)
    table: dict = {}
    for r in range(min(len(matrix), len(matrix[0])), 0, -1):
        minors = _nonzero_minors(matrix, r, table)
        if minors:
            return r, minors
    return 0, []


def stratify_type(e: DeformationMap) -> Stratification:
    """Enumerate type strata of a parameter family by exact minor vanishing.

    Each descent node finds the rank of its tangent projection and the
    nonzero minors of that size in one pass over a minor table of its own:
    every minor is a Laplace expansion along its last row into minors of the
    rows before it, each computed once and shared across all sizes; the
    root's rank is the reported generic rank.  Rank boundaries whose minors
    are monomials are descended exactly through minimal hitting sets of
    their variable supports; a non-monomial boundary stops the descent with
    an explicit refusal note, and more than eight parameters refuse
    stratification outright (the generic rank is still reported).
    """
    dim = e.sub.frame.dim
    grank, root_minors = _rank_and_minors(e)
    if len(e.parameters) > 8:
        return Stratification(strata=[], generic_rank=grank, refused="too many parameters")

    strata: dict[frozenset[str], TypeStratum] = {}
    refusal: list[str] = []

    def substrata_for(current: DeformationMap, k: int):
        if k != dim // 2 or current.sub.split is None:
            return ()
        mixed = _distinct_normalized(current.mixed_block_entries())
        if not mixed:
            return ((CLASSICAL_COMPLEX, ""),)
        conditions = ", ".join(f"{m} = 0" for m in mixed)
        anti = ", ".join(f"{m} != 0" for m in mixed)
        return (
            (CLASSICAL_COMPLEX, conditions),
            (COMPLEX_NONCLASSICAL, anti),
        )

    def key_of(zeroed: tuple[Symbol, ...]) -> frozenset[str]:
        return frozenset(s.name for s in zeroed)

    def descend(current: DeformationMap, zeroed: tuple[Symbol, ...], r: int, minors):
        has_constant = any(p.is_constant() for p in minors)
        nonzero = () if has_constant else tuple(minors)
        k = dim - r
        strata[key_of(zeroed)] = TypeStratum(
            zero=tuple(PolyScalar.of(s) for s in zeroed),
            nonzero=nonzero,
            k=k,
            label=_label(k, dim),
            substrata=substrata_for(current, k),
        )
        if has_constant or r == 0:
            return
        supports = []
        for p in minors:
            if len(p.terms) != 1:
                refusal.append(f"non-monomial rank boundary {p}")
                return
            supports.append(
                tuple(
                    g
                    for g in p.terms[0][0].generators()
                    if isinstance(g, Symbol)
                )
            )
        for hitting in _minimal_hitting_sets(supports):
            below = zeroed + tuple(hitting)
            if key_of(below) in strata:
                continue
            child = current.substitute({s: PolyScalar.zero() for s in hitting})
            descend(child, below, *_rank_and_minors(child))

    descend(e, (), grank, root_minors)
    ordered = sorted(
        strata.values(), key=lambda s: (len(s.zero), [str(p) for p in s.zero])
    )
    return Stratification(
        strata=ordered,
        generic_rank=grank,
        refused="; ".join(refusal) if refusal else None,
    )


def _minimal_hitting_sets(supports: Sequence[tuple[Symbol, ...]]):
    """All minimal sets of symbols meeting every support (exact, small inputs).

    Sets are tried by increasing size, so a hitting set is minimal exactly
    when it contains none found before.  A minimal set needs, for each of its
    symbols, a support met by that symbol alone, so none is larger than the
    number of supports.
    """
    universe = sorted({s for sup in supports for s in sup}, key=lambda s: s.name)
    sets = [set(sup) for sup in supports]
    found: list[tuple[Symbol, ...]] = []
    for size in range(1, min(len(universe), len(sets)) + 1):
        for combo in itertools.combinations(universe, size):
            cs = set(combo)
            if all(cs & sup for sup in sets) and not any(cs.issuperset(f) for f in found):
                found.append(combo)
    return found
