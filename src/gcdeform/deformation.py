"""Deformations of an invariant maximal isotropic subbundle.

A deformation map is its entries; its transported 2-form (A t, A constant, on
the pencil that pairing compatibility carves out of a fresh parameter matrix),
the form's constant columns, the deformed generators and their tangent rows
are views built on first read.  On the subbundle's constant complex, the
Maurer-Cartan system is d[2] A t + 1/2 sum t_p t_q S(A_p, A_q) (S the
Schouten tensor, d[p] the sparse d_L matrix on p-forms), and the gauge
directions, the rref of d[1], are quotiented out by coordinate dropping.
A map compiles once into its ground plan ``integer``: entries and tangent
rows as Gaussian-integer terms naming parameters by position, the pairing
numerator and the mixed-block pairs.  At a ground point, read as values in
parameter order, the deformed pairing in closed form and the tangent rows
classify a deformed structure by integer ranks.
"""

from __future__ import annotations

import itertools
import random
from functools import cache, cached_property
from math import lcm
from typing import Iterator, Mapping, Optional, Sequence

from .algebroid import InternalConsistencyError, IsotropicSubbundle, Splitting
from .courant import GenSection
from .frame import ExteriorForm
from .scalar import (
    GR_HALF,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PARAMETER,
    Matrix,
    Monomial,
    PolyLike,
    PolyScalar,
    Row,
    ScalarError,
    Symbol,
    _bindings,
    _eliminate,
    _integer_row,
    _over,
    bound_terms,
    integer_rank,
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


class DeformationMap:
    """Map eps: L -> L-bar, stored as its entries.

    ``entries[i][j]`` is the coefficient of the i-th conjugate generator in
    the image of the j-th generator.  Everything else is a view of the
    entries, computed on first read and kept: the transported 2-form
    ``form``, its constant ``columns``, the deformed generators ``vectors``,
    their tangent rows ``projection`` and the ground plan ``integer``.  The
    transport convention is fixed once: the associated bilinear form pairs the
    first slot against the image of the second, eps~(x, y) = 2<x, eps(y)>.
    """

    def __init__(
        self,
        sub: IsotropicSubbundle,
        entries: tuple[tuple[PolyScalar, ...], ...],
        parameters: tuple[Symbol, ...],
    ) -> None:
        self.sub = sub
        self.entries = entries
        self.parameters = parameters

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DeformationMap:
            return NotImplemented
        return (self.sub, self.entries, self.parameters) == (other.sub, other.entries, other.parameters)

    def __hash__(self) -> int:
        return hash((self.sub, self.entries, self.parameters))

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
        cells = [c for row in entries for c in row][::-1]  # by ``_compatibility_rows`` column
        for (j, k), row in _compatibility_rows(sub):
            if sum((cells[c].scale(_over(a, b, 1, 0)) for c, (a, b) in row.items()), PolyScalar.zero()):
                raise DeformationError(f"pairing compatibility fails at ({sub.names[j]}, {sub.names[k]})")
        return DeformationMap(sub, entries, tuple(parameters))

    def substitute(self, bindings: Mapping[Symbol, PolyLike]) -> "DeformationMap":
        """Bind parameters in the entries, checked once.  Substitution is a ring
        homomorphism, so the entries stay compatible and nothing is re-proved."""
        values = bound_terms(bindings)
        entries = tuple(tuple(c.substituted(values) for c in row) for row in self.entries)
        remaining = tuple(p for p in self.parameters if p not in bindings)
        return DeformationMap(self.sub, entries, remaining)

    @cached_property
    def form(self) -> ExteriorForm:
        """eps~ = sum_{j<k} 2<g_j, eps(g_k)> e*_j ^ e*_k.  The pairing is constant,
        so on a pencil linear in parameters t the form is A t, A a constant matrix."""
        pairs = itertools.combinations(range(self.sub.rank), 2)
        data = {(j, k): PolyScalar.from_dict(_pairing(self.sub, self.entries, j, k)) for j, k in pairs}
        return ExteriorForm.build(self.sub.lform_names, data)

    @cached_property
    def columns(self) -> dict[Monomial, dict[int, GaussianRational]]:
        """The form as sum_m m F_m over the monomials m of its coefficients, each
        F_m a constant vector {position in ``sub.cochains.slots[2]``: nonzero
        value}; on a pencil, the F_t are the columns of A."""
        columns: dict[Monomial, dict[int, GaussianRational]] = {}
        for s, (j, k) in enumerate(self.sub.cochains.slots[2]):
            for m, v in _pairing(self.sub, self.entries, j, k).items():
                if v:
                    columns.setdefault(m, {})[s] = v
        return columns

    @cached_property
    def vectors(self) -> list[list[PolyScalar]]:
        """The deformed generators g_j + sum_i eps[i][j] conj(g_i), on all 2n slots."""
        return self._deformed(2 * self.sub.frame.dim)

    @cached_property
    def projection(self) -> list[list[PolyScalar]]:
        """The tangent rows of ``vectors``."""
        return self._deformed(self.sub.frame.dim)

    def _deformed(self, size: int) -> list[list[PolyScalar]]:
        """The first ``size`` slots of the deformed generators."""
        splitting = self.sub.splitting
        rows = [[PolyScalar.const(x) for x in g[:size]] for g in splitting.vectors]
        for eps, conj in zip(self.entries, splitting.conj_vectors):
            for j, c in enumerate(eps):
                if c:
                    rows[j] = [x + c.scale(w) if w._a or w._b else x for x, w in zip(rows[j], conj[:size])]
        return rows

    @cached_property
    def integer(self) -> tuple[int, int, list, list, Optional[list]]:
        """The ground plan, compiled once: the ``_integer_view`` (C, deg, rows)
        of the entries and then the ``projection`` rows, C clearing P too, with
        generators named by position in ``parameters``; Pn = C P as rows
        [(i, re, im)]; and the ``_mixed_block`` pairs, None without a split."""
        p, rows = self.sub.splitting.pairing_rows, [*self.entries, *self.projection]
        den, deg, rows = _integer_view(rows, self.parameters, [x._d for r in p for _, x in r])
        pn = [[(i, x._a * den // x._d, x._b * den // x._d) for i, x in row] for row in p]
        return den, deg, rows, pn, _mixed_block(self.sub) if self.sub.split is not None else None

    def mixed_block_entries(self) -> list[PolyScalar]:
        """Entries mixing tangent-type and cotangent-type generators.

        All of them vanish exactly when the deformation stays a classical
        deformation of the underlying complex structure.  Needs the
        tangent/cotangent split of the subbundle.
        """
        return [self.entries[i][j] for i, j in _mixed_block(self.sub)]


def _mixed_block(sub: IsotropicSubbundle) -> list[tuple[int, int]]:
    """Indices (i, j) of the entries mixing tangent- and cotangent-type generators."""
    if sub.split is None:
        raise DeformationError("subbundle carries no tangent/cotangent split")
    tangent, cotangent = sub.split
    return list(itertools.product(cotangent, tangent)) + list(itertools.product(tangent, cotangent))


def _integer_view(rows, symbols: Sequence[Symbol], dens=()) -> tuple[int, int, list]:
    """Polynomial rows as (C, deg, rows): C the lcm of ``dens`` and of the
    denominators, deg the top degree, a row its nonzero entries (column, terms)
    of C times them, a term (re, im, positions): deg - degree times
    len(symbols), then the position in ``symbols`` of each generator, repeated."""
    terms = [(m, c) for row in rows for p in row for m, c in p.terms]
    den, at = lcm(*dens, *(c._d for _, c in terms)), {s: k for k, s in enumerate(symbols)}
    deg, top = max((m.degree() for m, _ in terms), default=0), len(symbols)
    pad = lambda m: sum(((at[g],) * e for g, e in m.powers), (top,) * (deg - m.degree()))
    try:
        return den, deg, [[(k, [(c._a * den // c._d, c._b * den // c._d, pad(m)) for m, c in p.terms])
                           for k, p in enumerate(row) if p] for row in rows]
    except KeyError as missing:
        raise ScalarError(f"no value for {missing.args[0]}") from None


def _evaluate(den: int, deg: int, rows, values: Sequence[GaussianRational]) -> tuple[int, list[Row]]:
    """F = C D^deg and F times the ``_integer_view`` rows at the point whose
    coordinates are ``values`` by position, as sparse Gaussian-integer rows, D
    the lcm of the values' denominators: with x = D t in Z[i], and D at the
    position after the last, a term c m of degree k is C c m(x) D^(deg - k)."""
    d = lcm(*(v._d for v in values))
    x = [(v._a * d // v._d, v._b * d // v._d) for v in values] + [(d, 0)]
    out = []
    for row in rows:
        out.append(point := {})
        for k, terms in row:
            re = im = 0
            for a, b, gens in terms:
                for g in gens:
                    xr, xi = x[g]
                    a, b = a * xr - b * xi, a * xi + b * xr
                re, im = re + a, im + b
            if re or im:
                point[k] = (re, im)
    return den * d**deg, out


def _pairing(sub: IsotropicSubbundle, entries, j: int, k: int) -> dict:
    """The terms of 2<g_j, eps(g_k)> = sum_i P[j][i] entries[i][k] by monomial,
    over the nonzero P[j][i] only."""
    acc = {}
    for i, p in sub.splitting.pairing_rows[j]:
        for m, c in entries[i][k].terms:
            acc[m] = acc.get(m, GR_ZERO) + p * c
    return acc


class ConstraintReport:
    def __init__(self, eliminated: dict[Symbol, PolyScalar], free: list[Symbol]) -> None:
        self.eliminated = eliminated
        self.free = free


def _compatibility_rows(sub: IsotropicSubbundle) -> Iterator[tuple[tuple[int, int], Row]]:
    """For each j <= k, 2<g_j, eps(g_k)> + 2<g_k, eps(g_j)> as an ``_integer_row``
    on the entries, E[i][k] at column n^2 - 1 - (n i + k), as ``solve_linear``
    numbers the entries listed row by row; a compatible map zeroes every row."""
    p, n = sub.splitting.pairing_rows, sub.rank
    for j, k in itertools.combinations_with_replacement(range(n), 2):
        row: dict[int, GaussianRational] = {}
        for a, b in ((j, k), (k, j)):
            for i, x in p[a]:
                c = n * n - 1 - n * i - b
                row[c] = row.get(c, GR_ZERO) + x
        yield (j, k), _integer_row(row.items())


def constrain_map(
    sub: IsotropicSubbundle, prefix: str = "t"
) -> tuple[DeformationMap, ConstraintReport]:
    """Impose the pairing-compatibility constraint on a fresh parameter matrix.

    Entry (i, j) of the matrix is the parameter ``prefix`` i j, indices from
    1 (t11, t12, ...); from rank 10 on, ``_`` separates them (t1_1, ...,
    t10_10), so every name is distinct.  Returns the constrained map together
    with the eliminated parameters and the surviving free ones.
    """
    n = sub.rank
    sep = "" if n <= 9 else "_"
    raw = [parameter(f"{prefix}{i + 1}{sep}{j + 1}") for i in range(n) for j in range(n)]
    pivots, _ = _eliminate((row for _, row in _compatibility_rows(sub)), n * n, jordan=True)
    bindings = _bindings(pivots, raw, [Monomial(((s, 1),)) for s in reversed(raw)])
    cells = [bindings[s] if s in bindings else PolyScalar.of(s) for s in raw]
    free = [s for s in raw if s not in bindings]
    emap = DeformationMap(sub, tuple(tuple(cells[i : i + n]) for i in range(0, n * n, n)), tuple(free))
    return emap, ConstraintReport(eliminated=bindings, free=free)


# ---------------------------------------------------------------------------
# Maurer-Cartan system
# ---------------------------------------------------------------------------


class MCSystem:
    """Coefficients of d_L(eps~) + [eps~, eps~]/2 on the degree-3 basis."""

    def __init__(
        self, deformation: DeformationMap, constraints: list[tuple[tuple[int, int, int], PolyScalar]]
    ) -> None:
        self.deformation = deformation
        self.constraints = constraints

    def nonzero(self) -> list[tuple[tuple[int, int, int], PolyScalar]]:
        return [(idx, c) for idx, c in self.constraints if not c.is_zero()]

    def is_trivial(self) -> bool:
        return not self.nonzero()

    @cached_property
    def solution(self) -> tuple[dict[Symbol, PolyScalar], list[Symbol], list[PolyScalar]]:
        """``solve_mc_system`` on the nonzero constraints, computed once."""
        return solve_mc_system([c for _, c in self.nonzero()], self.deformation.parameters)


def mc_residual(e: DeformationMap) -> MCSystem:
    """d_L(eps~) + [eps~, eps~]/2 on the degree-3 slots, read off the constant
    complex: with the form as sum_m m F_m (``e.columns``; on a pencil, F_m are
    the columns of A), the constraint on slot r is
    sum_m m (d[2] F_m)_r + 1/2 sum_{m, m'} m m' S(F_m, F_m')_r, over the columns
    grouped by slot and only the nonzero entries of S: an empty S costs nothing."""
    # a compatible map's entries are P^-1 times its form, so both carry the same monomials
    if any(g.__class__ is not Symbol or g.kind != PARAMETER for m in e.columns for g, _ in m.powers):
        raise DeformationError("the Maurer-Cartan system needs parameter-only coefficients")
    cx = e.sub.cochains
    acc: list[dict[Monomial, GaussianRational]] = [{} for _ in cx.slots[3]]
    at: dict[int, list[tuple[Monomial, GaussianRational]]] = {}
    for m, col in e.columns.items():
        for s, v in col.items():
            at.setdefault(s, []).append((m, v))
            for r, w in cx.d[2][s]:
                acc[r][m] = acc[r].get(m, GR_ZERO) + v * w
    for (s1, s2), entry in cx.schouten.items():
        for m1, v1 in at.get(s1, ()):
            for m2, v2 in at.get(s2, ()):
                m, v = m1 * m2, GR_HALF * v1 * v2
                for r, w in entry:
                    acc[r][m] = acc[r].get(m, GR_ZERO) + v * w
    return MCSystem(e, [(idx, PolyScalar.from_dict(a)) for idx, a in zip(cx.slots[3], acc)])


def gauge_image(sub: IsotropicSubbundle) -> list[ExteriorForm]:
    """Echelon basis of the image of d_L from degree 1 to degree 2: the rows
    of the rref of ``d[1]``, kept on the subbundle's complex."""
    cx = sub.cochains
    return [ExteriorForm.build(sub.lform_names, dict(zip(cx.slots[2], row))) for row in cx.gauge]


# ---------------------------------------------------------------------------
# Gauge reduction
# ---------------------------------------------------------------------------


class DeformationFamily:
    """Solved Maurer-Cartan family after gauge reduction.  ``directions`` holds
    the constant vector of each free parameter on ``sub.cochains.slots[2]``;
    ``reduced_basis``, the same directions as 2-forms, is built on first read."""

    def __init__(
        self,
        solved: dict[Symbol, PolyScalar],
        dropped_gauge: list[Symbol],
        free: list[Symbol],
        directions: list[list[GaussianRational]],
        reduced_map: DeformationMap,
    ) -> None:
        self.solved = solved
        self.dropped_gauge = dropped_gauge
        self.free = free
        self.directions = directions
        self.reduced_map = reduced_map

    @cached_property
    def reduced_basis(self) -> list[ExteriorForm]:
        sub = self.reduced_map.sub
        return [ExteriorForm.build(sub.lform_names, dict(zip(sub.cochains.slots[2], d)))
                for d in self.directions]


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
        solution = solve_linear([p.terms for p in work], remaining)
        if not solution.consistent:
            raise DeformationError("empty solution set")
        new: dict[Symbol, PolyScalar] = dict(solution.bindings)
        if not new:
            # the first single-term constraint c * t^k in one remaining unknown t
            singles = (p.terms[0][0].generators() for p in solution.residual if len(p.terms) == 1)
            g = next((gens[0] for gens in singles if len(gens) == 1 and gens[0] in remaining), None)
            if g is not None:
                new[g] = PolyScalar.zero()
        if not new:
            return bindings, remaining, solution.residual
        values = bound_terms(new)
        bindings = {k: v.substituted(values) for k, v in bindings.items()}
        bindings.update(new)
        work = [p.substituted(values) for p in work]
        work = [p for p in work if not p.is_zero()]
    free = [u for u in unknowns if u not in bindings]
    return bindings, free, []


def reduce_family(mc: MCSystem) -> DeformationFamily:
    """Solve the Maurer-Cartan system and quotient by the gauge directions.

    The gauge quotient drops, per gauge basis element in echelon order, the
    first-named kept solution coordinate whose direction has nonzero weight
    when that element is written over the gauge elements already placed and
    the kept directions.
    """
    e = mc.deformation
    sub = e.sub
    solved, free_syms, residual = mc.solution
    if residual:
        rendered = "; ".join(str(p) for p in residual)
        raise DeformationError(f"nonlinear constraints block reduction: {rendered}")

    solved_map = e.substitute(solved)
    # the direction of each parameter is its constant column of the solved form
    width = len(sub.cochains.slots[2])
    columns = {p: solved_map.columns.get(Monomial.of(p), {}) for p in free_syms}
    directions = {p: [col.get(s, GR_ZERO) for s in range(width)] for p, col in columns.items()}
    gauge_vecs = sub.cochains.gauge

    # Steinitz exchange: each gauge element replaces a kept direction of
    # nonzero weight in its expansion over the placed gauge elements and the
    # kept directions, so these stay a basis of the same span; the expansion
    # is the last column of the rref of [basis | element], all zero when the
    # element lies outside the span
    dropped: list[Symbol] = []
    kept = sorted(free_syms, key=lambda s: s.name)
    for placed, gvec in enumerate(gauge_vecs):
        basis = gauge_vecs[:placed] + [directions[p] for p in kept]
        rows, pivots = mat_rref(list(zip(*basis, gvec)))
        weights = {c: row[-1] for row, c in zip(rows, pivots)}
        hit = [p for a, p in enumerate(kept, placed) if weights.get(a)]
        if not hit:
            shown = gauge_image(sub)[placed]
            raise DeformationError(f"gauge direction {shown} not expressible in solution coordinates")
        kept.remove(hit[0])
        dropped.append(hit[0])

    # ordered by the first slot of each direction
    first_slot = lambda p: next((s for s, x in enumerate(directions[p]) if x), width)
    free = sorted((p for p in free_syms if p not in dropped), key=first_slot)
    reduced_map = solved_map.substitute({p: PolyScalar.zero() for p in dropped})
    reduced = [directions[p] for p in free]

    # the reduced directions and the gauge span must recover the full
    # solution tangent space and intersect trivially
    size = len(free) + len(gauge_vecs)
    if mat_rank(reduced + gauge_vecs) != size:
        raise InternalConsistencyError("reduced family meets the gauge span")
    # with nothing dropped, the kept directions are all of them
    if dropped and mat_rank([directions[p] for p in free_syms] + gauge_vecs) != size:
        raise InternalConsistencyError("reduced family plus gauge span is too small")

    if not mc_residual(reduced_map).is_trivial():
        raise InternalConsistencyError("reduced family fails its own constraint system")

    return DeformationFamily(solved, dropped, free, reduced, reduced_map)


# ---------------------------------------------------------------------------
# Deformed subbundles and types
# ---------------------------------------------------------------------------


class DeformedStructure:
    """Verdicts at the ground point ``bindings`` of ``family``.  There, the map's
    entries and then its ``projection`` rows times the positive integer
    ``scale`` are ``integer_rows``, and P(E) times C scale^2 is
    ``integer_pairing``; all but separation, the rational ``values`` and
    ``pairing`` too, are decided or built on first read."""

    def __init__(
        self,
        family: DeformationMap,
        bindings: Mapping[Symbol, GaussianRational],
        scale: int,
        integer_rows: list[Row],
        integer_pairing: list[Row],
        separated: bool,
    ) -> None:
        self.family = family
        self.bindings = bindings
        self.scale = scale
        self.integer_rows = integer_rows
        self.integer_pairing = integer_pairing
        self.separated = separated

    @cached_property
    def values(self) -> Matrix:
        return _divided(self.integer_rows[: self.family.sub.rank], self.scale)

    @cached_property
    def pairing(self) -> Matrix:
        return _divided(self.integer_pairing, self.family.integer[0] * self.scale**2)

    @cached_property
    def type_index(self) -> int:
        """Corank of the tangent projection at the point: the type k."""
        dim, rows = self.family.sub.frame.dim, self.integer_rows[self.family.sub.rank :]
        return dim - integer_rank(rows, dim)

    @cached_property
    def splitting(self) -> Splitting:
        """The deformed generators at the point, read through ``pairing``."""
        vectors = [[c.evaluate(self.bindings) for c in v] for v in self.family.vectors]
        return Splitting(self.family.sub.frame, vectors, self.pairing)

    @cached_property
    def isotropic(self) -> bool:
        return self.splitting.non_isotropic_pair() is None

    @cached_property
    def involutive(self) -> bool:
        # independent isotropic generators span L = L^perp, separated or not;
        # a separated point is independent by the rank already taken of P(E)
        independent = self.separated or self.splitting.independent()
        return self.isotropic and independent and self.splitting.involutive()

    @cached_property
    def generators(self) -> list[GenSection]:
        return [GenSection.constant(self.family.sub.frame, v) for v in self.splitting.vectors]

    @cached_property
    def ground(self) -> DeformationMap:
        return DeformationMap.from_entries(self.family.sub, self.values)


def _divided(rows: list[Row], d: int) -> Matrix:
    """Square sparse Gaussian-integer rows over d, as a dense matrix."""
    return [[_over(*row.get(k, (0, 0)), d, 0) for k in range(len(rows))] for row in rows]


def deform_subbundle(
    e: DeformationMap, bindings: Mapping[Symbol, GaussianRational]
) -> DeformedStructure:
    """Generators (1 + eps)(g) at ground parameter values, with their pairing.

    One ``_evaluate`` of the ground plan ``e.integer`` at the values of the
    bindings, which bind every parameter and nothing else, gives N = F E and F
    times the tangent rows, F = C D^deg.
    Separation, the exact condition for a generalized complex structure here,
    means the deformed span meets its conjugate only in zero: P(E) = P +
    E^T P^T conj(E) has full rank (L and its conjugate are isotropic, so no
    cross terms).  That is F^2 Pn + N^T Pn^T conj(N) over C F^2, Pn = C P,
    and a positive factor leaves a rank unchanged.
    """
    try:  # a size test and a lookup per parameter; only a refusal names parameters
        values = [bindings[p] for p in e.parameters] if len(bindings) == len(e.parameters) else None
    except KeyError:
        values = None
    if values is None:
        missing = [p.name for p in e.parameters if p not in bindings]
        unknown = [s.name for s in bindings if s not in e.parameters]
        raise DeformationError(f"unbound parameters: {', '.join(missing)}" if missing
                               else f"bindings for unknown parameters: {', '.join(unknown)}")
    (den, deg, view, pn, _), n = e.integer, e.sub.rank
    scale, rows = _evaluate(den, deg, view, values)
    # F^2 Pn, then entry (j, k) gains N[i][j] Pn[l][i] conj(N[l][k]); a zero sum leaves its row
    square = scale * scale
    pairing = [{k: (square * a, square * b) for k, a, b in prow} for prow in pn]
    for prow, nrow in zip(pn, rows):
        bar = [(k, a, -b) for k, (a, b) in nrow.items()]
        for i, pr, pi in prow:
            for j, (a, b) in rows[i].items():
                xr, xi, acc = a * pr - b * pi, a * pi + b * pr, pairing[j]
                for k, yr, yi in bar:
                    zr, zi = acc.get(k, (0, 0))
                    if (zr := zr + xr * yr - xi * yi) | (zi := zi + xr * yi + xi * yr):
                        acc[k] = (zr, zi)
                    else:
                        del acc[k]
    return DeformedStructure(e, bindings, scale, rows, pairing, integer_rank(pairing, n) == n)


def type_of(e: DeformationMap, bindings: Mapping[Symbol, GaussianRational]) -> int:
    """Type k: corank of the tangent projection of the deformed generators."""
    return classify(e, bindings)[0]


SYMPLECTIC = "symplectic type"
COMPLEX = "complex type"
CLASSICAL_COMPLEX = "classical complex"
COMPLEX_NONCLASSICAL = "complex type, non-classical"
OTHER = "other"


def _label(k: int, dim: int) -> str:
    """The stratum label of type k on a frame of dimension ``dim``."""
    return SYMPLECTIC if k == 0 else COMPLEX if k == dim // 2 else OTHER


def classify(e: DeformationMap, bindings: Mapping[Symbol, GaussianRational]) -> tuple[int, str]:
    """Type together with its stratum label at ground parameter values."""
    structure = deform_subbundle(e, bindings)
    if not structure.separated:
        raise DeformationError("not a generalized complex structure at these parameter values")
    k = structure.type_index
    label, pairs, rows = _label(k, e.sub.frame.dim), e.integer[4], structure.integer_rows
    if label == COMPLEX and pairs is not None:
        return k, COMPLEX_NONCLASSICAL if any(j in rows[i] for i, j in pairs) else CLASSICAL_COMPLEX
    return k, label


# ---------------------------------------------------------------------------
# Symbolic type stratification
# ---------------------------------------------------------------------------


class TypeStratum:
    """Parameter conditions selecting one type value.

    All polynomials in ``zero`` vanish and at least one in ``nonzero`` does
    not; an empty ``nonzero`` list means no further genericity is needed.
    """

    def __init__(
        self,
        zero: tuple[PolyScalar, ...],
        nonzero: tuple[PolyScalar, ...],
        k: int,
        label: str,
        substrata: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.zero = zero
        self.nonzero = nonzero
        self.k = k
        self.label = label
        self.substrata = substrata

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TypeStratum:
            return NotImplemented
        return (self.zero, self.nonzero, self.k, self.label, self.substrata) == (
            other.zero, other.nonzero, other.k, other.label, other.substrata)

    def __hash__(self) -> int:
        return hash((self.zero, self.nonzero, self.k, self.label, self.substrata))


class Stratification:
    def __init__(self, strata: list[TypeStratum], generic_rank: int, refused: Optional[str] = None) -> None:
        self.strata = strata
        self.generic_rank = generic_rank
        self.refused = refused


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


def _distinct_normalized(polys) -> list[PolyScalar]:
    """The distinct normalized forms of the nonzero ``polys``, in first-seen order."""
    return list(dict.fromkeys(_normalize_minor(p) for p in polys if not p.is_zero()))


def _minors(matrix, r: int, table: dict):
    """Every r x r minor of ``matrix``, read from ``table``, row sets outermost."""
    rows, cols = range(len(matrix)), range(len(matrix[0]))
    return (minor(matrix, rs, cs, table) for rs in itertools.combinations(rows, r)
            for cs in itertools.combinations(cols, r))


# seeds of the Gaussian-rational points, after the origin, at which
# ``_generic_rank`` takes the rank of the projection
_RANK_POINT_SEEDS = (1, 2)


@cache
def _rank_points(count: int, seeds: tuple[int, ...]) -> tuple[tuple[GaussianRational, ...], ...]:
    """The origin, then one point drawn from each of the ``seeds``, each as
    the values of ``count`` coordinates; drawn once per count and seeds."""
    points = [(GR_ZERO,) * count]
    for seed in seeds:
        rng, k = random.Random(seed), 2 * count
        a, b = rng.choices(range(-9, 10), k=k), rng.choices(range(1, 10), k=k)
        # a[u]/b[u] + (a[u+1]/b[u+1]) i, over b[u] b[u+1]
        points.append(tuple(_over(a[u] * b[u + 1], a[u + 1] * b[u], b[u] * b[u + 1], 0) for u in range(0, k, 2)))
    return tuple(points)


def _generic_rank(matrix) -> int:
    """Generic rank of a polynomial matrix, certified with few minors.

    The rank at an exact point is a lower bound.  It is taken at the origin
    and at the seeded points, every symbol of the entries bound, until it
    reaches min(rows, cols), where it is the generic rank.  Below that, a
    nonzero (r+1) x (r+1) minor raises the bound to r+1, and when every one
    of them vanishes the bound r is the generic rank.
    """
    rows, cols, table = len(matrix), len(matrix[0]), {}
    full = min(rows, cols)
    symbols = sorted({g for row in matrix for c in row for g in c.generators()}, key=lambda g: g.sort_key())
    rank, view = 0, _integer_view(matrix, symbols)
    for values in _rank_points(len(symbols), _RANK_POINT_SEEDS):
        rank = max(rank, integer_rank(_evaluate(*view, values)[1], cols))
        if rank == full:
            return rank
    while rank < full and any(_minors(matrix, rank + 1, table)):
        rank += 1
    return rank


def _constant_rank(matrix) -> Optional[int]:
    """The rank of a polynomial matrix when elimination on nonzero constant
    pivots leaves nothing nonzero, else None.  A step takes polynomial
    multiples of the pivot row from the rows left, so the pivot rows span the
    row space, and their pivot block is a minor of constant nonzero value."""
    rows = list(matrix)
    for rank in itertools.count():
        if not (rows := [row for row in rows if any(row)]):
            return rank
        pivots = ((i, j) for i, row in enumerate(rows) for j, c in enumerate(row) if c and c.is_constant())
        if (at := next(pivots, None)) is None:
            return None
        pivot = rows.pop(at[0])
        inverse = GR_ONE / pivot[at[1]].terms[0][1]
        for i, row in enumerate(rows):
            if f := row[at[1]].scale(inverse):
                rows[i] = [x - f * y if y else x for x, y in zip(row, pivot)]


def _rank_and_minors(e: DeformationMap) -> tuple[int, list[PolyScalar]]:
    """Generic rank r of the tangent projection and the minors its node reads:
    [1], from no table, when ``_constant_rank`` decides r; else its distinct
    nonzero r x r minors, r the largest size with one, read from one table."""
    matrix, table = e.projection, {}
    if (r := _constant_rank(matrix)) is not None:
        return r, [PolyScalar.const(GR_ONE)]
    sizes = range(min(len(matrix), len(matrix[0])), 0, -1)
    found = ((r, _distinct_normalized(_minors(matrix, r, table))) for r in sizes)
    return next(((r, minors) for r, minors in found if minors), (0, []))


def stratify_type(e: DeformationMap) -> Stratification:
    """Enumerate type strata of a parameter family by exact minor vanishing.

    Each descent node takes the rank r of its tangent projection by
    ``_rank_and_minors``: a node whose constant pivots leave nothing nonzero
    is a leaf, for a constant r x r minor is nonzero; any other reads its
    r x r minors, r the largest size with a nonzero minor, from one table of
    Laplace expansions along the last row, shared across sizes.  The root's
    rank is the reported generic rank.  Rank boundaries whose minors are
    monomials are descended exactly through minimal hitting sets of their
    variable supports; a non-monomial boundary stops the descent with an
    explicit refusal note.  More than eight parameters refuse stratification
    outright; the generic rank is still certified, by ``_generic_rank`` at
    exact points, and no minor is built where a point has full rank.

    The limit stays at eight (measured on 2 vCPUs, Python 3.11): the
    15-parameter abelian-6 families would descend in 0.006 s (complex) and
    0.06 s (symplectic), only to stop at a non-monomial boundary, which
    changes their printed strata; symplectic abelian-8 (28 parameters)
    would take 4.5 s, nearly all of it in its 8 x 8 top minor.
    """
    dim = e.sub.frame.dim
    if len(e.parameters) > 8:
        return Stratification([], _generic_rank(e.projection), "too many parameters")
    grank, root_minors = _rank_and_minors(e)

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
        return ((CLASSICAL_COMPLEX, conditions), (COMPLEX_NONCLASSICAL, anti))

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
            supports.append(tuple(g for g in p.terms[0][0].generators() if isinstance(g, Symbol)))
        for hitting in _minimal_hitting_sets(supports):
            below = zeroed + tuple(hitting)
            if key_of(below) in strata:
                continue
            child = current.substitute({s: PolyScalar.zero() for s in hitting})
            descend(child, below, *_rank_and_minors(child))

    descend(e, (), grank, root_minors)
    ordered = sorted(strata.values(), key=lambda s: (len(s.zero), [str(p) for p in s.zero]))
    return Stratification(ordered, grank, "; ".join(refusal) if refusal else None)


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
