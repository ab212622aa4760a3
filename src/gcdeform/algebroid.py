"""Maximal isotropic subbundles and their Lie-algebroid calculus.

An ``IsotropicSubbundle`` L is spanned by constant sections, with the tangent
projection as anchor and the restricted Courant bracket as algebroid bracket.
The dual L* is the conjugate span through the doubled pairing theta(x) =
2<x, .>; L and L* are ``FrameAlgebra``s from one ``closure`` routine, which
brackets each pair of sections over their nonzero slots only.  d_L
acts on exterior elements over L*, and the Schouten bracket extends L*'s
bracket as a biderivation; on constant forms both are sparse matrices of a
``CochainComplex``, d_L one per degree from one routine, ``ce_rows``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .courant import GenSection, conjugate_vector, courant_bracket, directional, doubled_pair, pair
from .courant import pairings
from .frame import ComplexFrame, ComplexOp, ExteriorForm, FrameAlgebra, _sort_index, eigenframe
from .frame import nonzero_brackets, nonzeros
from .scalar import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Matrix,
    PolyLike,
    PolyScalar,
    SingularMatrixError,
    _rref,
    mat_inverse,
    mat_left_inverse,
    mat_mul,
    mat_rank,
    poly,
)

SparseRow = list[tuple[int, GaussianRational]]


class AlgebroidError(ValueError):
    pass


class InternalConsistencyError(RuntimeError):
    """An identity the engine relies on failed in exact arithmetic."""


class Splitting:
    """Constant vectors g_j and their conjugates, read through the pairing.

    ``pairing`` is P[j][k] = 2<g_j, conj(g_k)>, given or taken by one
    ``pairings`` product, ``pairing_rows`` its rows as sparse rows, and
    ``inverse`` is P^-1, or None when P is singular; only P is computed
    eagerly.  Isotropic, independent sections span a
    maximal isotropic L, and L = L^perp: v lies in L exactly when
    2<g_c, v> = 0 for every c, L meets its conjugate only in zero exactly when
    P is invertible (``inverse`` is not None), and v in L has coordinates
    x_a = 2<h_a, v>, h_a = sum_i P^-1[i][a] conj(g_i), the rows of ``duals``.
    Whole lists of constant vectors are paired by ``pairings``; ``contains``
    and ``coordinates`` take one vector, constant or polynomial.
    """

    def __init__(self, frame: ComplexFrame, vectors: Sequence[list], pairing: Optional[Matrix] = None):
        self.frame = frame
        self.vectors = list(vectors)
        self.pairing = pairing or pairings(self.vectors, self.conj_vectors)

    @cached_property
    def conj_vectors(self) -> list:
        return [conjugate_vector(self.frame, v) for v in self.vectors]

    @cached_property
    def pairing_rows(self) -> list[SparseRow]:
        """Each row j of P as its nonzero (k, P[j][k])."""
        return [nonzeros(row) for row in self.pairing]

    @cached_property
    def inverse(self) -> Optional[Matrix]:
        try:
            return mat_inverse(self.pairing)
        except SingularMatrixError:
            return None

    @cached_property
    def duals(self) -> Matrix:
        """The vectors h_a, with 2<h_a, g_b> = delta_ab: the product P^-T conj(g)."""
        return mat_mul(list(zip(*self.inverse)), self.conj_vectors)

    def non_isotropic_pair(self) -> Optional[tuple[int, int]]:
        """The first (a, b), a <= b, with <g_a, g_b> != 0, or None."""
        table = pairings(self.vectors, self.vectors)
        pairs = itertools.combinations_with_replacement(range(len(table)), 2)
        return next(((a, b) for a, b in pairs if table[a][b]), None)

    def independent(self) -> bool:
        return mat_rank(self.vectors) == len(self.vectors)

    def contains(self, vector) -> bool:
        """Whether 2<g_c, v> = 0 for every c."""
        return not any(doubled_pair(g, vector) for g in self.vectors)

    def coordinates(self, vector) -> Optional[list]:
        """The x_a of a vector of L, in the ring of the vector, or None outside
        L; needs separated sections."""
        if not self.contains(vector):
            return None
        return [doubled_pair(h, vector) for h in self.duals]

    def involutive(self) -> bool:
        """Whether every [g_a, g_b] lies in L; needs L = L^perp."""
        closed = closure(self.frame, self.vectors, self.vectors)
        return not any(any(inside) for _, _, inside, _ in closed)


def closure(frame: ComplexFrame, sections, members, coordinates=()) -> list:
    """The ``nonzero_brackets`` [s_a, s_b], a < b, of constant vectors by the
    frame's ``courant_table``, each as ((a, b), bracket, inside, coords):
    2<[s_a, s_b], .> against ``members``, all zero exactly when the bracket
    lies in the maximal isotropic span they cut out, and against
    ``coordinates``, its coordinates there, all from one ``pairings`` product."""
    brs = nonzero_brackets(frame.courant_table, sections)
    rows = pairings([br for _, br in brs], list(members) + list(coordinates))
    k = len(members)
    return [(ab, br, row[:k], row[k:]) for (ab, br), row in zip(brs, rows)]


def closed_algebra(frame, names, dual_names, sections, members, coordinates) -> FrameAlgebra:
    """The Lie algebra on ``names`` of a span closed under the bracket, with the
    ``closure`` coordinates as structure constants; the first bracket that
    leaves the span is refused."""
    closed = closure(frame, sections, members, coordinates)
    for (a, b), br, inside, _ in closed:
        if any(inside):
            shown = GenSection.constant(frame, br)
            raise AlgebroidError(f"not involutive: [{names[a]}, {names[b]}] = {shown}")
    table = tuple((ab, tuple(coords)) for ab, _, _, coords in closed if any(coords))
    return FrameAlgebra(tuple(names), table, tuple(dual_names))


class CochainComplex:
    """d_L and the Schouten bracket on constant forms over L*, as sparse
    matrices on the lexicographic basis slots, ``slots[p]`` those of degree p:
    ``d[p][s]`` lists the nonzero ((p+1)-slot, value) of d_L of the s-th basis
    p-form (``ce_rows``), and ``schouten[(s, u)]`` those of the bracket of the
    s-th and u-th basis 2-forms."""

    def __init__(
        self,
        slots: tuple[tuple[tuple[int, ...], ...], ...],
        d: dict[int, list[SparseRow]],
        schouten: dict[tuple[int, int], SparseRow],
    ) -> None:
        self.slots = slots
        self.d = d
        self.schouten = schouten

    @cached_property
    def gauge(self) -> Matrix:
        """Echelon basis of the image of ``d[1]``: the nonzero rows of its rref."""
        return _rref(self.d[1], len(self.slots[2]))[0]


class IsotropicSubbundle:
    """Maximal isotropic, Courant-involutive subbundle with algebroid data.

    ``split`` records which generators are tangent-type and which are
    cotangent-type when L arises from a complex structure; it powers the
    classical/non-classical labeling of deformations and is absent otherwise.

    ``splitting`` is the pair (L, L-bar) read through the pairing, built once
    by ``build``; its ``duals`` (theta-inverse of the dual basis), L* as
    ``dual_algebroid`` and the constant ``cochains`` are computed on first
    use and kept.  Equality and hashing read every field but ``splitting``,
    which the others determine.
    """

    def __init__(
        self,
        frame: ComplexFrame,
        names: tuple[str, ...],
        generators: tuple[GenSection, ...],
        algebroid: FrameAlgebra,
        splitting: Splitting,
        split: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None,
    ) -> None:
        self.frame = frame
        self.names = names
        self.generators = generators
        self.algebroid = algebroid
        self.splitting = splitting
        self.split = split

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not IsotropicSubbundle:
            return NotImplemented
        return (self.frame, self.names, self.generators, self.algebroid, self.split) == (
            other.frame, other.names, other.generators, other.algebroid, other.split)

    def __hash__(self) -> int:
        return hash((self.frame, self.names, self.generators, self.algebroid, self.split))

    # -- construction ---------------------------------------------------------

    @staticmethod
    def build(
        frame: ComplexFrame,
        generators: Sequence[GenSection],
        names: Sequence[str],
        split=None,
    ) -> "IsotropicSubbundle":
        generators = tuple(generators)
        names = tuple(names)
        if len(generators) != frame.dim:
            raise AlgebroidError("a maximal isotropic needs half the ambient dimension")
        if len(names) != len(generators) or len(set(names)) != len(names):
            raise AlgebroidError("one distinct name per generator")
        for g in generators:
            if not g.is_constant():
                raise AlgebroidError("generators must be constant sections")

        splitting = Splitting(frame, [g.constant_vector() for g in generators])
        bad = splitting.non_isotropic_pair()
        if bad is not None:
            a, b = bad
            p = pair(generators[a], generators[b])
            raise AlgebroidError(f"not isotropic: <{names[a]}, {names[b]}> = {p}")
        if splitting.inverse is None:  # the coordinates need P^-1 anyway
            if not splitting.independent():
                raise AlgebroidError("generators are linearly dependent")
            raise AlgebroidError("L and its conjugate intersect (real index not zero)")

        # L's bracket, in the coordinates 2<h_a, .> of the duals
        vs, duals = splitting.vectors, tuple(f"{n}*" for n in names)
        algebroid = closed_algebra(frame, names, duals, vs, vs, splitting.duals)
        return IsotropicSubbundle(
            frame=frame,
            names=names,
            generators=generators,
            algebroid=algebroid,
            splitting=splitting,
            split=tuple(split) if split else None,
        )

    # -- basic geometry --------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def lform_names(self) -> tuple[str, ...]:
        return self.algebroid.dual_names

    @property
    def anchor(self) -> list[list[GaussianRational]]:
        """The tangent projections of the generators, as rows."""
        return [v[: self.frame.dim] for v in self.splitting.vectors]

    def type_index(self) -> int:
        """Codimension of the tangent projection in the complexified tangent."""
        return self.frame.dim - mat_rank(self.anchor)

    def ambient_section(self, coeffs: Sequence[PolyLike]) -> GenSection:
        """Section given by generator coefficients, expanded in the ambient frame."""
        out = GenSection.zero(self.frame)
        for c, g in zip(coeffs, self.generators):
            out = out + g.scale(poly(c))
        return out

    def express(self, section: GenSection) -> Optional[list[PolyScalar]]:
        """Generator coefficients of an ambient section, or None if outside L."""
        return self.splitting.coordinates(section.coeffs)

    # -- theta identification ---------------------------------------------------

    def theta(self, y) -> list[GaussianRational]:
        """Dual coefficients 2<y, g_a> of a constant vector of the conjugate
        span, which is its own orthogonal: y pairs to zero with every conj(g_c)."""
        if any(doubled_pair(c, y) for c in self.splitting.conj_vectors):
            raise AlgebroidError("section is not in the conjugate span")
        return [doubled_pair(g, y) for g in self.splitting.vectors]

    # -- differentials -----------------------------------------------------------

    def d_L_invariant(self, f: ExteriorForm) -> ExteriorForm:
        """Chevalley-Eilenberg differential of the algebroid on constant forms."""
        return self.algebroid.ce_differential(f)

    def d_L_general(
        self, f: ExteriorForm, args: Sequence[Sequence[PolyLike]]
    ) -> PolyScalar:
        """Evaluate d_L f on general sections given by generator coefficients.

        Degrees 1 and 2 only.  The anchor terms differentiate the coefficient
        functions; for an invariant f every derivative monomial must cancel,
        and a surviving one is reported as an internal-consistency failure.
        """
        degrees = f.degrees() or {0}
        if len(degrees) != 1:
            raise AlgebroidError("d_L_general needs a homogeneous form")
        (p,) = degrees
        if p not in (1, 2):
            raise AlgebroidError("d_L_general supports degrees 1 and 2 only")
        if len(args) != p + 1:
            raise AlgebroidError(f"degree {p} form takes {p + 1} section arguments")
        xs = [[poly(c) for c in arg] for arg in args]
        for x in xs:
            if len(x) != self.rank:
                raise AlgebroidError("section argument has wrong length")

        def anchor_apply(x: Sequence[PolyScalar], h: PolyScalar) -> PolyScalar:
            return directional(self.frame, self.ambient_section(x).tangent, h)

        def bracket(xa, xb) -> list[PolyScalar]:
            sa = self.ambient_section(xa)
            sb = self.ambient_section(xb)
            br = courant_bracket(sa, sb)
            coeffs = self.express(br)
            if coeffs is None:
                raise AlgebroidError("bracket of sections left the subbundle")
            return coeffs

        # sum_i (-1)^i rho(x_i) f(..., no x_i, ...)
        #   + sum_{i<j} (-1)^(i+j) f([x_i, x_j], ..., no x_i or x_j, ...)
        result = PolyScalar.zero()
        for i, x in enumerate(xs):
            term = anchor_apply(x, f.evaluate(xs[:i] + xs[i + 1 :]))
            result = result + (-term if i % 2 else term)
        for i, j in itertools.combinations(range(p + 1), 2):
            rest = [x for k, x in enumerate(xs) if k not in (i, j)]
            term = f.evaluate([bracket(xs[i], xs[j]), *rest])
            result = result + (-term if (i + j) % 2 else term)

        if not any(c.has_functions() for _, c in f.terms) and result.has_derivations():
            raise InternalConsistencyError(
                "derivative terms survived d_L of an invariant form"
            )
        return result

    # -- Schouten bracket ----------------------------------------------------------

    @cached_property
    def dual_algebroid(self) -> FrameAlgebra:
        """L* as a Lie algebra: the brackets of the duals h_a, which span the
        conjugate of L, in the coordinates 2<., g_a> that transport them to
        L* through theta."""
        split = self.splitting
        return closed_algebra(
            self.frame, self.lform_names, self.names, split.duals, split.conj_vectors, split.vectors
        )

    def schouten_table(self) -> dict[tuple[int, int], SparseRow]:
        """A copy of L*'s skew structure table, the generator-level Schouten bracket."""
        return {key: list(entry) for key, entry in self.dual_algebroid.brackets.items()}

    def _schouten_terms(self, idx1, idx2) -> Iterator[tuple[tuple[int, ...], GaussianRational]]:
        """(unsorted index, value) terms of the bracket of basis elements of degree
        at most 2 from the transported table, as the decomposables expand:
        [a1^a2, b1^b2] = [a1,b1]^a2^b2 - [a1,b2]^a2^b1 - [a2,b1]^a1^b2 + [a2,b2]^a1^b1."""
        table = self.dual_algebroid.brackets
        for s, i_gen in enumerate(idx1):
            for t, j_gen in enumerate(idx2):
                for c_idx, v in table.get((i_gen, j_gen), ()):
                    rest = idx1[:s] + idx1[s + 1 :] + idx2[:t] + idx2[t + 1 :]
                    yield (c_idx,) + rest, -v if (s + t) % 2 else v

    def schouten_bracket(self, f1: ExteriorForm, f2: ExteriorForm) -> ExteriorForm:
        """Graded bracket on exterior elements over L*, degrees at most 2,
        extending the basis brackets of ``_schouten_terms`` bilinearly."""
        for f in (f1, f2):
            if f.degrees() and max(f.degrees()) > 2:
                raise AlgebroidError("schouten_bracket supports degrees at most 2")
            if any(c.has_functions() for _, c in f.terms):
                raise AlgebroidError("schouten_bracket needs parameter-only coefficients")
        acc: dict[tuple[int, ...], PolyScalar] = {}
        for (idx1, c1), (idx2, c2) in itertools.product(f1.terms, f2.terms):
            for key, v in self._schouten_terms(idx1, idx2):
                acc[key] = acc.get(key, PolyScalar.zero()) + (c1 * c2).scale(v)
        return ExteriorForm.build(self.lform_names, acc)

    # -- the constant cochain complex -------------------------------------------------

    @cached_property
    def cochains(self) -> CochainComplex:
        """d_L in the degrees the pipeline reads, 1 and 2, by ``ce_rows``, the
        Schouten bracket of 2-forms from the Schouten table, slots up to 3."""
        slots = tuple(tuple(itertools.combinations(range(self.rank), p)) for p in range(4))
        at3 = {idx: r for r, idx in enumerate(slots[3])}
        schouten = {}
        if self.dual_algebroid.table:  # empty on an abelian algebra: no pair is read
            for (s, a), (u, b) in itertools.combinations_with_replacement(enumerate(slots[2]), 2):
                entry = _collect(self._schouten_terms(a, b), at3)
                if entry:
                    # 2-forms bracket symmetrically, for the transported table is skew
                    schouten[(s, u)] = schouten[(u, s)] = entry
        return CochainComplex(slots, {p: ce_rows(self.algebroid, p) for p in (1, 2)}, schouten)


def ce_rows(algebra: FrameAlgebra, p: int) -> list[SparseRow]:
    """The Chevalley-Eilenberg differential of ``algebra`` on constant p-forms
    as sparse rows on the lexicographic slots: row s lists the nonzero
    ((p+1)-slot, value) of d of the s-th basis p-form, from ``ce_terms``."""
    n = algebra.dim
    at = {idx: r for r, idx in enumerate(itertools.combinations(range(n), p + 1))}
    return [_collect(algebra.ce_terms(idx), at) for idx in itertools.combinations(range(n), p)]


def _collect(terms, at: dict[tuple[int, ...], int]) -> SparseRow:
    """The nonzero (position, value) of a sum of (unsorted index, value) terms,
    each index sorted with the sign of ``_sort_index`` and placed by ``at``;
    an index that repeats a slot is zero."""
    acc: dict[int, GaussianRational] = {}
    for idx, v in terms:
        key, sign = _sort_index(idx)
        if key is not None:
            r = at[key]
            acc[r] = acc.get(r, GR_ZERO) + (v if sign > 0 else -v)
    return [(r, acc[r]) for r in sorted(acc) if acc[r]]


def express_in_span(
    sections: Sequence[GenSection], vector: Sequence[PolyLike]
) -> Optional[list[PolyScalar]]:
    """Coefficients of a coefficient vector over constant sections, if inside.

    Raises ``SingularMatrixError`` when the sections are linearly dependent.
    """
    columns = [list(col) for col in zip(*(s.constant_vector() for s in sections))]
    vec = [poly(v) for v in vector]

    def times(row, xs):
        return sum((x.scale(c) for c, x in zip(row, xs) if c), PolyScalar.zero())

    coeffs = [times(row, vec) for row in mat_left_inverse(columns)]
    return coeffs if all(times(row, coeffs) == v for row, v in zip(columns, vec)) else None


# ---------------------------------------------------------------------------
# Eigenbundle constructions
# ---------------------------------------------------------------------------


def build_complex_eigenbundle(frame: ComplexFrame) -> IsotropicSubbundle:
    """The +i eigenbundle of a complex structure: antiholomorphic tangents
    plus holomorphic co-frame, in that order.

    Isotropy always holds; involutivity is checked and fails exactly when the
    complex structure is not integrable on the algebra.
    """
    if frame.real is None:
        raise AlgebroidError("need an eigenframe built from a real frame and J")
    m = frame.dim // 2
    names = frame.tangent_names[m:] + frame.cotangent_names[:m]
    gens = [GenSection.basis(frame, name) for name in names]
    split = (tuple(range(m)), tuple(range(m, 2 * m)))
    return IsotropicSubbundle.build(frame, gens, names, split=split)


def complex_eigenbundle(
    g: FrameAlgebra, J: ComplexOp, tangent_names=None, dual_names=None
) -> tuple[ComplexFrame, IsotropicSubbundle]:
    frame = eigenframe(g, J, tangent_names=tangent_names, dual_names=dual_names)
    return frame, build_complex_eigenbundle(frame)


def build_symplectic_eigenbundle(
    g: FrameAlgebra, w: ExteriorForm
) -> tuple[ComplexFrame, IsotropicSubbundle]:
    """Eigenbundle {X - i w(X)} of a nondegenerate invariant 2-form.

    Involutivity holds exactly when the form is closed; both the closedness
    and the bracket check are executed and must agree.
    """
    if w.names != g.dual_names:
        raise AlgebroidError("2-form is not over the frame's dual basis")
    if w.degrees() not in ({2}, set()):
        raise AlgebroidError("need a 2-form")
    n = g.dim
    gram = [
        [w.coefficient((i, j)).constant_value() for j in range(n)] for i in range(n)
    ]
    if mat_rank(gram) != n:
        raise AlgebroidError("degenerate 2-form")

    frame = ComplexFrame.complexified(g)
    # the generator L_a is e_a - i sum_b w(e_a, e_b) e_b*
    gens = [
        GenSection(frame, tuple(PolyScalar.const(GR_ONE if k == a else GR_ZERO) for k in range(n))
                   + tuple(PolyScalar.const(-GR_I * x) for x in gram[a]))
        for a in range(n)
    ]
    names = [f"L{name}" for name in g.basis]

    closed = g.ce_differential(w).is_zero()
    # the generators of a nondegenerate form are isotropic and separated, so
    # the build fails only on involutivity
    try:
        sub = IsotropicSubbundle.build(frame, gens, names)
    except AlgebroidError:
        if not closed:
            raise
        sub = None
    if (sub is None) == closed:
        raise InternalConsistencyError(
            "involutivity of the symplectic eigenbundle disagrees with closedness"
        )
    return frame, sub
