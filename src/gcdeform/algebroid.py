"""Maximal isotropic subbundles and their Lie-algebroid calculus.

An ``IsotropicSubbundle`` L is spanned by constant sections, with the tangent
projection as anchor and the restricted Courant bracket as algebroid bracket.
The dual L* is identified with the conjugate span through the doubled pairing
theta(x) = 2<x, .>, the differential d_L acts on exterior elements over L*,
and the Schouten bracket extends the transported generator brackets as a
biderivation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .courant import GenSection, courant_bracket, directional, doubled_pair, pair
from .frame import ComplexFrame, ComplexOp, ExteriorForm, FrameAlgebra, eigenframe
from .scalar import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Matrix,
    PolyLike,
    PolyScalar,
    SingularMatrixError,
    mat_inverse,
    mat_left_inverse,
    mat_rank,
    poly,
)


class AlgebroidError(ValueError):
    pass


class InternalConsistencyError(RuntimeError):
    """An identity the engine relies on failed in exact arithmetic."""


class Splitting:
    """Constant sections g_j and their conjugates, read through the pairing.

    ``pairing`` is P[j][k] = 2<g_j, conj(g_k)> and ``inverse`` is P^-1, or None
    when P is singular.  Isotropic, independent sections span a maximal
    isotropic L, and L = L^perp: v lies in L exactly when 2<g_c, v> = 0 for
    every c, L meets its conjugate only in zero exactly when P is invertible,
    and v in L has coordinates x_a = 2<h_a, v>, h_a = sum_i P^-1[i][a] conj(g_i).
    """

    def __init__(self, sections: Sequence[GenSection]):
        self.sections = tuple(sections)
        self.conjugates = tuple(g.conjugate() for g in self.sections)
        self.vectors = [g.constant_vector() for g in self.sections]
        self.conj_vectors = [c.constant_vector() for c in self.conjugates]
        self.pairing = [[doubled_pair(v, c) for c in self.conj_vectors] for v in self.vectors]
        try:
            self.inverse: Optional[Matrix] = mat_inverse(self.pairing)
        except SingularMatrixError:
            self.inverse = None
        self.separated = self.inverse is not None

    @cached_property
    def duals(self) -> Matrix:
        """The vectors h_a, with 2<h_a, g_b> = delta_ab."""
        slots = list(zip(*self.conj_vectors))
        return [
            [sum((row[a] * c for row, c in zip(self.inverse, slot)), GR_ZERO) for slot in slots]
            for a in range(len(self.inverse))
        ]

    def brackets(self) -> Iterator[tuple[tuple[int, int], GenSection]]:
        """((a, b), [g_a, g_b]) for a < b, computed as they are read."""
        gs = self.sections
        for a, b in itertools.combinations(range(len(gs)), 2):
            yield (a, b), courant_bracket(gs[a], gs[b])

    def non_isotropic_pair(self) -> Optional[tuple[int, int]]:
        """The first (a, b), a <= b, with <g_a, g_b> != 0, or None."""
        vs = self.vectors
        pairs = itertools.combinations_with_replacement(range(len(vs)), 2)
        return next(((a, b) for a, b in pairs if doubled_pair(vs[a], vs[b])), None)

    def independent(self) -> bool:
        # an invertible P certifies independence; the rank runs only without one
        return self.separated or mat_rank(self.vectors) == len(self.vectors)

    def contains(self, vector, zero=GR_ZERO) -> bool:
        """Whether 2<g_c, v> = 0 for every c; ``zero`` is as for ``doubled_pair``."""
        return not any(doubled_pair(g, vector, zero) for g in self.vectors)

    def coordinates(self, vector, zero=GR_ZERO) -> Optional[list]:
        """The x_a of a vector of L, or None outside L; needs separated sections."""
        if not self.contains(vector, zero):
            return None
        return [doubled_pair(h, vector, zero) for h in self.duals]

    def involutive(self) -> bool:
        """Whether every [g_a, g_b] lies in L; needs L = L^perp."""
        return all(self.contains(br.constant_vector()) for _, br in self.brackets())

    def type_index(self) -> int:
        """Codimension of the tangent projection in the complexified tangent."""
        d = len(self.vectors[0]) // 2
        return d - mat_rank([v[:d] for v in self.vectors])


@dataclass(frozen=True)
class IsotropicSubbundle:
    """Maximal isotropic, Courant-involutive subbundle with algebroid data.

    ``split`` records which generators are tangent-type and which are
    cotangent-type when L arises from a complex structure; it powers the
    classical/non-classical labeling of deformations and is absent otherwise.

    ``splitting`` is the pair (L, L-bar) read through the pairing, built once
    by ``build``; the theta-inverse sections and the Schouten table are
    computed on first use and kept on the instance.
    """

    frame: ComplexFrame
    names: tuple[str, ...]
    generators: tuple[GenSection, ...]
    anchor: tuple[tuple[GaussianRational, ...], ...]
    algebroid: FrameAlgebra
    splitting: Splitting = field(compare=False, repr=False)
    split: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

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
        if len(names) != len(generators):
            raise AlgebroidError("one name per generator")
        for g in generators:
            if not g.is_constant():
                raise AlgebroidError("generators must be constant sections")

        splitting = Splitting(generators)
        bad = splitting.non_isotropic_pair()
        if bad is not None:
            a, b = bad
            p = pair(generators[a], generators[b])
            raise AlgebroidError(f"not isotropic: <{names[a]}, {names[b]}> = {p}")
        if not splitting.separated:
            if not splitting.independent():
                raise AlgebroidError("generators are linearly dependent")
            raise AlgebroidError("L and its conjugate intersect (real index not zero)")

        brackets: dict[tuple[str, str], dict[str, GaussianRational]] = {}
        for (a, b), br in splitting.brackets():
            coeffs = splitting.coordinates(br.constant_vector())
            if coeffs is None:
                raise AlgebroidError(f"not involutive: [{names[a]}, {names[b]}] = {br}")
            rhs = {names[c]: v for c, v in enumerate(coeffs) if v}
            if rhs:
                brackets[(names[a], names[b])] = rhs

        algebroid = FrameAlgebra.build(names, brackets, tuple(f"{n}*" for n in names))
        anchor = tuple(
            tuple(c.constant_value() for c in g.tangent) for g in generators
        )
        return IsotropicSubbundle(
            frame=frame,
            names=names,
            generators=generators,
            anchor=anchor,
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

    def lform(self, data) -> ExteriorForm:
        return ExteriorForm.build(self.lform_names, data)

    def type_index(self) -> int:
        """Codimension of the tangent projection in the complexified tangent."""
        return self.splitting.type_index()

    def ambient_section(self, coeffs: Sequence[PolyLike]) -> GenSection:
        """Section given by generator coefficients, expanded in the ambient frame."""
        out = GenSection.zero(self.frame)
        for c, g in zip(coeffs, self.generators):
            out = out + g.scale(poly(c))
        return out

    def express(self, section: GenSection) -> Optional[list[PolyScalar]]:
        """Generator coefficients of an ambient section, or None if outside L."""
        return self.splitting.coordinates(section.coeffs, PolyScalar.zero())

    # -- theta identification ---------------------------------------------------

    @cached_property
    def _theta_inverse(self) -> tuple[GenSection, ...]:
        return tuple(
            GenSection(self.frame, tuple(PolyScalar.const(c) for c in h))
            for h in self.splitting.duals
        )

    def theta_inverse_sections(self) -> list[GenSection]:
        """Sections h_a of the conjugate span with 2<h_a, g_b> = delta_ab."""
        return list(self._theta_inverse)

    def theta(self, y: GenSection) -> list[GaussianRational]:
        """Dual coefficients 2<y, g_a> of a constant section of the conjugate
        span, which is its own orthogonal: y pairs to zero with every conj(g_c)."""
        vec = y.constant_vector()
        if any(doubled_pair(c, vec) for c in self.splitting.conj_vectors):
            raise AlgebroidError("section is not in the conjugate span")
        return [doubled_pair(g, vec) for g in self.splitting.vectors]

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

        if p == 1:
            x0, x1 = xs
            result = (
                anchor_apply(x0, f.evaluate([x1]))
                - anchor_apply(x1, f.evaluate([x0]))
                - f.evaluate([bracket(x0, x1)])
            )
        else:
            x0, x1, x2 = xs
            result = (
                anchor_apply(x0, f.evaluate([x1, x2]))
                - anchor_apply(x1, f.evaluate([x0, x2]))
                + anchor_apply(x2, f.evaluate([x0, x1]))
                - f.evaluate([bracket(x0, x1), x2])
                + f.evaluate([bracket(x0, x2), x1])
                - f.evaluate([bracket(x1, x2), x0])
            )

        if not any(c.has_functions() for _, c in f.terms) and result.has_derivations():
            raise InternalConsistencyError(
                "derivative terms survived d_L of an invariant form"
            )
        return result

    # -- Schouten bracket ----------------------------------------------------------

    @cached_property
    def _schouten_table(self) -> dict[tuple[int, int], list[tuple[int, GaussianRational]]]:
        # the bracket is skew and theta linear: build a < b, negate for b < a
        hs = self._theta_inverse
        table: dict[tuple[int, int], list[tuple[int, GaussianRational]]] = {}
        for a, b in itertools.combinations(range(self.rank), 2):
            br = courant_bracket(hs[a], hs[b])
            if br.is_zero():
                continue
            coeffs = self.theta(br)
            entry = [(c, v) for c, v in enumerate(coeffs) if not v.is_zero()]
            if entry:
                table[(a, b)] = entry
                table[(b, a)] = [(c, -v) for c, v in entry]
        return table

    def schouten_table(self) -> dict[tuple[int, int], list[tuple[int, GaussianRational]]]:
        """Generator-level bracket on L* transported through theta."""
        return {key: list(entry) for key, entry in self._schouten_table.items()}

    def schouten_bracket(self, f1: ExteriorForm, f2: ExteriorForm) -> ExteriorForm:
        """Graded bracket on exterior elements over L*, degrees at most 2.

        Decomposables expand as
        [a1^a2, b1^b2] = [a1,b1]^a2^b2 - [a1,b2]^a2^b1 - [a2,b1]^a1^b2 + [a2,b2]^a1^b1
        with the generator brackets taken from the transported table.
        """
        for f in (f1, f2):
            if f.degrees() and max(f.degrees()) > 2:
                raise AlgebroidError("schouten_bracket supports degrees at most 2")
            for _, c in f.terms:
                if c.has_functions():
                    raise AlgebroidError("schouten_bracket needs parameter-only coefficients")
        table = self._schouten_table
        acc: dict[tuple[int, ...], PolyScalar] = {}
        for idx1, c1 in f1.terms:
            for idx2, c2 in f2.terms:
                hits = [
                    (s, t, entry)
                    for s, i_gen in enumerate(idx1)
                    for t, j_gen in enumerate(idx2)
                    if (entry := table.get((i_gen, j_gen)))
                ]
                if not hits:
                    continue
                coeff = c1 * c2
                for s, t, entry in hits:
                    rest = idx1[:s] + idx1[s + 1 :] + idx2[:t] + idx2[t + 1 :]
                    for c_idx, v in entry:
                        term = coeff.scale(-v if (s + t) % 2 else v)
                        key = (c_idx,) + rest
                        acc[key] = acc.get(key, PolyScalar.zero()) + term
        return ExteriorForm.build(self.lform_names, acc)


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


def build_complex_eigenbundle(
    frame: ComplexFrame,
) -> IsotropicSubbundle:
    """The +i eigenbundle of a complex structure: antiholomorphic tangents
    plus holomorphic co-frame, in that order.

    Isotropy always holds; involutivity is checked and fails exactly when the
    complex structure is not integrable on the algebra.
    """
    if frame.real is None:
        raise AlgebroidError("need an eigenframe built from a real frame and J")
    m = frame.dim // 2
    gens = []
    names = []
    for a in range(m, 2 * m):
        gens.append(GenSection.basis(frame, frame.tangent_names[a]))
        names.append(frame.tangent_names[a])
    for a in range(m):
        gens.append(GenSection.basis(frame, frame.cotangent_names[a]))
        names.append(frame.cotangent_names[a])
    split = (tuple(range(m)), tuple(range(m, 2 * m)))
    return IsotropicSubbundle.build(frame, gens, names, split=split)


def complex_eigenbundle(
    g: FrameAlgebra,
    J: ComplexOp,
    tangent_names=None,
    dual_names=None,
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
    unit = lambda a: [
        PolyScalar.const(GR_ONE if k == a else GR_ZERO) for k in range(n)
    ]
    gens = []
    names = []
    for a in range(n):
        ixw = w.interior(unit(a))
        coeffs = [PolyScalar.zero()] * (2 * n)
        coeffs[a] = PolyScalar.const(GR_ONE)
        for b in range(n):
            c = ixw.coefficient((b,))
            if not c.is_zero():
                coeffs[n + b] = c.scale(-GR_I)
        gens.append(GenSection(frame, tuple(coeffs)))
        names.append(f"L{g.basis[a]}")

    dw = g.ce_differential(w)
    try:
        sub = IsotropicSubbundle.build(frame, gens, names)
        involutive = True
        failure = None
    except AlgebroidError as exc:
        if "not involutive" not in str(exc):
            raise
        involutive = False
        failure = exc
    if involutive != dw.is_zero():
        raise InternalConsistencyError(
            "involutivity of the symplectic eigenbundle disagrees with closedness"
        )
    if not involutive:
        raise failure
    return frame, sub
