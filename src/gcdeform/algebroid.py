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
from typing import Optional, Sequence

from .courant import GenSection, courant_bracket, directional, pair
from .frame import ComplexFrame, ComplexOp, ExteriorForm, FrameAlgebra, eigenframe
from .scalar import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
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


@dataclass(frozen=True)
class IsotropicSubbundle:
    """Maximal isotropic, Courant-involutive subbundle with algebroid data.

    ``split`` records which generators are tangent-type and which are
    cotangent-type when L arises from a complex structure; it powers the
    classical/non-classical labeling of deformations and is absent otherwise.

    ``span`` is the generators' span with its left inverse, built once by
    ``build``.  The other derived data (the conjugate span, the doubled
    pairing, the theta-inverse sections and the Schouten table) is computed on
    first use and kept on the instance.
    """

    frame: ComplexFrame
    names: tuple[str, ...]
    generators: tuple[GenSection, ...]
    conj_generators: tuple[GenSection, ...]
    anchor: tuple[tuple[GaussianRational, ...], ...]
    algebroid: FrameAlgebra
    span: "Span" = field(compare=False, repr=False)
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

        for a, b in itertools.combinations_with_replacement(range(len(generators)), 2):
            p = pair(generators[a], generators[b])
            if not p.is_zero():
                raise AlgebroidError(
                    f"not isotropic: <{names[a]}, {names[b]}> = {p}"
                )

        try:
            span = Span(generators)
        except SingularMatrixError:
            raise AlgebroidError("generators are linearly dependent") from None

        conj = tuple(g.conjugate() for g in generators)
        stacked = [g.constant_vector() for g in generators + conj]
        if mat_rank(stacked) != 2 * len(generators):
            raise AlgebroidError("L and its conjugate intersect (real index not zero)")

        brackets: dict[tuple[str, str], dict[str, GaussianRational]] = {}
        for a in range(len(generators)):
            for b in range(a + 1, len(generators)):
                br = courant_bracket(generators[a], generators[b])
                coeffs = span.express(br.constant_vector())
                if coeffs is None:
                    raise AlgebroidError(
                        f"not involutive: [{names[a]}, {names[b]}] = {br}"
                    )
                rhs = {
                    names[c]: coeffs[c].constant_value()
                    for c in range(len(generators))
                    if not coeffs[c].is_zero()
                }
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
            conj_generators=conj,
            anchor=anchor,
            algebroid=algebroid,
            span=span,
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
        return self.frame.dim - mat_rank([list(r) for r in self.anchor])

    def ambient_section(self, coeffs: Sequence[PolyLike]) -> GenSection:
        """Section given by generator coefficients, expanded in the ambient frame."""
        out = GenSection.zero(self.frame)
        for c, g in zip(coeffs, self.generators):
            out = out + g.scale(poly(c))
        return out

    @cached_property
    def conj_span(self) -> "Span":
        return Span(self.conj_generators)

    @cached_property
    def doubled_pairing(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """``[j][i]`` is 2<g_j, conj(g_i)>, the matrix of theta on the conjugates."""
        return tuple(
            tuple(pair(g, c).constant_value() * 2 for c in self.conj_generators)
            for g in self.generators
        )

    def express(self, section: GenSection) -> Optional[list[PolyScalar]]:
        """Generator coefficients of an ambient section, or None if outside L."""
        return self.span.express(section.coeffs)

    # -- theta identification ---------------------------------------------------

    @cached_property
    def _theta_inverse(self) -> tuple[GenSection, ...]:
        try:
            inverse = mat_inverse(self.doubled_pairing)
        except SingularMatrixError:
            raise AlgebroidError("degenerate pairing between L and its conjugate") from None
        out = []
        for a in range(self.rank):
            h = GenSection.zero(self.frame)
            for c, row in zip(self.conj_generators, inverse):
                h = h + c.scale(PolyScalar.const(row[a]))
            out.append(h)
        return tuple(out)

    def theta_inverse_sections(self) -> list[GenSection]:
        """Sections h_a of the conjugate span with 2<h_a, g_b> = delta_ab."""
        return list(self._theta_inverse)

    def theta(self, y: GenSection) -> list[GaussianRational]:
        """Dual coefficients 2<y, g_a> of a constant section of the conjugate span."""
        if self.conj_span.express(y.coeffs) is None:
            raise AlgebroidError("section is not in the conjugate span")
        return [(pair(y, g).constant_value() * 2) for g in self.generators]

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


class Span:
    """Constant sections as the columns of a matrix, with one left inverse.

    Building a ``Span`` raises ``SingularMatrixError`` exactly when the
    sections are linearly dependent.
    """

    def __init__(self, sections: Sequence[GenSection]):
        vecs = [s.constant_vector() for s in sections]
        self.columns = [[v[i] for v in vecs] for i in range(len(vecs[0]))]
        self.left = mat_left_inverse(self.columns)

    def express(self, vector: Sequence[PolyLike]) -> Optional[list[PolyScalar]]:
        """Coefficients c with columns @ c = vector, or None if the vector is outside."""
        vec = [poly(v) for v in vector]
        coeffs = []
        for row in self.left:
            acc = PolyScalar.zero()
            for c, v in zip(row, vec):
                if not c.is_zero() and not v.is_zero():
                    acc = acc + v.scale(c)
            coeffs.append(acc)
        for row, v in zip(self.columns, vec):
            acc = PolyScalar.zero()
            for c, x in zip(row, coeffs):
                if not c.is_zero():
                    acc = acc + x.scale(c)
            if acc != v:
                return None
        return coeffs


def express_in_span(
    sections: Sequence[GenSection], vector: Sequence[PolyScalar]
) -> Optional[list[PolyScalar]]:
    """Coefficients of a coefficient vector over constant sections, if inside."""
    return Span(sections).express(vector)


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
