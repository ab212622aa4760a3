"""Sections of the complexified generalized tangent space and their brackets.

A ``GenSection`` is a coefficient vector over the 2n tangent plus 2n cotangent
basis elements of a complexified frame.  Coefficients are exact polynomials,
possibly in coefficient-function symbols; derivatives of those functions are
emitted as formal first-order derivation symbols, which is all the supported
invariant computations ever need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .frame import ComplexFrame
from .scalar import GR_HALF, GR_ONE, GR_ZERO, PolyLike, PolyScalar, poly, render_sum


class CourantError(ValueError):
    pass


@dataclass(frozen=True)
class GenSection:
    """Element of (T + T*) x C in a fixed complexified frame."""

    frame: ComplexFrame
    coeffs: tuple[PolyScalar, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 2 * self.frame.dim:
            raise CourantError("coefficient vector has wrong length")

    @staticmethod
    def zero(frame: ComplexFrame) -> "GenSection":
        return GenSection(frame, tuple([PolyScalar.zero()] * (2 * frame.dim)))

    @staticmethod
    def make(frame: ComplexFrame, entries: Mapping[str, PolyLike]) -> "GenSection":
        coeffs = [PolyScalar.zero()] * (2 * frame.dim)
        for name, value in entries.items():
            coeffs[_slot(frame, name)] = coeffs[_slot(frame, name)] + poly(value)
        return GenSection(frame, tuple(coeffs))

    @staticmethod
    def basis(frame: ComplexFrame, name: str) -> "GenSection":
        return GenSection.make(frame, {name: PolyScalar.const(GR_ONE)})

    @staticmethod
    def constant(frame: ComplexFrame, vector) -> "GenSection":
        """The constant section with a Gaussian-rational coefficient vector."""
        return GenSection(frame, tuple(PolyScalar.const(c) for c in vector))

    @property
    def tangent(self) -> tuple[PolyScalar, ...]:
        return self.coeffs[: self.frame.dim]

    @property
    def cotangent(self) -> tuple[PolyScalar, ...]:
        return self.coeffs[self.frame.dim :]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.coeffs)

    def is_tangent_only(self) -> bool:
        return all(c.is_zero() for c in self.cotangent)

    def is_cotangent_only(self) -> bool:
        return all(c.is_zero() for c in self.tangent)

    def __add__(self, other: "GenSection") -> "GenSection":
        _same_frame(self, other)
        return GenSection(self.frame, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GenSection") -> "GenSection":
        _same_frame(self, other)
        return GenSection(self.frame, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "GenSection":
        return GenSection(self.frame, tuple(-c for c in self.coeffs))

    def scale(self, c: PolyLike) -> "GenSection":
        c = poly(c)
        return GenSection(self.frame, tuple(c * k for k in self.coeffs))

    def conjugate(self) -> "GenSection":
        return GenSection.constant(self.frame, conjugate_vector(self.frame, self.constant_vector()))

    def constant_vector(self):
        return [c.constant_value() for c in self.coeffs]

    def __str__(self) -> str:
        names = self.frame.tangent_names + self.frame.cotangent_names
        return render_sum(
            (str(c), name) for name, c in zip(names, self.coeffs) if not c.is_zero()
        )


def conjugate_vector(frame: ComplexFrame, vector) -> list:
    """Conjugate a constant coefficient vector: bar the labels, conjugate the values."""
    d = frame.dim
    out = [GR_ZERO] * (2 * d)
    for a, b in enumerate(frame.conj):
        out[b], out[d + b] = vector[a].conjugate(), vector[d + a].conjugate()
    return out


def _slot(frame: ComplexFrame, name: str) -> int:
    if name in frame.tangent_names:
        return frame.tangent_names.index(name)
    if name in frame.cotangent_names:
        return frame.dim + frame.cotangent_names.index(name)
    raise CourantError(f"unknown section basis name {name!r}")


def _same_frame(a: GenSection, b: GenSection) -> None:
    if a.frame.algebra.basis != b.frame.algebra.basis:
        raise CourantError("sections in different frames")


# ---------------------------------------------------------------------------
# Pairing and contractions
# ---------------------------------------------------------------------------


def doubled_pair(x, y, zero=GR_ZERO):
    """2<x, y> for a constant x: slot k of x meets slot k +- d of y (y[k - d]
    counts from the end for k < d); y holds polynomials if ``zero`` is one."""
    d = len(x) // 2
    return sum((y[k - d] * c for k, c in enumerate(x) if c and y[k - d]), zero)


def pair(s1: GenSection, s2: GenSection) -> PolyScalar:
    """Natural split-signature pairing: <X+s, Y+t> = (s(Y) + t(X)) / 2."""
    _same_frame(s1, s2)
    d = s1.frame.dim
    if s1.is_constant() and s2.is_constant():
        value = doubled_pair(s1.constant_vector(), s2.constant_vector())
        return PolyScalar.const(value * GR_HALF)
    total = PolyScalar.zero()
    for a in range(d):
        total = total + s1.cotangent[a] * s2.tangent[a] + s2.cotangent[a] * s1.tangent[a]
    return total.scale(GR_HALF)


def contract(cot: Sequence[PolyScalar], tan: Sequence[PolyScalar]) -> PolyScalar:
    """Evaluate a co-frame coefficient vector on a tangent coefficient vector."""
    total = PolyScalar.zero()
    for c, t in zip(cot, tan):
        total = total + c * t
    return total


def directional(frame: ComplexFrame, tan: Sequence[PolyScalar], h: PolyScalar) -> PolyScalar:
    """Derivative of a scalar along a tangent coefficient vector."""
    out = PolyScalar.zero()
    for a, x in enumerate(tan):
        if x.is_zero():
            continue
        dh = h.differentiate(frame.tangent_names[a])
        if not dh.is_zero():
            out = out + x * dh
    return out


def _grad(frame: ComplexFrame, h: PolyScalar) -> list[PolyScalar]:
    """Differential of a scalar as a co-frame coefficient vector."""
    return [h.differentiate(name) for name in frame.tangent_names]


def _lie_cotangent(
    frame: ComplexFrame, x: Sequence[PolyScalar], f: Sequence[PolyScalar]
) -> list[PolyScalar]:
    """Lie derivative of a co-frame coefficient vector along a tangent vector.

    Expands L_X = i_X d + d i_X with the invariant part of d supplied by the
    frame's structure constants and function derivatives emitted as derivation
    symbols.
    """
    d = frame.dim
    out = [PolyScalar.zero()] * d
    for k in range(d):
        if not f[k].is_zero():
            out[k] = out[k] + directional(frame, x, f[k])
    for k in range(d):
        fk = f[k]
        if fk.is_zero():
            continue
        dk = frame.algebra.d_dual_basis(k)
        for (i, j), c in ((idx, c) for idx, c in dk.terms):
            # i_{e_a} of c * e_i* ^ e_j* contributes c*e_j* at a=i, -c*e_i* at a=j
            if not x[i].is_zero():
                out[j] = out[j] + fk * x[i] * c
            if not x[j].is_zero():
                out[i] = out[i] - fk * x[j] * c
    for a in range(d):
        fa = f[a]
        if fa.is_zero():
            continue
        grad = _grad(frame, x[a])
        for b in range(d):
            if not grad[b].is_zero():
                out[b] = out[b] + fa * grad[b]
    return out


def lie_derivative(x: GenSection, f: GenSection) -> GenSection:
    """L_X f for a tangent-only section X and an invariant co-frame 1-form f."""
    if not x.is_tangent_only():
        raise CourantError("lie_derivative direction must be tangent-only")
    if not f.is_cotangent_only():
        raise CourantError("lie_derivative argument must be a 1-form")
    _same_frame(x, f)
    out = _lie_cotangent(x.frame, x.tangent, f.cotangent)
    zero = [PolyScalar.zero()] * x.frame.dim
    return GenSection(x.frame, tuple(zero + out))


def bracket_vectors(frame: ComplexFrame, x, y) -> list:
    """[x, y] of constant coefficient vectors, bilinear by the frame's ``courant_table``."""
    table = frame.courant_table
    ys = [(b, w) for b, w in enumerate(y) if w]
    out = [GR_ZERO] * len(x)
    for a, v in enumerate(x):
        if not v:
            continue
        for b, w in ys:
            terms = table.get((a, b))
            if terms:
                vw = v * w
                for k, c in terms:
                    out[k] = out[k] + vw * c
    return out


def courant_bracket(s1: GenSection, s2: GenSection) -> GenSection:
    """Skew bracket [X+s, Y+t] = [X,Y] + L_X t - L_Y s - d(i_X t - i_Y s)/2.

    Constant sections bracket bilinearly by the frame's ``courant_table``.
    """
    _same_frame(s1, s2)
    frame = s1.frame
    d = frame.dim
    if s1.is_constant() and s2.is_constant():
        x, y = s1.constant_vector(), s2.constant_vector()
        return GenSection.constant(frame, bracket_vectors(frame, x, y))
    x, sig = list(s1.tangent), list(s1.cotangent)
    y, tau = list(s2.tangent), list(s2.cotangent)

    tang = frame.algebra.bracket_vectors(x, y)
    for k in range(d):
        tang[k] = tang[k] + directional(frame, x, y[k]) - directional(frame, y, x[k])

    cot = _lie_cotangent(frame, x, tau)
    ly = _lie_cotangent(frame, y, sig)
    anomaly = contract(tau, x) - contract(sig, y)
    grad = _grad(frame, anomaly)
    for b in range(d):
        cot[b] = cot[b] - ly[b] - grad[b].scale(GR_HALF)

    return GenSection(frame, tuple(tang + cot))


def bracket_table(generators: Sequence[GenSection]) -> list[list[GenSection]]:
    """Full pairwise Courant table of constant sections, in the given order.

    The brackets are taken on the coefficient vectors (``bracket_vectors``);
    only a nonzero one is wrapped as a section again."""
    for g in generators:
        if not g.is_constant():
            raise CourantError("bracket_table requires constant generators")
    n = len(generators)
    vectors = [g.constant_vector() for g in generators]
    table = [[GenSection.zero(g.frame)] * n for g in generators]
    for a, g in enumerate(generators):  # the bracket is skew: [b, a] = -[a, b], [a, a] = 0
        for b in range(a + 1, n):
            br = bracket_vectors(g.frame, vectors[a], vectors[b])
            if any(br):
                table[a][b] = GenSection.constant(g.frame, br)
                table[b][a] = GenSection.constant(g.frame, [-c for c in br])
    return table
