"""Sections of the complexified generalized tangent space and their brackets.

A ``GenSection`` is a coefficient vector over the frame and the co-frame of a
complexified frame.  Coefficients are exact polynomials in parameters and
coefficient-function symbols; a derivative of a function is a formal
first-order derivation symbol, which is all the supported invariant
computations ever need.  The Courant bracket is one formula for every
coefficient ring: ``bracket_vectors`` over the frame's ``courant_table``,
plus the Leibniz terms that differentiate coefficient functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .frame import ComplexFrame, bracket_vectors
from .scalar import GR_HALF, GR_ONE, GR_ZERO, PolyLike, PolyScalar, mat_mul, poly, render_sum, zero_of


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
# Pairing and bracket
# ---------------------------------------------------------------------------


def doubled_pair(x, y):
    """2<x, y>: slot k of x meets slot k +- d of y (y[k - d] counts from the end
    for k < d).  The value lies in the ring of y; x is constant or in that ring."""
    d = len(x) // 2
    return sum((y[k - d] * c for k, c in enumerate(x) if c and y[k - d]), zero_of(y[0]))


def pairings(xs, ys):
    """The matrix of 2<x, y> over lists of constant vectors: one ``mat_mul`` of
    the rows xs against the columns ys with their halves swapped, so a zero
    slot on either side costs nothing.  Entry by entry it is ``doubled_pair``."""
    return mat_mul(xs, list(zip(*(y[len(y) // 2 :] + y[: len(y) // 2] for y in ys))))


def pair(s1: GenSection, s2: GenSection) -> PolyScalar:
    """Natural split-signature pairing: <X+s, Y+t> = (s(Y) + t(X)) / 2."""
    _same_frame(s1, s2)
    return doubled_pair(s1.coeffs, s2.coeffs).scale(GR_HALF)


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


def courant_bracket(s1: GenSection, s2: GenSection) -> GenSection:
    """Skew bracket [X+s, Y+t] = [X,Y] + L_X t - L_Y s - d(i_X t - i_Y s)/2.

    The ``bracket_vectors`` sum over the frame's ``courant_table`` plus the
    Leibniz terms, which vanish unless a coefficient holds a function.  With
    d_b the derivative along the b-th frame vector, frame slot k gains
    X(y_k) - Y(x_k) and co-frame slot b gains
    X(t_b) - Y(s_b) + (1/2) sum_a (t_a d_b x_a - x_a d_b t_a - s_a d_b y_a + y_a d_b s_a).
    """
    _same_frame(s1, s2)
    frame = s1.frame
    d = frame.dim
    x, sig, y, tau = s1.tangent, s1.cotangent, s2.tangent, s2.cotangent
    out = bracket_vectors(frame.courant_table, s1.coeffs, s2.coeffs)
    for k in range(d):
        out[k] += directional(frame, x, y[k]) - directional(frame, y, x[k])
        out[d + k] += directional(frame, x, tau[k]) - directional(frame, y, sig[k])
    for a in range(d):
        for c, h in ((tau[a], x[a]), (-x[a], tau[a]), (-sig[a], y[a]), (y[a], sig[a])):
            if c:  # c * dh / 2, differentiating h only where c is nonzero
                for b, dh in enumerate(_grad(frame, h)):
                    if dh:
                        out[d + b] += (c * dh).scale(GR_HALF)
    return GenSection(frame, tuple(out))


def lie_derivative(x: GenSection, f: GenSection) -> GenSection:
    """L_X f = [X, f] + d(f(X))/2 for a tangent-only X and a 1-form f."""
    if not x.is_tangent_only():
        raise CourantError("lie_derivative direction must be tangent-only")
    if not f.is_cotangent_only():
        raise CourantError("lie_derivative argument must be a 1-form")
    bracket = courant_bracket(x, f)
    fx = doubled_pair(x.coeffs, f.coeffs)
    exact = [PolyScalar.zero()] * x.frame.dim + [g.scale(GR_HALF) for g in _grad(x.frame, fx)]
    return bracket + GenSection(x.frame, tuple(exact))


def bracket_table(generators: Sequence[GenSection]) -> list[list[GenSection]]:
    """Full pairwise Courant table of constant sections, in the given order."""
    for g in generators:
        if not g.is_constant():
            raise CourantError("bracket_table requires constant generators")
    n = len(generators)
    table = [[GenSection.zero(g.frame)] * n for g in generators]
    for a, b in itertools.combinations(range(n), 2):  # skew: [b, a] = -[a, b], [a, a] = 0
        table[a][b] = courant_bracket(generators[a], generators[b])
        table[b][a] = -table[a][b]
    return table
