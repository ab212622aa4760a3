"""Exact coefficient arithmetic for the invariant calculus.

Everything downstream (frames, brackets, deformations) computes in the ring
built here: Gaussian rationals extended by commuting generators of two kinds,
deformation parameters and coefficient functions, plus formal first-order
derivative symbols of the coefficient functions.  All arithmetic is exact;
nothing is ever rounded.

A Gaussian rational (a + b*i)/d is held as three plain ints in canonical
form: d > 0 and gcd(a, b, d) = 1.  A polynomial stores no zero coefficient
and keeps its terms in one fixed monomial order.  Equal values therefore have
equal representations, so equality and hashing are structural.

Derivative symbols are first order only.  A ``DerivationSymbol`` can only be
built from a plain coefficient-function ``Symbol``, so a nested derivative is
not constructible, and differentiating a polynomial that already contains a
derivative symbol raises ``DerivationDepthError``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Mapping, Sequence, Union


class ScalarError(ValueError):
    """Base class for scalar-ring errors."""


class DerivationDepthError(ScalarError):
    """A computation would need a second derivative of a coefficient function."""


class SubstitutionError(ScalarError):
    """A substitution targeted something other than a parameter symbol."""


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

FractionLike = Union[int, Fraction]


class GaussianRational:
    """Exact complex number re + im*i with rational parts.

    The value (a + b*i)/d is held as three ints in canonical form: d > 0 and
    gcd(a, b, d) = 1, so zero is (0, 0, 1).  Equal values have equal triples,
    which makes equality and hashing structural.  As with ``Fraction``, the
    fields are private slots and instances are never changed after they are
    built; ``re`` and ``im`` are read-only ``Fraction`` views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: FractionLike, im: FractionLike) -> None:
        if not isinstance(re, (int, Fraction)):
            raise TypeError(f"not an exact rational: {re!r}")
        if not isinstance(im, (int, Fraction)):
            raise TypeError(f"not an exact rational: {im!r}")
        # both parts are in lowest terms, so over the lcm of their
        # denominators no prime divides a, b and d at once
        p, q = re.denominator, im.denominator
        d = q * p // gcd(p, q)
        self._a = re.numerator * (d // p)
        self._b = im.numerator * (d // q)
        self._d = d

    @staticmethod
    def of(re: FractionLike = 0, im: FractionLike = 0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce_gr(other)
        d, f = self._d, other._d
        if d == f:
            a, b = self._a + other._a, self._b + other._b
            if d == 1:
                return _triple(a, b, 1)
        else:
            a, b, d = self._a * f + other._a * d, self._b * f + other._b * d, d * f
        return _reduced(a, b, d)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce_gr(other)
        d, f = self._d, other._d
        if d == f:
            a, b = self._a - other._a, self._b - other._b
            if d == 1:
                return _triple(a, b, 1)
        else:
            a, b, d = self._a * f - other._a * d, self._b * f - other._b * d, d * f
        return _reduced(a, b, d)

    def __rsub__(self, other: "GaussianRational") -> "GaussianRational":
        return _coerce_gr(other) - self

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce_gr(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _coerce_gr(other)
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + b*i)/d / ((c + e*i)/f) = (a + b*i)(c - e*i) f / (d (c^2 + e^2))
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        # printed from the triple as ``Fraction`` prints each part
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio(a, d)
        im = "i" if abs(b) == d else f"{_ratio(abs(b), d)}*i"
        if not a:
            return im if b > 0 else "-" + im
        return f"{_ratio(a, d)} {'+' if b > 0 else '-'} {im}"


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The Gaussian rational of a triple that is already canonical."""
    x = _new(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    # _triple inlined: every product and quotient ends here
    x = _new(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0: ``n`` alone when d divides it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _coerce_gr(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _triple(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")


GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)
GR_HALF = GaussianRational.of(Fraction(1, 2))


_SIMPLE_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_IMAG_RE = re.compile(r"^i(?:/(\d+))?$")
_SPLIT_OPERAND_RE = re.compile(r"[\w)]\s+[\w(]")


def parse_gaussian(text: str) -> GaussianRational:
    """Parse a Gaussian rational from its rendered or hand-written form.

    Accepts ``3``, ``-1/2``, ``i``, ``-i``, ``i/2``, ``1/2*i``, ``2*i`` and
    sums such as ``1/2+1/3*i`` or parenthesised ``(1/2 - i)``.
    """

    s = text.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ScalarError("empty scalar")
    total = GR_ZERO
    for sign, chunk in _split_signed(s):
        total = total + sign * _parse_gaussian_atom(chunk)
    # a space may stand beside an operator or a parenthesis, never between
    # two operands: "1 2" is no 12
    if _SPLIT_OPERAND_RE.search(text):
        raise ScalarError(f"malformed scalar {text.strip()!r}")
    return total


def _split_signed(s: str) -> list[tuple[int, str]]:
    parts: list[tuple[int, str]] = []
    sign = 1
    buf = ""
    for idx, ch in enumerate(s):
        if ch in "+-" and idx > 0 and s[idx - 1] not in "+-*/(":
            parts.append((sign, buf))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch in "+-" and idx == 0:
            sign = 1 if ch == "+" else -1
        else:
            buf += ch
    parts.append((sign, buf))
    return parts


def _parse_gaussian_atom(chunk: str) -> GaussianRational:
    if not chunk:
        raise ScalarError("malformed scalar term")
    factors = chunk.split("*")
    value = GR_ONE
    for f in factors:
        m = _SIMPLE_RE.match(f)
        if m:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
            if den == 0:
                raise ScalarError(f"zero denominator in {f!r}")
            value = value * GaussianRational.of(Fraction(num, den))
            continue
        m = _IMAG_RE.match(f)
        if m:
            den = int(m.group(1)) if m.group(1) else 1
            if den == 0:
                raise ScalarError(f"zero denominator in {f!r}")
            value = value * GaussianRational.of(0, Fraction(1, den))
            continue
        raise ScalarError(f"malformed rational {f!r}")
    return value


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

PARAMETER = "parameter"
FUNCTION = "function"


class Symbol:
    """Named generator: a deformation parameter or a coefficient function.

    A value: symbols of equal name and kind are equal and hash alike.
    """

    __slots__ = ("name", "kind", "_hash", "_key")

    def __init__(self, name: str, kind: str) -> None:
        if kind not in (PARAMETER, FUNCTION):
            raise ScalarError(f"unknown symbol kind {kind!r}")
        self.name = name
        self.kind = kind
        self._hash = hash((name, kind))
        self._key = (name, "")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Symbol:
            return NotImplemented
        return self.name == other.name and self.kind == other.kind

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Symbol(name={self.name!r}, kind={self.kind!r})"

    def sort_key(self) -> tuple[str, str]:
        return self._key

    def __str__(self) -> str:
        return self.name


def parameter(name: str) -> Symbol:
    return Symbol(name, PARAMETER)


def function(name: str) -> Symbol:
    return Symbol(name, FUNCTION)


class DerivationSymbol:
    """First derivative of a coefficient function along a frame direction.

    The operand must be a plain coefficient-function symbol, so derivatives of
    parameters and nested derivatives cannot be constructed.
    """

    __slots__ = ("direction", "operand", "_hash", "_key")

    def __init__(self, direction: str, operand: Symbol) -> None:
        if operand.__class__ is not Symbol:
            raise ScalarError("derivative operand must be a plain symbol")
        if operand.kind != FUNCTION:
            raise ScalarError(f"cannot differentiate {operand.kind} symbol {operand.name!r}")
        self.direction = direction
        self.operand = operand
        self._hash = hash((direction, operand))
        self._key = (operand.name, direction)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DerivationSymbol:
            return NotImplemented
        return self.direction == other.direction and self.operand == other.operand

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"DerivationSymbol(direction={self.direction!r}, operand={self.operand!r})"

    def sort_key(self) -> tuple[str, str]:
        return self._key

    def __str__(self) -> str:
        return f"{self.direction}({self.operand.name})"


Generator = Union[Symbol, DerivationSymbol]


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def _generator_key(power: tuple[Generator, int]):
    return power[0]._key


class Monomial:
    """Commutative product of generators, stored sorted with exponents."""

    __slots__ = ("powers", "_hash", "_key")

    def __init__(self, powers: tuple[tuple[Generator, int], ...]) -> None:
        self.powers = powers
        # hashed once: dict lookups would otherwise re-hash the nested powers
        self._hash = hash(powers)
        self._key = None  # order_key, filled on its first read

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Monomial:
            return NotImplemented
        return self.powers == other.powers

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial(powers={self.powers!r})"

    @staticmethod
    def of(*gens: Generator) -> "Monomial":
        counts: dict[Generator, int] = {}
        for g in gens:
            counts[g] = counts.get(g, 0) + 1
        return Monomial.from_counts(counts)

    @staticmethod
    def from_counts(counts: Mapping[Generator, int]) -> "Monomial":
        items = [(g, e) for g, e in counts.items() if e != 0]
        if any(e < 0 for _, e in items):
            raise ScalarError("negative exponent")
        return Monomial(tuple(sorted(items, key=_generator_key)))

    @property
    def order_key(self) -> tuple[tuple[str, str], ...]:
        # Fixed lexicographic order on (symbol name, derivation direction);
        # a monomial that is a prefix of another sorts first.
        if self._key is None:
            self._key = tuple(key for g, e in self.powers for key in itertools.repeat(g._key, e))
        return self._key

    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def generators(self) -> tuple[Generator, ...]:
        return tuple(g for g, _ in self.powers)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other.powers:
            return self
        if not self.powers:
            return other
        counts: dict[Generator, int] = dict(self.powers)
        for g, e in other.powers:
            counts[g] = counts.get(g, 0) + e
        return Monomial(tuple(sorted(counts.items(), key=_generator_key)))

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        parts = []
        for g, e in self.powers:
            parts.append(str(g) if e == 1 else f"{g}^{e}")
        return "*".join(parts)


MONOMIAL_ONE = Monomial(())


PolyLike = Union["PolyScalar", GaussianRational, int, Fraction, Symbol, DerivationSymbol]
Term = tuple[Monomial, GaussianRational]


class PolyScalar:
    """Sparse exact polynomial: monomials mapped to Gaussian-rational coefficients.

    Zero coefficients are never stored and terms are kept in the fixed monomial
    order, so equality is structural on the canonical form and rendering is
    deterministic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Term, ...]) -> None:
        self.terms = terms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PolyScalar:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"PolyScalar(terms={self.terms!r})"

    @staticmethod
    def from_dict(d: Mapping[Monomial, GaussianRational]) -> "PolyScalar":
        items = [(m, c) for m, c in d.items() if c._a or c._b]
        if len(items) > 1:
            items.sort(key=_term_key)
        return PolyScalar(tuple(items))

    @staticmethod
    def zero() -> "PolyScalar":
        return P_ZERO

    @staticmethod
    def const(c) -> "PolyScalar":
        c = _coerce_gr(c)
        if c.is_zero():
            return P_ZERO
        return PolyScalar(((MONOMIAL_ONE, c),))

    @staticmethod
    def of(gen: Generator) -> "PolyScalar":
        return PolyScalar(((Monomial(((gen, 1),)), GR_ONE),))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: PolyLike) -> "PolyScalar":
        other = poly(other)
        if not self.terms:
            return other
        return self._merge(other, GaussianRational.__add__)

    __radd__ = __add__

    def __sub__(self, other: PolyLike) -> "PolyScalar":
        return self._merge(poly(other), GaussianRational.__sub__)

    def __rsub__(self, other: PolyLike) -> "PolyScalar":
        return poly(other) - self

    def _merge(self, other: "PolyScalar", op) -> "PolyScalar":
        """``op`` (add or subtract) applied term by term, in one dict."""
        if not other.terms:
            return self
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = op(d.get(m, GR_ZERO), c)
        return PolyScalar.from_dict(d)

    def __neg__(self) -> "PolyScalar":
        return PolyScalar(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: PolyLike) -> "PolyScalar":
        if other.__class__ is not PolyScalar:
            other = poly(other)
        return PolyScalar.from_dict(_product(self.terms, other.terms, {}))

    __rmul__ = __mul__

    def scale(self, c) -> "PolyScalar":
        c = _coerce_gr(c)
        if c.is_zero():
            return P_ZERO
        return PolyScalar(tuple((m, k * c) for m, k in self.terms))

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, m: Monomial) -> GaussianRational:
        for m1, c in self.terms:
            if m1 == m:
                return c
        return GR_ZERO

    def constant_value(self) -> GaussianRational:
        if not self.terms:
            return GR_ZERO
        if len(self.terms) == 1 and self.terms[0][0] == MONOMIAL_ONE:
            return self.terms[0][1]
        raise ScalarError(f"not a constant: {self}")

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == MONOMIAL_ONE)

    def generators(self) -> set[Generator]:
        return {g for m, _ in self.terms for g in m.generators()}

    def has_functions(self) -> bool:
        # a generator is a parameter, a function or a derivative of one
        return any(g.__class__ is not Symbol or g.kind != PARAMETER
                   for m, _ in self.terms for g, _ in m.powers)

    def has_derivations(self) -> bool:
        return any(isinstance(g, DerivationSymbol) for g in self.generators())

    # -- substitution, differentiation, evaluation ---------------------------

    def substitute(self, bindings: Mapping[Symbol, PolyLike]) -> "PolyScalar":
        """Eliminate parameter symbols by exact substitution (``bound_terms``)."""
        return self.substituted(bound_terms(bindings))

    def substituted(self, values: Mapping[Symbol, tuple[Term, ...]]) -> "PolyScalar":
        """``substitute`` with bindings that ``bound_terms`` checked once."""
        if not any(g in values for m, _ in self.terms for g, _ in m.powers):
            return self
        out: dict[Monomial, GaussianRational] = {}
        for m, c in self.terms:
            # the unbound factors keep their order; each bound one multiplies in
            term = {Monomial(tuple((g, e) for g, e in m.powers if g not in values)): c}
            for g, e in m.powers:
                for _ in range(e if g in values else 0):
                    term = _product(term.items(), values[g], {})
            for k, v in term.items():
                s = out.get(k)
                out[k] = v if s is None else s + v
        return PolyScalar.from_dict(out)

    def differentiate(self, direction: str) -> "PolyScalar":
        """Formal derivative along a frame direction.

        Parameters are constants.  Coefficient functions pick up a
        ``DerivationSymbol`` factor.  A monomial already carrying a derivative
        symbol cannot be differentiated again (first-order closure).
        """
        out: dict[Monomial, GaussianRational] = {}
        for m, c in self.terms:
            for g, e in m.powers:
                if g.__class__ is DerivationSymbol:
                    raise DerivationDepthError(f"second derivative of {g.operand.name!r} required")
            for g, e in m.powers:
                if g.kind == FUNCTION:
                    counts = {**dict(m.powers), g: e - 1, DerivationSymbol(direction, g): 1}
                    mono = Monomial.from_counts(counts)
                    out[mono] = out.get(mono, GR_ZERO) + c * GaussianRational.of(e)
        return PolyScalar.from_dict(out)

    def evaluate(self, point: Mapping[Generator, GaussianRational]) -> GaussianRational:
        """Evaluate with every generator (derivatives included) ground to a value."""
        total = GR_ZERO
        for m, c in self.terms:
            v = c
            for g, e in m.powers:
                if g not in point:
                    raise ScalarError(f"no value for {g}")
                for _ in range(e):
                    v = v * point[g]
            total = total + v
        return total

    def __str__(self) -> str:
        return render_sum((str(c), str(m) if m != MONOMIAL_ONE else "") for m, c in self.terms)


def bound_terms(bindings: Mapping[Symbol, PolyLike]) -> dict[Symbol, tuple[Term, ...]]:
    """Parameter bindings, each value as its terms; binding a coefficient
    function or a derivative symbol is rejected."""
    for sym in bindings:
        if sym.__class__ is not Symbol:
            raise SubstitutionError(f"cannot bind {sym!r}")
        if sym.kind != PARAMETER:
            raise SubstitutionError(f"cannot bind {sym.kind} symbol {sym.name!r}")
    return {s: poly(v).terms for s, v in bindings.items()}


def render_sum(terms: Iterable[tuple[str, str]]) -> str:
    """Render (coefficient, label) pairs as one signed sum.

    A coefficient that is itself a sum (a `` + `` or `` - `` outside its
    parentheses) is parenthesised; a coefficient of 1 or -1 folds into its
    label; an empty label keeps the bare coefficient; the empty sum is ``0``.
    """
    out = ""
    for cs, label in terms:
        if _is_sum(cs):
            cs = f"({cs})"
        if not label:
            term = cs
        elif cs == "1":
            term = label
        elif cs == "-1":
            term = "-" + label
        else:
            term = f"{cs}*{label}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


def _is_sum(text: str) -> bool:
    depth = 0
    for pos, ch in enumerate(text):
        if ch in "()":
            depth += 1 if ch == "(" else -1
        elif not depth and text.startswith((" + ", " - "), pos):
            return True
    return False


def _term_key(term: Term):
    return term[0].order_key


def _product(left: Iterable, right: Iterable, acc: dict) -> dict:
    """Add each product of a (monomial, coefficient) pair of ``left`` and one
    of ``right`` into ``acc`` by monomial; a sum that cancels stays, as zero,
    for ``PolyScalar.from_dict`` to drop."""
    get = acc.get
    for m1, c1 in left:
        for m2, c2 in right:
            m, c = m1 * m2, c1 * c2
            s = get(m)
            acc[m] = c if s is None else s + c
    return acc


def poly(x: PolyLike) -> PolyScalar:
    if isinstance(x, PolyScalar):
        return x
    if isinstance(x, (Symbol, DerivationSymbol)):
        return PolyScalar.of(x)
    return PolyScalar.const(_coerce_gr(x))


P_ZERO = PolyScalar(())
P_ONE = PolyScalar.const(GR_ONE)


def zero_of(x) -> Union[GaussianRational, PolyScalar]:
    """The zero of the ring of ``x``: ``P_ZERO`` for a polynomial, else ``GR_ZERO``."""
    return P_ZERO if x.__class__ is PolyScalar else GR_ZERO


def minor(matrix, rows: tuple[int, ...], cols: tuple[int, ...], table: dict) -> PolyScalar:
    """Determinant of the ``rows`` x ``cols`` submatrix, memoized in ``table``.

    Laplace expansion along the last selected row into minors of the rows
    before it, so minors of every size share their smaller minors; the signed
    products are summed in one dict and put in canonical order once.  The
    minor of no rows is 1.
    """
    if not rows:
        return P_ONE
    key = (rows, cols)
    if key in table:
        return table[key]
    head, last = rows[:-1], matrix[rows[-1]]
    if not head:
        value = last[cols[0]]
    else:
        total: dict[Monomial, GaussianRational] = {}
        for pos, col in enumerate(cols):
            if last[col].is_zero():
                continue
            rest = minor(matrix, head, cols[:pos] + cols[pos + 1 :], table)
            entry = last[col].terms
            if (len(head) + pos) % 2:
                entry = [(m, -c) for m, c in entry]
            _product(rest.terms, entry, total)
        value = PolyScalar.from_dict(total)
    table[key] = value
    return value


# ---------------------------------------------------------------------------
# Exact linear algebra over the Gaussian rationals
# ---------------------------------------------------------------------------

Matrix = list[list[GaussianRational]]
GaussInt = tuple[int, int]  # (re, im)
Row = dict[int, GaussInt]


class SingularMatrixError(ScalarError):
    pass


class LinearSolution:
    """Result of solving a polynomial system for its degree-<=1 part.

    When ``consistent`` is false the solution set is empty: some linear
    constraint reduced to a nonzero polynomial free of the unknowns.  Such a
    constraint is left out, and ``bindings`` and ``free`` solve the others.
    """

    def __init__(
        self,
        bindings: dict[Symbol, PolyScalar],
        free: list[Symbol],
        residual: list[PolyScalar],
        consistent: bool,
    ) -> None:
        self.bindings = bindings
        self.free = free
        self.residual = residual
        self.consistent = consistent


def solve_linear(system: Sequence[Collection[Term]], unknowns: Sequence[Symbol]) -> LinearSolution:
    """Gaussian elimination for the linear part of ``system`` in ``unknowns``.

    Each constraint is given by its (monomial, nonzero coefficient) pairs in
    any order, such as a polynomial's ``terms``.  Constraints that are
    genuinely nonlinear in the unknowns (or whose unknown coefficients are
    themselves symbolic) are returned as polynomials in the residual list,
    unsolved.  When a constraint couples several unknowns the
    latest-listed one is solved for, so earlier unknowns are preferred as free
    coordinates: ``_eliminate`` numbers the columns as the unknowns,
    latest-listed first, then every other monomial as first seen.
    """
    n, unknown_set = len(unknowns), set(unknowns)
    column = {((u, 1),): j for j, u in enumerate(reversed(unknowns))}  # by monomial powers
    monomial: dict[int, Monomial] = {}
    rows, residual = [], []
    for terms in system:
        # linear: each term is free of the unknowns or is one unknown to the first power
        if any(m.degree() != 1 and not unknown_set.isdisjoint(m.generators()) for m, _ in terms):
            residual.append(PolyScalar.from_dict(dict(terms)))
            continue
        for m, _ in terms:
            monomial[column.setdefault(m.powers, n + len(column))] = m
        rows.append(_integer_row((column[m.powers], c) for m, c in terms))
    pivots, consistent = _eliminate(rows, n, jordan=True)
    bindings = _bindings(pivots, unknowns, monomial)
    return LinearSolution(bindings, [u for u in unknowns if u not in bindings], residual, consistent)


def _bindings(pivots: dict[int, Row], unknowns: Sequence[Symbol], monomial) -> dict[Symbol, PolyScalar]:
    """u - row for each unknown u with a pivot row, columns numbered as ``solve_linear`` does."""
    bindings = {}
    for j, u in zip(range(len(unknowns) - 1, -1, -1), unknowns):
        if (row := pivots.get(j)) is not None:
            terms = {monomial[k]: _over(-a, -b, *row[j]) for k, (a, b) in row.items() if k != j}
            bindings[u] = PolyScalar.from_dict(terms)
    return bindings


def _integer_row(entries: Iterable[tuple[int, GaussianRational]]) -> Row:
    """The sparse row {column: (re, im)} of the entries times the lcm of their denominators."""
    entries = [(j, x) for j, x in entries if x._a or x._b]
    den = lcm(*[x._d for _, x in entries])
    return {j: (x._a * (den // x._d), x._b * (den // x._d)) for j, x in entries}


def _eliminate(rows: Iterable[Row], width: int, jordan: bool) -> tuple[dict[int, Row], bool]:
    """Fraction-free Gauss(-Jordan) elimination of sparse rows over Z[i], which
    it leaves unchanged: this module's one pivot rule; returns ({pivot column:
    pivot row} in the order found, consistent), a pivot row possibly an input.

    Bareiss's rule (Math. Comp. 22, 1968), one row at a time: at each pivot
    column c found so far, in that order, row <- (p*row - row[c]*pivot_row)/q
    for the pivot p at c and the pivot q that cleared the row last (1 at
    first).  Every entry is then a minor of the input, so q divides exactly.
    A step with row[c] = 0 would only scale by p/q and folds into the next.
    The row's pivot is its first column; a nonzero row with none below
    ``width`` makes the system inconsistent and never feeds a pivot row.  A
    new pivot row is scaled by the last pivot over q, as if cleared at every
    column.  ``jordan`` then clears each pivot row at the pivots found after
    it, q first its own pivot: the reduced echelon form, unique for the
    column order, once the caller divides each pivot row by its pivot.
    """
    pivots: dict[int, Row] = {}
    consistent, last = True, (1, 0)
    for row in rows:
        row, q = _clear(row, pivots.items(), (1, 0))
        pivot = min(row, default=width)
        if pivot >= width:
            consistent = consistent and not row
        else:
            pivots[pivot] = row = row if last == q else _combined(row, last, (0, 0), {}, q)
            last = row[pivot]
    if jordan:
        steps = list(pivots.items())
        for k, (c, row) in enumerate(steps):
            pivots[c] = _clear(row, steps[k + 1 :], row[c])[0]
    return pivots, consistent


def _clear(row: Row, steps: Iterable[tuple[int, Row]], q: GaussInt) -> tuple[Row, GaussInt]:
    """Bareiss's rule on ``row``, last cleared by pivot q, at each (column,
    pivot row) of ``steps``; returns the row and the pivot that cleared it last."""
    for c, prow in steps:
        if (f := row.get(c)) is not None:
            row, q = _combined(row, prow[c], f, prow, q), prow[c]
    return row, q


def _combined(row: Row, p: GaussInt, f: GaussInt, prow: Row, q: GaussInt) -> Row:
    """(p*row - f*prow)/q as a new row, q dividing each entry in Z[i]."""
    (pr, pi), (fr, fi), (qr, qi) = p, f, q
    n, out = qr * qr + qi * qi, {}
    for j, (a, b) in row.items():
        cr, ci = prow.get(j, (0, 0))
        if (xr := pr * a - pi * b - fr * cr + fi * ci) | (xi := pr * b + pi * a - fr * ci - fi * cr):
            out[j] = ((xr * qr + xi * qi) // n, (xi * qr - xr * qi) // n)
    for j, (cr, ci) in prow.items():
        if j not in row:
            xr, xi = fi * ci - fr * cr, -fr * ci - fi * cr
            out[j] = ((xr * qr + xi * qi) // n, (xi * qr - xr * qi) // n)
    return out


def _over(a: int, b: int, dr: int, di: int) -> GaussianRational:
    """The Gaussian rational (a + b*i) / (dr + di*i)."""
    return _reduced(a * dr + b * di, b * dr - a * di, dr * dr + di * di) if a or b else GR_ZERO


def _rref(rows: Iterable, width: int) -> tuple[Matrix, list[int]]:
    """The nonzero rows of the reduced row echelon form of sparse rows
    [(column, value)] on ``width`` columns, and their pivot columns: one
    ``_eliminate`` of their ``_integer_row``s, each pivot row divided once."""
    pivots, _ = _eliminate(map(_integer_row, rows), width, jordan=True)
    columns = sorted(pivots)
    out = [[_over(*pivots[c].get(j, (0, 0)), *pivots[c][c]) for j in range(width)] for c in columns]
    return out, columns


def mat_rref(matrix: Sequence[Sequence[GaussianRational]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices): the
    rows of ``_rref``, then the zero rows."""
    ncols = len(matrix[0]) if matrix else 0
    out, columns = _rref(map(enumerate, matrix), ncols)
    return out + [[GR_ZERO] * ncols for _ in range(len(matrix) - len(columns))], columns


def integer_rank(rows: Iterable[Row], width: int) -> int:
    """The number of pivots of ``_eliminate`` stopped at the echelon form."""
    return len(_eliminate(rows, width, jordan=False)[0])


def mat_rank(matrix: Sequence[Sequence[GaussianRational]]) -> int:
    """``integer_rank`` of the rows scaled by ``_integer_row``."""
    return integer_rank(map(_integer_row, map(enumerate, matrix)), len(matrix[0]) if matrix else 0)


def mat_inverse(matrix: Sequence[Sequence[GaussianRational]]) -> Matrix:
    n = len(matrix)
    aug = ([*enumerate(row), (n + i, GR_ONE)] for i, row in enumerate(matrix))
    rows, pivots = _rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in rows[:n]]


def mat_mul(a: Sequence[Sequence[GaussianRational]], b: Sequence[Sequence[GaussianRational]]) -> Matrix:
    """The product a b of constant matrices, one product per pair of nonzero
    factors: a nonzero a[i][k] meets only the nonzero entries of row k of b.
    An empty b has no columns, so every row of the product is empty."""
    width = len(b[0]) if b else 0
    nonzero = [[(j, y) for j, y in enumerate(row) if y._a or y._b] for row in b]
    out = []
    for row in a:
        acc = [GR_ZERO] * width
        for x, terms in zip(row, nonzero):
            if x._a or x._b:
                for j, y in terms:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def mat_left_inverse(matrix: Sequence[Sequence[GaussianRational]]) -> Matrix:
    """Left inverse of a full-column-rank matrix (L @ matrix = identity).

    One elimination of [matrix^T | I]: row j of L is the solution of
    matrix^T x = e_j whose free coordinates are zero.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return []
    aug = ([(i, row[j]) for i, row in enumerate(matrix)] + [(m + j, GR_ONE)] for j in range(n))
    rows, pivots = _rref(aug, m + n)
    if pivots[-1] >= m:
        raise SingularMatrixError("matrix has no left inverse")
    left = [[GR_ZERO] * m for _ in range(n)]
    for row, c in zip(rows, pivots):
        for j in range(n):
            left[j][c] = row[m + j]
    return left
