"""Independent reference computations used to pin the production paths.

The Courant oracle works only on constant sections and goes through pure
invariant exterior calculus (structure-constant differential, interior
products), a different route from the engine's function-coefficient Leibniz
expansion.
"""

from dataclasses import dataclass
from fractions import Fraction
import itertools
from math import gcd
import operator
import random

from gcdeform.courant import GenSection
from gcdeform.frame import ComplexFrame, ExteriorForm
from gcdeform.scalar import GaussianRational, PolyScalar


def courant_oracle(frame: ComplexFrame, s1: GenSection, s2: GenSection) -> GenSection:
    """Brute-force Courant bracket of constant sections via exterior calculus."""
    d = frame.dim
    names = frame.algebra.dual_names
    x = [PolyScalar.const(c.constant_value()) for c in s1.tangent]
    y = [PolyScalar.const(c.constant_value()) for c in s2.tangent]
    sigma = ExteriorForm.build(names, {(k,): s1.cotangent[k] for k in range(d)})
    tau = ExteriorForm.build(names, {(k,): s2.cotangent[k] for k in range(d)})

    tangent = frame.algebra.bracket_vectors(x, y)

    def lie(vec, form):
        # constant data: L_v = i_v d + d i_v with the second term constant, so zero
        return frame.algebra.ce_differential(form).interior(vec)

    form = lie(x, tau)
    ly = lie(y, sigma)
    out = [PolyScalar.zero()] * d
    for k in range(d):
        out[k] = form.coefficient((k,)) - ly.coefficient((k,))
    # the d(i_x tau - i_y sigma)/2 term differentiates a constant: zero
    return GenSection(frame, tuple(tangent + out))


def permutation_det(matrix) -> PolyScalar:
    """Determinant by expansion over all n! permutations, signed by inversions."""
    n = len(matrix)
    total = PolyScalar.zero()
    for perm in itertools.permutations(range(n)):
        pairs = itertools.combinations(range(n), 2)
        inversions = sum(perm[i] > perm[j] for i, j in pairs)
        prod = PolyScalar.const(1)
        for row, col in enumerate(perm):
            prod = prod * matrix[row][col]
        total = total + (-prod if inversions % 2 else prod)
    return total


def reference_rref(matrix):
    """Reduced row echelon form by entry-wise ``Fraction`` division.

    This is the Gauss-Jordan routine the engine used before its fraction-free
    elimination; it returns (rows, pivot column indices) in the same form.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


@dataclass(frozen=True)
class ReferenceGaussianRational:
    """Exact complex number re + im*i held as a pair of ``Fraction``s.

    This is the number format the engine used before its canonical
    ``(a, b, d)`` int triples; ``Fraction`` keeps each part in lowest terms.
    """

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "ReferenceGaussianRational":
        return ReferenceGaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        return ReferenceGaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ReferenceGaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ReferenceGaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        return ReferenceGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return ReferenceGaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self):
        return ReferenceGaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        def imag(im):
            return "i" if im == 1 else "-i" if im == -1 else f"{im}*i"

        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return imag(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {imag(abs(self.im))}"


def gaussian_mismatches(p, q) -> list[str]:
    """Every disagreement of ``GaussianRational`` with the ``Fraction``-pair
    reference on two operands, each given as an (re, im) pair of ints or
    ``Fraction``s: ``+ - * /``, negation, conjugation, ``==``, ``hash``,
    ``str``, ``is_zero``, ``re``, ``im`` and the canonical (a, b, d) triple."""
    x, y = GaussianRational.of(*p), GaussianRational.of(*q)
    rx, ry = ReferenceGaussianRational.of(*p), ReferenceGaussianRational.of(*q)
    out = []

    def check(label, value, ref):
        got = (value.re, value.im, str(value), value.is_zero(), bool(value))
        want = (ref.re, ref.im, str(ref), ref.is_zero(), not ref.is_zero())
        if got != want:
            out.append(f"{label}: {got} != {want}")
        if not (isinstance(value.re, Fraction) and isinstance(value.im, Fraction)):
            out.append(f"{label}: parts are not Fractions")
        a, b, d = value._a, value._b, value._d
        if d <= 0 or gcd(a, b, d) != 1:
            out.append(f"{label}: triple {(a, b, d)} is not canonical")

    for v, r in ((x, rx), (y, ry)):
        check(f"{r}", v, r)
        check(f"-({r})", -v, -r)
        check(f"conj({r})", v.conjugate(), r.conjugate())
    ops = (("+", operator.add), ("-", operator.sub), ("*", operator.mul), ("/", operator.truediv))
    for a, b, ra, rb in ((x, y, rx, ry), (y, x, ry, rx)):
        for name, op in ops:
            label = f"({ra}) {name} ({rb})"
            if op is operator.truediv and rb.is_zero():
                try:
                    a / b
                except ZeroDivisionError:
                    continue
                out.append(f"{label}: no ZeroDivisionError")
                continue
            check(label, op(a, b), op(ra, rb))
    if (x == y) != (rx == ry) or (x != y) != (rx != ry):
        out.append(f"({rx}) == ({ry}) disagrees")
    if x == y and hash(x) != hash(y):
        out.append(f"equal ({rx}) and ({ry}) hash differently")
    # results reached by different routes are equal and hash alike
    routes = [(x + y) - y, x * GaussianRational.of(1)]
    if not ry.is_zero():
        routes.append((x * y) / y)
    for value in routes:
        if value != x or hash(value) != hash(x):
            out.append(f"({rx}) rebuilt as {value!r} differs")
    return out


def random_gaussian(rng: random.Random, bound: int = 3) -> GaussianRational:
    return GaussianRational.of(
        Fraction(rng.randint(-bound, bound), rng.randint(1, 4)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, 4)),
    )


def random_poly(rng: random.Random, symbols, max_terms: int = 3) -> PolyScalar:
    from gcdeform.scalar import Monomial

    total = PolyScalar.zero()
    for _ in range(rng.randint(1, max_terms)):
        gens = [rng.choice(symbols) for _ in range(rng.randint(0, 2))]
        total = total + PolyScalar.from_dict({Monomial.of(*gens): random_gaussian(rng)})
    return total


def small_binding(rng: random.Random) -> GaussianRational:
    # magnitudes at most 1/4 keep every deformed span separated
    return GaussianRational.of(
        Fraction(rng.randint(-1, 1), 8), Fraction(rng.randint(-1, 1), 8)
    )
