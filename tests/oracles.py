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
from typing import Optional, Sequence
import operator
import random

from gcdeform.algebroid import AlgebroidError
from gcdeform.courant import GenSection, courant_bracket, pair
from gcdeform.deformation import DeformationError
from gcdeform.frame import ComplexFrame, ExteriorForm
from gcdeform.scalar import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    LinearSolution,
    PolyLike,
    PolyScalar,
    SingularMatrixError,
    Symbol,
    mat_inverse,
    mat_left_inverse,
    mat_rank,
    poly,
)


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


# The engine's elimination before each linear constraint became its own
# polynomial row: rows as (unknown coefficients, rest) pairs, updated by hand.
def reference_solve_linear(
    system: Sequence[PolyScalar], unknowns: Sequence[Symbol]
) -> LinearSolution:
    """Gaussian elimination for the linear part of ``system`` in ``unknowns``.

    Constraints that are genuinely nonlinear in the unknowns (or whose unknown
    coefficients are themselves symbolic) are returned verbatim in the residual
    list, unsolved.  When a constraint couples several unknowns the
    latest-listed one is solved for, so earlier unknowns are preferred as free
    coordinates.  An inconsistent linear system is reported as an empty
    solution set (``consistent=False``).
    """
    unknown_set = set(unknowns)
    rows: list[tuple[dict[Symbol, GaussianRational], PolyScalar]] = []
    residual: list[PolyScalar] = []

    for p in system:
        coeffs: dict[Symbol, GaussianRational] = {}
        rest = PolyScalar.zero()
        linear = True
        for m, c in p.terms:
            gens = m.generators()
            hit = [g for g in gens if isinstance(g, Symbol) and g in unknown_set]
            if not hit:
                rest = rest + PolyScalar(((m, c),))
            elif (
                len(hit) == 1
                and m.degree() == 1
            ):
                u = hit[0]
                coeffs[u] = coeffs.get(u, GR_ZERO) + c
            else:
                linear = False
                break
        if not linear:
            residual.append(p)
            continue
        coeffs = {u: c for u, c in coeffs.items() if not c.is_zero()}
        if coeffs or not rest.is_zero():
            rows.append((coeffs, rest))

    # eliminate in reversed unknown order: latest unknowns become pivots
    order = list(reversed(list(unknowns)))
    pivots: dict[Symbol, tuple[dict[Symbol, GaussianRational], PolyScalar]] = {}
    consistent = True
    for coeffs, rest in rows:
        coeffs = dict(coeffs)
        rest = rest
        for u in order:
            if u in coeffs and u in pivots:
                factor = coeffs.pop(u)
                pcoeffs, prest = pivots[u]
                for v, cv in pcoeffs.items():
                    nv = coeffs.get(v, GR_ZERO) - factor * cv
                    if nv.is_zero():
                        coeffs.pop(v, None)
                    else:
                        coeffs[v] = nv
                rest = rest - prest.scale(factor)
        pivot_sym = next((u for u in order if u in coeffs), None)
        if pivot_sym is None:
            if not rest.is_zero():
                consistent = False
            continue
        lead = coeffs.pop(pivot_sym)
        norm_coeffs = {v: c / lead for v, c in coeffs.items()}
        norm_rest = rest.scale(GR_ONE / lead)
        pivots[pivot_sym] = (norm_coeffs, norm_rest)
        # re-reduce previously found pivots against the new one
        for u, (pcoeffs, prest) in list(pivots.items()):
            if u is pivot_sym or pivot_sym not in pcoeffs:
                continue
            f = pcoeffs.pop(pivot_sym)
            for v, cv in norm_coeffs.items():
                nv = pcoeffs.get(v, GR_ZERO) - f * cv
                if nv.is_zero():
                    pcoeffs.pop(v, None)
                else:
                    pcoeffs[v] = nv
            pivots[u] = (pcoeffs, prest - norm_rest.scale(f))

    bindings: dict[Symbol, PolyScalar] = {}
    for u in unknowns:
        if u in pivots:
            pcoeffs, prest = pivots[u]
            value = -prest
            for v, cv in sorted(pcoeffs.items(), key=lambda vc: vc[0].sort_key()):
                value = value - PolyScalar.of(v).scale(cv)
            bindings[u] = value
    free = [u for u in unknowns if u not in pivots]
    return LinearSolution(bindings=bindings, free=free, residual=residual, consistent=consistent)


def _wedge(f: ExteriorForm, g: ExteriorForm) -> ExteriorForm:
    acc = {}
    for i1, c1 in f.terms:
        for i2, c2 in g.terms:
            if set(i1) & set(i2):
                continue
            prev = acc.get(i1 + i2, PolyScalar.zero())
            acc[i1 + i2] = prev + c1 * c2
    return ExteriorForm.build(f.names, acc)


def reference_ce_differential(algebra, form: ExteriorForm) -> ExteriorForm:
    """d of an invariant form by wedging basis forms around d(e*_k).

    This is the expansion the engine used before the Leibniz rule wrote each
    d(e*_k) straight into its slot: sum over terms c*e*_I and positions p of
    (-1)^p c e*_{I<p} ^ d(e*_{i_p}) ^ e*_{I>p}.
    """
    names = algebra.dual_names
    one = PolyScalar.const(1)
    out = ExteriorForm.zero(names)
    for idx, c in form.terms:
        for pos, k in enumerate(idx):
            left = ExteriorForm.build(names, {idx[:pos]: one})
            right = ExteriorForm.build(names, {idx[pos + 1 :]: one})
            piece = _wedge(_wedge(left, algebra.d_dual_basis(k)), right).scale(c)
            out = out + (-piece if pos % 2 else piece)
    return out


# The engine's linear algebra of a subbundle before the pairing with the
# conjugate decided it: a span with one left inverse per generator set and per
# conjugate set, and the verdicts ``deform_subbundle`` drew from it.
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


def reference_verdicts(gens: Sequence[GenSection]) -> tuple[bool, bool, bool]:
    """(isotropic, involutive, separated) of constant generators, by spans."""
    isotropic = all(
        pair(a, b).is_zero() for a, b in itertools.combinations_with_replacement(gens, 2)
    )

    try:
        span = Span(gens)
    except SingularMatrixError:
        span = None
    rows = [g.constant_vector() for g in gens]
    conj_rows = [g.conjugate().constant_vector() for g in gens]
    separated = span is not None and mat_rank(rows + conj_rows) == 2 * len(gens)
    involutive = span is not None and all(
        span.express(courant_bracket(a, b).coeffs) is not None
        for a, b in itertools.combinations(gens, 2)
    )
    return isotropic, involutive, separated


def reference_express(sub, section: GenSection) -> Optional[list[PolyScalar]]:
    """Generator coefficients of an ambient section, or None if outside L."""
    return Span(sub.generators).express(section.coeffs)


def reference_theta(sub, y: GenSection) -> list[GaussianRational]:
    """Dual coefficients 2<y, g_a> of a constant section of the conjugate span."""
    if Span(sub.splitting.conjugates).express(y.coeffs) is None:
        raise AlgebroidError("section is not in the conjugate span")
    return [(pair(y, g).constant_value() * 2) for g in sub.generators]


def reference_theta_inverse(sub) -> tuple[GenSection, ...]:
    """Sections h_a of the conjugate span with 2<h_a, g_b> = delta_ab."""
    doubled_pairing = tuple(
        tuple(pair(g, c).constant_value() * 2 for c in sub.splitting.conjugates)
        for g in sub.generators
    )
    inverse = mat_inverse(doubled_pairing)
    out = []
    for a in range(sub.rank):
        h = GenSection.zero(sub.frame)
        for c, row in zip(sub.splitting.conjugates, inverse):
            h = h + c.scale(PolyScalar.const(row[a]))
        out.append(h)
    return tuple(out)


def reference_form_entries(sub, form: ExteriorForm) -> list[list[PolyScalar]]:
    """Entries of the map eps: L -> L-bar whose transported 2-form is ``form``."""
    n = sub.rank
    hs = reference_theta_inverse(sub)
    h_coords = [h.constant_vector() for h in hs]
    conj_span = Span(sub.splitting.conjugates)
    entries = [[PolyScalar.zero() for _ in range(n)] for _ in range(n)]
    for k in range(n):
        unit = [
            PolyScalar.const(GR_ONE if a == k else GR_ZERO) for a in range(n)
        ]
        phi = form.interior(unit)
        amb = [PolyScalar.zero()] * (2 * sub.frame.dim)
        for a in range(n):
            c = phi.coefficient((a,))
            if c.is_zero():
                continue
            for slot, hv in enumerate(h_coords[a]):
                if not hv.is_zero():
                    amb[slot] = amb[slot] - c.scale(hv)
        coeffs = conj_span.express(amb)
        if coeffs is None:
            raise DeformationError("form does not map into the conjugate span")
        for i in range(n):
            entries[i][k] = coeffs[i]
    return entries
