"""Independent reference computations used to pin the production paths.

The Courant oracle works only on constant sections and goes through pure
invariant exterior calculus (structure-constant differential, interior
products), a different route from the engine's function-coefficient Leibniz
expansion.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
import itertools
from math import gcd
from typing import Optional, Sequence
import operator
import random

from gcdeform.algebroid import AlgebroidError, CochainComplex
from gcdeform.courant import GenSection, courant_bracket, doubled_pair, pair
from gcdeform.deformation import (
    CLASSICAL_COMPLEX,
    COMPLEX,
    COMPLEX_NONCLASSICAL,
    OTHER,
    SYMPLECTIC,
    DeformationError,
    DeformationMap,
    classify,
    deform_subbundle,
)
from gcdeform.frame import (
    ComplexFrame,
    ComplexOp,
    ExteriorForm,
    FrameAlgebra,
    FrameError,
    JacobiViolation,
    bracket_vectors,
    default_frame_names,
)
from gcdeform.scalar import (
    DerivationSymbol,
    GR_HALF,
    GR_I,
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
    minor,
    parameter,
    poly,
    zero_of,
)


def d_dual_basis(algebra: FrameAlgebra, k: int) -> ExteriorForm:
    """d of the k-th dual 1-form: (d e_k*)(e_i, e_j) = -c^k_ij."""
    data = {}
    for (i, j), vec in algebra.table:
        if not vec[k].is_zero():
            data[(i, j)] = PolyScalar.const(-vec[k])
    return ExteriorForm.build(algebra.dual_names, data)


def reference_lie_bracket(algebra: FrameAlgebra, v, w) -> list:
    """``FrameAlgebra.bracket_vectors`` before every bracket was summed over one
    skew table: a dense sum over the stored pairs i < j, each weighted by
    w_j v_i - w_i v_j.  The value lies in the ring of w."""
    out = [zero_of(w[0])] * algebra.dim
    for (i, j), vec in algebra.table:
        factor = w[j] * v[i] - w[i] * v[j]
        if not factor:
            continue
        for k, c in enumerate(vec):
            if c:
                out[k] = out[k] + factor * c
    return out


def courant_oracle(frame: ComplexFrame, s1: GenSection, s2: GenSection) -> GenSection:
    """Brute-force Courant bracket of constant sections via exterior calculus."""
    d = frame.dim
    names = frame.algebra.dual_names
    x = [PolyScalar.const(c.constant_value()) for c in s1.tangent]
    y = [PolyScalar.const(c.constant_value()) for c in s2.tangent]
    sigma = ExteriorForm.build(names, {(k,): s1.cotangent[k] for k in range(d)})
    tau = ExteriorForm.build(names, {(k,): s2.cotangent[k] for k in range(d)})

    tangent = reference_lie_bracket(frame.algebra, x, y)

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


# ``courant_bracket``, ``pair`` and ``lie_derivative`` before the bracket was
# one formula: constant sections through the structure table, every other
# section through the Lie derivative of the co-frame part, expanded with the
# frame's d e_k* and contracted by hand.  Copied unchanged, helpers included.


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
        dk = d_dual_basis(frame.algebra, k)
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


def reference_pair(s1: GenSection, s2: GenSection) -> PolyScalar:
    """Natural split-signature pairing: <X+s, Y+t> = (s(Y) + t(X)) / 2."""
    d = s1.frame.dim
    if s1.is_constant() and s2.is_constant():
        value = doubled_pair(s1.constant_vector(), s2.constant_vector())
        return PolyScalar.const(value * GR_HALF)
    total = PolyScalar.zero()
    for a in range(d):
        total = total + s1.cotangent[a] * s2.tangent[a] + s2.cotangent[a] * s1.tangent[a]
    return total.scale(GR_HALF)


def reference_lie_derivative(x: GenSection, f: GenSection) -> GenSection:
    """L_X f for a tangent-only section X and an invariant co-frame 1-form f."""
    out = _lie_cotangent(x.frame, x.tangent, f.cotangent)
    zero = [PolyScalar.zero()] * x.frame.dim
    return GenSection(x.frame, tuple(zero + out))


def reference_courant_bracket(s1: GenSection, s2: GenSection) -> GenSection:
    """Skew bracket [X+s, Y+t] = [X,Y] + L_X t - L_Y s - d(i_X t - i_Y s)/2.

    Constant sections bracket bilinearly by the frame's ``courant_table``.
    """
    frame = s1.frame
    d = frame.dim
    if s1.is_constant() and s2.is_constant():
        x, y = s1.constant_vector(), s2.constant_vector()
        return GenSection.constant(frame, bracket_vectors(frame.courant_table, x, y))
    x, sig = list(s1.tangent), list(s1.cotangent)
    y, tau = list(s2.tangent), list(s2.cotangent)

    tang = reference_lie_bracket(frame.algebra, x, y)
    for k in range(d):
        tang[k] = tang[k] + directional(frame, x, y[k]) - directional(frame, y, x[k])

    cot = _lie_cotangent(frame, x, tau)
    ly = _lie_cotangent(frame, y, sig)
    anomaly = contract(tau, x) - contract(sig, y)
    grad = _grad(frame, anomaly)
    for b in range(d):
        cot[b] = cot[b] - ly[b] - grad[b].scale(GR_HALF)

    return GenSection(frame, tuple(tang + cot))


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


# Polynomials as {monomial: coefficient} dicts, each monomial a frozen
# ``Counter`` of generator exponents and each coefficient a
# ``ReferenceGaussianRational``: no sorted powers, no cached hash or order key.


def _reference_poly(p: PolyScalar) -> dict:
    return {frozenset(m.powers): ReferenceGaussianRational(c.re, c.im) for m, c in p.terms}


def _reference_combine(pairs) -> dict:
    """Sum (monomial Counter, coefficient) pairs by monomial, zeros dropped."""
    out = {}
    for counts, c in pairs:
        key = frozenset((+counts).items())
        out[key] = out.get(key, ReferenceGaussianRational.of()) + c
    return {m: c for m, c in out.items() if not c.is_zero()}


def _reference_mul(p: dict, q: dict) -> dict:
    return _reference_combine(
        (Counter(dict(m1)) + Counter(dict(m2)), c1 * c2) for m1, c1 in p.items() for m2, c2 in q.items()
    )


def _reference_add(p: dict, q: dict, sign: int = 1) -> dict:
    return _reference_combine(
        [(Counter(dict(m)), c) for m, c in p.items()]
        + [(Counter(dict(m)), c if sign > 0 else -c) for m, c in q.items()]
    )


def _reference_substitute(p: dict, values: dict) -> dict:
    out = {}
    for m, c in p.items():
        term = {frozenset((g, e) for g, e in m if g not in values): c}
        for g, e in m:
            for _ in range(e if g in values else 0):
                term = _reference_mul(term, values[g])
        out = _reference_add(out, term)
    return out


def _reference_evaluate(p: dict, point: dict) -> ReferenceGaussianRational:
    total = ReferenceGaussianRational.of()
    for m, c in p.items():
        for g, e in m:
            for _ in range(e):
                c = c * point[g]
        total = total + c
    return total


def _reference_key(g) -> tuple[str, str]:
    """A generator's place in the monomial order: (symbol name, derivation direction)."""
    return (g.operand.name, g.direction) if isinstance(g, DerivationSymbol) else (g.name, "")


def _reference_order(m) -> tuple:
    """The canonical term order: the sorted generator keys, each repeated by its exponent."""
    return tuple(sorted(_reference_key(g) for g, e in m for _ in range(e)))


def _reference_str(p: dict) -> str:
    text = ""
    for m in sorted(p, key=_reference_order):
        c = p[m]
        cs = f"({c})" if c.re and c.im else str(c)
        label = "*".join(
            str(g) if e == 1 else f"{g}^{e}" for g, e in sorted(m, key=lambda ge: _reference_key(ge[0]))
        )
        term = cs if not label else label if cs == "1" else "-" + label if cs == "-1" else f"{cs}*{label}"
        if not text:
            text = term
        else:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return text or "0"


def _canonical_faults(label: str, p: PolyScalar) -> list[str]:
    """Zero coefficients, unsorted powers or terms out of the canonical order in ``p``."""
    out = []
    orders = [_reference_order(m.powers) for m, _ in p.terms]
    if any(a >= b for a, b in zip(orders, orders[1:])):
        out.append(f"{label}: terms out of canonical order: {p!r}")
    for m, c in p.terms:
        keys = [_reference_key(g) for g, _ in m.powers]
        if c.is_zero() or keys != sorted(set(keys)) or any(e < 1 for _, e in m.powers):
            out.append(f"{label}: term ({m!r}, {c!r}) is not canonical")
    return out


def polynomial_mismatches(rng: random.Random) -> list[str]:
    """Every disagreement of ``PolyScalar`` with the Counter-monomial reference
    on seeded ``random_poly`` operands: ``*``, ``+``, ``-``, ``substitute``,
    ``evaluate`` and ``str``; results out of canonical form; equal results
    reached by different routes that differ or hash apart; and ``minor`` of a
    random square matrix of size 1 to 4 against ``permutation_det``."""
    f = Symbol("f", "function")
    params = [Symbol(name, "parameter") for name in ("s", "t", "u")]
    gens = [*params, f, DerivationSymbol("X", f), DerivationSymbol("Y", f)]
    p, q, r = (random_poly(rng, gens, rng.randint(1, 4)) for _ in range(3))
    rp, rq, rr = map(_reference_poly, (p, q, r))
    bound = rng.sample(params, rng.randint(0, len(params)))
    values = {s: random_poly(rng, gens, 3) if rng.random() < 0.7 else PolyScalar.zero() for s in bound}
    point = {g: random_gaussian(rng) for g in gens}
    out = []

    def check(label, got, want):
        out.extend(_canonical_faults(label, got))
        if _reference_poly(got) != want:
            out.append(f"{label}: {got} != {_reference_str(want)}")
        if str(got) != _reference_str(want):
            out.append(f"{label}: str {str(got)!r} != {_reference_str(want)!r}")

    for label, got, want in (
        (f"{p}", p, rp),
        (f"({p}) * ({q})", p * q, _reference_mul(rp, rq)),
        (f"({p}) + ({q})", p + q, _reference_add(rp, rq)),
        (f"({p}) - ({q})", p - q, _reference_add(rp, rq, -1)),
        (f"-({p})", -p, _reference_add({}, rp, -1)),
        (
            f"({p}).substitute({values})",
            p.substitute(values),
            _reference_substitute(rp, {s: _reference_poly(v) for s, v in values.items()}),
        ),
    ):
        check(label, got, want)
    ref_point = {g: ReferenceGaussianRational(v.re, v.im) for g, v in point.items()}
    got, want = p.evaluate(point), _reference_evaluate(rp, ref_point)
    if ReferenceGaussianRational(got.re, got.im) != want:
        out.append(f"({p}).evaluate({point}): {got} != {want}")
    # equal results reached by different routes are equal and hash alike
    routes = (
        (p * q, q * p),
        (p * (q + r), p * q + p * r),
        ((p + q) - q, p),
        (p * q * r, p * (q * r)),
        ((p * q).substitute(values), p.substitute(values) * q.substitute(values)),
    )
    for k, (a, b) in enumerate(routes):
        if a != b or hash(a) != hash(b):
            out.append(f"route {k} on ({p}), ({q}), ({r}): {a!r} != {b!r}")

    n = rng.randint(1, 4)
    matrix = [[random_poly(rng, gens, 2) if rng.random() < 0.8 else PolyScalar.zero() for _ in range(n)]
              for _ in range(n)]
    det = minor(matrix, tuple(range(n)), tuple(range(n)), {})
    out.extend(_canonical_faults("minor", det))
    if det != permutation_det(matrix):
        out.append(f"minor of {matrix}: {det} != {permutation_det(matrix)}")
    return out


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
            piece = _wedge(_wedge(left, d_dual_basis(algebra, k)), right).scale(c)
            out = out + (-piece if pos % 2 else piece)
    return out


def reference_mc_constraints(e: DeformationMap) -> list[tuple[tuple[int, ...], PolyScalar]]:
    """The Maurer-Cartan constraints as the engine assembled them before the
    constant complex: d_L of the form plus half its Schouten self-bracket, on
    forms with polynomial coefficients, read on the degree-3 basis."""
    sub = e.sub
    residual = sub.d_L_invariant(e.form) + sub.schouten_bracket(e.form, e.form).scale(GR_HALF)
    return [(idx, residual.coefficient(idx)) for idx in itertools.combinations(range(sub.rank), 3)]


def form_vector(form: ExteriorForm, slots) -> list[GaussianRational]:
    """The constant coefficients of a form on ``slots``, each a sorted index tuple."""
    terms = dict(form.terms)
    return [terms[idx].constant_value() if idx in terms else GR_ZERO for idx in slots]


def sparse(vector) -> list[tuple[int, GaussianRational]]:
    """The nonzero (position, value) of a dense vector."""
    return [(r, v) for r, v in enumerate(vector) if v]


def dense(rows, width: int) -> list[list[GaussianRational]]:
    """Sparse rows [(position, value)] as dense rows of ``width`` entries."""
    out = [[GR_ZERO] * width for _ in rows]
    for row, entries in zip(out, rows):
        for r, v in entries:
            row[r] = v
    return out


# The engine's constant complex before it summed the structure constants into
# slot positions: one exterior form per basis form and per pair of them.
def reference_cochains(sub) -> CochainComplex:
    """d_L of each basis 1- and 2-form through ``d_L_invariant``, read on the
    basis slots as its nonzero (slot, value), and the Schouten tensor from one
    ``ExteriorForm`` per pair of basis 2-forms."""
    names = sub.lform_names
    slots = tuple(tuple(itertools.combinations(range(sub.rank), p)) for p in range(4))
    d = {
        p: [sparse(form_vector(sub.d_L_invariant(ExteriorForm.basis(names, i)), slots[p + 1]))
            for i in slots[p]]
        for p in (1, 2)
    }
    schouten = {}
    for (s, a), (u, b) in itertools.combinations_with_replacement(enumerate(slots[2]), 2):
        # the terms of one pair of basis forms have distinct raw indices
        bracket = ExteriorForm.build(names, dict(sub._schouten_terms(a, b)))
        if bracket.terms:
            schouten[(s, u)] = schouten[(u, s)] = sparse(form_vector(bracket, slots[3]))
    return CochainComplex(slots, d, schouten)


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


def _conjugate_sections(sub) -> list[GenSection]:
    """The splitting's conjugate vectors conj(g_j), as sections."""
    return [GenSection.constant(sub.frame, c) for c in sub.splitting.conj_vectors]


def reference_express(sub, section: GenSection) -> Optional[list[PolyScalar]]:
    """Generator coefficients of an ambient section, or None if outside L."""
    return Span(sub.generators).express(section.coeffs)


def reference_theta(sub, y: GenSection) -> list[GaussianRational]:
    """Dual coefficients 2<y, g_a> of a constant section of the conjugate span."""
    if Span(_conjugate_sections(sub)).express(y.coeffs) is None:
        raise AlgebroidError("section is not in the conjugate span")
    return [(pair(y, g).constant_value() * 2) for g in sub.generators]


def reference_schouten_table(sub) -> dict:
    """The transported table before L* was built as a ``FrameAlgebra``: the
    bracket of each pair of duals h_a, h_b, a < b, taken through ``theta``
    and negated for b < a."""
    hs = sub.splitting.duals
    table = {}
    for a, b in itertools.combinations(range(sub.rank), 2):
        br = bracket_vectors(sub.frame.courant_table, hs[a], hs[b])
        if not any(br):
            continue
        entry = [(c, v) for c, v in enumerate(sub.theta(br)) if v]
        if entry:
            table[(a, b)] = entry
            table[(b, a)] = [(c, -v) for c, v in entry]
    return table


def reference_theta_inverse(sub) -> tuple[GenSection, ...]:
    """Sections h_a of the conjugate span with 2<h_a, g_b> = delta_ab."""
    doubled_pairing = tuple(
        tuple(pair(g, c).constant_value() * 2 for c in _conjugate_sections(sub))
        for g in sub.generators
    )
    inverse = mat_inverse(doubled_pairing)
    out = []
    for a in range(sub.rank):
        h = GenSection.zero(sub.frame)
        for c, row in zip(_conjugate_sections(sub), inverse):
            h = h + c.scale(PolyScalar.const(row[a]))
        out.append(h)
    return tuple(out)


def reference_form_entries(sub, form: ExteriorForm) -> list[list[PolyScalar]]:
    """Entries of the map eps: L -> L-bar whose transported 2-form is ``form``."""
    n = sub.rank
    hs = reference_theta_inverse(sub)
    h_coords = [h.constant_vector() for h in hs]
    conj_span = Span(_conjugate_sections(sub))
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


# The views of a deformation map as the engine built them while the map stored
# its transported form beside its entries: the form summed as polynomials, its
# constant columns read back off the form, the tangent rows of the deformed
# generators built on their own, and the deformed generators of a ground point
# built eagerly on all 2n slots from the evaluated entries.
def reference_transported_form(sub, entries) -> ExteriorForm:
    """eps~ = sum_{j<k} 2<g_j, eps(g_k)> e*_j ^ e*_k, where
    2<g_j, eps(g_k)> = sum_i P[j][i] entries[i][k]."""
    pairing = sub.splitting.pairing
    data = {
        (j, k): sum((entries[i][k].scale(pairing[j][i]) for i in range(sub.rank)), PolyScalar.zero())
        for j, k in itertools.combinations(range(sub.rank), 2)
    }
    return ExteriorForm.build(sub.lform_names, data)


def reference_columns(form: ExteriorForm, slots) -> dict:
    """The form as sum_m m F_m over the monomials m of its coefficients, each
    F_m a constant vector given as {position in ``slots``: nonzero value}."""
    position = {idx: s for s, idx in enumerate(slots)}
    columns: dict = {}
    for idx, c in form.terms:
        for m, v in c.terms:
            columns.setdefault(m, {})[position[idx]] = v
    return columns


def reference_projection_matrix(e: DeformationMap) -> list[list[PolyScalar]]:
    """Tangent rows of the deformed generators g_j + sum_i eps[i][j] conj(g_i)."""
    d = e.sub.frame.dim
    splitting = e.sub.splitting
    rows = [[PolyScalar.const(x) for x in g[:d]] for g in splitting.vectors]
    for eps, conj in zip(e.entries, splitting.conj_vectors):
        for j, c in enumerate(eps):
            if c:
                rows[j] = [x + c.scale(w) if w else x for x, w in zip(rows[j], conj[:d])]
    return rows


def reference_vectors(e: DeformationMap, values) -> list[list[GaussianRational]]:
    """The deformed generators g_j + sum_i E[i][j] conj(g_i) at a ground point
    whose entries evaluate to the matrix E = ``values``, on all 2n slots."""
    base = e.sub.splitting
    vectors = [list(g) for g in base.vectors]
    for row, conj in zip(values, base.conj_vectors):
        for j, c in enumerate(row):
            if c:
                vectors[j] = [x + c * w if w else x for x, w in zip(vectors[j], conj)]
    return vectors


# ``deform_subbundle`` before it worked on Gaussian-rational vectors: the map
# grounded by substitution, the deformed generators built as sections, and the
# verdicts of the pairing with the conjugates, ``pairing`` P[j][k] =
# 2<g_j, conj(g_k)> paired slot by slot.  Conjugation and the brackets are
# taken independently of ``conjugate_vector`` and ``bracket_vectors``.
@dataclass
class ReferenceStructure:
    generators: list[GenSection]
    brackets: list[list[GaussianRational]]
    pairing: list[list[GaussianRational]]
    isotropic: bool
    involutive: bool
    separated: bool
    ground: DeformationMap


def reference_conjugate(s: GenSection) -> GenSection:
    """Conjugate a constant section: bar the labels, conjugate the values."""
    d = s.frame.dim
    out = [PolyScalar.zero()] * (2 * d)
    for a in range(d):
        out[s.frame.conj[a]] = PolyScalar.const(s.coeffs[a].constant_value().conjugate())
        out[d + s.frame.conj[a]] = PolyScalar.const(s.coeffs[d + a].constant_value().conjugate())
    return GenSection(s.frame, tuple(out))


def reference_deform(e: DeformationMap, bindings) -> ReferenceStructure:
    missing = [p for p in e.parameters if p not in bindings]
    if missing:
        names = ", ".join(p.name for p in missing)
        raise DeformationError(f"unbound parameters: {names}")
    unknown = [s for s in bindings if s not in e.parameters]
    if unknown:
        names = ", ".join(s.name for s in unknown)
        raise DeformationError(f"bindings for unknown parameters: {names}")
    ground = e.substitute({p: PolyScalar.const(v) for p, v in bindings.items()})
    conjugates = [reference_conjugate(g) for g in e.sub.generators]
    gens = []
    for j, g in enumerate(e.sub.generators):
        out = GenSection.zero(e.sub.frame)
        for i, conj in enumerate(conjugates):
            c = ground.entries[i][j]
            if not c.is_zero():
                out = out + conj.scale(c)
        gens.append(g + out)

    def doubled(x, y):
        return (pair(x, y) * 2).constant_value()

    pairs = itertools.combinations_with_replacement(range(len(gens)), 2)
    isotropic = next(((a, b) for a, b in pairs if doubled(gens[a], gens[b])), None) is None
    pairing = [[doubled(g, reference_conjugate(h)) for h in gens] for g in gens]
    try:
        mat_inverse(pairing)
        separated = True
    except SingularMatrixError:
        separated = False
    independent = separated or mat_rank([g.constant_vector() for g in gens]) == len(gens)
    brackets = [
        courant_oracle(e.sub.frame, gens[a], gens[b])
        for a, b in itertools.combinations(range(len(gens)), 2)
    ]
    involutive = isotropic and independent and all(
        not any(doubled(g, br) for g in gens) for br in brackets
    )
    return ReferenceStructure(
        generators=gens,
        brackets=[br.constant_vector() for br in brackets],
        pairing=pairing,
        isotropic=isotropic,
        involutive=involutive,
        separated=separated,
        ground=ground,
    )


def reference_classify(e: DeformationMap, bindings) -> tuple[int, str]:
    """``classify`` on ``reference_deform``: the rank of the tangent rows of the
    generators and the mixed block of the map grounded by substitution."""
    structure = reference_deform(e, bindings)
    if not structure.separated:
        raise DeformationError("not a generalized complex structure at these parameter values")
    d = e.sub.frame.dim
    k = d - mat_rank([[c.constant_value() for c in g.tangent] for g in structure.generators])
    label = SYMPLECTIC if k == 0 else COMPLEX if k == d // 2 else OTHER
    if label == COMPLEX and e.sub.split is not None:
        mixed = structure.ground.mixed_block_entries()
        return k, CLASSICAL_COMPLEX if all(c.is_zero() for c in mixed) else COMPLEX_NONCLASSICAL
    return k, label


# Maps and points on which ``deform_subbundle`` and ``classify``, which work in
# Gaussian integers, are compared with ``reference_deform`` and
# ``reference_classify``, which ground the map by substitution.
GROUND_UNITS = tuple(GaussianRational.of(*parts) for parts in (
    (1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 5), Fraction(4, 5)), (Fraction(-5, 13), Fraction(12, 13))))


def degree_two_maps(e: DeformationMap) -> list[tuple[str, DeformationMap]]:
    """``e`` with every parameter t bound to u^2, and with every t bound to
    u*v + 1, u and v fresh parameters named t + "u" and t + "v"."""
    fresh = {t: (parameter(t.name + "u"), parameter(t.name + "v")) for t in e.parameters}
    out = []
    for label, value in (("u^2", lambda u, v: poly(u) * poly(u)), ("u*v + 1", lambda u, v: poly(u) * poly(v) + 1)):
        entries = e.substitute({t: value(*uv) for t, uv in fresh.items()}).entries
        used = {g for row in entries for c in row for g in c.generators()}
        params = tuple(s for uv in fresh.values() for s in uv if s in used)
        out.append((label, DeformationMap(e.sub, entries, params)))
    return out


def ground_maps(corpus) -> list[tuple[str, DeformationMap]]:
    """The pencil, the reduced family and its ``degree_two_maps`` of the
    preset and of each 4-dimensional workspace in the ``corpus`` directory."""
    from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace

    texts = {"kodaira": KODAIRA_WORKSPACE, **{name: (corpus / f"{name}.ws").read_text() for name in (
        "abelian4_complex", "abelian4_symplectic", "kodaira_symplectic")}}
    out = []
    for name, text in texts.items():
        ws = build_workspace(parse_workspace(text))
        family = ws.family.reduced_map
        out += [(f"{name} pencil", ws.pencil[0]), (f"{name} family", family)]
        out += [(f"{name} family, t -> {label}", e) for label, e in degree_two_maps(family)]
    return out


def ground_point(rng: random.Random, params: Sequence[Symbol]) -> dict:
    """A point with about 30 % zero coordinates, the others with both parts
    n/d for |n| <= 97 and 1 <= d <= 97.  One draw in five puts t11 (or the u
    it is the square of) on the unit circle, every other coordinate zero half
    of those times, where the preset family leaves the separated structures."""
    part = lambda: Fraction(rng.randint(-97, 97), rng.randint(1, 97))
    point = {p: GR_ZERO if rng.random() < 0.3 else GaussianRational(part(), part()) for p in params}
    pinned = [p for p in params if p.name in ("t11", "t11u")]
    if pinned and rng.random() < 0.2:
        if rng.random() < 0.5:
            point = dict.fromkeys(params, GR_ZERO)
        point[pinned[0]] = rng.choice(GROUND_UNITS)
    return point


def _verdict(classifier, e: DeformationMap, point):
    try:
        return classifier(e, point)
    except DeformationError as exc:
        return f"DeformationError: {exc}"


def ground_mismatches(label: str, e: DeformationMap, point) -> tuple[list[str], object]:
    """Every disagreement of ``deform_subbundle`` and ``classify`` at ``point``
    with the references: separation, type index, pairing, values and the
    verdict or refusal; returned with the verdict."""
    structure, ref = deform_subbundle(e, point), reference_deform(e, point)
    d = e.sub.frame.dim
    rank = mat_rank([[c.constant_value() for c in g.tangent] for g in ref.generators])
    verdict = _verdict(classify, e, point)
    out = [
        f"{label} at {{{', '.join(f'{p.name}: {v}' for p, v in point.items())}}}: {what} {got} != {want}"
        for what, got, want in (
            ("separated", structure.separated, ref.separated),
            ("type_index", structure.type_index, d - rank),
            ("pairing", structure.pairing, ref.pairing),
            ("values", structure.values, [[c.constant_value() for c in row] for row in ref.ground.entries]),
            ("verdict", verdict, _verdict(reference_classify, e, point)),
        )
        if got != want
    ]
    return out, verdict


def reference_generic_rank(e: DeformationMap) -> int:
    """Generic rank of the tangent projection, read top-down from the minors.

    Every r x r minor of the projection is expanded, from the largest r down,
    until one is nonzero: the search that ``stratify_type`` made before the
    rank was certified at exact points.  The deformed generators are built
    from ``reference_conjugate``, not from the splitting's conjugates.
    """
    conjugates = [reference_conjugate(g) for g in e.sub.generators]
    matrix = []
    for j, g in enumerate(e.sub.generators):
        for i, conj in enumerate(conjugates):
            if not e.entries[i][j].is_zero():
                g = g + conj.scale(e.entries[i][j])
        matrix.append(list(g.tangent))
    table: dict = {}
    rows, cols = len(matrix), len(matrix[0])
    for r in range(min(rows, cols), 0, -1):
        if any(
            not minor(matrix, rsel, csel, table).is_zero()
            for rsel in itertools.combinations(range(rows), r)
            for csel in itertools.combinations(range(cols), r)
        ):
            return r
    return 0


# The construction stage before every constant product went through the
# zero-skipping ``scalar.mat_mul``: dense sums over every entry.
def reference_mat_mul(a, b):
    """The product a b as a dense sum over every k, zero factors included."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), GR_ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def reference_validate_jacobi(g: FrameAlgebra) -> list[JacobiViolation]:
    """The Jacobi defects by brackets of unit vectors, every pair bracketed."""
    violations = []
    n = g.dim
    unit = [[GR_ONE if a == b else GR_ZERO for b in range(n)] for a in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        total = [GR_ZERO] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = reference_lie_bracket(g, unit[a], unit[b])
            outer = reference_lie_bracket(g, inner, unit[c])
            total = [t + o for t, o in zip(total, outer)]
        if any(total):
            triple = (g.basis[i], g.basis[j], g.basis[k])
            violations.append(JacobiViolation(triple, tuple(total), g.basis))
    return violations


def reference_eigenframe(g: FrameAlgebra, J: ComplexOp, tangent_names=None, dual_names=None):
    """The eigenframe with J applied to dense unit vectors and every bracket of
    two new basis vectors transformed by P^-1, zero or not."""
    if J.dim != g.dim:
        raise FrameError("J dimension mismatch")
    if g.dim % 2 != 0:
        raise FrameError("odd-dimensional frame has no complex eigensplit")
    n, m = g.dim, g.dim // 2
    apply = lambda v: [sum((J.matrix[i][j] * v[j] for j in range(n)), GR_ZERO) for i in range(n)]
    unit = lambda s: [GR_ONE if k == s else GR_ZERO for k in range(n)]
    seeds, chosen = [], []
    for a in range(n):
        trial = chosen + [unit(a), apply(unit(a))]
        if mat_rank(trial) == len(trial):
            seeds.append(a)
            chosen = trial
        if len(seeds) == m:
            break
    if len(seeds) != m:
        raise FrameError("could not split the frame into J-stable planes")
    default_tangent, default_duals = default_frame_names(m)
    tangent_names = list(default_tangent if tangent_names is None else tangent_names)
    dual_names = list(default_duals if dual_names is None else dual_names)
    names = tangent_names + [f"{t}bar" for t in tangent_names]
    duals = dual_names + [f"{t}bar" for t in dual_names]
    cols = [[GR_HALF * (e - GR_I * je) for e, je in zip(unit(s), apply(unit(s)))] for s in seeds]
    cols += [[c.conjugate() for c in vec] for vec in cols]
    P = [[cols[j][i] for j in range(n)] for i in range(n)]
    Pinv = mat_inverse(P)
    for a in range(m):
        jv = apply([P[i][a] for i in range(n)])
        if any(jv[i] != GR_I * P[i][a] for i in range(n)):
            raise FrameError("eigenvector relation failed")
    brackets = {}
    for a, b in itertools.combinations(range(n), 2):
        old = reference_lie_bracket(g, cols[a], cols[b])
        new = [sum((Pinv[k][i] * old[i] for i in range(n)), GR_ZERO) for k in range(n)]
        rhs = {names[k]: new[k] for k in range(n) if not new[k].is_zero()}
        if rhs:
            brackets[(names[a], names[b])] = rhs
    conj = tuple(list(range(m, 2 * m)) + list(range(m)))
    algebra = FrameAlgebra.build(names, brackets, duals)
    return ComplexFrame(algebra, conj, g, tuple(tuple(row) for row in P))


def reference_duals(splitting) -> list[list[GaussianRational]]:
    """h_a = sum_i P^-1[i][a] conj(g_i), a dense n x 2n x n sum."""
    slots = list(zip(*splitting.conj_vectors))
    inverse = splitting.inverse
    return [
        [sum((row[a] * c for row, c in zip(inverse, slot)), GR_ZERO) for slot in slots]
        for a in range(len(inverse))
    ]


def random_two_step_nilpotent(rng, n):
    """Strictly upper-triangular structure constants, brackets landing in the
    last ``n - p`` basis elements, which are central; so Jacobi holds."""
    p = rng.randint(2, n - 1)
    basis = [f"e{k}" for k in range(n)]
    brackets = {}
    for i, j in itertools.combinations(range(p), 2):
        rhs = {basis[k]: random_gaussian(rng, 2) for k in range(p, n) if rng.random() < 0.6}
        if rhs:
            brackets[(basis[i], basis[j])] = rhs
    return FrameAlgebra.build(basis, brackets)
