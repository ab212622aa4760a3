"""Lie algebras by structure constants, complex endomorphisms, invariant forms.

A ``FrameAlgebra`` is a finite-dimensional Lie algebra presented by a named
basis and exact structure constants.  Every bracket of constant vectors, in
a Lie algebra or of sections of g + g*, is a ``skew_table`` summed by
``bracket_vectors`` over the ``nonzeros`` of its operands only.
``eigenframe`` splits a real frame with an almost-complex endomorphism into
+i/-i eigenvector generators, recomputing the structure constants exactly in
the new basis.  ``ExteriorForm`` holds graded exterior elements over a dual
basis; wedge evaluation follows the determinant convention (no 1/k! factor),
fixed once for the whole engine.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from .scalar import (
    GR_HALF,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PolyLike,
    PolyScalar,
    mat_inverse,
    mat_mul,
    mat_rank,
    minor,
    poly,
    render_sum,
)


class FrameError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exterior forms over a named dual basis
# ---------------------------------------------------------------------------


class ExteriorForm:
    """Graded exterior element with PolyScalar coefficients.

    Terms map strictly increasing index tuples to coefficients; sign
    normalization is applied on construction.  ``names`` are the display
    labels of the underlying dual basis.
    """

    def __init__(
        self, names: tuple[str, ...], terms: tuple[tuple[tuple[int, ...], PolyScalar], ...]
    ) -> None:
        self.names = names
        self.terms = terms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ExteriorForm:
            return NotImplemented
        return (self.names, self.terms) == (other.names, other.terms)

    def __hash__(self) -> int:
        return hash((self.names, self.terms))

    def __repr__(self) -> str:
        return f"ExteriorForm(names={self.names!r}, terms={self.terms!r})"

    @staticmethod
    def build(names: Sequence[str], data: Mapping[tuple[int, ...], PolyLike]) -> "ExteriorForm":
        acc: dict[tuple[int, ...], PolyScalar] = {}
        for idx, c in data.items():
            c = poly(c)
            if c.is_zero():
                continue
            sorted_idx, sign = _sort_index(idx)
            if sorted_idx is None:
                continue
            if sign < 0:
                c = -c
            prev = acc.get(sorted_idx)
            acc[sorted_idx] = c if prev is None else prev + c
        items = [(i, c) for i, c in acc.items() if not c.is_zero()]
        items.sort(key=lambda ic: (len(ic[0]), ic[0]))
        return ExteriorForm(tuple(names), tuple(items))

    @staticmethod
    def zero(names: Sequence[str]) -> "ExteriorForm":
        return ExteriorForm(tuple(names), ())

    @staticmethod
    def basis(names: Sequence[str], idx: Sequence[int]) -> "ExteriorForm":
        return ExteriorForm.build(names, {tuple(idx): PolyScalar.const(GR_ONE)})

    def coefficient(self, idx: Sequence[int]) -> PolyScalar:
        sorted_idx, sign = _sort_index(tuple(idx))
        if sorted_idx is None:
            return PolyScalar.zero()
        for i, c in self.terms:
            if i == sorted_idx:
                return c if sign > 0 else -c
        return PolyScalar.zero()

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {len(i) for i, _ in self.terms}

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        self._check(other)
        d = {i: c for i, c in self.terms}
        for i, c in other.terms:
            d[i] = d.get(i, PolyScalar.zero()) + c
        return ExteriorForm.build(self.names, d)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-other)

    def __neg__(self) -> "ExteriorForm":
        return ExteriorForm(self.names, tuple((i, -c) for i, c in self.terms))

    def scale(self, c: PolyLike) -> "ExteriorForm":
        c = poly(c)
        return ExteriorForm.build(self.names, {i: k * c for i, k in self.terms})

    def evaluate(self, vectors: Sequence[Sequence[PolyScalar]]) -> PolyScalar:
        """Determinant-convention evaluation at coefficient vectors."""
        rows = tuple(range(len(vectors)))
        table: dict = {}
        total = PolyScalar.zero()
        for idx, c in self.terms:
            if len(idx) == len(rows):
                total = total + c * minor(vectors, rows, idx, table)
        return total

    def _check(self, other: "ExteriorForm") -> None:
        if self.names != other.names:
            raise FrameError("forms over different dual bases")

    def __str__(self) -> str:
        return render_sum(
            (str(c), "^".join(self.names[i] for i in idx)) for idx, c in self.terms
        )


def _sort_index(idx: tuple[int, ...]):
    """The sorted index with the sign of its sorting permutation, or (None, 0)."""
    if all(a < b for a, b in zip(idx, idx[1:])):
        return idx, 1
    if len(set(idx)) != len(idx):
        return None, 0
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# Lie algebras by structure constants
# ---------------------------------------------------------------------------


def skew_table(terms) -> dict[tuple[int, int], list[tuple[int, GaussianRational]]]:
    """The sparse skew table {(a, b): [(k, c)]} of a bracket given by its
    nonzero terms (a, b, k, c), c e_k in [e_a, e_b]: each is written under
    (a, b) and, negated, under (b, a), so the table holds both orders."""
    table: dict[tuple[int, int], list[tuple[int, GaussianRational]]] = {}
    for a, b, k, c in terms:
        table.setdefault((a, b), []).append((k, c))
        table.setdefault((b, a), []).append((k, -c))
    return table


def bracket_vectors(table, xs, ys) -> dict:
    """The bracket of two vectors given by their ``nonzeros``, summed over a
    ``skew_table`` without Leibniz terms, as {slot: value} on the slots it
    reaches, in the ring of ys' values (xs' are constant or in that ring)."""
    out: dict = {}
    for a, v in xs:
        for b, w in ys:
            terms = table.get((a, b))
            if terms:
                vw = w * v
                for k, c in terms:
                    s = out.get(k)
                    out[k] = vw * c if s is None else s + vw * c
    return out


def nonzeros(vector) -> list:
    """The nonzero (slot, value) pairs of a vector: a ``bracket_vectors`` operand."""
    return [(k, c) for k, c in enumerate(vector) if c]


def nonzero_brackets(table, vectors) -> list:
    """The nonzero brackets [v_a, v_b], a < b, of constant vectors by
    ``bracket_vectors`` over a ``skew_table``, the ``nonzeros`` of each vector
    taken once, as ((a, b), the bracket as a dense vector)."""
    sparse, out = [nonzeros(v) for v in vectors], []
    for a, b in itertools.combinations(range(len(vectors)), 2):
        br = bracket_vectors(table, sparse[a], sparse[b])
        if any(br.values()):
            out.append(((a, b), [br.get(k, GR_ZERO) for k in range(len(vectors[a]))]))
    return out


class JacobiViolation:
    def __init__(
        self, triple: tuple[str, str, str], defect: tuple[GaussianRational, ...], basis: tuple[str, ...]
    ) -> None:
        self.triple = triple
        self.defect = defect
        self.basis = basis

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not JacobiViolation:
            return NotImplemented
        return (self.triple, self.defect, self.basis) == (other.triple, other.defect, other.basis)

    def __hash__(self) -> int:
        return hash((self.triple, self.defect, self.basis))

    def __str__(self) -> str:
        rendered = render_sum(
            (str(c), name) for name, c in zip(self.basis, self.defect) if not c.is_zero()
        )
        return f"jacobi defect at ({', '.join(self.triple)}): {rendered}"


class FrameAlgebra:
    """Lie algebra with named basis and exact structure constants.

    ``table`` stores the bracket vector of (e_i, e_j) for i < j only; the
    skew partner is implied, so c^k_ij = -c^k_ji holds by construction.
    """

    def __init__(
        self,
        basis: tuple[str, ...],
        table: tuple[tuple[tuple[int, int], tuple[GaussianRational, ...]], ...],
        dual_names: tuple[str, ...],
    ) -> None:
        self.basis = basis
        self.table = table
        self.dual_names = dual_names

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FrameAlgebra:
            return NotImplemented
        return (self.basis, self.table, self.dual_names) == (other.basis, other.table, other.dual_names)

    def __hash__(self) -> int:
        return hash((self.basis, self.table, self.dual_names))

    @staticmethod
    def build(
        basis: Sequence[str],
        brackets: Mapping[tuple[str, str], Mapping[str, GaussianRational]],
    ) -> "FrameAlgebra":
        basis = tuple(basis)
        if len(set(basis)) != len(basis):
            raise FrameError("duplicate basis names")
        index = {n: i for i, n in enumerate(basis)}
        store: dict[tuple[int, int], list[GaussianRational]] = {}
        for (a, b), rhs in brackets.items():
            if a not in index or b not in index:
                raise FrameError(f"unknown basis name in bracket [{a}, {b}]")
            i, j = index[a], index[b]
            if i == j:
                if any(not c.is_zero() for c in rhs.values()):
                    raise FrameError(f"nonzero bracket [{a}, {a}]")
                continue
            vec = [GR_ZERO] * len(basis)
            for name, c in rhs.items():
                if name not in index:
                    raise FrameError(f"unknown basis name {name!r} in bracket value")
                vec[index[name]] = vec[index[name]] + c
            if i > j:
                i, j, vec = j, i, [-c for c in vec]
            if (i, j) in store:
                if store[(i, j)] != vec:
                    raise FrameError(f"conflicting bracket entries for [{basis[i]}, {basis[j]}]")
            else:
                store[(i, j)] = vec
        table = tuple((ij, tuple(vec)) for ij, vec in sorted(store.items()) if any(vec))
        return FrameAlgebra(basis, table, tuple(f"{n}*" for n in basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def brackets(self) -> dict[tuple[int, int], list[tuple[int, GaussianRational]]]:
        """``table`` as a sparse skew table, both orders, for ``bracket_vectors``."""
        return skew_table((i, j, k, c) for (i, j), v in self.table for k, c in enumerate(v) if c)

    def validate_jacobi(self) -> list[JacobiViolation]:
        """The triples i < j < k whose cyclic sum of [[e_a, e_b], e_c] is not
        zero, with every bracket read from ``brackets``."""
        table = self.brackets
        violations = []
        n = self.dim
        for i, j, k in itertools.combinations(range(n), 3):
            total = [GR_ZERO] * n
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in table.get((a, b), ()):  # a zero pair is skipped
                    for q, y in table.get((m, c), ()):
                        total[q] = total[q] + x * y
            if any(total):
                triple = (self.basis[i], self.basis[j], self.basis[k])
                violations.append(JacobiViolation(triple, tuple(total), self.basis))
        return violations

    # -- Chevalley-Eilenberg differential ------------------------------------

    def ce_terms(self, idx: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], GaussianRational]]:
        """(unsorted index, value) terms of d of the basis form e*_idx by the
        Leibniz rule, d e*_I = sum_p (-1)^p e*_{I<p} ^ d(e*_{i_p}) ^ e*_{I>p},
        with d(e*_k) = -sum_{i<j} c^k_ij e*_i ^ e*_j read off ``table`` and
        written into slot p; an index may repeat a slot."""
        for pos, k in enumerate(idx):
            head, tail = idx[:pos], idx[pos + 1 :]
            for ij, vec in self.table:
                if vec[k]:
                    yield head + ij + tail, vec[k] if pos % 2 else -vec[k]

    def ce_differential(self, form: ExteriorForm) -> ExteriorForm:
        """Differential of an invariant form; raised degree by one.

        Coefficients must be free of coefficient functions and derivative
        symbols (those flows belong to the general Lie-algebroid path).
        """
        if form.names != self.dual_names:
            raise FrameError("form is not over this frame's dual basis")
        for _, c in form.terms:
            if c.has_functions():
                raise FrameError("non-constant coefficients in invariant differential")
        acc: dict[tuple[int, ...], PolyScalar] = {}
        for idx, c in form.terms:
            for key, v in self.ce_terms(idx):
                acc[key] = acc.get(key, PolyScalar.zero()) + c.scale(v)
        return ExteriorForm.build(self.dual_names, acc)


# ---------------------------------------------------------------------------
# Almost-complex endomorphisms and eigenframes
# ---------------------------------------------------------------------------


class ComplexOp:
    """Endomorphism J on the real basis, required to square to -identity."""

    def __init__(self, matrix: tuple[tuple[GaussianRational, ...], ...]) -> None:
        self.matrix = matrix

    @staticmethod
    def build(matrix: Sequence[Sequence[GaussianRational]]) -> "ComplexOp":
        rows = tuple(tuple(r) for r in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise FrameError("J matrix is not square")
        minus_one = -GR_ONE
        for i, row in enumerate(mat_mul(rows, rows)):
            if any(x != (minus_one if i == j else GR_ZERO) for j, x in enumerate(row)):
                raise FrameError("J^2 != -identity")
        return ComplexOp(rows)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, vector: Sequence[GaussianRational]) -> list[GaussianRational]:
        return [row[0] for row in mat_mul(self.matrix, [[c] for c in vector])]


class ComplexFrame:
    """Complexified ambient frame for sections of (T + T*) x C.

    ``conj`` is the conjugation involution on basis labels; for an eigenframe
    it swaps each +i generator with its barred partner, for a complexified
    real frame it is the identity (only coefficients get conjugated).
    """

    def __init__(
        self,
        algebra: FrameAlgebra,
        conj: tuple[int, ...],
        real: Optional[FrameAlgebra] = None,
        change_of_basis: Optional[tuple[tuple[GaussianRational, ...], ...]] = None,
    ) -> None:
        self.algebra = algebra
        self.conj = conj
        self.real = real
        self.change_of_basis = change_of_basis

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ComplexFrame:
            return NotImplemented
        return (self.algebra, self.conj, self.real, self.change_of_basis) == (
            other.algebra, other.conj, other.real, other.change_of_basis)

    def __hash__(self) -> int:
        return hash((self.algebra, self.conj, self.real, self.change_of_basis))

    @staticmethod
    def complexified(g: FrameAlgebra) -> "ComplexFrame":
        return ComplexFrame(algebra=g, conj=tuple(range(g.dim)))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def tangent_names(self) -> tuple[str, ...]:
        return self.algebra.basis

    @property
    def cotangent_names(self) -> tuple[str, ...]:
        return self.algebra.dual_names

    @cached_property
    def courant_table(self) -> dict[tuple[int, int], list[tuple[int, GaussianRational]]]:
        """The ``skew_table`` of constant basis sections: the Lie bracket of
        g x| g*, which the Courant bracket is on invariant sections.

        Slots below ``dim`` are the frame, the rest the co-frame: [e_i, e_j] =
        c^k_ij e_k, [e_i, e_k*] = i_{e_i} d e_k* = -c^k_iq e_q*, [e_k*, e_l*] = 0.
        """
        n = self.dim
        return skew_table(
            term
            for (i, j), vec in self.algebra.table
            for k, c in enumerate(vec)
            if c
            for term in ((i, j, k, c), (i, n + k, n + j, -c), (j, n + k, n + i, c))
        )


def default_frame_names(m: int) -> tuple[list[str], list[str]]:
    """Eigenvector and co-frame names for m complex planes when none are given."""
    return [f"Z{a + 1}" for a in range(m)], [f"z{a + 1}" for a in range(m)]


def eigenframe(
    g: FrameAlgebra,
    J: ComplexOp,
    tangent_names: Optional[Sequence[str]] = None,
    dual_names: Optional[Sequence[str]] = None,
) -> ComplexFrame:
    """Complexified frame of +i/-i eigenvectors of J.

    Each +i generator is (e - i*Je)/2 for a greedily chosen basis vector e,
    so Je is a column of J; the barred partners are the conjugates and carry
    eigenvalue -i.  A bracket v of two columns of P, the new basis in the old
    coordinates, is P^-1 v in the new: the ``nonzero_brackets``, as rows, are
    taken times P^-T in one ``mat_mul``, and a zero one is never transformed.
    """
    if J.dim != g.dim:
        raise FrameError("J dimension mismatch")
    if g.dim % 2 != 0:
        raise FrameError("odd-dimensional frame has no complex eigensplit")
    n, m = g.dim, g.dim // 2
    unit = lambda s: [GR_ONE if k == s else GR_ZERO for k in range(n)]
    column = lambda s: [row[s] for row in J.matrix]

    seeds: list[int] = []
    chosen_rows: list[list[GaussianRational]] = []
    for a in range(n):
        trial = chosen_rows + [unit(a), column(a)]
        if mat_rank(trial) == len(trial):
            seeds.append(a)
            chosen_rows = trial
        if len(seeds) == m:
            break
    if len(seeds) != m:
        raise FrameError("could not split the frame into J-stable planes")

    default_tangent, default_duals = default_frame_names(m)
    tangent_names = list(default_tangent if tangent_names is None else tangent_names)
    dual_names = list(default_duals if dual_names is None else dual_names)
    if len(tangent_names) != m or len(dual_names) != m:
        raise FrameError("need one eigenvector name and one dual name per plane")
    names = tangent_names + [f"{t}bar" for t in tangent_names]
    duals = dual_names + [f"{t}bar" for t in dual_names]
    if len(set(names) | set(duals)) != 2 * len(names):
        raise FrameError("eigenframe name collision")

    # the new basis vectors in the old coordinates: the columns of P, rows of P^T
    cols = [[GR_HALF * (e - GR_I * je) for e, je in zip(unit(s), column(s))] for s in seeds]
    cols += [[c.conjugate() for c in vec] for vec in cols]

    # eigenvalue check: J (e - iJe)/2 = +i (e - iJe)/2
    for col in cols[:m]:
        if J.apply(col) != [GR_I * c for c in col]:
            raise FrameError("eigenvector relation failed")

    old = nonzero_brackets(g.brackets, cols)
    new = mat_mul([vec for _, vec in old], mat_inverse(cols)) if old else []
    # an invertible change of basis keeps every nonzero bracket nonzero
    table = tuple((ab, tuple(row)) for (ab, _), row in zip(old, new))
    algebra = FrameAlgebra(tuple(names), table, tuple(duals))
    conj = tuple(list(range(m, 2 * m)) + list(range(m)))
    return ComplexFrame(algebra=algebra, conj=conj, real=g, change_of_basis=tuple(zip(*cols)))


# ---------------------------------------------------------------------------
# Built-in instance
# ---------------------------------------------------------------------------


def kodaira_preset() -> tuple[FrameAlgebra, ComplexOp]:
    """Invariant frame of the primary Kodaira surface nilmanifold, read from
    the CLI's ``kodaira`` preset: basis (X, Y, U, V) with the single bracket
    [X, Y] = U, and the invariant complex endomorphism JX = Y, JY = -X,
    JU = V, JV = -U.  The +i eigenframe generators are T = (X - iY)/2 and
    W = (U - iV)/2; their conjugates carry eigenvalue -i, as the eigenvector
    relation J(v-bar) = -i v-bar forces.
    """
    # imported here: the CLI builds on this module
    from .cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace

    ws = build_workspace(parse_workspace(KODAIRA_WORKSPACE))
    return ws.algebra, ws.jop
