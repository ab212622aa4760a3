"""Exact computations the benchmark checks gcdeform's outputs against.

Nothing here imports gcdeform: the second Betti number comes from the
workspace text by a small Chevalley-Eilenberg rank computation over the
rationals, and the polynomials printed as stratum conditions are evaluated by
a parser of their rendered form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

# ---------------------------------------------------------------------------
# Chevalley-Eilenberg ranks from structure constants
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?([A-Za-z_]\w*)")


def read_structure(text: str) -> tuple[list[str], dict[tuple[int, int], dict[int, Fraction]]]:
    """Basis and rational structure constants c^k_ij (i < j) of a workspace."""
    basis: list[str] = []
    consts: dict[tuple[int, int], dict[int, Fraction]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("basis "):
            basis = line.split()[1:]
        elif line.startswith("bracket "):
            lhs, rhs = line[len("bracket ") :].split("=", 1)
            a, b = (basis.index(n) for n in lhs.split())
            sign = 1 if a < b else -1
            vec: dict[int, Fraction] = {}
            for m in _TERM_RE.finditer(rhs):
                c = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
                k = basis.index(m.group(3))
                vec[k] = vec.get(k, Fraction(0)) + sign * c
            consts[(min(a, b), max(a, b))] = vec
    return basis, consts


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _sorted_sign(seq: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting ``seq`` (0 on a repeat), and the sorted tuple."""
    if len(set(seq)) != len(seq):
        return 0, seq
    inversions = sum(1 for x, y in combinations(seq, 2) if x > y)
    return (-1) ** inversions, tuple(sorted(seq))


def betti2(n: int, consts: dict[tuple[int, int], dict[int, Fraction]]) -> int:
    """dim H^2 of the Lie algebra: C(n,2) - rank d on 2-forms - rank d on 1-forms."""
    # d e^k = -sum_{i<j} c^k_ij e^i ^ e^j
    d1 = {k: {} for k in range(n)}
    for (i, j), vec in consts.items():
        for k, c in vec.items():
            d1[k][(i, j)] = d1[k].get((i, j), Fraction(0)) - c
    two = list(combinations(range(n), 2))
    three = list(combinations(range(n), 3))
    rows1 = [[d1[k].get(idx, Fraction(0)) for idx in two] for k in range(n)]
    rows2 = []
    for a, b in two:
        # d(e^a ^ e^b) = de^a ^ e^b - e^a ^ de^b
        acc: dict[tuple[int, ...], Fraction] = {}
        for outer, inner, sign in ((a, b, 1), (b, a, -1)):
            for (i, j), c in d1[outer].items():
                order = (i, j, inner) if sign > 0 else (inner, i, j)
                s, idx = _sorted_sign(order)
                if s:
                    acc[idx] = acc.get(idx, Fraction(0)) + sign * s * c
        rows2.append([acc.get(idx, Fraction(0)) for idx in three])
    return len(two) - _rank(rows2) - _rank(rows1)


# ---------------------------------------------------------------------------
# Rendered polynomials evaluated at Gaussian-rational points
# ---------------------------------------------------------------------------

Gaussian = tuple[Fraction, Fraction]


def gmul(x: Gaussian, y: Gaussian) -> Gaussian:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _split_top(text: str, seps: tuple[str, ...]) -> list[tuple[str, str]]:
    """Split at separators outside parentheses; each part keeps the separator before it."""
    parts, depth, buf, sep, i = [], 0, "", "", 0
    while i < len(text):
        ch = text[i]
        depth += (ch == "(") - (ch == ")")
        hit = next((s for s in seps if depth == 0 and text.startswith(s, i)), None)
        if hit:
            parts.append((sep, buf))
            sep, buf = hit, ""
            i += len(hit)
            continue
        buf += ch
        i += 1
    parts.append((sep, buf))
    return parts


def eval_poly(text: str, point: dict[str, Gaussian]) -> Gaussian:
    """Value of a polynomial rendered as gcdeform prints it, e.g.
    ``1 + 2*t11 - (1/2 - i)*t12^2``, at the given parameter values."""
    total = (Fraction(0), Fraction(0))
    for sep, term in _split_top(text.strip(), (" + ", " - ")):
        sign = -1 if sep == " - " else 1
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        value = (Fraction(sign), Fraction(0))
        for _, factor in _split_top(term, ("*",)):
            value = gmul(value, _factor(factor, point))
        total = (total[0] + value[0], total[1] + value[1])
    return total


def _factor(factor: str, point: dict[str, Gaussian]) -> Gaussian:
    if factor.startswith("(") and factor.endswith(")"):
        return eval_poly(factor[1:-1], point)
    if factor == "i":
        return (Fraction(0), Fraction(1))
    if re.fullmatch(r"\d+(/\d+)?", factor):
        return (Fraction(factor), Fraction(0))
    name, _, power = factor.partition("^")
    value = (Fraction(1), Fraction(0))
    for _ in range(int(power or 1)):
        value = gmul(value, point[name])
    return value
