"""Run seeded random polynomials through the Counter-monomial reference.

Usage: ``python tests/poly_fuzz.py [COUNT [SEED [SRC]]]``: COUNT cases
(default 1000) drawn with SEED (default 1), importing gcdeform from SRC
(default: the ``src`` next to this file).

Each case is one ``oracles.polynomial_mismatches`` call: products, sums,
differences, substitution, evaluation and rendering of ``random_poly``
operands against a reference that keeps monomials as ``Counter``s of
exponents over ``Fraction``-pair coefficients, the canonical term order,
equal results reached by different routes, ``minor`` of a random square
polynomial matrix against the permutation expansion, and the rank that
elimination on constant pivots decides (``deformation._constant_rank``) on a
seeded ``pivot_rank_case`` against the largest size with a nonzero
permutation minor, a minor of that size being a nonzero constant.  The script
prints every mismatch and the count, and exits 1 when there is one.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    args = sys.argv[1:]
    count = int(args[0]) if args else 1000
    seed = int(args[1]) if len(args) > 1 else 1
    src = Path(args[2]).resolve() if len(args) > 2 else HERE.parent / "src"
    sys.path.insert(0, str(src))
    from oracles import polynomial_mismatches

    rng = random.Random(seed)
    mismatches = []
    for _ in range(count):
        mismatches += polynomial_mismatches(rng)
    for line in mismatches:
        print(f"mismatch: {line}")
    print(f"cases: {count}, mismatches: {len(mismatches)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
