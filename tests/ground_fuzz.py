"""Run seeded ground points through ``classify`` and the substitution references.

Usage: ``python tests/ground_fuzz.py [COUNT [SEED [SRC]]]``: COUNT cases
(default 1000) drawn with SEED (default 1), importing gcdeform from SRC
(default: the ``src`` next to this file).

The maps are ``oracles.ground_maps`` of the preset and the 4-dimensional
corpus workspaces: each pencil, each reduced family, and the family with every
parameter t bound to u^2 and to u*v + 1.  Each case draws a map and an
``oracles.ground_point`` with that SEED and makes one ``ground_mismatches``
call: ``deform_subbundle`` and ``classify``, which work in Gaussian integers,
against ``reference_deform`` and ``reference_classify`` on separation, type
index, pairing, values and the verdict or refusal.  The script prints every
mismatch, the count of each verdict and of mismatches, and exits 1 when there
is a mismatch.
"""

from __future__ import annotations

import collections
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
    from oracles import ground_maps, ground_mismatches, ground_point

    maps = ground_maps(HERE.parent / "bench" / "corpus")
    rng = random.Random(seed)
    mismatches, verdicts = [], collections.Counter()
    for _ in range(count):
        label, e = rng.choice(maps)
        out, verdict = ground_mismatches(label, e, ground_point(rng, e.parameters))
        mismatches += out
        verdicts[str(verdict) if isinstance(verdict, tuple) else "refused"] += 1
    for line in mismatches:
        print(f"mismatch: {line}")
    print(", ".join(f"{v}: {n}" for v, n in sorted(verdicts.items())))
    print(f"cases: {count}, mismatches: {len(mismatches)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
