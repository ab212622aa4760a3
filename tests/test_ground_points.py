"""Ground points in Gaussian integers against the substitution references.

``deform_subbundle`` and ``classify`` evaluate a map's integer view at a point
whose denominators are cleared, build the deformed pairing as a
Gaussian-integer matrix and take integer ranks; ``values`` and ``pairing`` are
rational views of those integers.  ``reference_deform`` and
``reference_classify`` ground the map by substitution and build the deformed
generators as sections.  The maps are the pencil and the reduced family of the
preset and of each 4-dimensional corpus workspace, and the family with every
parameter t bound to u^2 and to u*v + 1, so that terms of degree 0 and 2 meet;
the points have denominators up to 97, about 30 % zero coordinates, and t11
pinned to the unit circle, where the preset family refuses.
"""

import collections
import random
from pathlib import Path

import pytest

from gcdeform.deformation import CLASSICAL_COMPLEX, COMPLEX_NONCLASSICAL, SYMPLECTIC
from gcdeform.scalar import GR_ZERO
from oracles import GROUND_UNITS, ground_maps, ground_mismatches, ground_point

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


@pytest.fixture(scope="module")
def maps():
    return ground_maps(CORPUS)


def _pinned(params):
    """t11 (or the u whose square it is) at each unit, every other coordinate zero."""
    for p in params:
        if p.name in ("t11", "t11u"):
            for unit in GROUND_UNITS:
                yield {**dict.fromkeys(params, GR_ZERO), p: unit}


def test_ground_points_match_the_substitution_references(maps):
    rng = random.Random(20261020)
    mismatches, seen = [], collections.Counter()
    for label, e in maps:
        points = [ground_point(rng, e.parameters) for _ in range(30)] + list(_pinned(e.parameters))
        for point in points:
            out, verdict = ground_mismatches(label, e, point)
            mismatches += out
            seen[(label, verdict if isinstance(verdict, tuple) else "refused")] += 1
    assert mismatches == []
    assert len(maps) == 16 and {label for label, _ in seen} == {label for label, _ in maps}
    # the draws reach every verdict on the preset family, and refusals on
    # maps of degree 1 and 2
    family = "kodaira family"
    for verdict in ((0, SYMPLECTIC), (2, CLASSICAL_COMPLEX), (2, COMPLEX_NONCLASSICAL), "refused"):
        assert seen[(family, verdict)], verdict
    assert seen[(family + ", t -> u^2", "refused")]
    assert seen[("kodaira pencil", "refused")]
