"""The vector helpers answer in the ring of their second operand.

``courant.doubled_pair``, ``frame.bracket_vectors`` over the Courant table
and over the Lie algebra's table, ``Splitting.contains`` and
``Splitting.coordinates`` take no zero argument: Gaussian-rational operands
give Gaussian rationals and polynomial operands give polynomials, all-zero
results included, and a constant first operand follows the second.  All run
on the preset, the Kodaira symplectic corpus workspace and the workspace
given by generators that ``cli_sweep.py`` sweeps.
"""

import itertools
from pathlib import Path

import pytest

from cli_sweep import WORKSPACES as SWEEP
from gcdeform import courant
from gcdeform.algebroid import closure
from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.frame import bracket_vectors
from gcdeform.scalar import GR_ZERO, P_ZERO, GaussianRational, PolyScalar, parameter

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
WORKSPACES = {
    "kodaira": KODAIRA_WORKSPACE,
    "kodaira_symplectic": (CORPUS / "kodaira_symplectic.ws").read_text(encoding="utf-8"),
    "kodaira_symplectic_generators": SWEEP["kodaira_symplectic_generators.ws"],
}


@pytest.fixture(scope="module")
def workspaces():
    return {name: build_workspace(parse_workspace(text)) for name, text in WORKSPACES.items()}


def as_poly(vector) -> list[PolyScalar]:
    return [PolyScalar.const(c) for c in vector]


def assert_ring(values, ring) -> None:
    assert all(v.__class__ is ring for v in values), [type(v).__name__ for v in values]


@pytest.mark.parametrize("name", sorted(WORKSPACES))
def test_pairing_and_brackets_answer_in_the_ring_of_the_operands(workspaces, name):
    ws = workspaces[name]
    split, frame, d = ws.sub.splitting, ws.frame, ws.frame.dim
    seen = set()
    for x, y in itertools.product(split.vectors + split.conj_vectors, repeat=2):
        value = courant.doubled_pair(x, y)
        assert_ring([value], GaussianRational)
        assert_ring([courant.doubled_pair(as_poly(x), as_poly(y))], PolyScalar)
        assert courant.doubled_pair(as_poly(x), as_poly(y)) == PolyScalar.const(value)
        assert courant.doubled_pair(x, as_poly(y)) == PolyScalar.const(value)
        seen.add(("pair", bool(value)))

        # the one sum, on the Courant table and on the Lie algebra's table
        tables = (("courant", frame.courant_table, x, y), ("frame", frame.algebra.brackets, x[:d], y[:d]))
        for label, table, u, v in tables:
            br = bracket_vectors(table, u, v)
            assert_ring(br, GaussianRational)
            assert_ring(bracket_vectors(table, as_poly(u), as_poly(v)), PolyScalar)
            assert bracket_vectors(table, as_poly(u), as_poly(v)) == as_poly(br)
            assert bracket_vectors(table, u, as_poly(v)) == as_poly(br)
            seen.add((label, any(br)))
    # each helper met both all-zero and nonzero results
    assert seen == {(label, z) for label in ("pair", "courant", "frame") for z in (False, True)}


@pytest.mark.parametrize("name", sorted(WORKSPACES))
def test_membership_and_coordinates_answer_in_the_ring_of_the_vector(workspaces, name):
    ws = workspaces[name]
    split = ws.sub.splitting
    n, size = len(split.vectors), len(split.vectors[0])
    closed = closure(ws.frame, split.vectors, split.vectors)
    inside = split.vectors + [br for _, br, _, _ in closed] + [[GR_ZERO] * size]
    for v in inside:
        coords = split.coordinates(v)
        assert split.contains(v) and split.contains(as_poly(v))
        assert_ring(coords, GaussianRational)
        assert_ring(split.coordinates(as_poly(v)), PolyScalar)
        assert split.coordinates(as_poly(v)) == as_poly(coords)
    assert split.coordinates(inside[-1]) == [GR_ZERO] * n
    assert split.coordinates(as_poly(inside[-1])) == [P_ZERO] * n
    for v in split.conj_vectors:
        assert not split.contains(v) and not split.contains(as_poly(v))
        assert split.coordinates(v) is None and split.coordinates(as_poly(v)) is None
    # a symbolic element sum_a t_a g_a of L has the coordinates t_a
    ts = [PolyScalar.of(parameter(f"t{a}")) for a in range(n)]
    general = [sum((t.scale(c) for t, c in zip(ts, slot)), P_ZERO) for slot in zip(*split.vectors)]
    assert split.coordinates(general) == ts
    # the pencil's deformed generators pair with L in polynomials
    for g, v in itertools.product(split.vectors, ws.pencil[0].vectors):
        assert_ring([courant.doubled_pair(g, v)], PolyScalar)


def test_ring_regressions_on_the_preset(workspaces):
    """The three outcomes of passing no ring, which the helpers now derive."""
    ws = workspaces["kodaira"]
    split, frame = ws.sub.splitting, ws.frame
    g = split.vectors[0]  # the tangent vector Tbar
    meets = next(c for c in split.conj_vectors if courant.doubled_pair(g, c))
    # polynomial vectors that meet in no slot pair to the polynomial zero
    assert courant.doubled_pair(as_poly(g), as_poly(g)) is P_ZERO
    # and to a polynomial where they meet
    assert courant.doubled_pair(as_poly(g), as_poly(meets)).__class__ is PolyScalar
    # the empty slots of a bracket of polynomial vectors are polynomial zeros
    br = bracket_vectors(frame.courant_table, as_poly(split.vectors[0]), as_poly(split.vectors[2]))
    assert_ring(br, PolyScalar)
    assert any(v is P_ZERO for v in br)
    # the frame bracket of Gaussian-rational vectors stays Gaussian-rational
    d = frame.dim
    units = [[GaussianRational.of(int(a == b)) for b in range(d)] for a in range(d)]
    assert_ring(bracket_vectors(frame.algebra.brackets, units[0], units[1]), GaussianRational)
