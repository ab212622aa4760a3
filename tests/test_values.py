"""Engine values are plain classes with value semantics.

Every value type compares and hashes by its fields, built separately or
not; the scalar types keep the reprs that error messages and failed
assertions print; the constructors keep their checks.  No ``gcdeform``
class is a dataclass, since a decorator costs more at import than the class
it decorates.  The CLI parser is built once per process, and the pairing
compatibility reads only the nonzero entries of each row of P.
"""

import importlib
import inspect
import itertools
import pkgutil
import random
import types
from pathlib import Path

import pytest

import gcdeform
from gcdeform import cli
from gcdeform.algebroid import Splitting
from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.courant import CourantError, GenSection
from gcdeform.deformation import _pairing, stratify_type
from gcdeform.frame import ExteriorForm
from gcdeform.scalar import (
    GR_ONE,
    GR_ZERO,
    DerivationSymbol,
    Monomial,
    PolyScalar,
    ScalarError,
    Symbol,
    SubstitutionError,
    function,
    parameter,
    poly,
)
from oracles import random_gaussian, random_poly

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
SYMPLECTIC = (CORPUS / "kodaira_symplectic.ws").read_text(encoding="utf-8")


def _twice(make):
    """Two values built by separate calls of ``make``."""
    return make(), make()


def _assert_value(a, b, other):
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other and b != other
    assert not a != b


def test_scalar_values():
    t, s, f = _twice(lambda: parameter("t")), parameter("s"), function("f")
    _assert_value(*t, s)
    assert Symbol("t", "parameter") != function("t")
    assert hash(t[0]) == hash(("t", "parameter"))

    d = _twice(lambda: DerivationSymbol("X", function("f")))
    _assert_value(*d, DerivationSymbol("Y", f))
    assert d[0] != f and f != d[0]

    m = _twice(lambda: Monomial.of(parameter("t"), parameter("t"), function("f")))
    _assert_value(*m, Monomial.of(t[0], f))

    p = _twice(lambda: poly(parameter("t")) * 2 + 1)
    _assert_value(*p, poly(t[0]) * 2)
    assert p[0] != 1 and p[0] != GR_ONE
    assert len({p[0], p[1], poly(s)}) == 2


def test_scalar_reprs():
    t = parameter("t")
    assert repr(t) == "Symbol(name='t', kind='parameter')"
    assert repr(DerivationSymbol("X", function("f"))) == (
        "DerivationSymbol(direction='X', operand=Symbol(name='f', kind='function'))"
    )
    assert repr(Monomial.of(t, t)) == "Monomial(powers=((Symbol(name='t', kind='parameter'), 2),))"
    assert repr(poly(t) * 2 + 1) == (
        "PolyScalar(terms=((Monomial(powers=()), GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1))), "
        "(Monomial(powers=((Symbol(name='t', kind='parameter'), 1),)), "
        "GaussianRational(re=Fraction(2, 1), im=Fraction(0, 1)))))"
    )
    assert repr(PolyScalar(())) == "PolyScalar(terms=())"
    with pytest.raises(SubstitutionError, match=r"cannot bind DerivationSymbol\(direction='X'"):
        poly(t).substitute({DerivationSymbol("X", function("f")): 1})


def test_constructors_keep_their_checks():
    with pytest.raises(ScalarError, match="unknown symbol kind 'constant'"):
        Symbol("t", "constant")
    with pytest.raises(ScalarError, match="derivative operand must be a plain symbol"):
        DerivationSymbol("X", "f")
    with pytest.raises(ScalarError, match="cannot differentiate parameter symbol 't'"):
        DerivationSymbol("X", parameter("t"))
    frame = build_workspace(parse_workspace(KODAIRA_WORKSPACE)).frame
    with pytest.raises(CourantError, match="coefficient vector has wrong length"):
        GenSection(frame, (PolyScalar(()),) * (2 * frame.dim - 1))


def test_engine_values():
    one, two = _twice(lambda: build_workspace(parse_workspace(KODAIRA_WORKSPACE)))
    other = build_workspace(parse_workspace(SYMPLECTIC))

    _assert_value(one.algebra, two.algebra, other.sub.algebroid)
    _assert_value(one.frame, two.frame, other.frame)
    _assert_value(one.sub.generators[0], two.sub.generators[0], one.sub.generators[1])
    _assert_value(one.gauge[0], two.gauge[0], ExteriorForm(one.gauge[0].names, ()))
    # the splitting is left out: two builds have two, and the subbundles are equal
    assert one.sub.splitting is not two.sub.splitting
    _assert_value(one.sub, two.sub, other.sub)
    _assert_value(one.pencil[0], two.pencil[0], one.family.reduced_map)

    strata = stratify_type(one.family.reduced_map).strata
    again = stratify_type(two.family.reduced_map).strata
    assert len(strata) > 1
    for a, b in zip(strata, again):
        _assert_value(a, b, strata[0] if a is not strata[0] else strata[1])
    assert len(set(strata) | set(again)) == len(strata)


def test_no_gcdeform_class_is_a_dataclass():
    # Each @dataclass execs its generated methods when the module is
    # imported: about 0.5-0.8 ms for a frozen class and 0.3-0.4 ms for a
    # plain one, against under 0.01 ms for a hand-written class (Python
    # 3.11.7, 2 vCPUs). Over 22 classes that was 10-11 ms, a fifth of the
    # import of gcdeform.cli, and every CLI command pays it.
    names = [f"gcdeform.{m.name}" for m in pkgutil.iter_modules(gcdeform.__path__)]
    classes = [
        cls
        for module in map(importlib.import_module, ["gcdeform", *names])
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
    ]
    assert len(classes) >= 22
    assert [c.__qualname__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


def test_parser_is_built_once(capsys):
    assert cli._parser() is cli._parser()
    seen = []
    for _ in range(2):
        for argv in (["report", "--preset", "kodaira", "--at", "t=1"], ["--help"]):
            with pytest.raises(SystemExit) as exit:
                cli.main(argv)
            seen.append((exit.value.code, capsys.readouterr()))
    assert seen[:2] == seen[2:]
    assert seen[0][0] == 1 and seen[0][1].err.endswith("only the type command takes bindings\n")
    assert seen[1][0] == 0 and seen[1][1].out.startswith("usage: gcdeform [-h]")
    assert cli._parser.cache_info().misses == 1


def test_pairing_reads_the_nonzero_entries_of_dense_rows():
    """``_pairing`` against the sum over every entry of row j of P, on dense
    random pairings (the corpus has one nonzero entry per row)."""
    rng = random.Random(20261020)
    symbols = [parameter(n) for n in "abc"]
    frame = build_workspace(parse_workspace(KODAIRA_WORKSPACE)).frame
    for n in (1, 2, 4):
        pairing = [[random_gaussian(rng) if rng.random() < 0.7 else GR_ZERO for _ in range(n)]
                   for _ in range(n)]
        sub = types.SimpleNamespace(splitting=Splitting(frame, [[]] * n, pairing))
        entries = [[random_poly(rng, symbols) for _ in range(n)] for _ in range(n)]
        for j, k in itertools.product(range(n), repeat=2):
            want = sum((entries[i][k].scale(p) for i, p in enumerate(pairing[j])), PolyScalar(()))
            assert PolyScalar.from_dict(_pairing(sub, entries, j, k)) == want
            assert sub.splitting.pairing_rows[j] == [(i, p) for i, p in enumerate(pairing[j]) if p]
