"""The three workloads: what one operation is, how rounds are made from the
seed, and how the outputs are checked.

A round is a fixed multiset of operations in a seeded order, so every run
attempts whole rounds with the same shares whatever its length.  The mixes are
chosen so that the median and the tail percentile each fall inside one kind of
operation, or among kinds of the same cost, away from the border with a kind
of another cost (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import oracle

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")
PRESET = "kodaira"  # the built-in workspace, reached through --preset

# The paper's reduced Kodaira family: four free parameters.
PAPER_KODAIRA_FREE = 4

# "t14 != 0: symplectic type; t14 = 0: complex type, classical iff t32 = 0"
KODAIRA_STRATA = [
    "t14 != 0: k = 0 (symplectic type)",
    "t14 = 0: k = 2 (complex type)",
    "  t32 = 0: classical complex",
    "  t32 != 0: complex type, non-classical",
]
SYMPLECTIC, CLASSICAL, NONCLASSICAL = "symplectic type", "classical complex", "complex type, non-classical"


class OpFailed(Exception):
    """An operation ended in an error: a nonzero exit code or an exception."""


class SetupError(RuntimeError):
    """The program cannot be loaded or set up for a workload."""


def small_gaussian(rng: random.Random, nonzero: bool = False) -> tuple[Fraction, Fraction]:
    """Real and imaginary parts in {-2..2}/{6..8}, so |value| < 1/2.

    A point of the reduced Kodaira family is separated unless
    det(I - eps^T conj(eps)^T) = 0, a real hypersurface that meets |value| < 1
    at rational points (t32 = -i/2, t11 = 2/3, t22 = 1/5 + i/4,
    t14 = 1/2 + 2i/3 is one).  Every row and column of eps has at most two
    entries, so below 1/2 its norm stays under 1 and every point is separated.
    """
    while True:
        re = Fraction(rng.randint(-2, 2), rng.randint(6, 8))
        im = Fraction(rng.randint(-2, 2), rng.randint(6, 8))
        if not nonzero or re or im:
            return re, im


def _workspace_text(g, member: str) -> str:
    if member == PRESET:
        return g.cli.KODAIRA_WORKSPACE
    with open(os.path.join(CORPUS, member + ".ws"), encoding="utf-8") as fh:
        return fh.read()


def _input_args(member: str) -> list[str]:
    if member == PRESET:
        return ["--preset", PRESET]
    return ["--input", os.path.join(CORPUS, member + ".ws")]


def _cli(g, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = g.cli.main(argv)
    if code != 0:
        raise OpFailed(f"gcdeform {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _same_outputs(records) -> tuple[dict[str, str], list[str]]:
    """First output per kind, and a failure for every output differing from it."""
    first: dict[str, str] = {}
    failures = []
    for kind, _, output in records:
        if first.setdefault(kind, output) != output:
            failures.append(f"{kind}: repeated output is not byte-identical")
    return first, failures


def _family(g, member: str):
    ws = g.cli.build_workspace(g.cli.parse_workspace(_workspace_text(g, member)))
    emap, _ = g.deformation.constrain_map(ws.sub)
    return ws, g.deformation.reduce_family(g.deformation.mc_residual(emap))


class Workload:
    name = ""
    mix: tuple[tuple[str, int], ...] = ()  # kind and its count per round
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.g = None

    def setup(self, g) -> None:
        """Parse and build what the timed operations need (timed as set-up)."""
        self.g = g

    def rounds(self, rng: random.Random):
        while True:
            ops = [(kind, None) for kind, count in self.mix for _ in range(count)]
            rng.shuffle(ops)
            yield ops

    def warmup_ops(self):
        return [(kind, None) for kind, _ in self.mix]

    def run(self, kind: str, payload):
        raise NotImplementedError

    def check(self, records) -> list[str]:
        raise NotImplementedError


class CliWorkload(Workload):
    """One gcdeform command per operation, through ``cli.main`` with stdout
    captured in memory; each kind is a corpus member."""

    command = ""
    options: tuple[str, ...] = ()

    def setup(self, g) -> None:
        super().setup(g)
        for member, _ in self.mix:
            g.cli.build_workspace(g.cli.parse_workspace(_workspace_text(g, member)))

    def run(self, kind, payload):
        return _cli(self.g, [self.command, *_input_args(kind), *self.options])


class ReportCorpus(CliWorkload):
    """``gcdeform report`` on the four-dimensional corpus."""

    name = "report-corpus"
    # Sorted by time: the two abelian-4 members, about 75 ms at the reference
    # speed (18 % of the samples) < the two Kodaira members, about 100 ms
    # each (82 %).  The median and the tail fall among the Kodaira members.
    mix = (("kodaira", 5), ("kodaira_symplectic", 4), ("abelian4_complex", 1), ("abelian4_symplectic", 1))
    command = "report"

    def check(self, records) -> list[str]:
        first, failures = _same_outputs(records)
        for member, report in first.items():
            lines = report.splitlines()
            if member == PRESET:
                expected = PAPER_KODAIRA_FREE
            else:
                basis, consts = oracle.read_structure(_workspace_text(self.g, member))
                expected = oracle.betti2(len(basis), consts)
            want = f"reduced family: {expected} free parameters"
            if want not in lines:
                failures.append(f"{member}: no line {want!r}")
            if member == PRESET:
                if "solution: t12 = 0" not in lines:
                    failures.append("kodaira: MC solution is not t12 = 0")
                start = lines.index("== type strata ==") + 1 if "== type strata ==" in lines else len(lines)
                strata = [ln for ln in lines[start:] if ln]
                if strata != KODAIRA_STRATA:
                    failures.append(f"kodaira: strata {strata} differ from the paper's rule")
        return failures


class TypeSweep(Workload):
    """``classify`` on the reduced Kodaira family at seeded ground points."""

    name = "type-sweep"
    # Sorted by time: classical (10 %) and complex non-classical (50 %), both
    # about 23 ms at the reference speed, < symplectic (40 %), about 35 ms.
    # The median falls among the complex points, the tail on symplectic.
    mix = ((NONCLASSICAL, 5), (CLASSICAL, 1), (SYMPLECTIC, 4))
    trace_rounds = 2

    def setup(self, g) -> None:
        super().setup(g)
        _, self.family = _family(g, PRESET)
        self.params = {p.name: p for p in self.family.free}
        if not {"t14", "t32"} <= set(self.params):
            raise SetupError(f"reduced Kodaira family has parameters {sorted(self.params)}")

    def point(self, rng: random.Random, kind: str):
        gr = self.g.scalar.GaussianRational
        values = {name: small_gaussian(rng, nonzero=name in ("t14", "t32")) for name in self.params}
        if kind != SYMPLECTIC:
            values["t14"] = (Fraction(0), Fraction(0))
        if kind == CLASSICAL:
            values["t32"] = (Fraction(0), Fraction(0))
        return {self.params[n]: gr(re, im) for n, (re, im) in values.items()}

    def rounds(self, rng: random.Random):
        for ops in super().rounds(rng):
            yield [(kind, self.point(rng, kind)) for kind, _ in ops]

    def warmup_ops(self):
        rng = random.Random(f"warmup-{self.seed}")
        return [(kind, self.point(rng, kind)) for kind, _ in self.mix]

    def run(self, kind, payload):
        return self.g.deformation.classify(self.family.reduced_map, payload)

    def check(self, records) -> list[str]:
        failures = []
        for kind, bindings, verdict in records:
            want = (0, SYMPLECTIC) if kind == SYMPLECTIC else (2, kind)
            point = {p.name: str(v) for p, v in bindings.items()}
            if tuple(verdict) != want:
                failures.append(f"classify at {point} gave {verdict}, expected {want}")
            s = self.g.deformation.deform_subbundle(self.family.reduced_map, bindings)
            if not (s.isotropic and s.involutive and s.separated):
                failures.append(
                    f"deformed structure at {point}: isotropic={s.isotropic} "
                    f"involutive={s.involutive} separated={s.separated}"
                )
        return failures


class StrataMinors(CliWorkload):
    """``gcdeform strata --format machine``, whose time goes into symbolic minors."""

    name = "strata-minors"
    # Sorted by time at the reference speed: Kodaira symplectic, about 45 ms
    # (15 % of the samples) < the Kodaira preset, about 49 ms (46 %) <
    # abelian-6 complex, 0.24 s (31 %) < symplectic abelian-6, 0.7 s, one 6x6
    # determinant over 15 parameters (one per round).  The two Kodaira
    # members overlap, so the median sits in the preset's upper quarter, away
    # from the border between them.  A round takes over 2 s of wall time, so
    # a 20 s run has at most 10 rounds, the ten samples beyond the tail hold
    # every abelian-6 symplectic one and the tail falls on abelian-6 complex.
    mix = (("kodaira", 6), ("kodaira_symplectic", 2), ("abelian6_complex", 4), ("abelian6_symplectic", 1))
    command = "strata"
    options = ("--format", "machine")

    def _classify(self, family, rng, fixed: dict[str, tuple], nonzero: list[list[str]]):
        """classify at the first of five seeded points where the parameters in
        ``fixed`` take their values and each group in ``nonzero`` has a
        polynomial that does not vanish."""
        gr = self.g.scalar.GaussianRational
        for _ in range(5):
            values = {p.name: small_gaussian(rng, nonzero=True) for p in family.free}
            values.update(fixed)
            if not all(any(any(oracle.eval_poly(p, values)) for p in group) for group in nonzero):
                continue
            bindings = {p: gr(*values[p.name]) for p in family.free}
            try:
                return self.g.deformation.classify(family.reduced_map, bindings)
            except self.g.deformation.DeformationError:
                continue
        return None

    @staticmethod
    def _conditions(conds, names) -> tuple[dict[str, tuple], list[str], list[str]]:
        """Zeroed parameters, polynomials of which one must not vanish, and
        conditions this check cannot place a point on."""
        fixed, nonzero, unplaced = {}, [], []
        for cond in conds:
            if cond.endswith(" != 0"):
                nonzero.append(cond[: -len(" != 0")])
            elif cond.endswith(" = 0") and cond[: -len(" = 0")] in names:
                fixed[cond[: -len(" = 0")]] = (Fraction(0), Fraction(0))
            elif cond != "generic":
                unplaced.append(cond)
        return fixed, nonzero, unplaced

    def check(self, records) -> list[str]:
        first, failures = _same_outputs(records)
        rng = random.Random(f"check-{self.seed}")
        for member, text in first.items():
            data = json.loads(text)
            ws, family = _family(self.g, member)
            names = {p.name for p in family.free}
            # generic rank = the largest ground rank; a seeded point reaches it
            # unless it lies on a proper subvariety, so up to three are tried
            ranks = []
            for _ in range(3):
                verdict = self._classify(family, rng, {}, [])
                if verdict is not None:
                    ranks.append(ws.algebra.dim - verdict[0])
                if ranks and ranks[-1] == data["generic_rank"]:
                    break
            if not ranks or max(ranks) != data["generic_rank"]:
                failures.append(f"{member}: generic_rank {data['generic_rank']}, ground ranks {ranks}")
            for stratum in data["strata"]:
                fixed, nonzero, unplaced = self._conditions(stratum["conditions"], names)
                groups = [nonzero] if nonzero else []
                verdict = None if unplaced else self._classify(family, rng, fixed, groups)
                if verdict is None or verdict[0] != stratum["k"]:
                    failures.append(
                        f"{member}: stratum {stratum['conditions']} has k = {stratum['k']}, "
                        f"classify at a point on it gave {verdict}"
                    )
                    continue
                for sub in stratum["substrata"]:
                    conds = [c for c in sub["conditions"].split(", ") if c]
                    sub_fixed, sub_nonzero, unplaced = self._conditions(conds, names)
                    sub_groups = groups + ([sub_nonzero] if sub_nonzero else [])
                    verdict = None if unplaced else self._classify(
                        family, rng, {**fixed, **sub_fixed}, sub_groups
                    )
                    if verdict is None or verdict[1] != sub["label"]:
                        failures.append(f"{member}: substratum {sub} gave {verdict}")
        return failures


WORKLOADS = {w.name: w for w in (ReportCorpus, TypeSweep, StrataMinors)}
