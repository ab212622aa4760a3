"""Batch front end: parse a workspace, run the pipeline, emit exact reports.

Input format (line oriented, ``#`` starts a comment):

    basis X Y U V
    bracket X Y = U            # right side: real linear combination, e.g. 1/2*U - 3*V
    J X = Y                    # complex structure, one line per basis vector
    symplectic X Y = 1         # or: invariant 2-form coefficients
    generator U + i*X*         # or: explicit subbundle generators (X* is dual to X)
    names eigen T W            # optional, once each; eigen and duals only with J
    names duals omega rho
    names params t

Exactly one structure kind (J lines, symplectic lines, or generator lines)
must be present.  ``bracket`` and ``symplectic`` lines are skew entries: two
distinct basis names, then a real right side, kept under the pair in basis
order (negated when the names come reversed); a repeated entry must agree
with the first.  A space never joins two operands (``1 2`` is refused), a
combination never ends in a sign, and no basis, eigen or co-frame name may
be ``i``, the imaginary unit.  An input error names its line.  Reports are
byte-identical across runs for identical input; ``--format machine`` emits
the same data as a JSON tree.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache, cached_property
from typing import Optional, Sequence

from .algebroid import (
    AlgebroidError,
    InternalConsistencyError,
    IsotropicSubbundle,
    build_symplectic_eigenbundle,
    complex_eigenbundle,
)
from .courant import GenSection
from .deformation import (
    ConstraintReport,
    DeformationError,
    DeformationFamily,
    DeformationMap,
    MCSystem,
    Stratification,
    classify,
    constrain_map,
    gauge_image,
    mc_residual,
    reduce_family,
    stratify_type,
)
from .frame import (
    ComplexFrame,
    ComplexOp,
    ExteriorForm,
    FrameAlgebra,
    FrameError,
    default_frame_names,
)
from .scalar import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    ScalarError,
    parse_gaussian,
    render_sum,
)

COMMANDS = ("validate", "brackets", "mc", "gauge", "family", "type", "strata", "report")


class ParseError(ValueError):
    """An input error at a workspace line, at ``workspace`` for a whole text
    with no line to blame, or at ``--at`` for the bindings."""

    def __init__(self, line: int | str, message: str):
        where = f"line {line}" if isinstance(line, int) else line
        super().__init__(f"{where}: {message}")


KODAIRA_WORKSPACE = """\
# Invariant frame of a primary Kodaira surface.
basis X Y U V
bracket X Y = U
J X = Y
J Y = -X
J U = V
J V = -U
names eigen T W
names duals omega rho
names params t
"""


# ---------------------------------------------------------------------------
# Workspace parsing
# ---------------------------------------------------------------------------


class WorkspaceSpec:
    """The data of a workspace text, nothing built yet; specs with equal
    fields are equal, so a text and its rendering can be compared."""

    def __init__(
        self,
        basis: tuple[str, ...],
        brackets: dict[tuple[str, str], dict[str, GaussianRational]],
        structure: str,
        jmap: Optional[dict[str, dict[str, GaussianRational]]] = None,
        symplectic: Optional[dict[tuple[str, str], GaussianRational]] = None,
        generators: tuple[dict[str, GaussianRational], ...] = (),
        names_eigen: Optional[tuple[str, ...]] = None,
        names_duals: Optional[tuple[str, ...]] = None,
        param_prefix: str = "t",
    ) -> None:
        self.basis = basis
        self.brackets = brackets
        self.structure = structure
        self.jmap = {} if jmap is None else jmap
        self.symplectic = {} if symplectic is None else symplectic
        self.generators = generators
        self.names_eigen = names_eigen
        self.names_duals = names_duals
        self.param_prefix = param_prefix

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not WorkspaceSpec:
            return NotImplemented
        return self.__dict__ == other.__dict__


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _check_names(names: Sequence[str], what: str, line: int) -> None:
    # a name prints next to coefficients, where the letter i is the imaginary unit
    for n in names:
        if not _NAME_RE.match(n) or n == "i":
            raise ParseError(line, f"{what} {n!r}" + (" (the imaginary unit)" if n == "i" else ""))


def _scalar(text: str, line: int | str) -> GaussianRational:
    try:
        return parse_gaussian(text)
    except ScalarError as exc:
        raise ParseError(line, str(exc)) from None


def _split_terms(text: str, line: int) -> list[tuple[int, str]]:
    """Split a linear combination on top-level + and - signs."""
    terms: list[tuple[int, str]] = []
    sign, buf, depth = 1, "", 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0:
            # a sign ends the term before it; signs in a row multiply
            if buf.strip():
                terms.append((sign, buf.strip()))
                sign, buf = 1, ""
            sign *= 1 if ch == "+" else -1
        else:
            buf += ch
    if buf.strip():
        terms.append((sign, buf.strip()))
    elif terms:  # the text ends in a top-level sign
        raise ParseError(line, f"dangling sign in {text.strip()!r}")
    if not terms:
        raise ParseError(line, "empty linear combination")
    return terms


def _parse_combination(text: str, names: Sequence[str], line: int) -> dict[str, GaussianRational]:
    out: dict[str, GaussianRational] = {}
    if text.strip() == "0":
        return out
    for sign, term in _split_terms(text, line):
        m = re.search(r"([A-Za-z_][A-Za-z0-9_]*\*?)$", term)
        if not m:
            raise ParseError(line, f"term {term!r} has no basis name")
        name = m.group(1)
        head = term[: m.start(1)]
        if name not in names:
            raise ParseError(line, f"unknown basis name {name!r}")
        coeff = GR_ONE
        if head:
            # a coefficient is a scalar followed by *, never * alone
            if not head.endswith("*") or not head[:-1].strip():
                raise ParseError(line, f"malformed term {term!r}")
            coeff = _scalar(head[:-1], line)
        out[name] = out.get(name, GR_ZERO) + coeff * GaussianRational.of(sign)
    return {n: c for n, c in out.items() if not c.is_zero()}


def _equation(stripped: str, keyword: str, line: int) -> tuple[str, str]:
    """The two sides of a ``keyword lhs = rhs`` line, stripped."""
    body = stripped[len(keyword) :]
    if "=" not in body:
        raise ParseError(line, f"{keyword} line needs '='")
    lhs, rhs = body.split("=", 1)
    return lhs.strip(), rhs.strip()


def _skew_entry(
    keyword: str, lhs: str, rhs: str, basis: tuple[str, ...], line: int, entries: dict,
    first_lines: dict[tuple[str, str], int],
) -> None:
    """Store a ``bracket a b = combination`` or ``symplectic a b = scalar``
    entry under its basis-ordered pair, negated when the names come reversed.

    The names are checked before the right side is read; a repeated entry
    must agree with the first, which ``first_lines`` locates.
    """
    pair = lhs.split()
    if len(pair) != 2:
        raise ParseError(line, f"{keyword} left side needs two names")
    a, b = pair
    if a not in basis or b not in basis:
        raise ParseError(line, f"unknown basis name in {keyword} [{a}, {b}]")
    if a == b:
        raise ParseError(line, f"{keyword} [{a}, {a}] is identically zero")
    bracket = keyword == "bracket"
    value = _parse_combination(rhs, basis, line) if bracket else _scalar(rhs, line)
    if any(c.im != 0 for c in (value.values() if bracket else [value])):
        raise ParseError(line, f"{keyword} [{a}, {b}] has a non-real coefficient")
    if basis.index(a) > basis.index(b):
        a, b = b, a
        value = {n: -c for n, c in value.items()} if bracket else -value
    if (a, b) not in entries:
        entries[a, b], first_lines[a, b] = value, line
    elif entries[a, b] != value:
        raise ParseError(line, f"{keyword} [{a}, {b}] conflicts with line {first_lines[a, b]}")


def parse_workspace(text: str) -> WorkspaceSpec:
    basis: Optional[tuple[str, ...]] = None
    # per keyword: the entries and the line each was first given on
    skew: dict[str, tuple[dict, dict]] = {"bracket": ({}, {}), "symplectic": ({}, {})}
    jmap: dict[str, dict[str, GaussianRational]] = {}
    gens: list[dict[str, GaussianRational]] = []
    named: dict[str, tuple[int, tuple[str, ...]]] = {}  # kind -> (line, names)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        keyword, *rest = stripped.split()

        if keyword == "basis":
            if basis is not None:
                raise ParseError(lineno, "duplicate basis line")
            if not rest:
                raise ParseError(lineno, "empty basis")
            _check_names(rest, "bad basis name", lineno)
            if len(set(rest)) != len(rest):
                raise ParseError(lineno, "duplicate basis name")
            basis, basis_line = tuple(rest), lineno

        elif keyword == "names":
            if not rest:
                raise ParseError(lineno, "names line needs a kind")
            kind, *chosen = rest
            if kind not in ("eigen", "duals", "params"):
                raise ParseError(lineno, f"unknown names kind {kind!r}")
            if kind in named:
                raise ParseError(lineno, f"duplicate names {kind} line")
            if kind == "params" and (len(chosen) != 1 or not _NAME_RE.match(chosen[0])):
                raise ParseError(lineno, "names params needs one identifier")
            named[kind] = (lineno, tuple(chosen))

        elif keyword not in ("bracket", "J", "symplectic", "generator"):
            raise ParseError(lineno, f"unknown directive {keyword!r}")

        elif basis is None:
            raise ParseError(lineno, "basis must be declared first")

        elif keyword == "generator":
            tokens = list(basis) + [f"{n}*" for n in basis]
            gens.append(_parse_combination(stripped[len(keyword) :].strip(), tokens, lineno))

        elif keyword == "J":
            name, rhs = _equation(stripped, keyword, lineno)
            if name not in basis:
                raise ParseError(lineno, f"unknown basis name {name!r}")
            if name in jmap:
                raise ParseError(lineno, f"duplicate J line for {name}")
            jmap[name] = _parse_combination(rhs, basis, lineno)
            if any(c.im != 0 for c in jmap[name].values()):
                raise ParseError(lineno, f"J {name} has a non-real coefficient")

        else:
            lhs, rhs = _equation(stripped, keyword, lineno)
            _skew_entry(keyword, lhs, rhs, basis, lineno, *skew[keyword])

    if basis is None:
        raise ParseError("workspace", "no basis line")
    brackets, sympl = skew["bracket"][0], skew["symplectic"][0]
    present = (("complex", jmap), ("symplectic", sympl), ("subbundle", gens))
    kinds = [kind for kind, lines in present if lines]
    if len(kinds) != 1:
        raise ParseError("workspace", "exactly one structure (J, symplectic, or generator lines) required")
    structure = kinds[0]
    if structure == "complex" and set(jmap) != set(basis):
        missing = ", ".join(sorted(set(basis) - set(jmap)))
        raise ParseError(basis_line, f"J is missing on: {missing}")
    # only a complex structure has an eigenframe to name
    frame_lines = sorted((line, kind) for kind, (line, _) in named.items() if kind != "params")
    if frame_lines and structure != "complex":
        line, kind = frame_lines[0]
        raise ParseError(line, f"names {kind} applies only to a complex structure (J lines)")
    # eigenframe and co-frame names, with their bar forms, must differ from
    # each other and from the basis, or the printed labels are ambiguous; a
    # kind left unnamed takes eigenframe's default names
    taken = set(basis)
    for kind, default in zip(("eigen", "duals"), default_frame_names(len(basis) // 2)):
        if kind not in named:
            taken.update([*default, *(f"{n}bar" for n in default)])
    for line, kind in frame_lines:
        chosen = named[kind][1]
        if len(chosen) != len(basis) // 2:
            raise ParseError(line, f"names {kind} needs one name per complex plane")
        _check_names(chosen, f"names {kind}: bad name", line)
        for label in [*chosen, *(f"{n}bar" for n in chosen)]:
            if label in taken:
                raise ParseError(line, f"names {kind}: {label!r} is already in use")
            taken.add(label)

    chosen_names = {kind: names for kind, (_, names) in named.items()}
    return WorkspaceSpec(
        basis=basis,
        brackets=brackets,
        structure=structure,
        jmap=jmap,
        symplectic=sympl,
        generators=tuple(gens),
        names_eigen=chosen_names.get("eigen"),
        names_duals=chosen_names.get("duals"),
        param_prefix=chosen_names.get("params", ("t",))[0],
    )


def _in_basis_order(spec: WorkspaceSpec, entries: dict) -> list:
    """The items of a table keyed by name pairs, pairs in basis order."""
    return sorted(entries.items(), key=lambda kv: tuple(map(spec.basis.index, kv[0])))


def _render_combo(combo: dict[str, GaussianRational], order: Sequence[str]) -> str:
    return render_sum((str(combo[name]), name) for name in order if name in combo)


# ---------------------------------------------------------------------------
# Workspace construction
# ---------------------------------------------------------------------------


class Workspace:
    """A built workspace and its analysis stages.

    Each stage (pencil, MC system, gauge image, family, strata; the MC
    solution lives on the MC system) is computed on first use and kept, so
    every section of one command reads the same results.  The gauge image
    needs only the subbundle, so the gauge section prints even where the
    family is blocked.
    """

    def __init__(
        self,
        spec: WorkspaceSpec,
        algebra: FrameAlgebra,
        frame: ComplexFrame,
        sub: IsotropicSubbundle,
        jop: Optional[ComplexOp] = None,
    ) -> None:
        self.spec = spec
        self.algebra = algebra
        self.frame = frame
        self.sub = sub
        self.jop = jop

    @cached_property
    def pencil(self) -> tuple[DeformationMap, ConstraintReport]:
        return constrain_map(self.sub, self.spec.param_prefix)

    @cached_property
    def mc(self) -> MCSystem:
        return mc_residual(self.pencil[0])

    @cached_property
    def gauge(self) -> list[ExteriorForm]:
        return gauge_image(self.sub)

    @cached_property
    def family(self) -> DeformationFamily:
        return reduce_family(self.mc)

    @cached_property
    def strata(self) -> Stratification:
        return stratify_type(self.family.reduced_map)


def build_workspace(spec: WorkspaceSpec) -> Workspace:
    algebra = FrameAlgebra.build(spec.basis, spec.brackets)
    violations = algebra.validate_jacobi()
    if violations:
        detail = "; ".join(str(v) for v in violations)
        raise FrameError(f"jacobi identity fails: {detail}")

    if spec.structure == "complex":
        # column b holds the coefficients of J b
        jop = ComplexOp.build(
            [[spec.jmap[b].get(a, GR_ZERO) for b in spec.basis] for a in spec.basis]
        )
        frame, sub = complex_eigenbundle(
            algebra, jop, tangent_names=spec.names_eigen, dual_names=spec.names_duals
        )
        return Workspace(spec=spec, algebra=algebra, frame=frame, sub=sub, jop=jop)

    if spec.structure == "symplectic":
        data = {
            (spec.basis.index(a), spec.basis.index(b)): v for (a, b), v in spec.symplectic.items()
        }
        w = ExteriorForm.build(algebra.dual_names, data)
        frame, sub = build_symplectic_eigenbundle(algebra, w)
        return Workspace(spec=spec, algebra=algebra, frame=frame, sub=sub)

    # the complexified frame names the dual of X "X*", as generator lines do
    frame = ComplexFrame.complexified(algebra)
    gens = [GenSection.make(frame, combo) for combo in spec.generators]
    names = tuple(f"G{i + 1}" for i in range(len(gens)))
    sub = IsotropicSubbundle.build(frame, gens, names)
    return Workspace(spec=spec, algebra=algebra, frame=frame, sub=sub)


# ---------------------------------------------------------------------------
# Pipeline sections
# ---------------------------------------------------------------------------


def _wedge_label(sub: IsotropicSubbundle, idx) -> str:
    return "^".join(sub.lform_names[i] for i in idx)


def section_validation(ws: Workspace) -> dict:
    brackets = [
        f"[{a}, {b}] = {_render_combo(combo, ws.spec.basis)}"
        for (a, b), combo in _in_basis_order(ws.spec, ws.spec.brackets)
    ]
    return {
        "basis": " ".join(ws.spec.basis),
        "brackets": brackets or ["none (abelian)"],
        "jacobi": "ok",
        "structure": ws.spec.structure,
    }


def section_frame(ws: Workspace) -> dict:
    lines = []
    if ws.frame.change_of_basis is not None and ws.frame.real is not None:
        real = ws.frame.real.basis
        for a, name in enumerate(ws.frame.tangent_names):
            combo = {
                real[i]: ws.frame.change_of_basis[i][a]
                for i in range(len(real))
                if not ws.frame.change_of_basis[i][a].is_zero()
            }
            lines.append(f"{name} = {_render_combo(combo, real)}")
    table = []
    alg = ws.frame.algebra
    for (i, j), vec in alg.table:
        combo = {alg.basis[k]: c for k, c in enumerate(vec) if not c.is_zero()}
        table.append(f"[{alg.basis[i]}, {alg.basis[j]}] = {_render_combo(combo, alg.basis)}")
    # a generator is a basis section exactly when its constant vector is a unit vector
    if all([x for x in v if x] == [GR_ONE] for v in ws.sub.splitting.vectors):
        gens = ["L generated by: " + ", ".join(ws.sub.names)]
    else:
        gens = [f"{n} = {g}" for n, g in zip(ws.sub.names, ws.sub.generators)]
    return {
        "eigenvectors": lines,
        "structure": table or ["all brackets vanish"],
        "subbundle": gens,
    }


def section_brackets(ws: Workspace) -> dict:
    # the frame's structure table is the bracket of constant basis sections
    names = list(ws.frame.tangent_names) + list(ws.frame.cotangent_names)
    lines = []
    for (a, b), terms in sorted(ws.frame.courant_table.items()):
        combo: dict[str, GaussianRational] = {}
        for k, c in terms:
            combo[names[k]] = combo.get(names[k], GR_ZERO) + c
        if any(combo.values()):
            shown = _render_combo({n: c for n, c in combo.items() if c}, names)
            lines.append(f"[{names[a]}, {names[b]}] = {shown}")
    return {"nonzero": lines or ["all pairs vanish"], "note": "all other pairs vanish"}


def section_mc(ws: Workspace) -> dict:
    # the system itself is reported even when its solution is blocked by
    # constraints that stay nonlinear
    report = ws.pencil[1]
    solved, _, residual = ws.mc.solution
    return {
        "raw_parameters": ws.sub.rank * ws.sub.rank,
        "free_after_compatibility": [s.name for s in report.free],
        "eliminated": len(report.eliminated),
        "mc_constraints": [
            {"slot": _wedge_label(ws.sub, idx), "value": str(c)} for idx, c in ws.mc.nonzero()
        ],
        "mc_solution": {s.name: str(v) for s, v in solved.items()},
        "mc_residual": [str(p) for p in residual],
    }


def section_gauge(ws: Workspace) -> dict:
    basis = ws.gauge
    return {
        "dimension": len(basis),
        "basis": [str(b) for b in basis] or ["zero image"],
    }


def section_family(ws: Workspace) -> dict:
    family = ws.family
    directions = [
        {"parameter": p.name, "direction": str(f)}
        for p, f in zip(family.free, family.reduced_basis)
    ]
    dropped = [{"parameter": s.name, "reason": "maurer-cartan"} for s in family.solved]
    dropped += [{"parameter": s.name, "reason": "gauge"} for s in family.dropped_gauge]
    return {
        "free": [p.name for p in family.free],
        "basis": directions,
        "dropped": dropped,
    }


def section_strata(ws: Workspace) -> dict:
    strat = ws.strata
    strata = []
    for s in strat.strata:
        conditions = [f"{p} = 0" for p in s.zero] + [f"{p} != 0" for p in s.nonzero]
        strata.append(
            {
                "conditions": conditions or ["generic"],
                "k": s.k,
                "label": s.label,
                "substrata": [
                    {"label": lbl, "conditions": cond} for lbl, cond in s.substrata
                ],
            }
        )
    out = {"generic_rank": strat.generic_rank, "strata": strata}
    if strat.refused:
        out["refused"] = strat.refused
    return out


def run_type(ws: Workspace, at: str) -> dict:
    family = ws.family
    by_name = {p.name: p for p in family.free}
    bindings = {}
    for chunk in at.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError("--at", f"binding {chunk!r} needs name=value")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise ParseError("--at", f"unknown family parameter {name!r} (free: {known})")
        if by_name[name] in bindings:
            raise ParseError("--at", f"{name} bound twice")
        bindings[by_name[name]] = _scalar(value, "--at")
    missing = [p.name for p in family.free if p not in bindings]
    if missing:
        raise ParseError("--at", f"unbound family parameters: {', '.join(missing)}")
    k, label = classify(family.reduced_map, bindings)
    return {"k": k, "label": label}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _lines_validation(d: dict) -> list[str]:
    out = [f"basis: {d['basis']}"]
    out += d["brackets"]
    out.append(f"jacobi: {d['jacobi']}")
    out.append(f"structure: {d['structure']}")
    return out


def _lines_frame(d: dict) -> list[str]:
    out = list(d["eigenvectors"])
    out += d["structure"]
    out += d["subbundle"]
    return out


def _lines_brackets(d: dict) -> list[str]:
    return list(d["nonzero"]) + [d["note"]]


def _lines_mc(d: dict) -> list[str]:
    out = [
        f"deformation parameters: {d['raw_parameters']} raw, "
        f"{len(d['free_after_compatibility'])} free after compatibility"
    ]
    out.append("free: " + " ".join(d["free_after_compatibility"]))
    if d["mc_constraints"]:
        for c in d["mc_constraints"]:
            out.append(f"on {c['slot']}: {c['value']} = 0")
    else:
        out.append("MC system: empty (all deformations unobstructed at this level)")
    if d["mc_solution"]:
        sol = "; ".join(f"{n} = {v}" for n, v in d["mc_solution"].items())
        out.append(f"solution: {sol}")
    for p in d.get("mc_residual", []):
        out.append(f"unsolved: {p} = 0")
    return out


def _lines_gauge(d: dict) -> list[str]:
    return [f"gauge image dimension: {d['dimension']}"] + list(d["basis"])


def _lines_family(d: dict) -> list[str]:
    out = [f"reduced family: {len(d['free'])} free parameters"]
    for item in d["basis"]:
        out.append(f"{item['parameter']} -> {item['direction']}")
    for item in d["dropped"]:
        out.append(f"dropped: {item['parameter']} ({item['reason']})")
    return out


def _lines_strata(d: dict) -> list[str]:
    out = []
    for s in d["strata"]:
        cond = ", ".join(s["conditions"])
        out.append(f"{cond}: k = {s['k']} ({s['label']})")
        for sub in s["substrata"]:
            if sub["conditions"]:
                out.append(f"  {sub['conditions']}: {sub['label']}")
            else:
                out.append(f"  {sub['label']}")
    if d.get("refused"):
        out.append(f"generic rank: {d['generic_rank']}")
        out.append(f"refused: {d['refused']}")
    return out


def _lines_type(d: dict) -> list[str]:
    return [f"k = {d['k']} ({d['label']})"]


# (report heading, command printing the section alone or None, builder, liner)
_SECTIONS = (
    ("validation", "validate", section_validation, _lines_validation),
    ("eigenframe", None, section_frame, _lines_frame),
    ("bracket table", "brackets", section_brackets, _lines_brackets),
    ("mc system", "mc", section_mc, _lines_mc),
    ("gauge basis", "gauge", section_gauge, _lines_gauge),
    ("reduced family", "family", section_family, _lines_family),
    ("type strata", "strata", section_strata, _lines_strata),
)


def run_pipeline(spec: WorkspaceSpec, command: str, at: Optional[str] = None, fmt: str = "text") -> str:
    ws = build_workspace(spec)
    if command == "report":
        if fmt == "machine":
            data = {name: builder(ws) for name, _, builder, _ in _SECTIONS}
            return json.dumps(data, indent=2) + "\n"
        chunks = []
        for name, _, builder, liner in _SECTIONS:
            chunks.append(f"== {name} ==")
            chunks.extend(liner(builder(ws)))
            chunks.append("")
        return "\n".join(chunks)

    if command == "type":
        if not at and ws.family.free:
            raise ParseError("--at", "type needs --at name=value,...")
        data = run_type(ws, at or "")
        liner = _lines_type
    else:
        builder, liner = {cmd: (b, lines) for _, cmd, b, lines in _SECTIONS}[command]
        data = builder(ws)
    if fmt == "machine":
        return json.dumps(data, indent=2) + "\n"
    return "\n".join(liner(data)) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def _check_value(self, action, value):
        # the choices quoted on every Python version: newer argparse releases
        # print them bare, older ones as reprs
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")

    def error(self, message: str):
        # a usage error is an input error: exit 1, as a parse error does
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def _parser() -> _Parser:
    """The command-line parser, built on the first call of a process, not
    at import, and reused by every later ``main``."""
    parser = _Parser(
        prog="gcdeform",
        description="Exact deformations of invariant generalized complex structures.",
    )
    parser.add_argument("command", choices=COMMANDS)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=["kodaira"], help="use a built-in workspace")
    source.add_argument("--input", help="workspace description file")
    parser.add_argument("--format", choices=["text", "machine"], default="text")
    parser.add_argument("--at", help="parameter bindings for the type command")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.at is not None and args.command != "type":
        parser.error("argument --at: only the type command takes bindings")

    if args.preset:
        text = KODAIRA_WORKSPACE
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except UnicodeDecodeError:
            print(f"error: {args.input}: not UTF-8 text", file=sys.stderr)
            return 1

    # the one place an error becomes an exit code: 1 input, 2 mathematical
    # failure, 3 a failed internal identity
    try:
        output = run_pipeline(parse_workspace(text), args.command, at=args.at, fmt=args.format)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DeformationError, AlgebroidError, FrameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
