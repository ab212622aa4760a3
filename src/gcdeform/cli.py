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
must be present.  Reports are byte-identical across runs for identical input;
``--format machine`` emits the same data as a JSON tree.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
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
    PolyScalar,
    ScalarError,
    parse_gaussian,
    render_sum,
)

COMMANDS = ("validate", "brackets", "mc", "gauge", "family", "type", "strata", "report")


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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


@dataclass
class WorkspaceSpec:
    basis: tuple[str, ...]
    brackets: dict[tuple[str, str], dict[str, GaussianRational]]
    structure: str
    jmap: dict[str, dict[str, GaussianRational]] = field(default_factory=dict)
    symplectic: dict[tuple[str, str], GaussianRational] = field(default_factory=dict)
    generators: tuple[dict[str, GaussianRational], ...] = ()
    names_eigen: Optional[tuple[str, ...]] = None
    names_duals: Optional[tuple[str, ...]] = None
    param_prefix: str = "t"


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _split_terms(text: str, line: int) -> list[tuple[int, str]]:
    """Split a linear combination on top-level + and - signs."""
    terms: list[tuple[int, str]] = []
    sign, buf, depth = 1, "", 0
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and buf.strip():
            terms.append((sign, buf.strip()))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch in "+-" and depth == 0 and not buf.strip():
            sign = sign * (1 if ch == "+" else -1)
        else:
            buf += ch
    if buf.strip():
        terms.append((sign, buf.strip()))
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
        if head:
            if not head.endswith("*"):
                raise ParseError(line, f"malformed term {term!r}")
            head = head[:-1]
        try:
            coeff = parse_gaussian(head) if head else GR_ONE
        except ScalarError as exc:
            raise ParseError(line, str(exc)) from None
        coeff = coeff * GaussianRational.of(sign)
        out[name] = out.get(name, GR_ZERO) + coeff
    return {n: c for n, c in out.items() if not c.is_zero()}


def parse_workspace(text: str) -> WorkspaceSpec:
    basis: Optional[tuple[str, ...]] = None
    brackets: dict[tuple[str, str], dict[str, GaussianRational]] = {}
    bracket_lines: dict[tuple[str, str], int] = {}
    jmap: dict[str, dict[str, GaussianRational]] = {}
    sympl: dict[tuple[str, str], GaussianRational] = {}
    sympl_lines: dict[tuple[str, str], int] = {}
    gens: list[dict[str, GaussianRational]] = []
    names_eigen = names_duals = None
    names_lines: dict[str, int] = {}
    param_prefix = "t"

    def basis_or_fail(line: int) -> tuple[str, ...]:
        if basis is None:
            raise ParseError(line, "basis must be declared first")
        return basis

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        keyword = tokens[0]

        if keyword == "basis":
            if basis is not None:
                raise ParseError(lineno, "duplicate basis line")
            names = tokens[1:]
            if not names:
                raise ParseError(lineno, "empty basis")
            for n in names:
                if not _NAME_RE.match(n):
                    raise ParseError(lineno, f"bad basis name {n!r}")
            if len(set(names)) != len(names):
                raise ParseError(lineno, "duplicate basis name")
            basis = tuple(names)

        elif keyword == "bracket":
            b = basis_or_fail(lineno)
            body = stripped[len("bracket") :].strip()
            if "=" not in body:
                raise ParseError(lineno, "bracket line needs '='")
            lhs, rhs = body.split("=", 1)
            pair_names = lhs.split()
            if len(pair_names) != 2:
                raise ParseError(lineno, "bracket left side needs two names")
            a, c = pair_names
            if a not in b or c not in b:
                raise ParseError(lineno, f"unknown basis name in bracket [{a}, {c}]")
            if a == c:
                raise ParseError(lineno, f"bracket [{a}, {a}] is identically zero")
            combo = _parse_combination(rhs.strip(), b, lineno)
            if any(v.im != 0 for v in combo.values()):
                raise ParseError(lineno, f"bracket [{a}, {c}] has a non-real coefficient")
            i, j = b.index(a), b.index(c)
            key, val = ((a, c), combo)
            if i > j:
                key = (c, a)
                val = {n: -v for n, v in combo.items()}
            if key in brackets:
                if brackets[key] != val:
                    raise ParseError(
                        lineno,
                        f"bracket [{key[0]}, {key[1]}] conflicts with line "
                        f"{bracket_lines[key]}",
                    )
            else:
                brackets[key] = val
                bracket_lines[key] = lineno

        elif keyword == "J":
            b = basis_or_fail(lineno)
            body = stripped[1:].strip()
            if "=" not in body:
                raise ParseError(lineno, "J line needs '='")
            lhs, rhs = body.split("=", 1)
            name = lhs.strip()
            if name not in b:
                raise ParseError(lineno, f"unknown basis name {name!r}")
            if name in jmap:
                raise ParseError(lineno, f"duplicate J line for {name}")
            jmap[name] = _parse_combination(rhs.strip(), b, lineno)
            if any(c.im != 0 for c in jmap[name].values()):
                raise ParseError(lineno, f"J {name} has a non-real coefficient")

        elif keyword == "symplectic":
            b = basis_or_fail(lineno)
            body = stripped[len("symplectic") :].strip()
            if "=" not in body:
                raise ParseError(lineno, "symplectic line needs '='")
            lhs, rhs = body.split("=", 1)
            pair_names = lhs.split()
            if len(pair_names) != 2:
                raise ParseError(lineno, "symplectic left side needs two names")
            a, c = pair_names
            if a not in b or c not in b:
                raise ParseError(lineno, "unknown basis name in symplectic entry")
            if a == c:
                raise ParseError(lineno, "symplectic entry on a repeated name")
            try:
                value = parse_gaussian(rhs.strip())
            except ScalarError as exc:
                raise ParseError(lineno, str(exc)) from None
            if value.im != 0:
                raise ParseError(lineno, "symplectic value is not real")
            i, j = b.index(a), b.index(c)
            key, val = ((a, c), value) if i < j else ((c, a), -value)
            if key in sympl and sympl[key] != val:
                first = sympl_lines[key]
                raise ParseError(lineno, f"symplectic [{key[0]}, {key[1]}] conflicts with line {first}")
            sympl[key] = val
            sympl_lines.setdefault(key, lineno)

        elif keyword == "generator":
            b = basis_or_fail(lineno)
            tokens_ok = list(b) + [f"{n}*" for n in b]
            gens.append(_parse_combination(stripped[len("generator") :].strip(), tokens_ok, lineno))

        elif keyword == "names":
            if len(tokens) < 2:
                raise ParseError(lineno, "names line needs a kind")
            kind = tokens[1]
            rest = tokens[2:]
            if kind not in ("eigen", "duals", "params"):
                raise ParseError(lineno, f"unknown names kind {kind!r}")
            if kind in names_lines:
                raise ParseError(lineno, f"duplicate names {kind} line")
            names_lines[kind] = lineno
            if kind == "eigen":
                names_eigen = tuple(rest)
            elif kind == "duals":
                names_duals = tuple(rest)
            else:
                if len(rest) != 1 or not _NAME_RE.match(rest[0]):
                    raise ParseError(lineno, "names params needs one identifier")
                param_prefix = rest[0]

        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")

    if basis is None:
        raise ParseError(1, "no basis line")
    kinds = [k for k, present in (
        ("complex", bool(jmap)),
        ("symplectic", bool(sympl)),
        ("subbundle", bool(gens)),
    ) if present]
    if len(kinds) != 1:
        raise ParseError(1, "exactly one structure (J, symplectic, or generator lines) required")
    structure = kinds[0]
    if structure == "complex" and set(jmap) != set(basis):
        missing = ", ".join(sorted(set(basis) - set(jmap)))
        raise ParseError(1, f"J is missing on: {missing}")
    # only a complex structure has an eigenframe to name
    frame_lines = sorted((line, kind) for kind, line in names_lines.items() if kind != "params")
    if frame_lines and structure != "complex":
        line, kind = frame_lines[0]
        raise ParseError(line, f"names {kind} applies only to a complex structure (J lines)")
    # eigenframe and co-frame names, with their bar forms, must differ from
    # each other and from the basis, or the printed labels are ambiguous; a
    # kind left unnamed takes eigenframe's default names
    taken = set(basis)
    for kind, default in zip(("eigen", "duals"), default_frame_names(len(basis) // 2)):
        if kind not in names_lines:
            taken.update([*default, *(f"{n}bar" for n in default)])
    for line, kind in frame_lines:
        chosen = names_eigen if kind == "eigen" else names_duals
        if len(chosen) != len(basis) // 2:
            raise ParseError(line, f"names {kind} needs one name per complex plane")
        for label in [*chosen, *(f"{n}bar" for n in chosen)]:
            if label in taken:
                raise ParseError(line, f"names {kind}: {label!r} is already in use")
            taken.add(label)

    return WorkspaceSpec(
        basis=basis,
        brackets=brackets,
        structure=structure,
        jmap=jmap,
        symplectic=sympl,
        generators=tuple(gens),
        names_eigen=names_eigen,
        names_duals=names_duals,
        param_prefix=param_prefix,
    )


def render_workspace(spec: WorkspaceSpec) -> str:
    """Canonical text form; parses back to an equal spec."""
    lines = ["basis " + " ".join(spec.basis)]
    for (a, b), combo in sorted(
        spec.brackets.items(), key=lambda kv: (spec.basis.index(kv[0][0]), spec.basis.index(kv[0][1]))
    ):
        lines.append(f"bracket {a} {b} = {_render_combo(combo, spec.basis)}")
    if spec.structure == "complex":
        for name in spec.basis:
            lines.append(f"J {name} = {_render_combo(spec.jmap[name], spec.basis)}")
    elif spec.structure == "symplectic":
        for (a, b), v in sorted(
            spec.symplectic.items(),
            key=lambda kv: (spec.basis.index(kv[0][0]), spec.basis.index(kv[0][1])),
        ):
            lines.append(f"symplectic {a} {b} = {v}")
    else:
        order = list(spec.basis) + [f"{n}*" for n in spec.basis]
        for combo in spec.generators:
            lines.append(f"generator {_render_combo(combo, order)}")
    if spec.names_eigen:
        lines.append("names eigen " + " ".join(spec.names_eigen))
    if spec.names_duals:
        lines.append("names duals " + " ".join(spec.names_duals))
    if spec.param_prefix != "t":
        lines.append(f"names params {spec.param_prefix}")
    return "\n".join(lines) + "\n"


def _render_combo(combo: dict[str, GaussianRational], order: Sequence[str]) -> str:
    return render_sum((str(combo[name]), name) for name in order if name in combo)


# ---------------------------------------------------------------------------
# Workspace construction
# ---------------------------------------------------------------------------


@dataclass
class Workspace:
    """A built workspace and its analysis stages.

    Each stage (pencil, MC system, gauge image, family, strata; the MC
    solution lives on the MC system) is computed on first use and kept, so
    every section of one command reads the same results.  The gauge image
    needs only the subbundle, so the gauge section prints even where the
    family is blocked.
    """

    spec: WorkspaceSpec
    algebra: FrameAlgebra
    frame: ComplexFrame
    sub: IsotropicSubbundle
    jop: Optional[ComplexOp] = None

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
        n = algebra.dim
        index = {name: i for i, name in enumerate(spec.basis)}
        matrix = [[GR_ZERO] * n for _ in range(n)]
        for name, combo in spec.jmap.items():
            j = index[name]
            for target, c in combo.items():
                matrix[index[target]][j] = c
        jop = ComplexOp.build(matrix)
        frame, sub = complex_eigenbundle(
            algebra, jop, tangent_names=spec.names_eigen, dual_names=spec.names_duals
        )
        return Workspace(spec=spec, algebra=algebra, frame=frame, sub=sub, jop=jop)

    if spec.structure == "symplectic":
        data = {
            (spec.basis.index(a), spec.basis.index(b)): PolyScalar.const(v)
            for (a, b), v in spec.symplectic.items()
        }
        w = ExteriorForm.build(algebra.dual_names, data)
        frame, sub = build_symplectic_eigenbundle(algebra, w)
        return Workspace(spec=spec, algebra=algebra, frame=frame, sub=sub)

    frame = ComplexFrame.complexified(algebra)
    gens = []
    for combo in spec.generators:
        entries = {}
        for token, c in combo.items():
            name = (
                algebra.dual_names[spec.basis.index(token[:-1])]
                if token.endswith("*")
                else token
            )
            entries[name] = PolyScalar.const(c)
        gens.append(GenSection.make(frame, entries))
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
        for (a, b), combo in sorted(
            ws.spec.brackets.items(),
            key=lambda kv: (ws.spec.basis.index(kv[0][0]), ws.spec.basis.index(kv[0][1])),
        )
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
    for a, b in itertools.product(range(len(names)), repeat=2):
        combo: dict[str, GaussianRational] = {}
        for k, c in ws.frame.courant_table.get((a, b), ()):
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
            raise ParseError(1, f"binding {chunk!r} needs name=value")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise ParseError(1, f"unknown family parameter {name!r} (free: {known})")
        if by_name[name] in bindings:
            raise ParseError(1, f"{name} bound twice")
        try:
            bindings[by_name[name]] = parse_gaussian(value)
        except ScalarError as exc:
            raise ParseError(1, str(exc)) from None
    missing = [p.name for p in family.free if p not in bindings]
    if missing:
        raise ParseError(1, f"unbound family parameters: {', '.join(missing)}")
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
            raise ParseError(1, "type needs --at name=value,...")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
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
