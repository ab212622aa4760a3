"""Print the exit code, stdout and stderr of every gcdeform command.

Usage: ``python tests/cli_sweep.py [SRC]``, where SRC is the source directory
to import gcdeform from (default: the ``src`` next to this file).  Run it on
two source trees and diff the outputs to see every byte a change moves.

The sweep covers each command in both formats on the built-in preset, on
every ``bench/corpus/*.ws`` workspace (read only), on the Iwasawa frame, on
Kodaira x Kodaira (a rank-8 subbundle with a nonzero Schouten table and a
64-unknown compatibility pencil), on a workspace given by subbundle
generators, on the two-dimensional non-abelian algebra with its area form (a
reduced family without parameters), on one workspace per refusal of the
workspace build (a failed Jacobi identity, J^2 != -1, a non-integrable J, a
degenerate 2-form and each refusal of the subbundle build), on a bracket
with a non-real coefficient and on two workspaces with a misplaced ``names``
line; then
``strata`` alone on symplectic abelian-8, seven ``type`` points on the
preset, two on the reduced family of every ``--input`` workspace that has one
(every parameter 0, and every parameter 1/7 + i/9; the names are read from
``family --format machine``), or one with an empty ``--at`` where that family
has no parameters, and the usage errors.
Each workspace is written to a temporary directory under a fixed name, so the
paths in the output do not depend on where the sweep runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "bench" / "corpus"

WORKSPACES = {
    "iwasawa.ws": (
        "basis X1 Y1 X2 Y2 X3 Y3\n"
        "bracket X1 X2 = -X3\nbracket Y1 Y2 = X3\nbracket X1 Y2 = -Y3\nbracket Y1 X2 = -Y3\n"
        "J X1 = Y1\nJ Y1 = -X1\nJ X2 = Y2\nJ Y2 = -X2\nJ X3 = Y3\nJ Y3 = -X3\n"
    ),
    "kodaira_symplectic_generators.ws": (
        "basis X Y U V\nbracket X Y = U\n"
        "generator X - i*U*\ngenerator Y - i*V*\n"
        "generator U + i*X*\ngenerator V + i*Y*\n"
    ),
    "kodaira_x_kodaira.ws": (
        "basis X Y U V X2 Y2 U2 V2\nbracket X Y = U\nbracket X2 Y2 = U2\n"
        "J X = Y\nJ Y = -X\nJ U = V\nJ V = -U\n"
        "J X2 = Y2\nJ Y2 = -X2\nJ U2 = V2\nJ V2 = -U2\n"
    ),
    "r2.ws": "basis X Y\nbracket X Y = Y\nsymplectic X Y = 1\n",
    "refuse_dependent.ws": "basis X Y\ngenerator X\ngenerator X\n",
    "refuse_intersect.ws": "basis X Y\ngenerator X\ngenerator Y\n",
    "refuse_isotropic.ws": "basis X Y\ngenerator X + i*X*\ngenerator X + i*X*\n",
    "refuse_involutive.ws": (
        "basis X Y U V\nbracket X Y = U\nsymplectic X Y = 1\nsymplectic U V = 1\n"
    ),
    "refuse_integrable.ws": (
        "basis X Y U V\nbracket X Y = U\nJ X = U\nJ U = -X\nJ Y = V\nJ V = -Y\n"
    ),
    "refuse_square.ws": "basis X Y\nJ X = Y\nJ Y = X\n",
    "refuse_degenerate.ws": "basis X Y U V\nsymplectic X Y = 1\n",
    "refuse_jacobi.ws": (
        "basis X Y U V\nbracket X Y = U\nbracket X U = X\n"
        "bracket Y V = 1/2*Y - 1/3*U\nJ X = Y\nJ Y = -X\nJ U = V\nJ V = -U\n"
    ),
    "refuse_bracket_not_real.ws": (
        "basis X Y U V\nbracket X Y = i*U\nsymplectic X U = 1\nsymplectic Y V = 1\n"
    ),
    "names_repeated.ws": "basis X Y\nJ X = Y\nJ Y = -X\nnames eigen A\nnames eigen B\n",
    "names_eigen_symplectic.ws": (
        "basis X Y U V\nbracket X Y = U\nsymplectic X U = 1\nsymplectic Y V = 1\n"
        "names eigen A B\n"
    ),
}

# workspaces swept with ``strata`` alone: symplectic abelian-8 is refused
# stratification for its 28 parameters and reports its generic rank
STRATA_ONLY = {
    "abelian8_symplectic.ws": "basis X1 Y1 X2 Y2 X3 Y3 X4 Y4\n"
    + "".join(f"symplectic X{i} Y{i} = 1\n" for i in range(1, 5)),
}

COMMANDS = ("validate", "brackets", "mc", "gauge", "family", "type", "strata", "report")

# the last four pin the separation locus |t11| = 1 from both sides
TYPE_POINTS = (
    "t14=1,t32=0,t11=0,t22=0",
    "t14=0,t32=1,t11=0,t22=0",
    "t14=0,t32=0,t11=1,t22=0",
    "t14=0,t32=0,t11=i,t22=0",
    "t14=0,t32=0,t11=3/5+4*i/5,t22=0",
    "t14=0,t32=0,t11=99/100,t22=0",
    "t14=0,t32=0,t11=1+i,t22=0",
)

USAGE_ERRORS = (
    ("foo", "--preset", "kodaira"),
    ("report", "--preset", "nope"),
    ("report", "--preset", "kodaira", "--format", "xml"),
    ("report", "--preset", "kodaira", "--input", "kodaira_symplectic.ws"),
    ("report",),
    ("report", "--preset", "kodaira", "--at", "t14=1"),
)

# every parameter of a reduced family at once
FAMILY_VALUES = ("0", "1/7+i/9")


def invocations(names, main):
    sources = [("--preset", "kodaira")] + [("--input", name) for name in names]
    for source in sources:
        for command in COMMANDS:
            for fmt in ("text", "machine"):
                yield (command, *source, "--format", fmt)
    for at in TYPE_POINTS:
        for fmt in ("text", "machine"):
            yield ("type", "--preset", "kodaira", "--at", at, "--format", fmt)
    for name in STRATA_ONLY:
        for fmt in ("text", "machine"):
            yield ("strata", "--input", name, "--format", fmt)
    for name in names:
        code, out, _ = run(main, ("family", "--input", name, "--format", "machine"))
        if code != "0":
            continue
        params = json.loads(out)["free"]
        # a family without parameters is classified once, with an empty --at
        for value in FAMILY_VALUES if params else ("",):
            at = ",".join(f"{p}={value}" for p in params)
            for fmt in ("text", "machine"):
                yield ("type", "--input", name, "--at", at, "--format", fmt)
    yield from USAGE_ERRORS


def run(main, argv) -> tuple[str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a finding, not a crash of the sweep
            code = f"uncaught {type(exc).__name__}: {exc}"
    return str(code), out.getvalue(), err.getvalue()


def main() -> int:
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else HERE.parent / "src"
    sys.path.insert(0, str(src))
    from gcdeform.cli import main as gcdeform_main

    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ws"))}
    texts.update(WORKSPACES)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**texts, **STRATA_ONLY}.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in invocations(sorted(texts), gcdeform_main):
                code, out, err = run(gcdeform_main, argv)
                print(f"$ gcdeform {' '.join(argv)}\nexit {code}")
                print(f"--- stdout\n{out}--- stderr\n{err}--- end")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
