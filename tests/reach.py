"""List the gcdeform functions that no CLI command reaches, and what keeps each.

Usage: ``python tests/reach.py [SRC]``, where SRC is the source directory to
import gcdeform from (default: the ``src`` next to this file).  It runs every
invocation of ``tests/cli_sweep.py`` in process under ``sys.setprofile`` and
prints each function of the gcdeform sources that no call entered, nested
functions included, with its line count and one label:

- ``acceptance``: running ``tests/test_acceptance.py`` in process, through
  ``pytest.main``, enters it;
- ``bench``: ``TRACED`` in ``bench/spans.py`` names it, or the function it is
  nested in (read with ``ast``, not imported);
- ``test-only``: neither.

Then it prints the number of functions and lines, in all and per label.  A
report, not a gate: it exits 0 whatever it finds.  Standard library only,
except that the ``acceptance`` label needs pytest; without it, no function
gets that label and a note says so.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_sweep  # noqa: E402

LABELS = ("acceptance", "bench", "test-only")


def functions(path: Path) -> dict[int, tuple[str, int, int]]:
    """{first line: (qualified name, def line, line count)} of every function
    in a source file; a decorated function is keyed by its first decorator
    and by its ``def`` line alike, for either may be its code's first line."""
    found: dict[int, tuple[str, int, int]] = {}

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    entry = (name, child.lineno, child.end_lineno - child.lineno + 1)
                    for line in [child.lineno, *(d.lineno for d in child.decorator_list)]:
                        found[line] = entry
                walk(child, f"{name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def traced_by_bench() -> set[tuple[str, str]]:
    """The (file name, qualified name) pairs of ``TRACED`` in ``bench/spans.py``."""
    tree = ast.parse((HERE.parent / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return {(f"{module}.py", name) for module, name in ast.literal_eval(node.value)}
    return set()


def run_acceptance() -> str:
    """Run the acceptance criteria in process; a note when that cannot be done."""
    try:
        import pytest
    except ImportError:
        return "pytest is not installed: no function is labelled acceptance"
    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(HERE / "test_acceptance.py")])
    return "" if code == 0 else f"the acceptance run exited {int(code)}"


def main() -> int:
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else HERE.parent / "src"
    package = src / "gcdeform"
    tables = {str(path): functions(path) for path in sorted(package.glob("*.py"))}
    sweep: set[tuple[str, int]] = set()
    acceptance: set[tuple[str, int]] = set()
    entered = sweep

    def profile(frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_filename in tables:
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(src))
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(cli_sweep.CORPUS.glob("*.ws"))}
    texts.update(cli_sweep.WORKSPACES)
    commands = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**texts, **cli_sweep.STRATA_ONLY}.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)
        sys.setprofile(profile)
        try:
            from gcdeform.cli import main as gcdeform_main

            for argv in cli_sweep.invocations(sorted(texts), gcdeform_main):
                cli_sweep.run(gcdeform_main, argv)
                commands += 1
        finally:
            sys.setprofile(None)
            os.chdir(cwd)

    entered = acceptance
    sys.setprofile(profile)
    try:
        note = run_acceptance()
    finally:
        sys.setprofile(None)

    def reached(marks: set[tuple[str, int]]) -> set[tuple[str, int]]:
        return {(path, tables[path][line][1]) for path, line in marks if line in tables[path]}

    by_sweep, by_acceptance, bench = reached(sweep), reached(acceptance), traced_by_bench()
    unreached = []
    for path, table in tables.items():
        file = Path(path).name
        for name, line, count in sorted(set(table.values()), key=lambda entry: entry[1]):
            if (path, line) in by_sweep:
                continue
            if (path, line) in by_acceptance:
                label = "acceptance"
            elif any(f == file and (name == t or name.startswith(f"{t}.")) for f, t in bench):
                label = "bench"
            else:
                label = "test-only"
            unreached.append((f"{file}:{line}", name, count, label))
    print(f"gcdeform functions that no command of the CLI sweep ({commands} commands) reaches:")
    for where, name, count, label in unreached:
        print(f"  {where:<18} {name:<44} {count:>4} lines  {label}")
    print(f"{len(unreached)} functions, {sum(entry[2] for entry in unreached)} lines")
    for label in LABELS:
        counts = [entry[2] for entry in unreached if entry[3] == label]
        print(f"  {label}: {len(counts)} functions, {sum(counts)} lines")
    if note:
        print(f"note: {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
