"""List the gcdeform functions that no CLI command reaches.

Usage: ``python tests/reach.py [SRC]``, where SRC is the source directory to
import gcdeform from (default: the ``src`` next to this file).  It runs every
invocation of ``tests/cli_sweep.py`` in process under ``sys.setprofile`` and
prints each function of the gcdeform sources that no call entered, nested
functions included, with its line count, then their number and total lines.
A report, not a gate: it exits 0 whatever it finds.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_sweep  # noqa: E402


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


def main() -> int:
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else HERE.parent / "src"
    package = src / "gcdeform"
    tables = {str(path): functions(path) for path in sorted(package.glob("*.py"))}
    entered: set[tuple[str, int]] = set()

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

    reached = {(path, tables[path][line][1]) for path, line in entered if line in tables[path]}
    unreached = []
    for path, table in tables.items():
        for name, line, count in sorted(set(table.values()), key=lambda entry: entry[1]):
            if (path, line) not in reached:
                unreached.append((f"{Path(path).name}:{line}", name, count))
    print(f"gcdeform functions that no command of the CLI sweep ({commands} commands) reaches:")
    for where, name, count in unreached:
        print(f"  {where:<18} {name:<44} {count:>4} lines")
    print(f"{len(unreached)} functions, {sum(c for _, _, c in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
