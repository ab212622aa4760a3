"""Run seeded mutations of workspace texts through ``gcdeform validate``.

Usage: ``python tests/reader_fuzz.py [COUNT [SEED [SRC]]] [--log]``: COUNT
mutations (default 1000) drawn with SEED (default 1), importing gcdeform from
SRC (default: the ``src`` next to this file).

Each mutation starts from the built-in preset, a ``bench/corpus/*.ws``
workspace or a workspace of ``tests/cli_sweep.py`` and applies one to three
edits: delete, duplicate or swap lines, or replace or insert a token drawn
from the text itself or from a fixed list of junk tokens.  Every mutated text
is validated in process.  A run is bad when it ends in an uncaught exception,
in an exit code other than 0, 1 or 2, or in exit 1 without a positioned
diagnostic (stderr starting ``error: line N: ``): an input error must name its
line, except the two about the whole text (no basis line, not exactly one
structure), which read ``error: workspace: `` and nothing else.  The script
prints the count of each exit code and every bad run, and exits 1 when there
is one.  ``--log`` also prints every mutated text with its
exit code, stdout and stderr, so the logs of two source trees can be diffed.
"""

from __future__ import annotations

import collections
import random
import re
import sys
import tempfile
from pathlib import Path

from cli_sweep import CORPUS, STRATA_ONLY, WORKSPACES, run

HERE = Path(__file__).resolve().parent

JUNK = ("=", "*", "i", "1 2", "+", "-", "(", ")", "1/0", "0", "#", "X*", "1//2", "*U", "names")

# the two errors about a whole text, which no one line causes, cite the workspace
_WHOLE_TEXT = ("no basis line", "exactly one structure (J, symplectic, or generator lines) required")
_POSITIONED = re.compile(rf"^error: (line \d+: |workspace: ({'|'.join(map(re.escape, _WHOLE_TEXT))})$)")


def base_texts(preset: str) -> list[str]:
    corpus = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ws"))]
    sweep = [WORKSPACES[name] for name in sorted(WORKSPACES)]
    return [preset, *corpus, *sweep, *STRATA_ONLY.values()]


def mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    tokens = text.split()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines = [""]
        op = rng.choice(("delete", "duplicate", "swap", "replace", "insert"))
        k = rng.randrange(len(lines))
        if op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(rng.randrange(len(lines) + 1), lines[k])
        elif op == "swap":
            m = rng.randrange(len(lines))
            lines[k], lines[m] = lines[m], lines[k]
        else:
            words = lines[k].split()
            token = rng.choice(JUNK) if rng.random() < 0.5 or not tokens else rng.choice(tokens)
            if op == "replace" and words:
                words[rng.randrange(len(words))] = token
            else:
                words.insert(rng.randrange(len(words) + 1), token)
            lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


def is_bad(code: str, err: str) -> bool:
    if code not in ("0", "1", "2"):
        return True
    return code == "1" and not _POSITIONED.match(err)


def fuzz(main, preset: str, count: int, seed: int, log=None):
    """Return the count of each exit code and the bad runs, as (text, code, err)."""
    rng = random.Random(seed)
    texts = base_texts(preset)
    exits: collections.Counter = collections.Counter()
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz.ws")
        for n in range(count):
            text = mutate(rng.choice(texts), rng)
            path.write_text(text, encoding="utf-8")
            code, out, err = run(main, ("validate", "--input", str(path)))
            exits[code] += 1
            if is_bad(code, err):
                bad.append((text, code, err))
            if log is not None:
                log.write(f"# mutation {n}\n{text}exit {code}\n--- stdout\n{out}--- stderr\n{err}--- end\n")
    return exits, bad


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--log"]
    count = int(args[0]) if args else 1000
    seed = int(args[1]) if len(args) > 1 else 1
    src = Path(args[2]).resolve() if len(args) > 2 else HERE.parent / "src"
    sys.path.insert(0, str(src))
    from gcdeform.cli import KODAIRA_WORKSPACE, main as gcdeform_main

    log = sys.stdout if "--log" in sys.argv[1:] else None
    exits, bad = fuzz(gcdeform_main, KODAIRA_WORKSPACE, count, seed, log)
    for text, code, err in bad:
        print(f"bad run: exit {code}\n{text}--- stderr\n{err}--- end")
    print(" ".join(f"exit {code}: {n}" for code, n in sorted(exits.items())) + f", bad: {len(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
