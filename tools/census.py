#!/usr/bin/env python
"""Static census: definitions in ``src/repro`` that nothing names.

Walks every module under ``src/repro`` with :mod:`ast` and lists each
function, class or method whose name appears, as a whole word, nowhere
in the repository's code and docs except at its own definition(s).
Such a definition has no caller, no subclass, no import and no
documentation reference: it is dead code.

Skipped, because they are reached without their name being written:

* dunders (``__init__``, ``__call__`` …), called by the language;
* ``@handles(...)`` methods, dispatched by envelope verb through the
  actor's dispatch table;
* ``_eval_<node>`` methods, which ``Evaluator`` dispatches by
  ``getattr`` on the expression node's class name.

Run from anywhere::

    python tools/census.py

Exit status 0 when nothing is unnamed; 1 with one
``path:line: kind name`` line per finding otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

#: Where a name counts as used: code, tests, benchmarks and docs.
SEARCH_ROOTS = (
    "src", "tests", "benchmarks", "bench", "examples", "tools", "docs",
    "README.md",
)
SEARCH_SUFFIXES = (".py", ".md")

WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: (path relative to the repo, line, kind, name)
Definition = Tuple[str, int, str, str]


def _is_handler(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "handles"
        ):
            return True
    return False


def _skipped(name: str) -> bool:
    return (
        name.startswith("__") and name.endswith("__")
    ) or name.startswith("_eval_")


def definitions() -> "Iterator[Definition]":
    """Every function, method and class defined under ``src/repro``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        relative = str(path.relative_to(REPO_ROOT))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                kind = "class"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = "def"
            else:
                continue
            if _skipped(node.name) or _is_handler(node):
                continue
            yield relative, node.lineno, kind, node.name


def word_counts() -> "Counter[str]":
    """Whole-word occurrence counts over every searched file."""
    counts: "Counter[str]" = Counter()
    for entry in SEARCH_ROOTS:
        path = REPO_ROOT / entry
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.suffix in SEARCH_SUFFIXES and file.is_file():
                text = file.read_text(encoding="utf-8", errors="replace")
                counts.update(WORD_RE.findall(text))
    return counts


def unnamed() -> "List[Definition]":
    """Definitions whose name occurs only where it is defined."""
    found = list(definitions())
    defined = Counter(name for _, _, _, name in found)
    counts = word_counts()
    return [d for d in found if counts[d[3]] <= defined[d[3]]]


def main(argv: "List[str]") -> int:
    findings = unnamed()
    for path, line, kind, name in findings:
        print(f"{path}:{line}: {kind} {name}")
    if findings:
        print(f"census: {len(findings)} definition(s) nothing names")
        return 1
    print("census: OK (every definition under src/repro is named)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
