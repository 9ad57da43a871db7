"""``tools/census.py``: no definition under ``src/repro`` goes unnamed.

Tier-1 gate against dead-code regrowth: every function, class and
method in the package must be named somewhere besides its own
definition — by a caller, a subclass, an import, a test or the docs.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import census  # noqa: E402


def test_every_definition_is_named():
    findings = census.unnamed()
    assert findings == [], "\n".join(
        f"{path}:{line}: {kind} {name}"
        for path, line, kind, name in findings
    )


def test_census_sees_the_package():
    found = list(census.definitions())
    names = {name for _, _, _, name in found}
    assert {"Coordinator", "executions_seen", "deploy_composite"} <= names
    # Verb handlers and Evaluator's getattr-dispatched methods are
    # reached without their names being written, so they are skipped.
    assert "_on_notify" not in names
    assert not any(name.startswith("_eval_") for name in names)


def test_an_unnamed_definition_is_reported(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    pass\n\n\n"
        "def orphan_helper():\n    return used()\n"
    )
    monkeypatch.setattr(census, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(census, "PACKAGE", package)
    assert census.unnamed() == [
        ("src/repro/mod.py", 5, "def", "orphan_helper"),
    ]
    assert census.main([]) == 1
