"""Documentation checks in tier-1: docs cannot silently rot.

Runs the same checks as the CI ``docs-check`` job
(``tools/check_docs.py``) from inside pytest, plus guards on the doc
set itself and on the module-docstring satellite of the perf PR.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


@pytest.mark.parametrize(
    "document", check_docs.default_documents(),
    ids=lambda d: str(d.relative_to(REPO_ROOT)),
)
def test_document_is_clean(document):
    problems = check_docs.check_document(document)
    assert problems == []


def test_required_documents_exist():
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()
    assert (REPO_ROOT / "docs" / "PERF.md").exists()
    # README links the docs tree.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/PERF.md" in readme
    assert "docs/ARCHITECTURE.md" in readme


def test_every_package_has_a_docstring_naming_entry_points():
    """Satellite: every ``repro.*`` package documents itself."""
    import repro

    packages = [repro] + [
        importlib.import_module(f"repro.{module.name}")
        for module in pkgutil.iter_modules(repro.__path__)
        if module.ispkg
    ]
    assert len(packages) > 15
    for package in packages:
        doc = package.__doc__ or ""
        assert len(doc.strip()) > 80, (
            f"{package.__name__} needs a real module docstring"
        )


#: Names of deleted v1 surfaces and of the deleted seed routing knob.
#: Built from pieces so this file does not itself match a repo-wide
#: search for them.
_DELETED_NAMES = re.compile(
    "|".join([
        "Service" "Manager",
        "compile" "_plans",
        r"\.(un)?install\(\)",
        r"\b(notify|invoke|invoke_result)_body\(",
    ])
)


def test_no_stale_servicemanager_references_outside_the_shim():
    """The README, the docs and the examples name no deleted surface:
    the v1 facade, the routing-plan knob, the actor lifecycle aliases
    and the protocol body helpers are all gone."""
    documents = [
        REPO_ROOT / "README.md",
        *(REPO_ROOT / "docs").glob("*.md"),
        *(REPO_ROOT / "examples").glob("*.py"),
    ]
    for document in documents:
        text = document.read_text(encoding="utf-8")
        match = _DELETED_NAMES.search(text)
        assert match is None, (
            f"{document.relative_to(REPO_ROOT)} names the deleted "
            f"{match.group(0)!r}"
        )
