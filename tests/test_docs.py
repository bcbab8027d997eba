"""The documentation must not rot: every fenced Python snippet in the
README and ``docs/*.md`` has to stay syntactically valid, and every
``repro.*`` dotted name the docs mention has to resolve against the live
package (module, or attribute of a module).  CI runs this as its docs
step, so a refactor that renames a documented module or function fails
the build instead of silently orphaning the spec.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted([ROOT / "README.md", *(ROOT / "docs").glob("*.md")])

_SNIPPET = re.compile(r"```python\n(.*?)```", re.DOTALL)
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _snippets():
    for document in DOCUMENTS:
        for i, match in enumerate(_SNIPPET.finditer(
                document.read_text(encoding="utf-8"))):
            yield pytest.param(match.group(1),
                               id=f"{document.name}-{i}")


def _dotted_names():
    names = set()
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        names.update(_DOTTED.findall(text))
    return sorted(names)


def test_documents_exist():
    assert any(d.name == "ARCHITECTURE.md" for d in DOCUMENTS)
    assert any(d.name == "STORAGE_FORMAT.md" for d in DOCUMENTS)


@pytest.mark.parametrize("snippet", _snippets())
def test_python_snippets_compile(snippet):
    compile(snippet, "<doc-snippet>", "exec")


@pytest.mark.parametrize("name", _dotted_names())
def test_dotted_references_resolve(name):
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ImportError:
            continue
        for attribute in parts[split:]:
            assert hasattr(target, attribute), (
                f"{name}: {module_name} has no attribute {attribute!r}")
            target = getattr(target, attribute)
        return
    pytest.fail(f"{name}: no importable prefix")


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    """The README's "From Python:" example is self-contained: run it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = _SNIPPET.search(text, text.index("From Python:")).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out == "[(0, 0, 2), (0, 1, 0)]\n"
