"""Layers call strictly downward.

Every ``repro.*`` import under ``src/repro`` — top-level or inside a
function — must target a package ranked at or below the importing one in
:data:`ORDER`.  Today's exceptions are listed in :data:`ALLOWED`, keyed
by importing file and target package; the list may only shrink: an entry
that no longer violates fails too, so fixing one means deleting it here.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Lowest first.  ``structures`` is a succinct structure over
#: ``sequences``; ``baselines`` and ``bench`` are paper-reproduction code
#: nothing on the build → serve path may import.
ORDER = [
    "errors", "sequences", "structures", "rdf", "core", "storage",
    "dynamic", "queries", "obs", "wire", "net", "service", "cluster",
    "datasets", "baselines", "bench", "cli",
]
RANK = {name: rank for rank, name in enumerate(ORDER)}
#: The package root (the public facade) and ``python -m repro``.
RANK["__init__"] = RANK["__main__"] = RANK["cli"]

#: (importing file, target package) pairs that still import upward.
ALLOWED = {
    ("core/base.py", "storage"),
    ("core/pairs.py", "storage"),
    ("core/trie.py", "storage"),
    ("sequences/base.py", "storage"),
    ("sequences/bitvector.py", "storage"),
    ("rdf/dictionary.py", "storage"),
    ("dynamic/index.py", "queries"),
    ("storage/index_io.py", "dynamic"),
    ("queries/logs.py", "datasets"),
}


def _package(relative: Path) -> str:
    return relative.parts[0] if len(relative.parts) > 1 else relative.stem


def _targets(node):
    """``repro`` subpackages an import node pulls in."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        assert node.level == 0, "relative imports bypass this check"
        if node.module != "repro":
            names = [node.module or ""]
        else:
            # ``from repro import wire`` names a module; dunder metadata
            # such as ``__version__`` belongs to no layer.
            names = [f"repro.{alias.name}" for alias in node.names
                     if not alias.name.startswith("__")]
    else:
        return []
    return [name.split(".")[1] for name in names
            if name.startswith("repro.")]


def _imports():
    """(importing file, source package, target package) for every import."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        source = _package(relative)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for target in _targets(node):
                yield relative.as_posix(), source, target


def test_every_package_is_ranked():
    packages = {_package(path.relative_to(SRC))
                for path in SRC.rglob("*.py")}
    imported = {target for _, _, target in _imports()}
    assert packages | imported <= set(RANK)


def test_imports_only_go_down():
    upward = {(file, target) for file, source, target in _imports()
              if RANK[target] > RANK[source]}
    assert upward - ALLOWED == set(), "new upward imports"
    assert ALLOWED - upward == set(), "fixed: delete these from ALLOWED"


def test_service_never_imports_cluster():
    assert not [file for file, source, target in _imports()
                if source == "service" and target == "cluster"]


#: The stdlib HTTP bases; only the one front end may build on them.
HTTP_BASES = {"BaseHTTPRequestHandler", "HTTPServer", "ThreadingHTTPServer"}
HTTP_FRONT = {("service/http.py", "QueryServiceHandler"),
              ("service/http.py", "QueryServiceServer")}


def _subclasses():
    """(file, class name, base names) for every class under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {base.id if isinstance(base, ast.Name)
                         else getattr(base, "attr", None)
                         for base in node.bases}
                yield relative, node.name, bases


def test_one_http_front():
    """Every deployment shape serves through the same handler and server:
    a shape plugs in through its service object, never a subclass."""
    classes = list(_subclasses())
    http = {(file, name) for file, name, bases in classes
            if bases & HTTP_BASES}
    assert http == HTTP_FRONT
    front = {name for _, name in HTTP_FRONT}
    assert [(file, name) for file, name, bases in classes
            if bases & front] == []
