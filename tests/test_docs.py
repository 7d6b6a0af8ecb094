"""The names DESIGN.md and examples/README.md cite stay true.

Every backticked ``path.py::Name[.attr]`` (or pytest's
``path.py::Class::test``) and every backticked dotted ``repro.`` name in
the two documents must resolve, so a rename that leaves the docs stale
fails on its push:

- names under ``src/repro`` resolve by import and ``getattr``;
- ``tests/`` and ``benchmarks/`` files resolve by parsing their AST, so
  no test module is imported;
- a path without a directory (``mesh.py::link_accounting``) resolves by
  its unique basename.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = ("DESIGN.md", "examples/README.md")
#: Where a bare file name is looked up.
SOURCE_ROOTS = ("src/repro", "tests", "benchmarks")
PATH_CITATION = re.compile(
    r"([\w./-]+\.py)::([A-Za-z_]\w*(?:(?:\.|::)[A-Za-z_]\w*)*)")
DOTTED_NAME = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")


def _cited(document: str) -> list[str]:
    """The document's backticked spans outside fenced blocks that cite a
    path-qualified or dotted name, a span wrapped over lines joined."""
    text = re.sub(r"```.*?```", "", (ROOT / document).read_text(),
                  flags=re.S)
    spans = ("".join(span.split()) for span in re.findall(r"`([^`]+)`",
                                                          text))
    return [span for span in spans
            if PATH_CITATION.fullmatch(span) or DOTTED_NAME.fullmatch(span)]


def _source_file(path: str) -> pathlib.Path | None:
    """The file ``path`` names: relative to the repository, to ``src``
    or to ``src/repro``; a bare file name by its unique basename."""
    if "/" not in path:
        found = [match for root in SOURCE_ROOTS
                 for match in (ROOT / root).rglob(path)]
        return found[0] if len(found) == 1 else None
    for base in (ROOT, ROOT / "src", ROOT / "src" / "repro"):
        if (base / path).is_file():
            return base / path
    return None


def _has_attributes(target, names: list[str]) -> bool:
    for name in names:
        if not hasattr(target, name):
            return False
        target = getattr(target, name)
    return True


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        return any(isinstance(target, ast.Name) and target.id == name
                   for target in node.targets)
    if isinstance(node, ast.AnnAssign):
        return isinstance(node.target, ast.Name) and node.target.id == name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any((alias.asname or alias.name.split(".")[0]) == name
                   for alias in node.names)
    return False


def _path_citation_resolves(path: str, qualified: str) -> bool:
    source = _source_file(path)
    if source is None:
        return False
    names = re.split(r"\.|::", qualified)
    parts = source.relative_to(ROOT).with_suffix("").parts
    if parts[0] == "src":
        module = ".".join(parts[1:]).removesuffix(".__init__")
        return _has_attributes(importlib.import_module(module), names)
    body = ast.parse(source.read_text()).body
    for name in names:
        node = next((node for node in body if _defines(node, name)), None)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


def _dotted_name_resolves(dotted: str) -> bool:
    """Import the longest module prefix, then ``getattr`` the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        return _has_attributes(module, parts[cut:])
    return False


def _resolves(citation: str) -> bool:
    match = PATH_CITATION.fullmatch(citation)
    if match:
        return _path_citation_resolves(*match.groups())
    return _dotted_name_resolves(citation)


def test_documents_cite_names():
    """The scan finds both kinds of citation, so the check below cannot
    pass by matching nothing."""
    cited = [span for document in DOCUMENTS for span in _cited(document)]
    assert any(PATH_CITATION.fullmatch(span) for span in cited)
    assert any(DOTTED_NAME.fullmatch(span) for span in cited)


def test_every_cited_name_resolves():
    stale = [f"{document}: `{span}`" for document in DOCUMENTS
             for span in _cited(document) if not _resolves(span)]
    assert not stale, "stale citations:\n" + "\n".join(stale)
