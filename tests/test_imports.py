"""Every name a module under ``src/`` or ``tests/`` imports is used in it.

The check reads each file with the standard library's ``ast`` module: an
imported name counts as used when the module loads it as a name or uses
it as the base of an attribute.  The exceptions are named below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Imported for use from elsewhere, not by the module itself: a package's
# __init__.py re-exports its modules' names (every __init__.py is skipped),
# and perfbench traces these layer calls by wrapping them in patsolve.search.
EXEMPT = {"src/patsolve/search.py": {"build_mgta", "partition_from_labels"}}


def unused_imports(source: str) -> list[tuple[str, int]]:
    """The names ``source`` imports and never loads, with their lines."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(name, line) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    found = {}
    for path in files:
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(ROOT).as_posix()
        exempt = EXEMPT.get(rel, ())
        unused = [hit for hit in unused_imports(path.read_text()) if hit[0] not in exempt]
        if unused:
            found[rel] = unused
    assert not found, found


def test_finds_an_unused_import():
    source = "import os.path\nfrom sys import path, argv as args\nprint(path)\n"
    assert unused_imports(source) == [("os", 1), ("args", 2)]
