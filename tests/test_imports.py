"""Every name a library module imports is used in that module, and every
private function or class it defines is used somewhere in the package.

No linter ships with the project, so this stands in for pyflakes' F401
check and for a dead-code check: a kernel that replaces another must not
leave its import or its helpers behind.  An import on a line marked
``# noqa: F401`` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromsym"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from os import path, sep  # noqa: F401\nimport json\nimport sys\nsys.exit()\n"
    assert unused_imports(source) == ["line 2: json"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes named with one leading
    underscore that no code in sources refers to outside their own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for module, tree in sorted(trees.items()):
        for definition in tree.body:
            name = getattr(definition, "name", "")
            if isinstance(definition, DEFINITIONS) and name.startswith("_") and not name.startswith("__"):
                inside = {id(node) for node in ast.walk(definition)}
                if not any(ref == name and id(node) not in inside for node, ref in references):
                    unused.append(f"{module}: {name}")
    return unused


def test_the_check_finds_an_unused_private_definition():
    sources = {
        "a.py": "def _rec(k):\n    return _rec(k - 1) if k else 0\ndef _used():\n    pass\nclass _Gone:\n    pass\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert unused_private_definitions(sources) == ["a.py: _rec", "a.py: _Gone"]


def test_every_private_definition_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unused_private_definitions(sources) == []
