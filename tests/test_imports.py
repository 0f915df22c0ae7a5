"""Every name a library module imports is used in that module, every
private function or class it defines is used somewhere in the package,
and every public one is used outside its own body by library code other
than ``__init__``, or is named in ``PUBLIC_API`` with the reason it is kept.

No linter ships with the project, so this stands in for pyflakes' F401
check and for a dead-code check: a kernel that replaces another must not
leave its import or its helpers behind, and code only the tests call,
the acceptance checks included, belongs in ``tests/oracles.py``.  An import on a line marked
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


def unreferenced_definitions(sources: dict[str, str], private: bool) -> list[str]:
    """The module-level functions and classes of sources, named with one
    leading underscore when private and with none otherwise, that no code
    refers to outside their own body.  A private definition may be used by
    any module of sources; a public one only by a module of sources other
    than ``__init__.py``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = [
        (module, node, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for module in sorted(sources):
        for definition in trees[module].body:
            name = getattr(definition, "name", "")
            if not isinstance(definition, DEFINITIONS) or name.startswith("__"):
                continue
            if name.startswith("_") != private:
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                ref == name
                and id(node) not in inside
                and (private or user != "__init__.py")
                for user, node, ref in references
            ):
                unused.append(f"{module}: {name}")
    return unused


def test_the_check_finds_an_unused_private_definition():
    sources = {
        "a.py": "def _rec(k):\n    return _rec(k - 1) if k else 0\ndef _used():\n    pass\nclass _Gone:\n    pass\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert unreferenced_definitions(sources, private=True) == ["a.py: _rec", "a.py: _Gone"]


def test_every_private_definition_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced_definitions(sources, private=True) == []


# Public names that no other library module uses, kept as library API on
# purpose.
PUBLIC_API = {
    "star_graph": "the README's library example builds the claw with it",
    "path_graph": "a graph family constructor beside star_graph",
    "edgeless_graph": "a graph family constructor beside star_graph",
    "complete_graph": "a graph family constructor beside star_graph",
    "acyclic_orientations": "the binding perfbench/shim.py wraps",
    "is_claw_free": "the claw-free graphs of the positivity survey (ROADMAP item 8)",
    "incomparability_graph": "the graph whose X_G ptableaux reads for a poset; the check keys it as an int",
    "count_p_tableaux_hook": "the tableau side of the hook proposition at one arm length k",
}


def test_the_check_finds_an_unused_public_definition():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": "def exported():\n    pass\ndef own():\n    return own()\ndef used():\n    pass\n"
        "def inner():\n    pass\ndef outer():\n    return inner()\n",
        "b.py": "from .a import used\nused()\n",
    }
    assert unreferenced_definitions(sources, private=False) == [
        "a.py: exported",
        "a.py: own",
        "a.py: outer",
    ]


def test_every_public_definition_is_used_or_kept_as_api():
    # an entry of PUBLIC_API that comes into use elsewhere, or goes, fails too
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    unused = unreferenced_definitions(sources, private=False)
    assert sorted(entry.split(": ")[1] for entry in unused) == sorted(PUBLIC_API)
