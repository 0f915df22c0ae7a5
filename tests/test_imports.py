"""Every name a library module imports is used in that module, every
private function, class or module-level name it defines is used somewhere
in the package, and every public one is used outside its own body by
library code other than ``__init__``, or is named in ``PUBLIC_API`` with
the reason it is kept.
Every method of a library class is called by live library code, or is
named in ``PUBLIC_API`` too.

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


def top_level_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for each function, class and plain name that a
    module-level statement of tree defines; an assignment's statement is
    its body, so its own value is no reference to its names."""
    names = []
    for statement in tree.body:
        if isinstance(statement, DEFINITIONS):
            names.append((statement.name, statement))
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for target in targets:
                for node in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(node, ast.Name):
                        names.append((node.id, statement))
    return names


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
    """The module-level functions, classes and names of sources, named with one
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
        for name, definition in top_level_names(trees[module]):
            if name.startswith("__"):
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


def test_the_check_finds_an_unused_module_level_name():
    sources = {
        "__init__.py": "from .a import EXPORTED\n",
        "a.py": "EXPORTED = 1\nUSED: int = 2\nLIMIT, _SPARE = USED + 1, 0\nLOOP = LOOP + 1\n_CAP = 3\n"
        "def size():\n    return LIMIT + _CAP\n__all__ = []\n",
        "b.py": "from .a import size\nsize()\n",
    }
    assert unreferenced_definitions(sources, private=False) == ["a.py: EXPORTED", "a.py: LOOP"]
    assert unreferenced_definitions(sources, private=True) == ["a.py: _SPARE"]


def test_every_private_definition_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced_definitions(sources, private=True) == []


# Public names that no other library module uses, and methods that no live
# library code calls, kept as library API on purpose.
PUBLIC_API = {
    "star_graph": "the README's library example builds the claw with it",
    "path_graph": "a graph family constructor beside star_graph",
    "edgeless_graph": "a graph family constructor beside star_graph",
    "complete_graph": "a graph family constructor beside star_graph",
    "acyclic_orientations": "the binding perfbench/shim.py wraps",
    "is_claw_free": "the claw-free graphs of the positivity survey (ROADMAP item 8)",
    "incomparability_graph": "the graph whose X_G ptableaux reads for a poset; the check keys it as an int",
    "hook_coefficient_via_sinks": "the sink route at one k; perfbench/shim.py wraps it to count orientations",
    "Graph.neighbors": "the neighbours of one vertex as numbers, for is_claw_free and library users",
    "SinkProfile.total": "the number of acyclic orientations; perfbench/shim.py reads it",
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


def unreferenced_methods(sources: dict[str, str], dead: list[str]) -> list[str]:
    """The methods of the module-level classes of sources, dunders aside,
    named "module: Class.method", that no live code of a module other than
    ``__init__.py`` reads as an attribute outside their own body.  Code is
    live unless it lies in a definition that dead names, as
    ``unreferenced_definitions`` names them, or in a method found unused,
    so a method that only dead code calls is unused too.  A module reads an
    attribute that one of its own classes keeps in ``__slots__`` as that
    data, not as a method of another class with the same name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    definitions, methods, slots = {}, {}, {}
    for module, tree in trees.items():
        slots[module] = set()
        for name, definition in top_level_names(tree):
            definitions[f"{module}: {name}"] = definition
            for node in definition.body if isinstance(definition, ast.ClassDef) else ():
                if isinstance(node, DEFINITIONS[:2]) and not node.name.startswith("__"):
                    methods[f"{module}: {definition.name}.{node.name}"] = node
                elif isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__slots__" for t in node.targets):
                    slots[module].update(item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant))
    reads = [
        node
        for module, tree in trees.items()
        if module != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in slots[module]
    ]
    inside = {name: {id(node) for node in ast.walk(body)} for name, body in [*definitions.items(), *methods.items()]}
    callers = {
        name: [id(read) for read in reads if read.attr == method.name and id(read) not in inside[name]]
        for name, method in methods.items()
    }
    unused: list[str] = []
    while True:
        inert = set().union(*(inside[name] for name in dead + unused))
        found = [name for name in methods if name not in unused and all(read in inert for read in callers[name])]
        if not found:
            return [name for name in methods if name in unused]
        unused += found


def test_the_check_finds_an_unused_method():
    sources = {
        "__init__.py": "from .a import A\nA().exported()\n",
        "a.py": "class A:\n    __slots__ = ('size',)\n    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        pass\n    def only_dead(self):\n        pass\n"
        "    def own(self):\n        return self.own()\n    def exported(self):\n        pass\n"
        "class B:\n    @property\n    def size(self):\n        return 1\n"
        "def dead(a):\n    return a.only_dead()\ndef live(a):\n    return a.used() + a.size\n",
        "b.py": "from .a import A, B, live\nlive(A()), B\n",
    }
    dead = unreferenced_definitions(sources, private=False)
    assert dead == ["a.py: dead"]
    unused = unreferenced_methods(sources, dead)
    assert unused == ["a.py: A.only_dead", "a.py: A.own", "a.py: A.exported", "a.py: B.size"]


def test_every_public_definition_is_used_or_kept_as_api():
    # an entry of PUBLIC_API that comes into use elsewhere, or goes, fails too
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    unused = unreferenced_definitions(sources, private=False)
    unused += unreferenced_methods(sources, unused)
    assert sorted(entry.split(": ")[1] for entry in unused) == sorted(PUBLIC_API)
