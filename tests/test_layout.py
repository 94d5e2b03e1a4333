"""Design rules checked on the package source itself.

A module's underscore names are its own: another module of the package
that needs one should use, or ask for, a public name instead. And a
private helper is there for its module: one its module never names is
dead, however many tests still import it.
"""

import ast
from pathlib import Path

import formation_forge

PACKAGE = "formation_forge"
PACKAGE_DIR = Path(formation_forge.__file__).resolve().parent
MODULE_NAMES = {path.stem for path in PACKAGE_DIR.glob("*.py")}


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_imports(source):
    """``(line, name)`` for each private name ``source`` takes from a package module.

    Catches ``from .mod import _name`` and ``from formation_forge.mod import
    _name``, and ``mod._name`` where ``mod`` is a package module imported
    by name (``from . import mod``, ``import formation_forge.mod as mod``).
    """
    tree = ast.parse(source)
    found = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != PACKAGE:
                continue
            for alias in node.names:
                if is_private(alias.name):
                    found.append((node.lineno, alias.name))
                elif alias.name in MODULE_NAMES:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and is_private(node.attr)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_imports_another_modules_private_names():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (hits := private_imports(path.read_text()))
    }
    assert offenders == {}


def test_the_check_sees_each_import_form():
    source = (
        "import numpy as np\n"
        "from numpy import _pytesttester\n"
        "from .equilibria import _aligned_system, census\n"
        "from formation_forge.cli import _build_bundle\n"
        "from . import cli, __version__\n"
        "import formation_forge.graph as graph\n"
        "cli._build_bundle(None)\n"
        "graph._cache\n"
        "np._core\n"
    )
    assert private_imports(source) == [
        (3, "_aligned_system"),
        (4, "_build_bundle"),
        (7, "cli._build_bundle"),
        (8, "graph._cache"),
    ]


def unreferenced_private_helpers(source):
    """Module-level private functions and classes that ``source`` never names.

    Such a helper is dead code, or lives on only for the tests that import it.
    """
    tree = ast.parse(source)
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and is_private(node.name)
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in defined if name not in used]


def test_every_private_helper_is_used_in_its_own_module():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := unreferenced_private_helpers(path.read_text()))
    }
    assert offenders == {}


def test_the_helper_check_sees_unused_definitions():
    source = (
        "def _used():\n"
        "    return 1\n"
        "def _dead():\n"
        "    return _used()\n"
        "class _Kept:\n"
        "    pass\n"
        "class _Gone:\n"
        "    def _method(self):\n"
        "        return _Kept\n"
        "def __getattr__(name):\n"
        "    return name\n"
    )
    assert unreferenced_private_helpers(source) == ["_dead", "_Gone"]


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not is_private(alias.asname or alias.name)
    ]
    assert len(imported) == len(set(imported))
    assert sorted(formation_forge.__all__) == sorted(imported)
    assert len(formation_forge.__all__) == len(set(formation_forge.__all__))
