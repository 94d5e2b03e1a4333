"""Design rules checked on the package source itself.

A module's underscore names are its own: another module of the package
that needs one should use, or ask for, a public name instead.
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
