"""Design rules checked on the package source itself.

A module's underscore names are its own: another module of the package
that needs one should use, or ask for, a public name instead. And a
private helper is there for its module: one its module never names is
dead, however many tests still import it. A public name that no module
of the package but ``__init__`` names is an entry point, listed below with
its reason, and so is a public method or property of a package class that
no module names; code that only the tests use lives under ``tests/``. A
keyword default is there for a caller that leaves it out: one that every
package caller passes states a value twice, unless it is listed. So does a
parameter without a default that every package call fills with one
constant, unless it is listed: the function can read the constant itself.
No function takes ``**kwargs``, and no module raises the base error class,
whose code ``internal`` the command line keeps for unforeseen failures. A
module reads every name it imports: an import left behind by deleted code
is dead too (``__init__.py`` imports to re-export).
"""

import ast
from pathlib import Path

import formation_forge
import linetrace

PACKAGE = "formation_forge"
PACKAGE_DIR = Path(formation_forge.__file__).resolve().parent
MODULE_NAMES = {path.stem for path in PACKAGE_DIR.glob("*.py")}

# Public names that no module of the package but __init__ names, and why each is public.
ENTRY_POINTS = {
    "CustomLaw": "a control law from the user's own weight function",
    "contains_subformation": "the subformation test on formation graphs",
    "identify_convention": "scores the built-in conventions against the reference spectra",
    "in_singular_set": "membership of the singular target set; the bench tests call it",
    "jacobian_d": "the paper's factorization: the derivative in the targets",
    "jacobian_z": "the paper's factorization: the edge-coordinate Jacobian",
    "reduced_J": "the paper's factorization: the reduced Jacobian D(z) A_e D(z')^T",
    "make_singular_lengths": "builds a singular target set with its witness framework",
    "verify_compatibility": "checks the defining property of a law on sample targets",
}

# Public methods and properties that no package module names, and why each stays.
UNCALLED_MEMBERS = {
    "ControlLaw.weight_dlen2": "one of the four hooks each law writes as one expression; "
    "ROADMAP item 10's closed-form D^2F is its first caller",
}

# Keyword defaults of module-level functions and class constructors that every
# call in the package passes anyway, and why each stays.
KEPT_DEFAULTS = {
    "run_scenario.out_dir": "the tests call run_scenario(path) as a scenario file's one run",
    "builtin_law.gain": 'bench/tests calls builtin_law("gradient_squared")',
    "eval_F_z.check": "it validates the state of a direct caller",
}

# Parameters without a default that every package call fills with one constant,
# and why the callers state it.
KEPT_CONSTANT_ARGUMENTS = {
    "left_nullspace.tol": "a generic null-space routine; its callers state the rank cut they use",
    "newton_root.max_iter": "a generic Newton solver; its callers state their iteration budget",
    "newton_root.tol": "a generic Newton solver; its callers state the residual they stop at",
    "rank_tol.tol": "a generic rank routine; its callers state the rank cut they use",
}


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


def named_in(source):
    """Every name ``source`` reads, takes as an attribute or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def test_every_public_name_is_used_in_the_package_or_a_listed_entry_point():
    used = set().union(*(
        named_in(path.read_text())
        for path in PACKAGE_DIR.glob("*.py")
        if path.name != "__init__.py"
    ))
    unused = set(formation_forge.__all__) - used
    assert unused == set(ENTRY_POINTS)


def public_members(source):
    """``Class.member`` for each public method or property a public class of ``source`` defines."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and not is_private(node.name)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def test_every_public_member_is_named_in_the_package_or_listed():
    sources = [path.read_text() for path in PACKAGE_DIR.glob("*.py")]
    used = set().union(*map(named_in, sources))
    uncalled = {
        member
        for source in sources
        for member in public_members(source)
        if member.split(".")[1] not in used
    }
    assert uncalled == set(UNCALLED_MEMBERS)


def test_the_member_check_sees_definitions_and_uses():
    source = (
        "class Law:\n"
        "    def used(self):\n"
        "        return self.helper\n"
        "    @property\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def _private(self):\n"
        "        return 2\n"
        "    def unused(self):\n"
        "        return 3\n"
        "    stored = 4\n"
        "class _Hidden:\n"
        "    def method(self):\n"
        "        return 5\n"
        "Law().used()\n"
    )
    assert public_members(source) == ["Law.used", "Law.helper", "Law.unused"]
    named = named_in(source)
    assert {"used", "helper"} <= named
    assert not {"unused", "stored"} & named


def called_name(node):
    """The function ``node`` names: ``name`` by name or as ``module.name``, else ``.method``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        module = isinstance(node.value, ast.Name) and node.value.id in MODULE_NAMES
        return node.attr if module else "." + node.attr
    return None


def defaults_every_caller_passes(sources):
    """``function.parameter`` for each keyword default that every call passes.

    The functions are the module-level ones of ``sources``, and so are the
    calls, by name or as ``module.name``. A call leaves unset each argument
    it does not name or reach by position; ``*args`` and ``**kwargs`` set
    nothing, and nor does a reference to the function that is not a call,
    since its callers are unknown. A function no call names is an entry
    point and is skipped.

    A class's own ``__init__`` counts too, as ``Class.parameter`` past
    ``self``; a dataclass's generated one is not read. It is called as
    ``Class(...)``, ``raise Class(...)``, as a package subclass that
    inherits it, or as ``super().__init__(...)`` in a method of a direct
    subclass. A class named but not called is read as a type, as in an
    ``except`` clause, so a class called through a variable can only make
    the check flag more.
    """
    trees = [ast.parse(source) for source in sources]
    signatures = {}  # called name -> (positional parameters, the defaulted ones)
    bases = {}  # class -> its first base's called name
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function, skip = node, 0
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = called_name(node.bases[0]) if node.bases else None
                inits = [item for item in node.body if getattr(item, "name", "") == "__init__"]
                if not inits:
                    continue
                function, skip = inits[0], 1
            else:
                continue
            args = function.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            signatures[node.name] = (positional, set(
                positional[len(positional) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
            ))

    def constructor(cls):
        """The package class whose ``__init__`` a call of ``cls`` runs, or None."""
        while cls in bases and cls not in signatures:
            cls = bases[cls]
        return cls if cls in signatures else None

    def callee(node, cls):
        """The called name of the call ``node`` in a method of class ``cls``, or None."""
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call) and called_name(func.value.func) == "super"):
            return constructor(bases.get(cls))
        name = called_name(func)
        return constructor(name) if name in bases else name

    passed = {}
    for tree in trees:
        callees = set()
        in_class = {
            call: node.name for node in tree.body if isinstance(node, ast.ClassDef)
            for call in ast.walk(node) if isinstance(call, ast.Call)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = callee(node, in_class.get(node))
            if name not in signatures:
                continue
            callees.add(node.func)
            positional, named = signatures[name]
            reached = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                reached.append(arg)
            given = set(positional[: len(reached)]) | {kw.arg for kw in node.keywords}
            passed[name] = passed.get(name, named) & given
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in signatures and node not in callees:
                if isinstance(node.ctx, ast.Load) and node.id not in bases:
                    passed[node.id] = set()
    return {f"{name}.{param}" for name, params in passed.items() for param in params}


def test_no_keyword_default_is_one_every_package_caller_passes():
    sources = [path.read_text() for path in PACKAGE_DIR.glob("*.py")]
    assert defaults_every_caller_passes(sources) == set(KEPT_DEFAULTS)


def test_the_default_check_sees_calls_that_pass_or_leave_an_argument():
    source = (
        "import numkernel\n"
        "def solve(f, tol=1e-9, budget=50, *, jac=None):\n"
        "    return f\n"
        "def entry(x=1):\n"
        "    return x\n"
        "def hook(y=2):\n"
        "    return y\n"
        "def step(h=0.1):\n"
        "    return h\n"
        "class Failure(Exception):\n"
        "    def __init__(self, message, state=None, count=0, code='x'):\n"
        "        super().__init__(message)\n"
        "class Stalled(Failure):\n"
        "    pass\n"
        "class Timeout(Failure):\n"
        "    def __init__(self, message, after=1.0):\n"
        "        super().__init__(message, state=1, count=1)\n"
        "def run(options, args):\n"
        "    solve(1, 1e-6, budget=3, jac=None)\n"
        "    numkernel.solve(2, tol=1e-6, **options)\n"
        "    solve(*args, tol=1e-6, budget=3)\n"
        "    hook(y=3)\n"
        "    step(0.2)\n"
        "    Failure('y', 2, 3, code='a')\n"
        "    try:\n"
        "        raise Stalled('x', code='b', count=2)\n"
        "    except (Failure, Timeout):\n"
        "        raise Timeout('z', after=2.0)\n"
        "    return [hook]\n"
    )
    # Stalled leaves state and Timeout's super().__init__ leaves code; the
    # except clause names Failure and Timeout without calling them.
    assert defaults_every_caller_passes([source]) == {
        "solve.tol", "step.h", "Failure.count", "Timeout.after",
    }


def constant_value(node):
    """The constant an argument states, an UPPER_CASE name or a number literal; else None."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.id if isinstance(node, ast.Name) else node.attr
        return ("name", name) if name.isupper() else None
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return ("literal", repr(value)) if type(value) in (int, float, complex) else None


def constant_arguments(sources):
    """``function.parameter`` for each parameter without a default that every call fills alike.

    The functions are the module-level ones of ``sources``, named
    ``function``, and their classes' methods other than dunders and
    properties, named ``Class.method``; a method's ``self`` or ``cls`` is
    not a parameter. A call is matched by name, as ``module.name`` or, for a
    method, as any ``obj.method``. A parameter is flagged when at least one
    call names its function and every call fills it with the same
    UPPER_CASE name or the same number literal. A call the check cannot map
    leaves each parameter it does not reach a value of its own: past
    ``*args`` and not named beside ``**kwargs``. So does a reference to the
    function that is not a call, since its callers are unknown.
    """
    trees = [ast.parse(source) for source in sources]
    functions = {}  # called name -> [(qualified name, positional parameters, required ones)]

    def add(called, qualified, node, skip):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args][skip:]
        required = positional[: len(positional) - len(args.defaults)] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is None
        ]
        functions.setdefault(called, []).append((qualified, positional, required))

    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node.name, node.name, node, 0)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decorators = {getattr(d, "id", None) for d in item.decorator_list}
                    if not item.name.startswith("__") and "property" not in decorators:
                        skip = 0 if "staticmethod" in decorators else 1
                        add("." + item.name, f"{node.name}.{item.name}", item, skip)
    seen = {}  # function.parameter -> the values its calls fill it with
    for tree in trees:
        callees = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callees.add(node.func)
            for qualified, positional, required in functions.get(called_name(node.func), ()):
                filled = {}
                for name, arg in zip(positional, node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    filled[name] = constant_value(arg)
                filled.update((kw.arg, constant_value(kw.value)) for kw in node.keywords if kw.arg)
                for name in required:
                    seen.setdefault(f"{qualified}.{name}", set()).add(filled.get(name) or object())
        for node in ast.walk(tree):
            if node not in callees and isinstance(getattr(node, "ctx", None), ast.Load):
                for qualified, _, required in functions.get(called_name(node), ()):
                    for name in required:
                        seen.setdefault(f"{qualified}.{name}", set()).add(object())
    return {
        param for param, values in seen.items()
        if len(values) == 1 and isinstance(next(iter(values)), tuple)
    }


def test_no_parameter_is_filled_with_one_constant_by_every_package_call():
    sources = [path.read_text() for path in PACKAGE_DIR.glob("*.py")]
    assert constant_arguments(sources) == set(KEPT_CONSTANT_ARGUMENTS)


def test_the_constant_check_sees_functions_methods_and_unmapped_calls():
    source = (
        "import numkernel\n"
        "TOL = 1e-6\n"
        "def solve(f, tol, budget, *, jac):\n"
        "    return f\n"
        "def scale(x, factor, shift=0.0):\n"
        "    return x\n"
        "def hook(y):\n"
        "    return y\n"
        "def spread(a, b):\n"
        "    return a\n"
        "class Spectrum:\n"
        "    def is_stable(self, tol):\n"
        "        return tol\n"
        "    @staticmethod\n"
        "    def margin(tol, radius):\n"
        "        return tol\n"
        "    def __init__(self, values):\n"
        "        self.values = values\n"
        "def aligned(u, tol):\n"
        "    return u\n"
        "def run(options, args, spec):\n"
        "    solve(1, TOL, 50, jac=None)\n"
        "    numkernel.solve(2, tol=TOL, budget=50, jac=options)\n"
        "    scale(1, -2.0)\n"
        "    scale(2, factor=-2.0, shift=1.0)\n"
        "    hook(TOL)\n"
        "    spread(*args, b=3)\n"
        "    spread(1, 3)\n"
        "    spec.is_stable(TOL)\n"
        "    Spectrum.margin(TOL, spec.radius)\n"
        "    Spectrum([1.0])\n"
        "    aligned(args, TOL)\n"
        "    aligned(args, 1e-6)\n"
        "    return [hook]\n"
    )
    assert constant_arguments([source]) == {
        "solve.tol", "solve.budget", "scale.factor", "spread.b",
        "Spectrum.is_stable.tol", "Spectrum.margin.tol",
    }


def keyword_catchalls(source):
    """``(line, function)`` for each function or lambda of ``source`` that takes ``**kwargs``.

    A catch-all passes settings through unnamed, so a caller cannot see
    which it may give; each setting is a parameter of its own.
    """
    return [
        (node.lineno, getattr(node, "name", "lambda"))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and node.args.kwarg is not None
    ]


def test_no_function_takes_keyword_catchalls():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (hits := keyword_catchalls(path.read_text()))
    }
    assert offenders == {}


def test_the_catchall_check_sees_functions_and_lambdas():
    source = (
        "def run(b, witness, **kwargs):\n"
        "    return check(b, **kwargs)\n"
        "def named(b, *args, tol):\n"
        "    return tol\n"
        "class Law:\n"
        "    def __init_subclass__(cls, **options):\n"
        "        pass\n"
        "hook = lambda **kw: kw\n"
    )
    assert keyword_catchalls(source) == [(1, "run"), (6, "__init_subclass__"), (8, "lambda")]


def base_error_raises(source):
    """Lines of ``source`` that raise ``FormationForgeError`` itself, called or bare.

    The base class carries the code ``internal``, which the command line
    gives only to a failure it did not foresee; a refusal the package
    makes on purpose raises the subclass that names its cause.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "FormationForgeError":
                found.append(node.lineno)
    return found


def test_no_module_raises_the_base_error():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (lines := base_error_raises(path.read_text()))
    }
    assert offenders == {}


def test_the_base_error_check_sees_each_raise_form():
    source = (
        "from . import errors\n"
        "def realize(err):\n"
        "    if err:\n"
        "        raise FormationForgeError(f'failed ({err:.3e})')\n"
        "    if err is None:\n"
        "        raise errors.FormationForgeError('failed')\n"
        "    if err < 0:\n"
        "        raise FormationForgeError\n"
        "    try:\n"
        "        pass\n"
        "    except FormationForgeError:\n"
        "        raise\n"
        "    raise InfeasibleLengthsError('named')\n"
    )
    assert base_error_raises(source) == [4, 6, 8]


def unused_imports(source):
    """``(line, name)`` for each name ``source`` imports and never reads.

    A ``from __future__`` import sets a compiler flag and binds nothing
    that is read, so it is exempt; ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append((node.lineno, name))
    return sorted(found)


def test_every_module_reads_the_names_it_imports():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py" and (hits := unused_imports(path.read_text()))
    }
    assert offenders == {}


def test_the_import_check_sees_names_never_read():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .graph import two_cycles, FormationGraph as Graph\n"
        "from .errors import ConfigurationError\n"
        "def f(g: Graph):\n"
        "    import json\n"
        "    return np.pi, os.path\n"
        "try:\n"
        "    pass\n"
        "except ConfigurationError:\n"
        "    math = 1\n"
    )
    assert unused_imports(source) == [(2, "math"), (5, "two_cycles"), (8, "json")]


def test_the_line_trace_leaves_out_only_the_bodies_of_main_blocks():
    # tests/linetrace.py fails a run that leaves any other package line unrun
    source = (
        "import sys\n"
        "def main():\n"
        "    return 0\n"
        'if __name__ == "__main__":\n'
        "    code = main()\n"
        "    sys.exit(code)\n"
        'if __name__ == "formation_forge":\n'
        "    main()\n"
    )
    assert linetrace.main_block_lines(source) == {5, 6}
