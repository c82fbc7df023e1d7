"""The package surface, and what ``src/uavrelay`` keeps private."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import uavrelay

from test_cli import _src_env

SRC = Path(uavrelay.__file__).resolve().parent
MODULES = ("channel", "mcsim", "optimizer", "outage", "specfun")


def test_surface_is_the_modules_all():
    modules = [importlib.import_module(f"uavrelay.{name}") for name in MODULES]
    assert uavrelay.__all__ == ["__version__", *(name for module in modules for name in module.__all__)]
    assert len(set(uavrelay.__all__)) == len(uavrelay.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(uavrelay, name) is getattr(module, name), name


def test_library_import_leaves_the_cli_unloaded():
    # Importing the CLI would load argparse, json and hashlib on every
    # library import.
    code = "import sys, uavrelay; print(sorted({'uavrelay.cli', 'argparse', 'json', 'hashlib'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_scalar_commands_leave_numpy_unloaded():
    # numpy costs every process that loads it ~70 ms and ~13 MB, and only
    # the alpha grid and the Monte Carlo sampler use arrays. sweep-alpha
    # shows that the check sees numpy once it is loaded.
    code = (
        "import os, sys, uavrelay\n"
        "loaded = ['numpy' in sys.modules]\n"
        "import uavrelay.cli\n"
        "for argv in (['solve'], ['sweep-power'], ['sweep-alpha', '--alpha-grid', '0.1:0.9:3']):\n"
        "    uavrelay.cli.main([*argv, '--out', os.devnull, '--excess-loss-convention', 'paper'])\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(loaded)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[False, False, False, True]"


def test_only_the_array_module_imports_numpy():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                importers.append(path.name)
    assert importers == ["_arrays.py"]


def _private_definitions(tree):
    """Private functions, classes and constants a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _is_used(tree, own, module, name):
    """Whether ``tree`` loads ``name`` defined in ``module``: by its own name
    (``own``: the tree is that module), by the name ``from .module import
    name`` binds, or as an attribute of ``module``."""
    bound = {name} if own else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            bound |= {alias.asname or alias.name for alias in node.names if alias.name == name}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            if isinstance(node.value, ast.Name) and node.value.id == module:
                return True
    return False


def test_every_private_name_has_a_caller_in_src():
    # Code that only tests reach must be public and earn its place.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if not any(_is_used(other, other_name == module, module, name) for other_name, other in trees.items())
    ]
    assert unused == []


def _specfun_imports(tree):
    """Names a module's tree imports from ``specfun``, by ``from .specfun
    import`` or ``from uavrelay.specfun import``, and modules it imports
    whole from the package (``from . import specfun``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("specfun", "uavrelay.specfun"):
                names |= {alias.name for alias in node.names}
            elif node.module in (None, "uavrelay"):
                names |= {"specfun" for alias in node.names if alias.name == "specfun"}
    return names


def test_marcum_calls_layer_through_outage():
    # specfun <- outage <- optimizer: every scalar Marcum evaluation of a
    # link is outage's, so the optimizer only searches.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert _specfun_imports(trees["optimizer"]) == set()
    kernel = {"_log_marcum", "_marcum_q1_complement"}
    assert [module for module, tree in trees.items() if _specfun_imports(tree) & kernel] == ["outage"]
    # The check sees the import that the optimizer once had.
    trees["optimizer"].body.insert(0, ast.parse("from .specfun import _log_marcum").body[0])
    assert _specfun_imports(trees["optimizer"]) == {"_log_marcum"}
