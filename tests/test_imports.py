"""No module of the sdachain package imports a name it never uses, no
function in it declares a parameter it never reads, only the
propagator takes a grid step, and only tdm.site_geometry reads a
record's ANGLE_TYPE.

No linter ships with the project's toolchain, so this reads each module's
syntax tree: every name an import binds must be read somewhere in the
module or be listed in its ``__all__``, and every parameter of a function
or lambda must be read somewhere in its body. ``from __future__`` imports
are exempt. Outside astro.py no function declares a ``step_s`` parameter,
and no dataclass anywhere has a ``step_s`` field: the chain propagates on
the one grid step ``astro.STEP_S``, so the option must not creep back
through a pass-through. No function but ``tdm.site_geometry`` compares a
value with ``"AZEL"`` or ``"RADEC"``: every other reader of the
observation model goes through the geometry it returns, so a second
branch on the angle type cannot grow back.

Importing the propagator loads no numpy: the one function that uses it
imports it inside.
"""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sdachain"
MODULES = sorted(SRC.glob("*.py"))


def _exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) \
                and isinstance(value, (ast.List, ast.Tuple)):
            names.update(e.value for e in value.elts
                         if isinstance(e, ast.Constant))
    return names


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(node) -> list:
    args = node.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs,
            *(a for a in (args.vararg, args.kwarg) if a is not None)]


def unused_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter its body never reads.

    A read in a nested function or lambda counts for the enclosing one.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _FUNCTIONS):
            continue
        params = _parameters(node)
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out.extend((node.lineno, name, p.arg) for p in params
                   if p.arg not in read)
    return sorted(out)


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as j\n"
              "from math import pi, tau\n"
              "from .x import kept\n"
              "__all__ = ['kept']\n"
              "print(pi, os.path.sep)\n")
    assert unused_imports(source) == [(3, "j"), (4, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameter(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unread_parameters():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    c = 2\n"
              "    return a + kw['x']\n"
              "class K:\n"
              "    def m(self, used, unused):\n"
              "        g = lambda x, y: x + used\n"
              "        def inner():\n"
              "            return self\n"
              "        return g, inner\n")
    assert unused_parameters(source) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "c"),
        (5, "m", "unused"), (6, "<lambda>", "y")]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def step_s_holders(source: str) -> list:
    """(line, "parameter" or "field", function or class) of each function
    that declares a step_s parameter and each dataclass field named step_s."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _FUNCTIONS):
            if any(p.arg == "step_s" for p in _parameters(node)):
                out.append((node.lineno, "parameter",
                            getattr(node, "name", "<lambda>")))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out.extend((stmt.lineno, "field", node.name) for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)
                       and getattr(stmt.target, "id", None) == "step_s")
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_grid_step_only_in_the_propagator(path):
    found = step_s_holders(path.read_text(encoding="utf-8"))
    if path.name == "astro.py":
        found = [f for f in found if f[1] == "field"]
    assert found == []


def test_checker_flags_step_s_holders():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "def f(a, *, step_s=90.0):\n"
              "    return a, step_s\n"
              "@dataclass(frozen=True)\n"
              "class S:\n"
              "    step_s: float = 90.0\n"
              "@dataclasses.dataclass\n"
              "class T:\n"
              "    step_s: float\n"
              "class Plain:\n"
              "    step_s: float\n"
              "g = lambda step_s: step_s\n")
    assert step_s_holders(source) == [
        (3, "parameter", "f"), (7, "field", "S"), (10, "field", "T"),
        (13, "parameter", "<lambda>")]


def test_propagator_import_loads_no_numpy():
    code = "import sys, sdachain.astro; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


_ANGLE_TYPES = ("AZEL", "RADEC")


def angle_type_readers(source: str) -> list:
    """(line, function) of each comparison with the literal "AZEL" or
    "RADEC", or with a literal tuple, list or set holding one, named by
    its innermost enclosing function ("<module>" outside any)."""
    out = []

    def visit(node, name):
        if isinstance(node, _FUNCTIONS):
            name = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            # a literal tuple, list or set of them counts too
            literals = [e for v in operands
                        for e in getattr(v, "elts", [v])]
            if any(isinstance(v, ast.Constant) and v.value in _ANGLE_TYPES
                   for v in literals):
                out.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_angle_type_read_only_in_site_geometry(path):
    found = angle_type_readers(path.read_text(encoding="utf-8"))
    if path.name == "tdm.py":
        found = [f for f in found if f[1] != "site_geometry"]
    assert found == []


def test_checker_flags_angle_type_readers():
    source = ("MODES = ('AZEL', 'RADEC')\n"
              "def site_geometry(site, mode='AZEL'):\n"
              "    if mode not in MODES:\n"
              "        raise ValueError(mode)\n"
              "    return mode == 'RADEC'\n"
              "def observe(mode):\n"
              "    f = lambda m: 'AZEL' != m\n"
              "    return 'AZEL' == mode or f(mode)\n"
              "class K:\n"
              "    def m(self, mode):\n"
              "        return mode in ['RADEC']\n"
              "    def n(self, mode):\n"
              "        return mode is 'AZEL' or mode in ('X',)\n"
              "FLAG = MODES[0] == 'RADEC'\n")
    assert angle_type_readers(source) == [
        (5, "site_geometry"), (7, "<lambda>"), (8, "observe"), (11, "m"),
        (13, "n"), (14, "<module>")]
