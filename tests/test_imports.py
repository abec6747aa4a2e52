"""No module of the sdachain package imports a name it never uses, no
function in it declares a parameter it never reads or a default that no
call changes, only the propagator takes a grid step, and only
tdm.site_geometry reads a record's ANGLE_TYPE.

No linter ships with the project's toolchain, so this reads each module's
syntax tree: every name an import binds must be read somewhere in the
module or be listed in its ``__all__``, and every parameter of a function
or lambda must be read somewhere in its body. ``from __future__`` imports
are exempt. Every defaulted parameter of a function must be passed by
some call in the package, or be listed in ``_UNPASSED_DEFAULTS`` with the
reason it stays: an option that no caller sets is a constant, and the
list holds only the hooks tests set, so an unset option cannot grow back
unnoticed. No function declares a ``step_s`` parameter but the few
propagator functions in ``_STEP_S_FUNCTIONS``, and no dataclass anywhere
has a ``step_s`` field: the chain propagates on the one grid step
``astro.STEP_S``, so the option must not creep back through a
pass-through, nor into the visibility pass. No function but ``tdm.site_geometry`` compares a
value with ``"AZEL"`` or ``"RADEC"``: every other reader of the
observation model goes through the geometry it returns, so a second
branch on the angle type cannot grow back.

Importing the propagator, and running a visibility pass, loads no numpy:
astro's screen is a template kernel.
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


def unpassed_defaults(sources: dict) -> list:
    """(qualified name, parameter) of each defaulted parameter of a named
    function in sources (module name -> source text) that no call in
    them passes, sorted; a method's name is qualified by its class's, and
    every name by its module's, as in ``astro._Grid.__init__``.

    A call passes a parameter by keyword, by position (a method's self or
    cls not counted, unless it is a staticmethod), or through ``*args``
    (every positional parameter) or ``**kwargs`` (every one). Calls are
    matched by the called name alone, ``f(...)`` or ``x.f(...)``, and
    ``C(...)`` for ``C.__init__``, so a call of any function of that name
    counts.
    """
    defs, calls = [], []
    for module, source in sources.items():
        def visit(node, scope, in_class):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(((module, *scope, node.name), node, in_class))
                scope, in_class = (*scope, node.name), False
            elif isinstance(node, ast.ClassDef):
                scope, in_class = (*scope, node.name), True
            for child in ast.iter_child_nodes(node):
                visit(child, scope, in_class)

        tree = ast.parse(source)
        visit(tree, (), False)
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    out = []
    for scope, node, method in defs:
        names = {scope[-1]}
        if method and scope[-1] == "__init__":
            names.add(scope[-2])
        mine = [c for c in calls
                if getattr(c.func, "id", getattr(c.func, "attr", None))
                in names]
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in node.decorator_list)
        bound = 1 if method and not static else 0
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        defaulted = [(i - bound, p) for i, p in enumerate(positional)
                     if i >= first]
        defaulted += [(None, p) for p, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                      if d is not None]
        for i, p in defaulted:
            if not any(any(k.arg in (None, p.arg) for k in c.keywords)
                       or i is not None and (
                           i < len(c.args)
                           or any(isinstance(a, ast.Starred)
                                  for a in c.args))
                       for c in mine):
                out.append((".".join(scope), p.arg))
    return sorted(out)


# the defaulted parameters no call in the package passes, each a hook that
# tests set, with the reason it stays
_UNPASSED_DEFAULTS = {
    "astro.propagate_j2.step_s": "the integrator accuracy reference: tests "
                                 "compare grids at finer steps",
    "astro.propagate_many.step_s": "the integrator accuracy reference",
    "astro.propagate_j2.j2": "the two-body reference: tests set j2=0.0",
    "iod.refine_elements.j2": "the two-body reference",
    "tdm.synth_tdm.j2": "the two-body reference",
    "tdm.synth_tdm.mode": "RADEC tracks, which only tests make until the "
                          "angles-only path decides RADEC",
    "dit.dit_leaderboard.window": "a window other than the trailing one, "
                                  "for the DIT view of the chain to come",
    "cli.main.argv": "tests/test_cli.py calls main in-process",
}


def test_every_default_is_passed_or_allowed():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    found = {f"{name}.{param}" for name, param in unpassed_defaults(sources)}
    assert found == set(_UNPASSED_DEFAULTS)


def test_checker_flags_unpassed_defaults():
    a = ("def f(a, b=1, *, c=2, d=3):\n"
         "    return a, b, c, d\n"
         "class K:\n"
         "    def __init__(self, x=0, y=0):\n"
         "        self.x = x + y\n"
         "    def m(self, p=1, q=2):\n"
         "        return p + q\n"
         "    @staticmethod\n"
         "    def s(u=1, v=2):\n"
         "        return u + v\n"
         "def t(i=0, *, j=0):\n"
         "    return i + j\n"
         "def w(k=0, *, n=0):\n"
         "    return k + n\n"
         "def spread(*args, **kw):\n"
         "    return t(*args), w(**kw)\n")
    b = ("from a import K, f\n"
         "f(0, c=5)\n"
         "K(1).m(7)\n"
         "K.s(8)\n"
         "g = lambda z=1: z\n")
    assert unpassed_defaults({"a": a, "b": b}) == [
        ("a.K.__init__", "y"), ("a.K.m", "q"), ("a.K.s", "v"),
        ("a.f", "b"), ("a.f", "d"), ("a.t", "j")]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def step_s_holders(source: str) -> list:
    """(line, "parameter" or "field", qualified name) of each function
    that declares a step_s parameter and each dataclass field named
    step_s; a method's name is qualified by its class's, as in
    ``_Grid.__init__``."""
    out = []

    def visit(node, scope):
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            scope = (*scope, getattr(node, "name", "<lambda>"))
        name = ".".join(scope)
        if isinstance(node, _FUNCTIONS):
            if any(p.arg == "step_s" for p in _parameters(node)):
                out.append((node.lineno, "parameter", name))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out.extend((stmt.lineno, "field", name) for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)
                       and getattr(stmt.target, "id", None) == "step_s")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(out)


# the astro.py functions that may take a grid step: the propagator's own
# entry points and grid, and the limits check they and the visibility
# pass share
_STEP_S_FUNCTIONS = ("_check_limits", "_Grid.__init__", "_grid",
                     "propagate_j2", "propagate_many")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_grid_step_only_in_the_propagator(path):
    found = step_s_holders(path.read_text(encoding="utf-8"))
    if path.name == "astro.py":
        found = [f for f in found
                 if f[1] == "field" or f[2] not in _STEP_S_FUNCTIONS]
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
              "    def go(self, step_s):\n"
              "        return step_s\n"
              "g = lambda step_s: step_s\n")
    assert step_s_holders(source) == [
        (3, "parameter", "f"), (7, "field", "S"), (10, "field", "T"),
        (13, "parameter", "Plain.go"), (15, "parameter", "<lambda>")]


def test_propagator_import_loads_no_numpy():
    # the import, then one visibility pass, which screens its samples
    code = ("import sys\n"
            "from sdachain import astro\n"
            "el = astro.KeplerianElements(7000.0, 0.001, 0.9, 0.0, 0.0, 0.0,"
            " astro.Epoch(0.0))\n"
            "site = astro.GroundSite('S', 0.3, 1.0)\n"
            "times = [60.0 * k for k in range(181)]\n"
            "astro.times_above_mask(el, 0.0, site, times, 0.17)\n"
            "print('numpy' in sys.modules)")
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
