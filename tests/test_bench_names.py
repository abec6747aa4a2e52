"""Every sdachain name the benchmark traces or calls must exist.

bench/worker.py names the functions it wraps as "<module>.<attribute>"
strings relative to the package, and the bench scripts call some
functions directly. A rename or deletion that breaks one of them should
fail here rather than only inside a benchmark run.
"""
import ast
import importlib
import importlib.util
import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


def _worker(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    spec = importlib.util.spec_from_file_location(
        "bench_worker", os.path.join(BENCH_DIR, "worker.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(name: str):
    """The object a traced name binds, or None. Each attribute is looked
    up in its owner's own __dict__, as bench/tracer.py patches it: an
    inherited method has no entry there."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"sdachain.{module}")
    for attr in attrs:
        obj = vars(obj).get(attr)
        if obj is None:
            return None
    return obj


def test_traced_names_resolve(monkeypatch):
    worker = _worker(monkeypatch)
    names = set(worker.TRACED + worker.SAMPLED + worker.COUNTED
                + worker.SPEED_HOOKS)
    assert names
    for name in sorted(names):
        obj = _resolve(name)
        if obj is None:
            pytest.fail(f"bench traces {name!r}, which sdachain lacks")
        assert callable(obj), name


def _direct_names(path: str) -> set:
    """The "<module>.<attribute>" names a bench script uses directly:
    names it imports from an sdachain module, and attributes it reads off
    a name bound to one (by ``from sdachain import m`` or by
    ``importlib.import_module("sdachain.m")``)."""
    with open(path) as f:
        tree = ast.parse(f.read())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sdachain":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("sdachain."):
            module = node.module.split(".", 1)[1]
            names.update(f"{module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "attr", None) == "import_module":
            (arg,) = node.value.args
            if arg.value.startswith("sdachain."):
                for target in node.targets:
                    modules[target.id] = arg.value.split(".", 1)[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


@pytest.mark.parametrize("script,known", [
    ("worker.py", {"astro.clear_propagation_cache", "ledger.load_chain",
                   "netsim.validate_scenario", "netsim.run_scenario"}),
    ("workloads.py", {"astro.KeplerianElements", "netsim.inject_breakup"})],
    ids=["worker", "workloads"])
def test_directly_used_names_resolve(script, known):
    names = _direct_names(os.path.join(BENCH_DIR, script))
    assert known <= names
    missing = sorted(n for n in names if _resolve(n) is None)
    assert not missing, f"bench/{script} uses {missing}, which sdachain lacks"


def test_inherited_method_does_not_resolve():
    # getattr finds it, but the tracer's cls.__dict__[meth] would not
    from sdachain.ledger import TxRejected
    assert callable(getattr(TxRejected, "with_traceback"))
    assert _resolve("ledger.TxRejected.with_traceback") is None
    assert _resolve("ledger.LedgerState.clone") is not None
