"""Every function the benchmark traces must exist in sdachain.

bench/worker.py names the functions it wraps as "<module>.<attribute>"
strings relative to the package. A rename or deletion that breaks one of
them should fail here rather than only inside a benchmark run.
"""
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


def test_inherited_method_does_not_resolve():
    # getattr finds it, but the tracer's cls.__dict__[meth] would not
    from sdachain.ledger import TxRejected
    assert callable(getattr(TxRejected, "with_traceback"))
    assert _resolve("ledger.TxRejected.with_traceback") is None
    assert _resolve("ledger.LedgerState.clone") is not None
