"""Wall-clock call tracer that wraps functions from outside the program.

The tracer replaces every binding of each traced function — the defining
module's attribute, every ``from x import f`` copy in another sdachain
module, or a class attribute — with a timing wrapper, and puts the
originals back on ``restore``. Nothing inside ``src/`` is edited.

Per traced name it keeps the call count, inclusive time, self time
(inclusive time minus the time spent in traced child calls) and the number
of calls that returned ``None``. For names listed in ``sampled`` it also
keeps each call's duration, tagged with the ``time`` attribute of the
first argument (the chain time of the ledger state the call works on).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "sdachain"


class CallStats:
    __slots__ = ("calls", "incl_s", "self_s", "nones", "samples")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.nones = 0
        self.samples = []


def program_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def bindings() -> dict:
    """Snapshot of every callable binding in the package's modules and
    their classes: (owner name, attribute) -> object. Used to prove that
    ``restore`` put everything back."""
    snap = {}
    for mod in program_modules():
        for attr, val in vars(mod).items():
            if callable(val):
                snap[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    if callable(cval):
                        snap[(f"{mod.__name__}.{attr}", cattr)] = cval
    return snap


class Tracer:
    """Wrap ``targets`` — names like ``"astro.propagate_j2"`` or
    ``"ledger.LedgerState.clone"``, relative to the sdachain package —
    while installed."""

    def __init__(self, targets, *, sampled=(), hook=None):
        self.targets = tuple(targets)
        self.sampled = frozenset(sampled)
        self.hook = hook                # called before each wrapped call
        self.stats = {name: CallStats() for name in self.targets}
        self._stack: list = []
        self._patched: list = []        # (owner, attribute, original)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name in self.targets:
            module_name, _, attr = name.partition(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for mod in program_modules():
                for bound, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, bound, orig, wrapper)
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def take(self) -> dict:
        """Copy out the statistics gathered so far and zero them."""
        if self._stack:
            raise RuntimeError("take() inside a traced call")
        out = {}
        for name, st in self.stats.items():
            out[name] = {"calls": st.calls, "incl_s": st.incl_s,
                         "self_s": st.self_s, "nones": st.nones,
                         "samples": list(st.samples)}
            st.reset()
        return out

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        sampled = name in self.sampled
        hook = self.hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                st.calls += 1
                st.incl_s += dur
                st.self_s += dur - child
                if stack:
                    stack[-1] += dur
                if sampled:
                    st.samples.append((args[0].time, dur))
            if result is None:
                st.nones += 1
            return result

        return wrapper
