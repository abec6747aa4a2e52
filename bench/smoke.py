"""Smoke test of the benchmark's tracer.

    python3 bench/smoke.py

Checks that the tracer wraps every binding of each traced function (the
defining module's, every imported copy, the class attribute for
``LedgerState.clone``). Then runs a short (4 h) traced breakup in this
process and checks that the tracer put every binding back, that the
propagator was seen in both phases, and that the reported per-layer self
times plus ``sim.netsim.self_ms`` add up to the traced sim wall within
1 %. Exits non-zero on failure.
"""

from __future__ import annotations

import functools
import importlib
import os
import shutil
import sys

import worker
from tracer import PACKAGE, Tracer, bindings


def unwrapped() -> list:
    """Bindings that still hold an original traced function while a
    tracer is installed."""
    originals = [functools.reduce(
        getattr, name.split(".")[1:],
        importlib.import_module(f"{PACKAGE}.{name.split('.')[0]}"))
        for name in worker.TRACED]
    tracer = Tracer(worker.TRACED).install()
    try:
        return [key for key, val in bindings().items()
                if any(val is orig for orig in originals)]
    finally:
        tracer.restore()


def main() -> int:
    from workloads import breakup_scenario
    out_dir = os.path.join(worker.ROOT, ".bench_out", "smoke")
    shutil.rmtree(out_dir, ignore_errors=True)
    importlib.import_module(f"{PACKAGE}.netsim")
    before = bindings()
    missed = unwrapped()
    res = worker.repetition("breakup", 1, out_dir, traced=True,
                            scenario=breakup_scenario(1, 4 * 3600.0))
    layers = res["layers"]
    self_ms = sum(layers[f"sim.{n}.self_ms"] for n in worker.SIM_LAYERS)
    self_ms += layers["sim.netsim.self_ms"]
    gap = abs(self_ms - res["sim_wall_s"] * 1e3) / (res["sim_wall_s"] * 1e3)
    restored = bindings() == before and res["bindings_restored"]
    problems = [] if restored else ["a binding was left wrapped"]
    problems += [f"{'.'.join(k)} was not wrapped" for k in missed]
    for phase in ("sim", "replay"):
        if not layers[f"{phase}.astro.propagate_j2.calls"]:
            problems.append(f"no propagate_j2 call traced in {phase}")
    if gap > worker.SELF_TIME_TOLERANCE:
        problems.append(f"self times miss the sim wall by {gap:.2%}")
    print(f"sim {res['sim_wall_s']:.3f} s, self-time sum {self_ms / 1e3:.3f} s "
          f"(gap {gap:.4%}), bindings restored: {restored}")
    for p in problems:
        print(f"FAILED: {p}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
