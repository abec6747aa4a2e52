"""The benchmark's two scenarios, built from a seed.

``reference`` is ``reference_scenario``: a 7-day, 1008-block economics
run whose cost is sky visibility, tasking and the per-block state copy
and state root, with no mining at all. Its ten catalogued orbits are
drawn once, from ``REFERENCE_GEOMETRY_SEED``; ``seed`` drives everything
else in the run. With the orbits drawn from the seed as well, the
propagator calls of one run varied from 99 000 to 131 000 over seeds
1-6 (the visibility windows change with the orbits), so sim time moved
with the seed as much as with the host.

``breakup`` is mining-heavy: the two equatorial radar sites and two
validators of ``uct_scenario``, plus a cataloged near-equatorial parent
that ``inject_breakup`` shatters into six uncataloged fragments at
t = 1800 s, plus the requester that posts the breakup's urgent task. It
runs 12 h, long enough for three fragments to be mined while the ledger
state stays small, so orbit fitting dominates and state copy does not.

The breakup geometry (the uct_scenario orbits and the fragment kicks) is
drawn once from ``BREAKUP_GEOMETRY_SEED``; ``seed`` then drives the
observation noise, the network latency and drops, and every other random
stream of the run. Which fragments get mined, and over how long an arc,
decides most of this workload's time: with the geometry drawn from the
seed as well, sim time spread 1.7-5.3 s over seeds 1-10, more than any
run length absorbs. With the geometry pinned every seed mines three
objects.
"""

from __future__ import annotations

import dataclasses

from sdachain.astro import Epoch, KeplerianElements, OrbitRecord
from sdachain.netsim import (
    NodeSpec,
    Scenario,
    inject_breakup,
    reference_scenario,
    uct_scenario,
)

WORKLOADS = ("reference", "breakup")

BREAKUP_GEOMETRY_SEED = 1
BREAKUP_PARENT = "PARENT"
BREAKUP_FRAGMENTS = 6
BREAKUP_AT = Epoch(1800.0)
BREAKUP_DURATION_S = 12 * 3600.0

REFERENCE_GEOMETRY_SEED = 1
REFERENCE_HEIGHT = 1008     # 7 days of 600 s blocks


def reference(seed: int) -> Scenario:
    sc = reference_scenario(REFERENCE_GEOMETRY_SEED)
    return dataclasses.replace(sc, seed=seed)


def breakup_scenario(seed: int,
                     duration_s: float = BREAKUP_DURATION_S) -> Scenario:
    base = uct_scenario(BREAKUP_GEOMETRY_SEED)
    parent = OrbitRecord(
        object_id=BREAKUP_PARENT,
        elements=KeplerianElements(a=7100.0, e=0.001, i=0.02, raan=0.1,
                                   argp=0.2, M=1.0, epoch=Epoch(0.0)))
    sc = dataclasses.replace(
        base, duration_s=duration_s,
        truth_orbits=base.truth_orbits + (parent,),
        initial_catalog=base.initial_catalog + (BREAKUP_PARENT,),
        nodes=base.nodes + (NodeSpec("rita", "requester", balance=10000),))
    sc = inject_breakup(sc, BREAKUP_PARENT, BREAKUP_FRAGMENTS, BREAKUP_AT)
    return dataclasses.replace(sc, seed=seed)


def build(workload: str, seed: int) -> Scenario:
    if workload == "reference":
        return reference(seed)
    if workload == "breakup":
        return breakup_scenario(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")
