"""One benchmark repetition, in a process of its own.

    python3 bench/worker.py WORKLOAD SEED MODE OUT_DIR

MODE is ``setup`` (time the set-up only), ``run`` (untraced repetition)
or ``trace`` (traced repetition). The worker prints one JSON object on
stdout. A fresh process per repetition keeps each repetition cold (the
propagation cache is process-global) and makes ``peak_rss_mb`` its own.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
from tracer import Tracer, bindings  # noqa: E402

DAY_S = 86400.0

# Traced functions whose statistics are reported, per phase. Names are
# "<module>.<function>" relative to the sdachain package.
SIM_LAYERS = (
    "astro.propagate_j2", "astro.kepler_to_state", "astro.topocentric_angles",
    "tasking.visible_epochs", "tasking.assign",
    "ledger.compute_attestation", "validation.validate_tdm",
    "validation.associate_uct",
    "validation.mine_object", "iod.refine_elements", "iod.iod_from_tdm",
    "ledger.LedgerState.clone", "ledger.encode_state", "ledger.state_root",
    "ledger.produce_block", "ledger.select_validator", "ledger.save_chain",
    "tdm.parse_tdm", "tdm.serialize_tdm", "tdm.synth_tdm",
)
REPLAY_LAYERS = (
    "astro.propagate_j2", "astro.kepler_to_state", "astro.topocentric_angles",
    "validation.mine_object", "iod.refine_elements", "iod.iod_from_tdm",
    "ledger.LedgerState.clone", "ledger.encode_state", "ledger.state_root",
    "ledger.select_validator", "ledger.verify_chain", "ledger.load_chain",
    "tdm.parse_tdm", "tdm.serialize_tdm",
)
# run_scenario is the root span of the sim phase: its self time is the
# event loop, node logic and CSV output that no other span covers.
ROOT_SPAN = "netsim.run_scenario"
TRACED = (ROOT_SPAN,) + tuple(dict.fromkeys(SIM_LAYERS + REPLAY_LAYERS))
SAMPLED = ("ledger.compute_attestation", "ledger.LedgerState.clone")
# Untraced repetitions still count mining calls for the shape guard; a
# handful of wrapped calls that each take seconds costs nothing measurable.
COUNTED = ("validation.mine_object",)
# Calls made throughout both phases of both workloads, from which the
# host-speed sampler polls in untraced repetitions.
SPEED_HOOKS = ("astro.propagate_j2", "ledger.LedgerState.clone")

SELF_TIME_TOLERANCE = 0.01


def setup(workload: str, seed: int):
    """Import sdachain, build the scenario and validate it. Returns the
    wall seconds, the host-speed corrected seconds (``setup_s``) and the
    scenario."""
    def build():
        workloads = importlib.import_module("workloads")
        netsim = importlib.import_module("sdachain.netsim")
        sc = workloads.build(workload, seed)
        return sc, netsim.validate_scenario(sc)

    (sc, errs), wall_s, setup_s = hostspeed.around(build)
    if errs:
        raise ValueError("invalid scenario: " + "; ".join(errs))
    return wall_s, setup_s, sc


def percentile(sorted_xs: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def settle_latencies(blocks: list, final_state) -> tuple:
    """(TDMs included by a submit_tdm transaction, blocks from inclusion to
    settlement for each settled one), read from the chain."""
    from sdachain.tdm import parse_tdm
    included = {}
    for b in blocks:
        for tx in b.txs:
            if tx.kind == "submit_tdm":
                included[parse_tdm(tx.payload.tdm_text).hex_hash()] = b.height
    settled = {s.tdm_hash: s.height for s in final_state.settlements}
    lat = sorted(settled[h] - hgt for h, hgt in included.items()
                 if h in settled)
    return len(included), lat


def layer_metrics(phase: str, stats: dict, names, duration_s: float) -> dict:
    out = {}
    for name in names:
        st = stats[name]
        out[f"{phase}.{name}.calls"] = st["calls"]
        out[f"{phase}.{name}.incl_ms"] = st["incl_s"] * 1e3
        out[f"{phase}.{name}.self_ms"] = st["self_s"] * 1e3
    mine = stats["validation.mine_object"]
    out[f"{phase}.validation.mine_object.fail_ratio"] = (
        mine["nones"] / mine["calls"] if mine["calls"] else 0.0)
    clone = stats["ledger.LedgerState.clone"]["samples"]
    first = [d for t, d in clone if t < DAY_S]
    last = [d for t, d in clone if t >= duration_s - DAY_S]
    out[f"{phase}.ledger.LedgerState.clone.ms_per_call_first_day"] = (
        statistics.fmean(first) * 1e3 if first else 0.0)
    out[f"{phase}.ledger.LedgerState.clone.ms_per_call_last_day"] = (
        statistics.fmean(last) * 1e3 if last else 0.0)
    return out


def repetition(workload: str, seed: int, out_dir: str, traced: bool,
               scenario=None) -> dict:
    """Set up, simulate, replay, then check. ``scenario`` replaces the
    workload's own (the smoke test passes a shorter one)."""
    setup_wall_s, setup_s, sc = setup(workload, seed)
    if scenario is not None:
        sc = scenario
    from sdachain import astro, ledger, netsim
    from workloads import REFERENCE_HEIGHT
    before = bindings()
    # Traced repetitions sample no host speed: kernel calls inside traced
    # spans would count as the spans' own time.
    sampler = None if traced else hostspeed.Sampler()
    if traced:
        tracer = Tracer(TRACED, sampled=SAMPLED)
    else:
        tracer = Tracer(COUNTED + SPEED_HOOKS, hook=sampler.poll)
    clock = time.perf_counter
    tracer.install()
    try:
        astro.clear_propagation_cache()
        t0 = clock()
        report = netsim.run_scenario(sc, out_dir)
        t1 = clock()
        sim_stats = tracer.take()

        astro.clear_propagation_cache()
        t2 = clock()
        blocks = ledger.load_chain(os.path.join(out_dir, "chain.log"))
        bad = ledger.verify_chain(blocks)
        t3 = clock()
        replay_stats = tracer.take()
    finally:
        tracer.restore()
    if traced:
        sim_wall_s, replay_wall_s = t1 - t0, t3 - t2
        sim_s = replay_s = kernel_us = kernel_samples = None
    else:
        sim, replay = sampler.phase(t0, t1), sampler.phase(t2, t3)
        sim_wall_s, replay_wall_s = sim["wall_s"], replay["wall_s"]
        sim_s, replay_s = sim["corrected_s"], replay["corrected_s"]
        kernel_us = (sim["kernel_s"] * 1e6, replay["kernel_s"] * 1e6)
        kernel_samples = (sim["samples"], replay["samples"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    submitted, lat = settle_latencies(blocks, report.final_state)
    mine_calls = sim_stats["validation.mine_object"]["calls"]
    failures = []
    delta = ledger.conservation_delta(report.final_state)
    if delta != 0:
        failures.append(f"conservation_delta is {delta}")
    if bad is not None:
        failures.append(f"verify_chain fails at height {bad}")
    if blocks[-1].state_root.hex() != report.state_root:
        failures.append("last block's state_root differs from the report's")
    if workload == "reference":
        if mine_calls != 0:
            failures.append(f"reference ran mine_object {mine_calls} times")
        if report.height != REFERENCE_HEIGHT:
            failures.append(f"reference height is {report.height}, not "
                            f"{REFERENCE_HEIGHT}")
    elif workload == "breakup":
        if not report.mined:
            failures.append("breakup mined no object")
        if not report.verdicts.get("uct"):
            failures.append("breakup settled no uct verdict")
    if not lat:
        failures.append("no TDM settled")
    if traced:
        restored = bindings() == before
        self_sum = sum(sim_stats[n]["self_s"]
                       for n in SIM_LAYERS + (ROOT_SPAN,))
        self_gap = abs(self_sum - sim_wall_s) / sim_wall_s
        if not restored:
            failures.append("tracer left a binding wrapped")
        if self_gap > SELF_TIME_TOLERANCE:
            failures.append(f"sim self times miss the sim wall by "
                            f"{self_gap:.2%}")

    out = {
        "ok": not failures, "failures": failures,
        "setup_s": setup_s, "sim_s": sim_s, "replay_s": replay_s,
        "setup_wall_s": setup_wall_s, "sim_wall_s": sim_wall_s,
        "replay_wall_s": replay_wall_s, "kernel_us": kernel_us,
        "kernel_samples": kernel_samples,
        "peak_rss_mb": peak_rss_mb,
        "submitted": submitted, "unsettled": submitted - len(lat),
        "settle_blocks": lat,
        "settle_blocks_p50": percentile(lat, 0.5) if lat else 0,
        "settle_blocks_p90": percentile(lat, 0.9) if lat else 0,
        "settle_blocks_mean": statistics.fmean(lat) if lat else 0.0,
        "height": report.height, "verdicts": report.verdicts,
        "mined": report.mined, "mine_calls": mine_calls,
        "digests": {
            "chain.log": sha256_file(os.path.join(out_dir, "chain.log")),
            "report.json": sha256_file(os.path.join(out_dir, "report.json")),
            "state_root": report.state_root,
        },
    }
    if traced:
        out["bindings_restored"] = restored
        out["self_time_gap"] = self_gap
        attest = sorted(d for _, d in
                        sim_stats["ledger.compute_attestation"]["samples"])
        layers = layer_metrics("sim", sim_stats, SIM_LAYERS, sc.duration_s)
        layers.update(layer_metrics("replay", replay_stats, REPLAY_LAYERS,
                                    sc.duration_s))
        layers["sim.ledger.compute_attestation.p50_ms"] = (
            percentile(attest, 0.5) * 1e3 if attest else 0.0)
        layers["sim.ledger.compute_attestation.p90_ms"] = (
            percentile(attest, 0.9) * 1e3 if attest else 0.0)
        layers["sim.ledger.encode_state.final_bytes"] = len(
            ledger.encode_state(report.final_state))
        layers["sim.netsim.self_ms"] = sim_stats[ROOT_SPAN]["self_s"] * 1e3
        out["layers"] = layers
    return out


def main(argv: list) -> int:
    workload, seed, mode, out_dir = argv[1], int(argv[2]), argv[3], argv[4]
    try:
        if mode == "setup":
            setup_wall_s, setup_s, _ = setup(workload, seed)
            out = {"ok": True, "failures": [], "setup_s": setup_s,
                   "setup_wall_s": setup_wall_s}
        elif mode in ("run", "trace"):
            out = repetition(workload, seed, out_dir, mode == "trace")
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except Exception as exc:    # reported to run.py as a failed repetition
        traceback.print_exc()
        out = {"ok": False, "failures": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
