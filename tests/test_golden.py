"""Golden hashes: a fixed (scenario, seed) must keep producing the same bytes.

Each case pins the full SHA-256 of the persisted chain.log and report.json
plus the final state root. A refactor that is meant to keep behaviour
must leave all three unchanged; a change that alters consensus bytes on
purpose re-pins them and says why. Each case also replays the chain.log it
wrote and checks that replay reaches the same final state root.
"""
import dataclasses
import hashlib
import os

import pytest

from sdachain.ledger import load_chain, replay_state, state_root, verify_chain
from sdachain.netsim import (
    NodeSpec,
    ScriptedTask,
    fl_scenario,
    reference_scenario,
    run_scenario,
    uct_scenario,
)


def tie_scenario(seed: int):
    """fl_scenario, cut to 2 h, with events that fall at the same time:
    blocks with the first observer cycle (37 s) and with the scripted
    tasks (370 s), task posts with FL rounds (every 185 s). It pins the
    order in which the event loop runs equal-time events."""
    sc = fl_scenario(seed)
    return dataclasses.replace(
        sc, duration_s=7200.0, block_interval_s=37.0, cycle_s=185.0,
        task_interval_s=185.0, fl_interval_s=185.0, fl_start_s=185.0,
        nodes=sc.nodes + (NodeSpec("rita", "requester", balance=10000),),
        scripted_tasks=(ScriptedTask(t=370.0, target="CAL-1", fee=5),
                        ScriptedTask(t=370.0, target="CAL-1", fee=6)))


# name -> (scenario builder, chain.log sha256, report.json sha256, state root)
GOLDEN = {
    "reference": (
        reference_scenario,
        "1eb5dd9eb8825f7074cbe0e650299bfb814726735f10b16c521df48baf0075c4",
        "32318215f8b3277d0e16629e604515fad7b36a73a45d035bd26e109591ebae28",
        "a2f9e1eac663c748f89374c41168393cd258a420169bac3f80b32a2879ab3761",
    ),
    "uct": (
        uct_scenario,
        "e6d5e100758ff30adcbedaf0b2344cbd2de342384a2f46ff243c827562365437",
        "a1142c9a67c3f184b9b14c7f27f1b1ad317ceea9c12bd319ba0f6396554f9ae1",
        "da1cbe0dc8b8ae694bf2168aa7b7f94ae5797ef0cf29c2d248b080271154a122",
    ),
    "fl": (
        fl_scenario,
        "7a30f19cf11a01f751f60ba63e9f7d00cf3bac9222cb3e170e55680bac7db2f5",
        "9cd6b301dc100d959d339e7c3865683bef2be5608d390131266b3c22fc8b70be",
        "cd2c8f665b030982be250769df2cdeb2c07cd1c7a25cda030d3588263c010c06",
    ),
    "tie": (
        tie_scenario,
        "962edaedb227a329b087d96e728e4fc893bcfe20edfe9b8c48d4650a2648e669",
        "9c7c98f90bd53b2c00241254fccc16ae59274ee0e510addde728d3d77494fee4",
        "18ffacc8bf948c1f06dc03c88883ffd1d4e110f5bf0212525c6caffd6dc8634f",
    ),
}


def _sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tmp_path):
    build, chain_sha, report_sha, root = GOLDEN[name]
    out = str(tmp_path)
    report = run_scenario(build(1), out)
    assert report.state_root == state_root(report.final_state).hex()
    got = (_sha256_file(os.path.join(out, "chain.log")),
           _sha256_file(os.path.join(out, "report.json")),
           report.state_root)
    assert got == (chain_sha, report_sha, root)
    blocks = load_chain(os.path.join(out, "chain.log"))
    assert verify_chain(blocks) is None
    assert state_root(replay_state(blocks)).hex() == report.state_root
