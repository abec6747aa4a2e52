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
        "82156dc1d146d0b4d7d032380d0627dd79a1abb38b079f7a3436f02e20fe2c6c",
        "2db80977797d4b2482bcca7f87943faa990277d5259da6f84ccdf7d4b49cbf61",
        "a6f1ad5e1c9a0748b08451bf8b330dfa37fdf2060f0110788454f4b6444895bc",
    ),
    "uct": (
        uct_scenario,
        "1ae95ec4a753274adb0c6bef1ec17b7dbbe557101f85dea943bfabcdd8b9066c",
        "b15b91c9a85ba224f99e4a440cd1d7094a3f7510aabc6c5e5be68bfdc2f45269",
        "df1bccd2d82ae6a4b56d827709ca91f4c1155e4bffad75f282e4d05f717046d6",
    ),
    "fl": (
        fl_scenario,
        "ccbc8dc08840504dbd97ae04e54d43910f9cf0fa27bba3567269582a55f6bb25",
        "7cef033f7cfc797ab8ab4ad6d32dc2a723490c745c0a52728ab8b7b6dfd1d6f8",
        "805814823e25c3108a35d4eeb5615a07b834a2abee0cabe7ebd6c9f4552800ac",
    ),
    "tie": (
        tie_scenario,
        "fb6d78be1325d5751cd9a6f6f6a2712b4639bbbf71706d4a17b5394f5dfe89ad",
        "299df42f8d5912bd3cc2b0d8b07820109541198fff34b7652516f8957f9df7f6",
        "3708b53f00cc713c90fcfc574b7a852fab5f1005d226435c60dd201a9a7a9d43",
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
