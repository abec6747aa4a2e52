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
        "1383e8d4c4fa841880794c4348cd7cd3932642fb69ecf0916a03d67ef978f85d",
        "eae1108761d01432729f12555129db59bde96a20e1284652f98969a1a24c9fbf",
        "16901c2c389f529f77e8bbdf4503bc6b2ce3065344fe888cd83c28fccb43c09e",
    ),
    "uct": (
        uct_scenario,
        "2cef984a90374ae9d1eecf7e8146e526eef5652e1f40c42828bef79051b57a62",
        "e0d0c11795cd1caf3624f21e575eac93b38f09cfc79c44ff639bcfb8d9eb9866",
        "e036daa219efd0e2be1c057b0222962cb519c9e788b23dd899103cdc18ae23c1",
    ),
    "fl": (
        fl_scenario,
        "c9a52980fca3ee641ab301b6dbb607f27db9889e4fc4b70bb647903b89dda598",
        "79fd865b3fdea8f0cc78fbb87250d0e166cb58f8d3498eebc31eb75e5699dd23",
        "bb50503b2e11c8276ad61eccd5e9f47f3fe5dafaed8a7a50d4f75dc5b9e96c38",
    ),
    "tie": (
        tie_scenario,
        "83a0e92a596282c23b3e6daa8eab0a5c0a4b22c4b0c92d2a2054d86d9d5e01f2",
        "e6ad29bf11f7094cdf4e8250b7ce5cfba898839cb70169c5b7ed348ea9af5a3f",
        "d19851ea76e9c0ba79bc99224b7c43e6dc933398162d0271dffab4222dfb75c4",
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
