"""Golden hashes: a fixed (scenario, seed) must keep producing the same bytes.

Each case pins the full SHA-256 of the persisted chain.log and report.json
plus the final state root. A refactor that is meant to keep behaviour
must leave all three unchanged; a change that alters consensus bytes on
purpose re-pins them and says why. Each case also replays the chain.log it
wrote and checks that replay reaches the same final state root, and the
uct chain must also replay in a process whose BLAS kernel differs.
"""
import dataclasses
import hashlib
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import check_derived_state
from sdachain import netsim
from sdachain.astro import Epoch
from sdachain.ledger import (
    STATE_ROOT,
    block_hash,
    decode_state,
    load_chain,
    produce_block,
    replay_state,
    state_root,
    verify_chain,
)
from sdachain.netsim import (
    NodeSpec,
    ScriptedTask,
    fl_scenario,
    reference_scenario,
    run_scenario,
    uct_scenario,
)
from sdachain.tasking import is_expired
from sdachain.tdm import parse_tdm


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
        "908e05a85222abaa08e3c390e56f589cd4d50e580b49eecb3f29d831d6df86dd",
        "95f22c42fbd7df65dff3377af7030c688977733caf423a18443bef64406d1a1a",
        "b04acb8ec947c116f5ff45152745f65f66f8babe2bae2aadd8ba9ea9bd3c250f",
    ),
    "uct": (
        uct_scenario,
        "5dbe6c84cc5c94d2df364733439673d924cad1baa0a49941070445141a33b1dd",
        "1505320ef4a7658019d875471746c84eedef9d392fbd156736bef268ab657243",
        "b14e34aa04bd0a1c33d57ba81783df5cfef6ba7369d432102625e763a42dd8d9",
    ),
    "fl": (
        fl_scenario,
        "03a96f42b368134ba1218ef75131844b0bb10fa6bddfeeeeff160babd5f2d44b",
        "f8d2d30ee49db59bc1c0c727028b16857c2d129f87705a22b4440b14761f3047",
        "9150d994b3a1cf4ed298ab8b64791c1697bdc7f954512b64bc72993a2e5ce77c",
    ),
    "tie": (
        tie_scenario,
        "ca7d6321790fcd672c1eb0527fbf62014c52ed844a02720d037c8fcb7347d66a",
        "e1e3b4530c283088c37ebac3925b0261e7b804e6e65141a24e299eec13a6e0eb",
        "c114737b534969f087d81b8a922cb8cab889a75a1d112c0321049d703ab982ac",
    ),
}


def _sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """(output directory, report) of a golden case, run once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            out = str(tmp_path_factory.mktemp(name))
            runs[name] = out, run_scenario(GOLDEN[name][0](1), out)
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, golden_run):
    _, chain_sha, report_sha, root = GOLDEN[name]
    out, report = golden_run(name)
    assert report.state_root == state_root(report.final_state).hex()
    got = (_sha256_file(os.path.join(out, "chain.log")),
           _sha256_file(os.path.join(out, "report.json")),
           report.state_root)
    assert got == (chain_sha, report_sha, root)
    blocks = load_chain(os.path.join(out, "chain.log"))
    assert verify_chain(blocks) is None
    assert state_root(replay_state(blocks)).hex() == report.state_root


def test_reference_state_holds_only_open_tasks(golden_run):
    """Replaying the reference chain, after every block each task the
    state holds is inside its service window and unpaid: payout and
    expiry take a task out. So tasks do not pile up, and the final root
    preimage stays small."""
    out, _ = golden_run("reference")
    blocks = load_chain(os.path.join(out, "chain.log"))
    state = decode_state(blocks[0].txs[0].payload.snapshot)
    state.height, state.last_hash = 1, block_hash(blocks[0])
    task_of, paid, held = {}, set(), 0     # tdm hash -> serviced task_id
    for k, b in enumerate(blocks[1:], start=1):
        for tx in b.txs:
            if tx.kind == "submit_tdm" and tx.payload.task_id:
                h = parse_tdm(tx.payload.tdm_text).hex_hash()
                task_of[h] = tx.payload.task_id
        settled = len(state.settlements)
        produce_block(state, b.txs, k, time=b.time)
        for rec in state.settlements[settled:]:
            # a verified track, or a uct track that mined its object,
            # collects the fee of the task it serviced
            if rec.tdm_hash in task_of and (
                    rec.verdict == "verified"
                    or rec.verdict == "uct" and rec.object_id):
                paid.add(task_of[rec.tdm_hash])
        now = Epoch(state.time)
        for tid, task in state.tasks.items():
            assert not is_expired(task, now), (k, tid.hex())
            assert tid not in paid, (k, tid.hex())
        held = max(held, len(state.tasks))
    assert paid and held
    assert len(STATE_ROOT.encode(state)) < 2500


@pytest.mark.parametrize("name", ["fl", "tie"])
def test_derived_state_follows_every_block(name, monkeypatch):
    """After every block of the run, the live state's seen-TDM index and
    settlement chain, which are never encoded, agree with its encoding."""
    produce, settled = netsim.produce_block, []

    def checked(state, *args, **kwargs):
        out = produce(state, *args, **kwargs)
        check_derived_state(out[0])
        settled.append(len(out[0].settlements))
        return out

    monkeypatch.setattr(netsim, "produce_block", checked)
    run_scenario(GOLDEN[name][0](1))
    assert len(settled) > 100 and settled[-1] >= 3


# OpenBLAS kernels another x86 CPU may select; OPENBLAS_CORETYPE forces
# one for a single process
OTHER_KERNELS = ("Haswell", "Zen", "Prescott")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _sentinel() -> str:
    """The bits of a fixed 40x6 SVD, which differ between kernels."""
    a = np.array([[(i * 7 + j * 13) % 17 / 17.0 + 0.01 * i * j
                   for j in range(6)] for i in range(40)])
    return b"".join(m.tobytes() for m in
                    np.linalg.svd(a, full_matrices=False)).hex()


_REPLAY = ("import sys\nimport numpy as np\n" + inspect.getsource(_sentinel)
           + "from sdachain.ledger import verify_chain_file\n"
           + "print(_sentinel(), flush=True)\n"
           + "print(verify_chain_file(sys.argv[1]))\n")


def test_uct_chain_replays_under_another_blas_kernel(tmp_path):
    """A uct chain written here verifies in a process running another
    OpenBLAS kernel: replay applies the mined orbit the quorum attested
    and makes no fit of its own. The first kernel whose sentinel SVD
    differs from this process's is used, so the test cannot pass on a
    kernel that computes the same bits. A kernel whose process dies
    before printing the sentinel (an instruction set this CPU lacks) is
    unavailable here and is passed over."""
    run_scenario(uct_scenario(1), str(tmp_path))
    here = _sentinel()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    for kernel in OTHER_KERNELS:
        proc = subprocess.run(
            [sys.executable, "-c", _REPLAY, str(tmp_path / "chain.log")],
            env={**env, "OPENBLAS_CORETYPE": kernel}, capture_output=True,
            text=True, check=False, timeout=300)
        out = proc.stdout.split()
        if not out or out[0] == here:
            continue
        assert proc.returncode == 0 and out[1:] == ["None"], (
            f"replay under {kernel} fails: {proc.stdout}{proc.stderr}")
        return
    pytest.skip(f"no OpenBLAS kernel of {OTHER_KERNELS} changes the "
                f"sentinel SVD on this host")
