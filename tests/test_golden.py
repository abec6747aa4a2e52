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
        "eee544b001820c9dc3facc78d2db22d9bd26d27635dc071d0d7ff4dbce9e6714",
        "0326ef5d3ec78a17fc1d0178e9e7eb5847a2d931b4029c0186be272bca1ffc0e",
        "0189ef7ec28e2f18069948dbaccacf57c10817e22e5eef4d1cb821909ca84f24",
    ),
    "uct": (
        uct_scenario,
        "95a58ef458d8c25cbfe993610a2b995103ce87c5d9e6506d1ea0a843aa828fc4",
        "4e43b7317bd02aeae2f2a542b89ef46d558ca882455b6c2e426e513b3e2c10ed",
        "c8dfb1bd74646611f39c8c864c0cd3fc14280e03e425586efa8b90d608a868f2",
    ),
    "fl": (
        fl_scenario,
        "090c8f0e7f6c4ba29098b7f883478fafff3a873f48896555fd672bd4a38648a8",
        "f54eddf903f3d59027e699105270ae713c3603cea58ad0d55379ee2521ec1884",
        "eda1b838b5c3e9db8fee433f3a4ece1542986525bb2a91b23f77ea7b35fe2e2f",
    ),
    "tie": (
        tie_scenario,
        "219b53d63d00432f334eb4466a4974fb2a222258273dff01332fa60dcce27213",
        "f101eb495a640360a5e7ca8746bda4d241297f4a842fb72027c1337bf96a83f7",
        "1d85d028ca83e1042060cbd1efc4237f98f08d20ebef61e5bef79a4b08e3340d",
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
