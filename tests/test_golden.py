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
        "88eeb419fc0966b0aab0b32fbf2a3e02d2498cd895852eb52f5a91fe70db0b3d",
        "000ca7664587ea101b51e986ec604f58e4635a247bb77aed9d190d95f6e9d887",
        "864d09752ddab9461c565ece218d4a1f5dd1ac2a78a2e8b3070fa9160720e613",
    ),
    "uct": (
        uct_scenario,
        "e85e0d600391ac59b73b8d443e9dc5692fe4abc1eb213405a6f8be5221305972",
        "60f640241251019a92370da563d11041c89bfb01c6071178239b57306c4f4362",
        "e96d30d69d04d571ec2eb180c536fcb4f9a018554182cee94dc4fc831a3176e2",
    ),
    "fl": (
        fl_scenario,
        "071cf3e1b0effb40590b27dfcd09b4e9a778ac9754113e42ddcdcb044ca3561f",
        "876aa020ab50662779e1f4aea25924f17740926cd93ddf1086319772d1c58460",
        "40618ae73020fd85ca424a2b09e1a2cb2af9868c43cec470d8441e1adfb525d9",
    ),
    "tie": (
        tie_scenario,
        "db028ec8d201f6b9954a5669665d1f16c1dc018ce4e7422a749fa78fec3d2c7e",
        "1e07c3eb40031e1155ec60836721ec98f69e505c291170775e22a132e0c2267d",
        "3cab04ed6b25294f1e971d58c8627b7d4d747ce10df1b757790befdebc0badd5",
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
