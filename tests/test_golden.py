"""Golden hashes: a fixed (scenario, seed) must keep producing the same bytes.

Each case pins the full SHA-256 of the persisted chain.log and report.json
plus the final state root. A refactor that is meant to keep behaviour
must leave all three unchanged; a change that alters consensus bytes on
purpose re-pins them and says why. Each case also replays the chain.log it
wrote and checks that replay reaches the same final state root.
"""
import hashlib
import os

import pytest

from sdachain.ledger import load_chain, replay_state, state_root, verify_chain
from sdachain.netsim import (
    fl_scenario,
    reference_scenario,
    run_scenario,
    uct_scenario,
)

# name -> (scenario builder, chain.log sha256, report.json sha256, state root)
GOLDEN = {
    "reference": (
        reference_scenario,
        "3a073ec705c9e0b0ca80f516d2d98c1ee9d1d5daf21d16c18f237f59e5b4063a",
        "1692f4854f82433122279e86ebadd9474fbb9bab8daad2d28ba2abb1c748590a",
        "62b0171b9d0e4e2e5015f081f332fe2ccbed26420b137f40bc2852322bf6d67d",
    ),
    "uct": (
        uct_scenario,
        "bf29b68e933cdffcdecb8b4a66906b210d0ab161fc2f5b913de00b21c669e930",
        "a567f6ea0b225036619fb6a76b640262bc0193fef9015563785a29fd482ad281",
        "3cc24fa78dc9dba66295dc0bebcb9fc434f996b11206b9feabcf8bbb7eebc30f",
    ),
    "fl": (
        fl_scenario,
        "ccbc8dc08840504dbd97ae04e54d43910f9cf0fa27bba3567269582a55f6bb25",
        "7cef033f7cfc797ab8ab4ad6d32dc2a723490c745c0a52728ab8b7b6dfd1d6f8",
        "805814823e25c3108a35d4eeb5615a07b834a2abee0cabe7ebd6c9f4552800ac",
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
