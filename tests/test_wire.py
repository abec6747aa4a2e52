"""Wire schemas: each layout is declared once, and that one declaration
both writes and reads it.

Covers state round trips over states that together fill every section of
the state encoding, the strict reader (non-canonical bytes in a chain.log,
a hostile genesis snapshot), range checks in compiled records, the bytes
frozen records keep per layout, and that every owner docs/wire.md names
exists in the package.
"""
import collections
import copy
import dataclasses
import functools
import importlib
import pathlib
import re
import struct
import types

import pytest

from sdachain import ledger, wire
from sdachain.astro import Epoch
from sdachain.errors import SdaError
from sdachain.ledger import (
    ACCOUNT,
    BLOCK,
    STATE_HEADER,
    STATE_ROOT,
    TRANSACTION,
    TX_KINDS,
    Account,
    Block,
    Transaction,
    block_hash,
    compute_tx_root,
    decode_state,
    encode_state,
    load_chain,
    produce_block,
    state_root,
    verify_chain,
    verify_chain_file,
)
from sdachain.netsim import (
    fl_scenario,
    reference_scenario,
    run_scenario,
    uct_scenario,
)
from sdachain.tasking import TASK, Task
from sdachain.validation import ELEMENTS, REPORT, ValidationReport
from sdachain.wire import (
    BLOB,
    BOOL,
    DIGEST,
    F64,
    FRACTION,
    STRING,
    U32,
    U64,
    U8,
    WireError,
    ZERO_DIGEST,
    optional,
    record,
    sorted_map,
    sorted_set,
    write_chain_log,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

SECTIONS = ("accounts", "sites", "catalog", "tasks",
            "task_escrows", "pending", "uct_pool", "seen_tdms", "model",
            "model_proposals", "settlements")


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """chain.log paths of the uct and fl golden runs, and the final state
    of the reference golden run."""
    paths = {}
    for name, build in (("uct", uct_scenario), ("fl", fl_scenario)):
        out = tmp_path_factory.mktemp(name)
        run_scenario(build(1), str(out))
        paths[name] = str(out / "chain.log")
    return paths, run_scenario(reference_scenario(1)).final_state


def _post_block_states(blocks):
    """The state after each block of a chain, re-produced from genesis."""
    state = decode_state(blocks[0].txs[0].payload.snapshot)
    state.height, state.last_hash = 1, block_hash(blocks[0])
    for k, b in enumerate(blocks[1:], start=1):
        produce_block(state, b.txs, k, time=b.time)
        yield state


def _filled(state) -> set:
    out = {name for name in SECTIONS if getattr(state, name)}
    if state.model.version == 0:
        out.discard("model")
    if any(a.nonce for a in state.accounts.values()):
        out.add("account nonces")
    if any(p.attestations for p in state.pending.values()):
        out.add("pending attestations")
    if any(e.elements is not None for e in state.uct_pool.values()):
        out.add("pool elements")
    if any(ps.votes for ps in state.model_proposals.values()):
        out.add("proposal votes")
    if any(t.is_followup() for t in state.tasks.values()):
        out.add("region targets")
    return out


def test_state_roundtrip_over_every_section(chains):
    paths, reference_final = chains
    filled = set()

    def check(state):
        raw = encode_state(state)
        back = decode_state(raw)
        assert encode_state(back) == raw
        # seen_tdms is not encoded: decoding rebuilds the live index
        assert back.seen_tdms == state.seen_tdms
        filled.update(_filled(state))

    for path in paths.values():
        for state in _post_block_states(load_chain(path)):
            check(state)
            if state.model_proposals and "proposal votes" not in filled:
                # votes settle within the block in these runs; give one
                # open proposal a vote so the votes layout is covered too
                voted = state.clone()
                ps = next(iter(voted.model_proposals.values()))
                ps.votes.update({"val-z": "reject", "val-y": "accept"})
                check(voted)
    check(reference_final)
    assert filled == set(SECTIONS) | {
        "account nonces", "pending attestations", "pool elements", "proposal votes",
        "region targets"}


def test_root_preimage_does_not_grow_with_settlements(chains):
    """The root commits to the settlements by their count and chain, so
    appending one grows the snapshot but not the root preimage, and moves
    the root."""
    final = chains[1]

    def preimage(state):
        return STATE_HEADER + STATE_ROOT.encode(state)

    assert len(preimage(final)) <= 9100
    s = final.clone()
    size, snapshot, roots = len(preimage(s)), len(encode_state(s)), set()
    for rec in final.settlements[:3]:
        s.settlements.append(rec)
        s.settlement_chain = ledger._chain_settlement(s.settlement_chain, rec)
        assert len(preimage(s)) == size
        roots.add(state_root(s))
    assert len(encode_state(s)) > snapshot
    assert len(roots) == 3 and state_root(final) not in roots
    assert state_root(s) == state_root(decode_state(encode_state(s)))


def _drop_memos(obj, seen) -> int:
    """Delete from obj, and from everything it holds, each attribute that
    is not a dataclass field: the bytes a record keeps. Returns how many
    went."""
    if id(obj) in seen or isinstance(obj, (str, bytes, int, float)):
        return 0
    seen.add(id(obj))
    dropped = 0
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    elif dataclasses.is_dataclass(obj):
        names = {f.name for f in dataclasses.fields(obj)}
        for name in set(vars(obj)) - names:
            del vars(obj)[name]
            dropped += 1
        items = [getattr(obj, name) for name in names]
    else:
        items = []
    return dropped + sum(_drop_memos(x, seen) for x in items)


def test_kept_bytes_equal_a_fresh_encoding(chains):
    """Every post-block state of the uct and fl runs, and the final
    reference state, encodes as it does with every kept byte string
    dropped first: no record changed after its bytes were kept."""
    paths, reference_final = chains
    dropped = 0

    def check(state):
        nonlocal dropped
        raw = encode_state(state)
        fresh = copy.deepcopy(state)
        dropped += _drop_memos(fresh, set())
        assert encode_state(fresh) == raw

    for path in paths.values():
        for state in _post_block_states(load_chain(path)):
            check(state)
    check(reference_final)
    assert dropped > 0


@dataclasses.dataclass(frozen=True)
class Frozen:
    a: int
    b: str


def _ab(a: int, b: str) -> bytes:
    return struct.pack(">QI", a, len(b)) + b.encode()


def test_frozen_record_keeps_bytes_per_layout():
    ab = record(Frozen, ("a", U64), ("b", STRING))
    ba = record(Frozen, ("b", STRING), ("a", U32))
    b_only = record(functools.partial(Frozen, 1), ("b", STRING))
    v = Frozen(1, "xy")
    want = {ab: _ab(1, "xy"),
            ba: struct.pack(">I", 2) + b"xy" + struct.pack(">I", 1),
            b_only: struct.pack(">I", 2) + b"xy"}
    for _ in range(2):
        for codec, raw in want.items():
            assert codec.encode(v) == raw
            assert codec.decode(raw) == v


def test_replaced_instance_encodes_its_new_fields():
    ab = record(Frozen, ("a", U64), ("b", STRING))
    v = Frozen(1, "x")
    assert ab.encode(v) == _ab(1, "x")
    assert ab.encode(dataclasses.replace(v, b="y")) == _ab(1, "y")
    task = Task(task_id=bytes(32), target="OBJ-01", fee=5, urgency=False,
                origin="external", created_at=Epoch(60.0))
    raw = TASK.encode(task)
    dearer = dataclasses.replace(task, fee=6)
    assert TASK.encode(dearer) != raw
    assert TASK.decode(TASK.encode(dearer)) == dearer
    assert TASK.encode(task) == raw
    # a mutable record is written from its fields every time
    acct = Account("obs-1", balance=3)
    before = ACCOUNT.encode(acct)
    acct.balance = 4
    assert ACCOUNT.encode(acct) != before
    assert ACCOUNT.decode(ACCOUNT.encode(acct)) == acct


def test_replay_encodes_each_transaction_once(chains, monkeypatch):
    """Loading and verifying the uct chain produces each transaction's
    bytes once, and each block's at most twice: its canonical check, and
    the block replay re-produces. Counts encodings, not codec calls."""
    made = collections.Counter()
    fields_bytes = wire._fields_bytes

    def counting(put, v):
        made[type(v)] += 1
        return fields_bytes(put, v)

    monkeypatch.setattr(wire, "_fields_bytes", counting)
    blocks = load_chain(chains[0]["uct"])
    assert verify_chain(blocks) is None
    assert made[Transaction] == sum(len(b.txs) for b in blocks) == 13
    assert len(blocks) <= made[Block] <= 2 * len(blocks)


def _with_report_blob(b, k: int, report_raw: bytes) -> bytes:
    """Block b's record with the report of its k-th transaction, an
    attestation, replaced by the given bytes (lengths adjusted)."""
    tx = b.txs[k]
    txs = [TRANSACTION.encode(t) for t in b.txs]
    txs[k] = (U8.encode(TX_KINDS.index(tx.kind)) + STRING.encode(tx.sender)
              + U64.encode(tx.nonce) + BLOB.encode(report_raw))
    return (U64.encode(b.height) + DIGEST.encode(b.prev_hash)
            + DIGEST.encode(b.tx_root) + DIGEST.encode(b.state_root)
            + STRING.encode(b.proposer) + F64.encode(b.time)
            + U32.encode(len(txs)) + b"".join(BLOB.encode(t) for t in txs))


def test_padded_report_blob_is_a_bad_height(chains, tmp_path):
    """A report blob with a byte appended inside it (lengths adjusted)
    decodes to the same report, so the re-encoded block hashes as before;
    the strict reader must still refuse the record."""
    blocks = load_chain(chains[0]["uct"])
    b = blocks[3]
    kinds = [tx.kind for tx in b.txs]
    assert "attest_validation" in kinds
    k = kinds.index("attest_validation")
    raw = _with_report_blob(b, k, REPORT.encode(b.txs[k].payload.report)
                            + b"\x00")
    records = [BLOCK.encode(x) for x in blocks]
    assert raw != records[3]
    records[3] = raw
    path = str(tmp_path / "chain.log")
    write_chain_log(path, records)
    assert verify_chain_file(path) == 3


def _unchecked(value, **changes):
    """A stand-in with value's fields, changed, that the record layouts
    write as they would write value: it skips __post_init__'s checks."""
    fields = {f.name: getattr(value, f.name)
              for f in dataclasses.fields(value) if f.init}
    return types.SimpleNamespace(**{**fields, **changes})


@pytest.mark.parametrize("bad, refusal", [
    ("proposed_elements", "eccentricity"),
    ("mined_on_ambiguous", "only a uct report"),
    ("mined_without_matches", "needs uct_matches"),
    ("mined_repeated_match", "distinct uct_matches"),
    ("mined_cataloged", "source 'mined'"),
])
def test_malformed_attested_report_is_a_bad_height(chains, tmp_path, bad,
                                                   refusal):
    """An attestation whose report does not hold together fails to decode,
    so verify_chain_file names its block and no block transition ever
    sees it. A mined orbit on the wrong report fails the way elements
    that are no orbit fail."""
    blocks = load_chain(chains[0]["uct"])
    height, k, rep = next(
        (b.height, k, tx.payload.report) for b in blocks
        for k, tx in enumerate(b.txs)
        if tx.kind == "attest_validation" and tx.payload.report.mined)
    changes = {
        "proposed_elements": lambda: {"proposed_elements": _unchecked(
            rep.proposed_elements, e=1.5)},
        "mined_on_ambiguous": lambda: {"verdict": "ambiguous"},
        "mined_without_matches": lambda: {"uct_matches": ()},
        "mined_repeated_match": lambda: {"uct_matches": rep.uct_matches * 2},
        "mined_cataloged": lambda: {"mined": _unchecked(rep.mined,
                                                        source="cataloged")},
    }[bad]()
    report_raw = REPORT.encode(_unchecked(rep, **changes))
    with pytest.raises((SdaError, ValueError), match=refusal):
        REPORT.decode(report_raw)
    records = [BLOCK.encode(x) for x in blocks]
    records[height] = _with_report_blob(blocks[height], k, report_raw)
    path = str(tmp_path / "chain.log")
    write_chain_log(path, records)
    assert verify_chain_file(path) == height


def test_zero_denominator_genesis_is_a_bad_height(chains, tmp_path):
    genesis = load_chain(chains[0]["uct"])[0]
    raw = bytearray(genesis.txs[0].payload.snapshot)
    # header, economics blob length, observer_stake_min, then slash_fraction
    at = len(STATE_HEADER) + 4 + 8 + 8
    assert raw[at:at + 8] == (1).to_bytes(8, "big")      # denominator
    raw[at:at + 8] = bytes(8)
    tx = dataclasses.replace(
        genesis.txs[0],
        payload=dataclasses.replace(genesis.txs[0].payload,
                                    snapshot=bytes(raw)))
    # the root of a snapshot that cannot be decoded cannot be computed; the
    # block keeps the genesis root, so only the snapshot is bad
    bad = Block(height=0, prev_hash=ZERO_DIGEST,
                tx_root=compute_tx_root([tx]), state_root=genesis.state_root,
                proposer="", time=genesis.time, txs=(tx,))
    with pytest.raises(WireError, match="zero denominator"):
        decode_state(bytes(raw))
    assert verify_chain([bad]) == 0
    path = str(tmp_path / "chain.log")
    write_chain_log(path, [BLOCK.encode(bad)])
    assert verify_chain_file(path) == 0


Pair = collections.namedtuple("Pair", "a b")


@pytest.mark.parametrize("codec, top", [(U8, 0xFF), (U32, 0xFFFFFFFF),
                                        (U64, 0xFFFFFFFFFFFFFFFF)],
                         ids=["u8", "u32", "u64"])
def test_compiled_record_refuses_out_of_range(codec, top):
    fused = record(Pair, ("a", codec), ("b", F64))    # one struct for both
    alone = record(Pair, ("a", codec), ("b", STRING))
    for rec, b in ((fused, 0.5), (alone, "x")):
        assert rec.decode(rec.encode(Pair(top, b))) == Pair(top, b)
        for bad in (top + 1, -1):
            with pytest.raises(WireError):
                rec.encode(Pair(bad, b))
    with pytest.raises(WireError):
        ValidationReport(tdm_hash="ab", verdict="uct", matched_object=None,
                         rms_residual=0.0, candidates_checked=2 ** 32)


@pytest.mark.parametrize("value", ["yes", "", 1, 0, 1.0, None, b"\x01"])
def test_bool_writes_only_bools(value):
    # a truthy or falsy non-bool would decode as a bool, an unequal value
    with pytest.raises(WireError, match="flag must be True or False"):
        BOOL.encode(value)


def test_bool_round_trips():
    for value, raw in ((False, b"\x00"), (True, b"\x01")):
        assert BOOL.encode(value) == raw
        assert BOOL.decode(raw) is value


@pytest.mark.parametrize("codec, raw", [
    (BOOL, b"\x02"),
    (optional(STRING), b"\x02\x00\x00\x00\x00"),
    (FRACTION, (2).to_bytes(8, "big") + (4).to_bytes(8, "big")),
    (sorted_set(STRING), b"\x00\x00\x00\x02" + b"\x00\x00\x00\x01b"
     + b"\x00\x00\x00\x01a"),
    (sorted_map(U8, key=STRING), b"\x00\x00\x00\x02" + b"\x00\x00\x00\x01a\x01"
     + b"\x00\x00\x00\x01a\x02"),
    (U32, b"\x00\x00\x00"),
    (STRING, b"\x00\x00\x00\x01\xff"),
    (ELEMENTS, struct.pack(">7d", 7000.0, 1e-3, 0.9, 1.0, 2.0, 7.0, 0.0)),
], ids=["bool", "optional_flag", "fraction_not_lowest", "set_unsorted",
        "map_duplicate_key", "truncated", "bad_utf8", "angle_not_wrapped"])
def test_reader_refuses_non_canonical_bytes(codec, raw):
    with pytest.raises(WireError):
        codec.decode(raw)


def test_wire_doc_owners_resolve():
    """Every name in an "Owner:" paragraph of docs/wire.md is an attribute
    of sdachain."""
    text = (ROOT / "docs" / "wire.md").read_text(encoding="utf-8")
    owners = [name for para in text.split("\n\n")
              if para.startswith("Owner:")
              for name in re.findall(r"`([A-Za-z_][\w.]*)`", para)]
    assert len(owners) >= 12
    for name in owners:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"sdachain.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
            if obj is None:
                pytest.fail(f"docs/wire.md names {name!r}, which sdachain "
                            "lacks")
