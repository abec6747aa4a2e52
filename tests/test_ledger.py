import dataclasses
import functools
import math
import random
import re
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import check_derived_state, grids, leo_record, site_under
from sdachain import ledger, validation
from sdachain.astro import Epoch, OrbitRecord, propagate_j2
from sdachain.ledger import (
    Account,
    AttestValidation,
    BLOCK,
    ECONOMICS_PARAMS,
    Block,
    ClaimReward,
    EconomicsParams,
    LedgerError,
    PostTask,
    ProposeModel,
    RegisterStake,
    SubmitTdm,
    TRANSACTION,
    TX_KINDS,
    Transaction,
    TxRejected,
    VoteModel,
    apply_transaction,
    block_hash,
    compute_attestation,
    compute_stakes,
    conservation_delta,
    decode_state,
    encode_state,
    load_chain,
    make_genesis,
    produce_block,
    replay_state,
    save_chain,
    select_validator,
    state_root,
    tx_hash,
    verify_chain,
    verify_chain_file,
)
from sdachain.fedprop import ModelProposal, ResidualModel
from sdachain.tasking import INTERNAL_TASK_FEE, IodRegion
from sdachain.errors import SdaError
from sdachain.tdm import (
    ObservationRecord,
    Tdm,
    TdmMeta,
    parse_tdm,
    serialize_tdm,
    synth_tdm,
)
from sdachain.validation import ValidationParams, ValidationReport
from sdachain.wire import (
    STRING,
    U64,
    U8,
    Reader,
    WireError,
    sha256,
    write_chain_log,
)


def fresh_chain(time=0.0, alice_balance=100):
    """Genesis with one cataloged LEO, one site under it, an observer, a
    requester, and three validators staking 40/40/20."""
    rec = leo_record(random.Random(5), "SAT-1")
    site = site_under(rec, Epoch(700.0), site_id="S1")
    accounts = [
        Account("alice", balance=alice_balance, roles={"observer"}),
        Account("rita", balance=500, roles={"requester"}),
        Account("val-a", balance=0, staked=40, roles={"compute"}),
        Account("val-b", balance=0, staked=40, roles={"compute"}),
        Account("val-c", balance=0, staked=20, roles={"compute"}),
    ]
    state, gblock = make_genesis(accounts, [rec], [site], EconomicsParams(),
                                 ValidationParams(), time=time)
    return state, gblock, rec, site


def honest_tdm(rec, site, seed=3, noise=1e-5, t0=600.0, participant=None,
               with_range=False, mode="AZEL"):
    epochs = [Epoch(t0 + 30.0 * k) for k in range(8)]
    return synth_tdm(rec, site, epochs, noise, seed, participant=participant,
                     with_range=with_range, range_noise_km=0.05 if with_range
                     else 0.0, mode=mode)


def tx(kind, sender, nonce, payload):
    return Transaction(kind=kind, sender=sender, nonce=nonce, payload=payload)


def submit_tx(tdm, nonce=0, sender="alice", task_id=b""):
    return tx("submit_tdm", sender, nonce,
              SubmitTdm(tdm_text=serialize_tdm(tdm), task_id=task_id))


def attest_until_settled(state, tdm_hash, validators=("val-a", "val-b")):
    """Each validator recomputes and attests the deterministic report."""
    report = None
    for v in validators:
        rep = compute_attestation(state, tdm_hash)
        if report is not None:
            assert rep.report_hash == report.report_hash
        report = rep
        state = apply_transaction(
            state, tx("attest_validation", v, state.accounts[v].nonce,
                      AttestValidation(rep)))
    return state, report


def attest_with(state, report, validators=("val-a", "val-b")):
    """Each validator attests the given report, however stale."""
    for v in validators:
        state = apply_transaction(state, tx("attest_validation", v,
                                            state.accounts[v].nonce,
                                            AttestValidation(report)))
    return state


class TestParamsAndAccounts:
    def test_params_reject_floats(self):
        with pytest.raises(LedgerError):
            EconomicsParams(validator_fee_cut=0.1)
        with pytest.raises(LedgerError):
            EconomicsParams(slash_fraction=1.0)

    def test_params_ranges(self):
        with pytest.raises(LedgerError):
            EconomicsParams(slash_fraction=Fraction(3, 2))
        with pytest.raises(LedgerError):
            EconomicsParams(attestation_quorum=Fraction(1, 2))
        with pytest.raises(LedgerError):
            EconomicsParams(attestation_quorum=Fraction(5, 4))
        with pytest.raises(LedgerError):
            EconomicsParams(r_mint=-1)
        p = EconomicsParams(attestation_quorum=Fraction(1))
        assert p.attestation_quorum == 1

    @pytest.mark.parametrize("kw", [
        {"r_mint": 2 ** 70}, {"observer_stake_min": 2 ** 64},
        {"slash_fraction": Fraction(1, 2 ** 70)},
        {"validator_fee_cut": Fraction(1, 2 ** 64)}],
        ids=["r_mint", "stake_min", "slash_fraction", "fee_cut"])
    def test_params_fit_their_u64_layout(self, kw):
        # these used to construct, and the run then failed at genesis
        # with a WireError while encoding the state snapshot
        with pytest.raises(LedgerError, match="layout"):
            EconomicsParams(**kw)
        top = 2 ** 64 - 1
        p = EconomicsParams(r_mint=top, slash_fraction=Fraction(1, top))
        assert ECONOMICS_PARAMS.decode(ECONOMICS_PARAMS.encode(p)) == p

    def test_account_validation(self):
        with pytest.raises(LedgerError):
            Account("x", balance=-1)
        with pytest.raises(LedgerError):
            Account("x", staked=-1)
        with pytest.raises(LedgerError):
            Account("x", roles={"wizard"})
        with pytest.raises(LedgerError):
            Account("")


class TestCodecs:
    def roundtrip(self, t):
        r = Reader(TRANSACTION.encode(t))
        back = TRANSACTION.read(r)
        r.done()
        assert back == t
        return back

    def test_transaction_roundtrips(self):
        state, _, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site)
        self.roundtrip(submit_tx(tdm, task_id=bytes(32)))
        self.roundtrip(tx("post_task", "rita", 0,
                          PostTask(target="SAT-1", fee=25, urgency=True)))
        region = IodRegion(elements=rec.elements, tol_a=2.0, tol_e=1e-3,
                           tol_i=1e-3, tol_raan=1e-3)
        self.roundtrip(tx("post_task", "rita", 1,
                          PostTask(target=region, fee=0)))
        self.roundtrip(tx("register_stake", "alice", 0,
                          RegisterStake(amount=5, role="observer")))
        rep = ValidationReport(tdm_hash="ab" * 32, verdict="uct",
                               matched_object=None, rms_residual=1e-3,
                               candidates_checked=2,
                               proposed_elements=rec.elements,
                               uct_matches=("cd" * 32,),
                               notes=("one", "two"))
        self.roundtrip(tx("attest_validation", "val-a", 0,
                          AttestValidation(rep)))
        prop = ModelProposal(W_new=((0.5,) * 6,) * 3, proposer="val-a",
                             claimed_rms=0.2, parent_version=0)
        self.roundtrip(tx("propose_model", "val-a", 1, ProposeModel(prop)))
        self.roundtrip(tx("vote_model", "val-b", 0,
                          VoteModel(proposal_hash=bytes(32), vote="accept")))
        self.roundtrip(tx("claim_reward", "rita", 2,
                          ClaimReward(task_id=bytes(32))))

    def test_unknown_target_tag_rejected_in_post_task(self):
        raw = (U8.encode(TX_KINDS.index("post_task")) + STRING.encode("rita")
               + U64.encode(0) + U8.encode(9) + U64.encode(25) + U8.encode(0)
               + STRING.encode("external"))
        with pytest.raises(WireError):
            TRANSACTION.read(Reader(raw))

    def test_tx_hash_sensitivity(self):
        a = tx("register_stake", "x", 0, RegisterStake(amount=5, role="compute"))
        b = tx("register_stake", "x", 1, RegisterStake(amount=5, role="compute"))
        c = tx("register_stake", "x", 0, RegisterStake(amount=6, role="compute"))
        assert len({tx_hash(a), tx_hash(b), tx_hash(c)}) == 3

    def test_block_roundtrip(self):
        state, gblock, _, _ = fresh_chain()
        r = Reader(BLOCK.encode(gblock))
        assert BLOCK.read(r) == gblock
        r.done()

    def test_payload_kind_mismatch(self):
        with pytest.raises(LedgerError):
            Transaction(kind="submit_tdm", sender="a", nonce=0,
                        payload=RegisterStake(amount=1, role="observer"))

    def test_sender_must_be_a_string(self):
        with pytest.raises(LedgerError, match="sender"):
            tx("register_stake", 7, 0, RegisterStake(amount=1, role="observer"))


class TestGenesis:
    def test_supply_and_conservation(self):
        state, gblock, _, _ = fresh_chain()
        assert state.genesis_supply == 100 + 500 + 40 + 40 + 20
        assert conservation_delta(state) == 0
        assert gblock.height == 0
        assert gblock.state_root == state_root(state)

    def test_snapshot_roundtrip_is_bit_identical(self):
        state, _, _, _ = fresh_chain()
        raw = encode_state(state)
        assert encode_state(decode_state(raw)) == raw

    def test_version_1_snapshot_refused(self):
        # version 1 held an f64 step_s before time, version 2 held the
        # seen-TDM hashes before the model, and version 3 held the nonces
        # map, the task status and a hash key before each pending and pooled
        # TDM; the version byte keeps such a snapshot from being read with
        # its fields shifted
        state, _, _, _ = fresh_chain()
        raw = encode_state(state)
        assert raw.startswith(b"SDASTATE\x04")
        for old in (b"SDASTATE\x01", b"SDASTATE\x02", b"SDASTATE\x03"):
            with pytest.raises(WireError, match="version"):
                decode_state(old + raw[9:])

    def test_pending_tdm_decodes_under_its_own_hash(self):
        # the snapshot writes no key beside a pending TDM, so a state that
        # files one under another key decodes with it under its own hash:
        # it can still be attested, and it is still a duplicate
        state, _, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site)
        h = tdm.hex_hash()
        s1 = apply_transaction(state, submit_tx(tdm))
        s1.pending["f" * 64] = s1.pending.pop(h)
        back = decode_state(encode_state(s1))
        assert list(back.pending) == [h]
        with pytest.raises(TxRejected, match="duplicate TDM"):
            apply_transaction(back, submit_tx(tdm, nonce=1))
        s2, rep = attest_until_settled(back, h)
        assert rep.verdict == "verified" and not s2.pending
        assert s2.accounts["alice"].balance == 100    # escrow returned
        assert conservation_delta(s2) == 0

    def test_duplicate_account_rejected(self):
        rec = leo_record(random.Random(5), "SAT-1")
        site = site_under(rec, Epoch(700.0), site_id="S1")
        with pytest.raises(LedgerError):
            make_genesis([Account("a", balance=1), Account("a", balance=2)],
                         [rec], [site], EconomicsParams(), ValidationParams())


class TestLottery:
    def test_single_account_always_wins(self):
        for k in range(10):
            assert select_validator(sha256(bytes([k])), k, {"v": 7}) == "v"

    def test_deterministic(self):
        stakes = {"a": 3, "b": 5}
        h = sha256(b"block")
        assert select_validator(h, 4, stakes) == select_validator(h, 4, stakes)

    def test_zero_stake_errors(self):
        with pytest.raises(LedgerError):
            select_validator(bytes(32), 0, {})
        with pytest.raises(LedgerError):
            select_validator(bytes(32), 0, {"a": 0})

    def test_interval_assignment_matches_manual(self):
        # ids sorted lexicographically own contiguous ticket ranges
        stakes = {"bob": 2, "amy": 3}
        for k in range(64):
            h = sha256(b"iv" + bytes([k]))
            ticket = int.from_bytes(sha256(h + k.to_bytes(8, "big")), "big") % 5
            want = "amy" if ticket < 3 else "bob"
            assert select_validator(h, k, stakes) == want

    def test_frequencies_match_stake_weights(self):
        # frozen oracle: 30/70 stakes over 1e5 seeded rounds give
        # chi-square 0.88, far below the 6.634897 critical value (p=0.01)
        stakes = {"a": 30, "b": 70}
        counts = {"a": 0, "b": 0}
        n = 100000
        for k in range(n):
            ph = sha256(b"lottery-oracle" + k.to_bytes(8, "big"))
            counts[select_validator(ph, k, stakes)] += 1
        chi2 = ((counts["a"] - 0.3 * n) ** 2 / (0.3 * n)
                + (counts["b"] - 0.7 * n) ** 2 / (0.7 * n))
        assert chi2 < 6.634897


class TestSubmitAndSettle:
    def test_submit_escrows_stake_min(self):
        state, _, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site)
        s1 = apply_transaction(state, submit_tx(tdm))
        assert s1.accounts["alice"].balance == 90
        assert s1.pending[tdm.hex_hash()].escrow == 10
        assert conservation_delta(s1) == 0
        # original state untouched
        assert state.accounts["alice"].balance == 100

    def test_submit_rejections(self):
        state, _, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site)
        good = submit_tx(tdm)
        with pytest.raises(TxRejected):    # wrong nonce
            apply_transaction(state, submit_tx(tdm, nonce=1))
        with pytest.raises(TxRejected):    # unknown sender
            apply_transaction(state, submit_tx(tdm, sender="nobody"))
        with pytest.raises(TxRejected):    # requester role cannot observe
            apply_transaction(state, submit_tx(tdm, sender="rita"))
        poor, _, _, _ = fresh_chain(alice_balance=9)
        with pytest.raises(TxRejected):    # cannot cover the escrow
            apply_transaction(poor, good)
        mangled = serialize_tdm(tdm).replace("= ", "=  ", 1)
        with pytest.raises(TxRejected):    # not canonical bytes
            apply_transaction(state, tx("submit_tdm", "alice", 0,
                                        SubmitTdm(tdm_text=mangled)))
        with pytest.raises(TxRejected):    # unknown task reference
            apply_transaction(state, submit_tx(tdm, task_id=bytes(32)))
        s1 = apply_transaction(state, good)
        with pytest.raises(TxRejected):    # duplicate content
            apply_transaction(s1, submit_tx(tdm, nonce=1))

    def test_verified_settlement_returns_escrow(self):
        state, _, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site)
        s1 = apply_transaction(state, submit_tx(tdm))
        # 40+40 of 100 total stake: 80*3 >= 100*2 meets the 2/3 quorum
        s2, rep = attest_until_settled(s1, tdm.hex_hash())
        assert rep.verdict == "verified"
        assert tdm.hex_hash() not in s2.pending
        assert s2.accounts["alice"].balance == 100
        assert conservation_delta(s2) == 0
        assert s2.settlements[-1].verdict == "verified"
        assert s2.settlements[-1].object_id == "SAT-1"
        # catalog record re-anchored to the track's last epoch
        assert s2.catalog["SAT-1"].elements.epoch.t == 810.0

    def test_single_attestation_below_quorum_stays_pending(self):
        state, _, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site)
        s1 = apply_transaction(state, submit_tx(tdm))
        s2, _ = attest_until_settled(s1, tdm.hex_hash(), validators=("val-a",))
        assert tdm.hex_hash() in s2.pending    # 40*3 < 100*2

    def test_conflicting_reports_split_quorum(self):
        state, _, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site)
        s1 = apply_transaction(state, submit_tx(tdm))
        h = tdm.hex_hash()
        honest = compute_attestation(s1, h)
        lie = dataclasses.replace(honest, rms_residual=honest.rms_residual * 2)
        s2 = apply_transaction(s1, tx("attest_validation", "val-a", 0,
                                      AttestValidation(honest)))
        s3 = apply_transaction(s2, tx("attest_validation", "val-b", 0,
                                      AttestValidation(lie)))
        assert h in s3.pending    # no (verdict, hash) group reaches quorum
        assert conservation_delta(s3) == 0

    def test_spoof_settlement_burns_escrow(self):
        state, _, rec, site = fresh_chain()
        # spoof: claims SAT-1 but angles are offset by ~2 degrees
        spoofed = dataclasses.replace(rec, elements=dataclasses.replace(
            rec.elements, raan=rec.elements.raan + math.radians(2.0)))
        spoof_rec = OrbitRecord(object_id="SAT-1", elements=spoofed.elements,
                                bstar=rec.bstar)
        tdm = honest_tdm(spoof_rec, site, seed=9)
        s1 = apply_transaction(state, submit_tx(tdm))
        s2, rep = attest_until_settled(s1, tdm.hex_hash())
        assert rep.verdict == "rejected"
        assert s2.accounts["alice"].balance == 90    # escrow burned
        assert s2.burned == 10
        assert conservation_delta(s2) == 0

    def test_attest_rejections(self):
        state, _, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site)
        s1 = apply_transaction(state, submit_tx(tdm))
        rep = compute_attestation(s1, tdm.hex_hash())
        with pytest.raises(TxRejected):    # observers cannot attest
            apply_transaction(s1, tx("attest_validation", "alice", 1,
                                     AttestValidation(rep)))
        ghost_rep = dataclasses.replace(rep, tdm_hash="00" * 32)
        with pytest.raises(TxRejected):    # unknown TDM
            apply_transaction(s1, tx("attest_validation", "val-a", 0,
                                     AttestValidation(ghost_rep)))
        s2 = apply_transaction(s1, tx("attest_validation", "val-a", 0,
                                      AttestValidation(rep)))
        with pytest.raises(TxRejected):    # one attestation per validator
            apply_transaction(s2, tx("attest_validation", "val-a", 1,
                                     AttestValidation(rep)))


def future_tdm(object_id, site_id, days_ahead=40.0):
    """Canonical TDM claiming object_id with epochs days_ahead in the future."""
    t0 = days_ahead * 86400.0
    records = tuple(ObservationRecord(epoch=Epoch(t0 + 30.0 * k), angle1=1.0,
                                      angle2=0.5) for k in range(8))
    return Tdm(meta=TdmMeta(site_id=site_id, participant=object_id, mode="AZEL"),
               records=records)


class TestHostileTdm:
    def test_future_dated_claim_raises_domain_error(self):
        state, _, rec, site = fresh_chain()
        tdm = future_tdm(rec.object_id, site.site_id)
        s1 = apply_transaction(state, submit_tx(tdm))
        assert tdm.hex_hash() in s1.pending
        with pytest.raises(SdaError):
            compute_attestation(s1, tdm.hex_hash())

    def test_radec_track_settles(self):
        state, _, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site, mode="RADEC")
        s1 = apply_transaction(state, submit_tx(tdm))
        assert isinstance(compute_attestation(s1, tdm.hex_hash()),
                          ValidationReport)
        s2, rep = attest_until_settled(s1, tdm.hex_hash())
        assert rep.verdict == "verified"
        assert rep.matched_object == rec.object_id
        assert tdm.hex_hash() not in s2.pending
        assert s2.settlements[-1].verdict == "verified"
        assert s2.accounts["alice"].balance == 100    # escrow returned
        assert conservation_delta(s2) == 0


class TestTaskEconomics:
    def post_task(self, state, fee=20, nonce=0):
        return apply_transaction(state, tx("post_task", "rita", nonce,
                                           PostTask(target="SAT-1", fee=fee)))

    def test_post_escrows_fee(self):
        state, _, _, _ = fresh_chain()
        s1 = self.post_task(state)
        assert s1.accounts["rita"].balance == 480
        (tid, task), = s1.tasks.items()
        assert task.fee == 20
        assert s1.task_escrows[tid] == (20, "rita")
        assert conservation_delta(s1) == 0
        with pytest.raises(TxRejected):    # alice lacks the requester role
            apply_transaction(state, tx("post_task", "alice", 0,
                                        PostTask(target="SAT-1", fee=0)))
        with pytest.raises(TxRejected):    # cannot afford the fee
            apply_transaction(state, tx("post_task", "rita", 0,
                                        PostTask(target="SAT-1", fee=501)))
        for origin in ("internal", "calibration"):
            with pytest.raises(TxRejected, match="cannot post"):
                apply_transaction(state, tx("post_task", "rita", 0, PostTask(
                    target="SAT-1", fee=0, origin=origin)))

    def test_fee_flows_on_verified_fulfillment(self):
        state, _, rec, site = fresh_chain()
        s1 = self.post_task(state, fee=20)
        (tid,) = s1.tasks
        tdm = honest_tdm(rec, site)
        s2 = apply_transaction(s1, submit_tx(tdm, task_id=tid))
        s3, rep = attest_until_settled(s2, tdm.hex_hash())
        assert rep.verdict == "verified"
        # fee 20: validator cut 2 split pro rata (stakes 40/40 -> 1+1),
        # observer nets 18 plus the returned escrow
        assert s3.accounts["alice"].balance == 100 + 18
        assert s3.accounts["val-a"].balance == 1
        assert s3.accounts["val-b"].balance == 1
        assert tid not in s3.tasks      # a paid task leaves the state
        assert tid not in s3.task_escrows
        assert conservation_delta(s3) == 0

    def test_expiry_and_claim(self):
        state, _, _, _ = fresh_chain()
        s1 = self.post_task(state)
        (tid,) = s1.tasks
        # two days later the sweep drops it, and its fee waits in escrow
        # until the requester reclaims it
        s2, _ = produce_block(s1, [], 1, time=48.0 * 3600.0 + 1.0)
        assert tid not in s2.tasks
        assert s2.task_escrows[tid] == (20, "rita")
        with pytest.raises(TxRejected):    # only the requester may claim
            apply_transaction(s2, tx("claim_reward", "alice", 0,
                                     ClaimReward(task_id=tid)))
        s3 = apply_transaction(s2, tx("claim_reward", "rita", 1,
                                      ClaimReward(task_id=tid)))
        assert s3.accounts["rita"].balance == 500
        assert conservation_delta(s3) == 0
        with pytest.raises(TxRejected):    # nothing left to claim
            apply_transaction(s3, tx("claim_reward", "rita", 2,
                                     ClaimReward(task_id=tid)))

    def test_claim_before_expiry_rejected(self):
        state, _, _, _ = fresh_chain()
        s1 = self.post_task(state)
        (tid,) = s1.tasks
        with pytest.raises(TxRejected, match="still open"):
            apply_transaction(s1, tx("claim_reward", "rita", 1,
                                     ClaimReward(task_id=tid)))

    def test_register_stake(self):
        state, _, _, _ = fresh_chain()
        s1 = apply_transaction(state, tx("register_stake", "alice", 0,
                                         RegisterStake(amount=30,
                                                       role="compute")))
        a = s1.accounts["alice"]
        assert a.balance == 70 and a.staked == 30 and "compute" in a.roles
        assert "alice" in compute_stakes(s1)
        with pytest.raises(TxRejected):
            apply_transaction(s1, tx("register_stake", "alice", 1,
                                     RegisterStake(amount=100, role="compute")))
        assert conservation_delta(s1) == 0


class TestUctMining:
    def two_track_setup(self, extra_sites=()):
        ghost = leo_record(random.Random(30), "GHOST")
        cat_rec = leo_record(random.Random(5), "SAT-1")
        g1 = site_under(ghost, Epoch(700.0), site_id="G1")
        g2 = site_under(ghost, Epoch(22300.0), site_id="G2")
        accounts = [
            Account("alice", balance=100, roles={"observer"}),
            Account("oscar", balance=100, roles={"observer"}),
            Account("val-a", balance=0, staked=40, roles={"compute"}),
            Account("val-b", balance=0, staked=40, roles={"compute"}),
        ]
        state, _ = make_genesis(accounts, [cat_rec], [g1, g2, *extra_sites],
                                EconomicsParams(), ValidationParams(),
                                time=0.0)
        t1 = synth_tdm(ghost, g1, [Epoch(600.0 + 30 * k) for k in range(8)],
                       1e-5, 4, with_range=True, range_noise_km=0.05,
                       participant="UNKNOWN")
        t2 = synth_tdm(ghost, g2, [Epoch(22200.0 + 30 * k) for k in range(8)],
                       1e-5, 5, with_range=True, range_noise_km=0.05,
                       participant="UNKNOWN")
        return state, t1, t2

    def test_first_track_pools_and_retasks(self):
        state, t1, _ = self.two_track_setup()
        s1 = apply_transaction(state, submit_tx(t1))
        s2, rep = attest_until_settled(s1, t1.hex_hash())
        assert rep.verdict == "uct"
        assert t1.hex_hash() in s2.uct_pool
        internal = [t for t in s2.tasks.values() if t.origin == "internal"]
        assert len(internal) == 1
        assert isinstance(internal[0].target, IodRegion)
        assert s2.accounts["alice"].balance == 100    # escrow returned
        assert conservation_delta(s2) == 0

    def test_pooled_tdm_decodes_under_its_own_hash(self):
        # the pool, like pending, takes each key from the TDM it holds
        state, t1, _ = self.two_track_setup()
        s1 = apply_transaction(state, submit_tx(t1))
        s2, _ = attest_until_settled(s1, t1.hex_hash())
        s2.uct_pool["f" * 64] = s2.uct_pool.pop(t1.hex_hash())
        back = decode_state(encode_state(s2))
        assert list(back.uct_pool) == [t1.hex_hash()]
        assert back.uct_pool[t1.hex_hash()].tdm == t1

    def test_second_track_mines_and_mints(self):
        state, t1, t2 = self.two_track_setup()
        s = apply_transaction(state, submit_tx(t1))
        s, _ = attest_until_settled(s, t1.hex_hash())
        s = apply_transaction(s, submit_tx(t2, nonce=0, sender="oscar"))
        rep2 = compute_attestation(s, t2.hex_hash())
        assert rep2.uct_matches == (t1.hex_hash(),)
        s, rep = attest_until_settled(s, t2.hex_hash())
        assert rep.report_hash == rep2.report_hash
        mined_id = f"MINED-{t1.hex_hash()[:8]}"
        assert mined_id in s.catalog
        assert s.catalog[mined_id].source == "mined"
        assert not s.uct_pool
        # r_mint 50 splits equally between the two distinct submitters
        assert s.accounts["alice"].balance == 125
        assert s.accounts["oscar"].balance == 125
        assert s.minted == 50
        assert conservation_delta(s) == 0
        assert s.settlements[-1].object_id == mined_id

    def test_third_track_verifies_against_mined(self):
        state, t1, t2 = self.two_track_setup()
        s = apply_transaction(state, submit_tx(t1))
        s, _ = attest_until_settled(s, t1.hex_hash())
        s = apply_transaction(s, submit_tx(t2, nonce=0, sender="oscar"))
        s, _ = attest_until_settled(s, t2.hex_hash())
        ghost = leo_record(random.Random(30), "GHOST")
        g2 = s.sites["G2"]
        t3 = synth_tdm(ghost, g2, [Epoch(22440.0 + 30 * k) for k in range(8)],
                       1e-5, 6, participant="UNKNOWN")
        s = apply_transaction(s, submit_tx(t3, nonce=1))
        s, rep = attest_until_settled(s, t3.hex_hash())
        assert rep.verdict == "verified"
        assert rep.matched_object == f"MINED-{t1.hex_hash()[:8]}"

    def test_pool_fits_come_from_settled_reports(self, monkeypatch):
        # two pooled UCTs of different objects; a third UCT's attestation
        # fits its own track alone and associates against the stored fits,
        # then mines: both of mine_object's fits take the matched pool
        # track and the new one, and no pooled track is fitted alone
        other = leo_record(random.Random(31), "OTHER")
        g3 = site_under(other, Epoch(700.0), site_id="G3")
        state, t1, t2 = self.two_track_setup(extra_sites=[g3])
        t_other = synth_tdm(other, g3, [Epoch(600.0 + 30 * k) for k in range(8)],
                            1e-5, 7, with_range=True, range_noise_km=0.05,
                            participant="UNKNOWN")
        s = apply_transaction(state, submit_tx(t1))
        s, _ = attest_until_settled(s, t1.hex_hash())
        s = apply_transaction(s, submit_tx(t_other, nonce=0, sender="oscar"))
        s, rep = attest_until_settled(s, t_other.hex_hash())
        assert rep.verdict == "uct" and rep.uct_matches == ()
        assert sorted(s.uct_pool) == sorted([t1.hex_hash(), t_other.hex_hash()])
        for entry in s.uct_pool.values():
            p_tdm = entry.tdm
            refit = validation._refined_iod(p_tdm, s.sites[p_tdm.meta.site_id])
            assert entry.elements.key() == refit.elements.key()
        assert decode_state(encode_state(s)).uct_pool == s.uct_pool

        s = apply_transaction(s, submit_tx(t2, nonce=1))
        fitted = []
        real_refine = validation.refine_elements

        def counting_refine(initial, tdms, *args, **kwargs):
            fitted.append([t.hex_hash() for t in tdms])
            return real_refine(initial, tdms, *args, **kwargs)

        monkeypatch.setattr(validation, "refine_elements", counting_refine)
        rep = compute_attestation(s, t2.hex_hash())
        assert rep.verdict == "uct"
        assert rep.uct_matches == (t1.hex_hash(),)
        assert rep.mined.object_id == f"MINED-{t1.hex_hash()[:8]}"
        assert fitted == [[t2.hex_hash()]] + [[t1.hex_hash(), t2.hex_hash()]] * 2

    def pending_and_pooled(self):
        """A state holding t1 in the UCT pool and t2 pending."""
        state, t1, t2 = self.two_track_setup()
        s = apply_transaction(state, submit_tx(t1))
        s, _ = attest_until_settled(s, t1.hex_hash())
        s = apply_transaction(s, submit_tx(t2, nonce=0, sender="oscar"))
        assert list(s.uct_pool) == [t1.hex_hash()]
        assert list(s.pending) == [t2.hex_hash()]
        return s, t1, t2

    def test_settlement_applies_the_attested_orbit(self, monkeypatch):
        # the quorum's report carries the mined orbit; settling it fits
        # nothing, and the catalog entry holds elements of its own
        s, t1, t2 = self.pending_and_pooled()
        rep = compute_attestation(s, t2.hex_hash())
        assert rep.mined is not None and rep.mined.source == "mined"

        def no_fit(*args, **kwargs):
            raise AssertionError("settlement fitted an orbit")

        for name in ("mine_object", "refine_elements", "iod_from_tdm"):
            for mod in (ledger, validation):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, no_fit)
        s = attest_with(s, rep)
        entry = s.catalog[rep.mined.object_id]
        assert entry == rep.mined and entry.elements is not rep.mined.elements
        assert not s.uct_pool and s.minted == 50
        assert conservation_delta(s) == 0

    def test_matched_track_gone_from_pool_parks(self):
        # t2 and t3 are both attested while t1 is pooled; t2 settles first
        # and mines t1. t3's report names t1 too, and a mined id that is
        # not in the catalog (t3 is the earlier track), but t1 has left
        # the pool: t3 parks, and nothing more is minted
        early = leo_record(random.Random(30), "GHOST")
        g0 = site_under(early, Epoch(300.0), site_id="G0")
        state, t1, t2 = self.two_track_setup(extra_sites=[g0])
        t3 = synth_tdm(early, g0, [Epoch(200.0 + 30 * k) for k in range(8)],
                       1e-5, 8, with_range=True, range_noise_km=0.05,
                       participant="UNKNOWN")
        s = apply_transaction(state, submit_tx(t1))
        s, _ = attest_until_settled(s, t1.hex_hash())
        s = apply_transaction(s, submit_tx(t2, nonce=0, sender="oscar"))
        s = apply_transaction(s, submit_tx(t3, nonce=1))
        rep2 = compute_attestation(s, t2.hex_hash())
        rep3 = compute_attestation(s, t3.hex_hash())
        assert rep2.uct_matches == rep3.uct_matches == (t1.hex_hash(),)
        assert rep3.mined.object_id == f"MINED-{t3.hex_hash()[:8]}"
        s = attest_with(s, rep2)
        assert rep2.mined.object_id in s.catalog and not s.uct_pool
        s = attest_with(s, rep3)
        assert rep3.mined.object_id not in s.catalog
        assert list(s.uct_pool) == [t3.hex_hash()]
        assert s.minted == 50
        assert s.settlements[-1].verdict == "uct"
        assert s.settlements[-1].object_id == ""
        assert conservation_delta(s) == 0

    def test_mined_id_already_cataloged_parks(self):
        s, t1, t2 = self.pending_and_pooled()
        rep = compute_attestation(s, t2.hex_hash())
        taken = dataclasses.replace(rep.mined, source="cataloged")
        s.catalog[taken.object_id] = taken
        s = attest_with(s, rep)
        assert s.catalog[taken.object_id] == taken
        assert sorted(s.uct_pool) == sorted([t1.hex_hash(), t2.hex_hash()])
        assert s.minted == 0 and s.settlements[-1].object_id == ""
        assert conservation_delta(s) == 0

    def test_held_tdms_roundtrip(self):
        s, t1, t2 = self.pending_and_pooled()
        raw = encode_state(s)
        back = decode_state(raw)
        assert encode_state(back) == raw
        assert back.uct_pool == s.uct_pool and back.pending == s.pending
        assert back.uct_pool[t1.hex_hash()].tdm.text == t1.text
        assert back.pending[t2.hex_hash()].tdm.text == t2.text

    @pytest.mark.parametrize("held", ["pending", "pool"])
    def test_noncanonical_held_text_fails_to_decode(self, held):
        # the parser accepts the padded text, but it re-encodes as the
        # canonical text, so the snapshot is not the encoding of its value
        s, t1, t2 = self.pending_and_pooled()
        text = (t2 if held == "pending" else t1).text
        padded = text.replace("= ", "=  ", 1)
        assert parse_tdm(padded).text == text
        raw = encode_state(s)
        framed = STRING.encode(text)
        assert raw.count(framed) == 1
        bad = raw.replace(framed, STRING.encode(padded))
        with pytest.raises(WireError, match="canonical"):
            decode_state(bad)


class TestModelGovernance:
    def proposal(self, state, proposer="val-a"):
        W = tuple(tuple(0.01 * (r + c) for c in range(6)) for r in range(3))
        return ModelProposal(W_new=W, proposer=proposer, claimed_rms=0.5,
                             parent_version=state.model.version)

    def test_propose_and_accept_merges(self):
        state, _, _, _ = fresh_chain()
        prop = self.proposal(state)
        s1 = apply_transaction(state, tx("propose_model", "val-a", 0,
                                         ProposeModel(prop)))
        assert prop.proposal_hash in s1.model_proposals
        s2 = apply_transaction(s1, tx("vote_model", "val-a", 1,
                                      VoteModel(prop.proposal_hash, "accept")))
        s3 = apply_transaction(s2, tx("vote_model", "val-b", 0,
                                      VoteModel(prop.proposal_hash, "accept")))
        assert s3.model.version == 1
        assert s3.model.W[1][1] == pytest.approx(0.5 * 0.02)
        assert s3.accounts["val-a"].balance == 20    # r_model reward
        assert s3.minted == 20
        assert not s3.model_proposals
        assert conservation_delta(s3) == 0

    def test_reject_quorum_discards(self):
        state, _, _, _ = fresh_chain()
        prop = self.proposal(state)
        s = apply_transaction(state, tx("propose_model", "val-a", 0,
                                        ProposeModel(prop)))
        s = apply_transaction(s, tx("vote_model", "val-a", 1,
                                    VoteModel(prop.proposal_hash, "reject")))
        s = apply_transaction(s, tx("vote_model", "val-b", 0,
                                    VoteModel(prop.proposal_hash, "reject")))
        assert s.model.version == 0
        assert not s.model_proposals
        assert s.accounts["val-a"].balance == 0

    def test_merge_drops_the_other_proposals(self):
        # after a merge no open proposal names the current version, so
        # none could ever be adopted: they leave the state at once
        state, _, _, _ = fresh_chain()
        prop = self.proposal(state)
        other = self.proposal(state, proposer="val-b")
        s = apply_transaction(state, tx("propose_model", "val-a", 0,
                                        ProposeModel(prop)))
        s = apply_transaction(s, tx("propose_model", "val-b", 0,
                                    ProposeModel(other)))
        assert len(s.model_proposals) == 2
        s = apply_transaction(s, tx("vote_model", "val-a", 1,
                                    VoteModel(prop.proposal_hash, "accept")))
        s = apply_transaction(s, tx("vote_model", "val-b", 1,
                                    VoteModel(prop.proposal_hash, "accept")))
        assert s.model.version == 1
        assert not s.model_proposals
        assert conservation_delta(s) == 0
        with pytest.raises(TxRejected, match="unknown proposal"):
            apply_transaction(s, tx("vote_model", "val-c", 0,
                                    VoteModel(other.proposal_hash, "accept")))

    def test_stale_and_duplicate_rejected(self):
        state, _, _, _ = fresh_chain()
        stale = ModelProposal(W_new=((0.0,) * 6,) * 3, proposer="val-a",
                              claimed_rms=0.5, parent_version=3)
        with pytest.raises(TxRejected):
            apply_transaction(state, tx("propose_model", "val-a", 0,
                                        ProposeModel(stale)))
        prop = self.proposal(state)
        s = apply_transaction(state, tx("propose_model", "val-a", 0,
                                        ProposeModel(prop)))
        with pytest.raises(TxRejected):    # second identical proposal
            apply_transaction(s, tx("propose_model", "val-a", 1,
                                    ProposeModel(prop)))
        with pytest.raises(TxRejected):    # vote for unknown proposal
            apply_transaction(state, tx("vote_model", "val-b", 0,
                                        VoteModel(bytes(32), "accept")))
        with pytest.raises(TxRejected):    # proposer must be the sender
            apply_transaction(state, tx("propose_model", "val-b", 0,
                                        ProposeModel(self.proposal(state))))


class TestBlocks:
    def test_empty_block_mints_subsidy(self):
        state, _, _, _ = fresh_chain()
        s1, b1 = produce_block(state, [], 1, time=30.0)
        assert b1.height == 1 and len(b1.txs) == 0
        assert s1.minted == 1
        assert s1.accounts[b1.proposer].balance == 1
        assert conservation_delta(s1) == 0

    def test_identical_inputs_identical_block(self):
        state, _, rec, site = fresh_chain()
        txs = [submit_tx(honest_tdm(rec, site))]
        _, b1 = produce_block(state.clone(), list(txs), 1, time=30.0)
        _, b2 = produce_block(state.clone(), list(reversed(txs)), 1, time=30.0)
        assert BLOCK.encode(b1) == BLOCK.encode(b2)

    def test_clone_shares_propagation_grids(self):
        # a grid is a function of its elements, so a clone keeps the grids
        # its catalog's elements hold instead of copying every point
        state, _, rec, _ = fresh_chain()
        propagate_j2(state.catalog[rec.object_id].elements, rec.bstar,
                     Epoch(86400.0))
        copy = state.clone()
        held = {oid: grids(r.elements) for oid, r in state.catalog.items()}
        assert held[rec.object_id]
        for oid, r in copy.catalog.items():
            assert r.elements is not state.catalog[oid].elements
            assert grids(r.elements).keys() == held[oid].keys()
            assert all(grids(r.elements)[key] is grid
                       for key, grid in held[oid].items())
        assert encode_state(copy) == encode_state(state)

    def test_invalid_tx_excluded(self):
        state, _, rec, site = fresh_chain()
        good = submit_tx(honest_tdm(rec, site))
        bad = submit_tx(honest_tdm(rec, site, seed=8), nonce=5)
        s1, b1 = produce_block(state, [good, bad], 1, time=30.0)
        assert b1.txs == (good,)
        assert conservation_delta(s1) == 0

    @pytest.mark.parametrize("suffix", ["+00:00", "Z"])
    def test_offset_epoch_tdm_excluded(self, suffix):
        # an epoch with a UTC offset is a parse error like any other, so
        # the block seals without the submission instead of raising
        state, gblock, rec, site = fresh_chain()
        text = re.sub(r"(T[0-9:.]+) ", rf"\g<1>{suffix} ",
                      serialize_tdm(honest_tdm(rec, site)))
        assert text.count(suffix + " ") == 8 * 2
        bad = tx("submit_tdm", "alice", 0, SubmitTdm(tdm_text=text))
        with pytest.raises(TxRejected):
            apply_transaction(state, bad)
        s1, b1 = produce_block(state, [bad], 1, time=30.0)
        assert b1.txs == () and not s1.pending
        assert conservation_delta(s1) == 0
        # a block that carries it anyway is a bad height
        assert verify_chain([gblock, dataclasses.replace(b1, txs=(bad,))]) == 1

    @pytest.mark.parametrize("kind, sender, nonce, payload", [
        ("post_task", "rita", 0, lambda: PostTask(target="SAT-1",
                                                  fee=2 ** 64)),
        ("register_stake", "alice", 2 ** 64,
         lambda: RegisterStake(amount=5, role="observer")),
        ("post_task", "rita", 0, lambda: PostTask(target="SAT-1", fee=1.5)),
        ("post_task", "rita", 0, lambda: PostTask(target=5, fee=1)),
        ("submit_tdm", "alice", 0, lambda: SubmitTdm(tdm_text=5)),
        ("post_task", "rita", 0, lambda: PostTask(target="SAT-1", fee=1,
                                                  urgency="yes"))],
        ids=["fee_2**64", "nonce_2**64", "fee_1.5", "target_int",
             "tdm_text_int", "urgency_str"])
    def test_unencodable_tx_refused_at_construction(self, kind, sender,
                                                     nonce, payload):
        # each of these used to be built, and then left out of its block
        # (or, before that, broke the block) when it was hashed
        with pytest.raises(LedgerError, match="does not fit its layout"):
            tx(kind, sender, nonce, payload())

    def test_round_must_match_height(self):
        state, _, _, _ = fresh_chain()
        with pytest.raises(LedgerError):
            produce_block(state, [], 2)
        with pytest.raises(LedgerError):
            produce_block(state, [], 1, time=-5.0)

    def test_non_finite_time_rejected(self):
        state, gblock, _, _ = fresh_chain()
        for bad in (math.nan, math.inf):
            with pytest.raises(LedgerError):
                dataclasses.replace(gblock, time=bad)
            with pytest.raises(LedgerError):
                produce_block(state, [], 1, time=bad)
        assert state.height == 1 and state.time == 0.0

    def build_chain(self, tmp_path=None):
        state, gblock, rec, site = fresh_chain()
        tdm = honest_tdm(rec, site)
        s1, b1 = produce_block(state, [submit_tx(tdm)], 1, time=30.0)
        rep = compute_attestation(s1, tdm.hex_hash())
        attests = [tx("attest_validation", v, 0, AttestValidation(rep))
                   for v in ("val-a", "val-b")]
        s2, b2 = produce_block(s1, attests, 2, time=60.0)
        s3, b3 = produce_block(s2, [], 3, time=90.0)
        return s3, [gblock, b1, b2, b3]

    def test_verify_chain_accepts_valid(self):
        s3, chain = self.build_chain()
        assert verify_chain(chain) is None
        assert conservation_delta(s3) == 0

    def test_replay_reproduces_state(self):
        s3, chain = self.build_chain()
        replayed = replay_state(chain)
        assert encode_state(replayed) == encode_state(s3)
        assert replayed.last_hash == s3.last_hash

    def test_tampered_tx_detected(self):
        _, chain = self.build_chain()
        victim = chain[1]
        t = victim.txs[0]
        forged_payload = SubmitTdm(tdm_text=t.payload.tdm_text.replace(
            "SAT-1", "SAT-X", 1), task_id=t.payload.task_id)
        forged_tx = Transaction(kind=t.kind, sender=t.sender, nonce=t.nonce,
                                payload=forged_payload)
        chain[1] = dataclasses.replace(victim, txs=(forged_tx,))
        assert verify_chain(chain) == 1

    def test_tampered_proposer_detected(self):
        _, chain = self.build_chain()
        b = chain[2]
        others = [v for v in ("val-a", "val-b", "val-c") if v != b.proposer]
        chain[2] = dataclasses.replace(b, proposer=others[0])
        assert verify_chain(chain) == 2

    def test_broken_link_detected(self):
        _, chain = self.build_chain()
        chain[3] = dataclasses.replace(chain[3], prev_hash=bytes(32))
        assert verify_chain(chain) == 3

    @pytest.mark.parametrize("tamper", [
        lambda b, parent: dataclasses.replace(b, height=b.height + 1),
        lambda b, parent: dataclasses.replace(b, tx_root=sha256(b"x")),
        lambda b, parent: dataclasses.replace(b, state_root=sha256(b"x")),
        lambda b, parent: dataclasses.replace(b, time=parent.time - 1.0),
        lambda b, parent: dataclasses.replace(b, txs=b.txs[::-1]),
    ], ids=["height", "tx_root", "state_root", "time_before_parent",
            "tx_order"])
    def test_tampered_field_detected(self, tamper):
        _, chain = self.build_chain()
        assert len(chain[2].txs) == 2     # tx_order swaps two attestations
        chain[2] = tamper(chain[2], chain[1])
        assert verify_chain(chain) == 2

    def test_persistence_roundtrip(self, tmp_path):
        s3, chain = self.build_chain()
        path = str(tmp_path / "chain.log")
        save_chain(path, chain)
        loaded = load_chain(path)
        assert [block_hash(b) for b in loaded] == [block_hash(b) for b in chain]
        assert verify_chain_file(path) is None

    def test_flipped_byte_on_disk_detected(self, tmp_path):
        _, chain = self.build_chain()
        path = str(tmp_path / "chain.log")
        save_chain(path, chain)
        raw = bytearray(open(path, "rb").read())
        # find block 3's record and flip a byte inside its body
        offset = len(raw) - 20
        raw[offset] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        bad = verify_chain_file(path)
        assert bad == 3

    def test_earlier_bad_block_reported_before_undecodable_record(
            self, tmp_path):
        _, chain = self.build_chain()
        chain[1] = dataclasses.replace(chain[1], state_root=sha256(b"x"))
        records = [BLOCK.encode(b) for b in chain]
        records[3] += b"\x00"     # trailing byte: record 3 fails to decode
        path = str(tmp_path / "chain.log")
        write_chain_log(path, records)
        assert verify_chain_file(path) == 1

    @pytest.mark.parametrize("bad_time", [math.nan, math.inf])
    def test_non_finite_block_time_on_disk_detected(self, tmp_path, bad_time):
        _, chain = self.build_chain()
        records = [BLOCK.encode(b) for b in chain]
        b2 = chain[2]
        # time follows height, three digests and the proposer string
        at = 8 + 3 * 32 + 4 + len(b2.proposer.encode("utf-8"))
        rec = bytearray(records[2])
        assert struct.unpack(">d", rec[at:at + 8])[0] == b2.time
        rec[at:at + 8] = struct.pack(">d", bad_time)
        records[2] = bytes(rec)
        path = str(tmp_path / "chain.log")
        write_chain_log(path, records)
        assert verify_chain_file(path) == 2


# Values a payload field may hold in a well-formed transaction, then the
# junk every field is also drawn from: wrong types, out-of-range numbers,
# and bools where an integer or a flag belongs.
_JUNK = (None, "", "x", b"\x00", -1, 2 ** 64, 1.5, math.nan, math.inf,
         True, False, ())


@functools.cache
def _field_values() -> dict:
    state, _, rec, site = fresh_chain()
    text = serialize_tdm(honest_tdm(rec, site))
    prop = ModelProposal(W_new=((0.01,) * 6,) * 3, proposer="val-a",
                         claimed_rms=0.5, parent_version=0)
    return {
        "nonce": (0,),
        "snapshot": (b"", encode_state(state)),
        "tdm_text": (text, "CCSDS_TDM_VERS = 2.0"),
        "task_id": (b"", bytes(32)),
        "target": ("SAT-1", "NOPE", IodRegion(
            elements=rec.elements, tol_a=2.0, tol_e=1e-3, tol_i=1e-3,
            tol_raan=1e-3)),
        "fee": (0, 5, 60),
        "urgency": (False, True),
        "origin": ("external", "internal"),
        "amount": (0, 5),
        "role": ("observer", "compute", "wizard"),
        "report": (ValidationReport(
            tdm_hash=parse_tdm(text).hex_hash(), verdict="verified",
            matched_object="SAT-1", rms_residual=1e-5,
            candidates_checked=1),),
        "proposal": (prop, dataclasses.replace(prop, parent_version=3)),
        "proposal_hash": (bytes(32), prop.proposal_hash),
        "vote": ("accept", "reject", "abstain"),
    }


# who may send each kind; validators send the rest
_SENDERS = {"submit_tdm": "alice", "register_stake": "alice",
            "post_task": "rita", "claim_reward": "rita"}


@st.composite
def _tx_cases(draw):
    """(kind, sender, nonce, payload fields): up to two of the fields,
    sender and nonce included, hold junk, the rest well-formed values."""
    kind = draw(st.sampled_from(TX_KINDS))
    values = {**_field_values(), "sender": (_SENDERS.get(kind, "val-a"),)}
    names = ["sender", "nonce", *(f.name for f in dataclasses.fields(
        ledger._PAYLOADS[kind][0]))]
    bad = draw(st.sets(st.sampled_from(names), max_size=2))
    got = {name: draw(st.sampled_from(_JUNK if name in bad
                                      else values[name]))
           for name in names}
    return kind, got.pop("sender"), got.pop("nonce"), got


class TestFuzzProperties:
    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(st.lists(_tx_cases(), min_size=1, max_size=3))
    @example([("register_stake", "alice", 0,
               {"amount": True, "role": "observer"})])
    @example([("register_stake", "alice", True,
               {"amount": 5, "role": "observer"})])
    @example([("post_task", "rita", 0, {"target": "SAT-1", "fee": 5,
                                        "urgency": "yes",
                                        "origin": "external"})])
    def test_malformed_payloads_refused_or_sealed(self, cases):
        """A transaction either refuses to be built, with LedgerError, or
        produce_block applies or excludes it; either way tokens are
        conserved and the sealed chain, written and read back, replays to
        the same state root."""
        state, gblock, _, _ = fresh_chain()
        built = []
        for kind, sender, nonce, fields in cases:
            payload = ledger._PAYLOADS[kind][0](**fields)
            try:
                built.append(Transaction(kind=kind, sender=sender,
                                         nonce=nonce, payload=payload))
            except LedgerError:
                continue
        s, block = produce_block(state, built, 1, time=30.0)
        assert all(any(t is b for b in built) for t in block.txs)
        assert conservation_delta(s) == 0
        check_derived_state(s)
        chain = [BLOCK.decode(BLOCK.encode(b)) for b in (gblock, block)]
        assert state_root(replay_state(chain)) == state_root(s)

    def test_no_negative_balances_and_conservation(self):
        """Random transactions go through ledger._apply on the live state,
        the path every block takes. An applied one conserves tokens; a
        rejected one must leave the state exactly as it was, because blocks
        exclude it without a copy."""
        state, _, rec, site = fresh_chain(alice_balance=2000)
        rng = random.Random(99)
        senders = ["alice", "rita", "val-a", "val-b", "val-c"]
        kinds = ["register_stake", "post_task", "submit_tdm", "claim_reward",
                 "attest_validation", "propose_model", "vote_model"]
        s = state
        applied = dict.fromkeys(kinds, 0)
        reports = {}    # tdm hash -> the honest report, computed once
        for k in range(400):
            if k % 100 == 99:   # two days pass: posted tasks expire
                s.time += 2 * 86400.0
                ledger._sweep_expired(s)
            sender = rng.choice(senders)
            kind = rng.choice(kinds)
            if kind == "attest_validation" and not (s.pending or reports):
                kind = "submit_tdm"
            good_nonce = s.accounts[sender].nonce
            nonce = good_nonce if rng.random() < 0.8 else rng.randrange(5)
            if kind == "register_stake":
                payload = RegisterStake(amount=rng.randrange(0, 40),
                                        role=rng.choice(list(("observer",
                                                              "compute",
                                                              "requester"))))
            elif kind == "post_task":
                payload = PostTask(target="SAT-1", fee=rng.randrange(0, 60),
                                   urgency=rng.random() < 0.5)
            elif kind == "submit_tdm":
                payload = SubmitTdm(
                    tdm_text=serialize_tdm(honest_tdm(rec, site, seed=k)))
            elif kind == "claim_reward":
                tid = (rng.choice(sorted(s.task_escrows)) if s.task_escrows
                       and rng.random() < 0.8 else bytes(32))
                payload = ClaimReward(task_id=tid)
            elif kind == "attest_validation":
                # mostly a pending TDM; else a settled one, now unknown
                h = rng.choice(sorted(s.pending) if s.pending
                               and rng.random() < 0.9 else sorted(reports))
                if h not in reports:
                    reports[h] = compute_attestation(s, h)
                payload = AttestValidation(reports[h])
            elif kind == "propose_model":
                W = tuple(tuple(rng.uniform(-0.01, 0.01) for _ in range(6))
                          for _ in range(3))
                parent = s.model.version + (rng.random() < 0.2)
                proposer = sender if rng.random() < 0.9 else "val-c"
                payload = ProposeModel(ModelProposal(
                    W_new=W, proposer=proposer, claimed_rms=0.5,
                    parent_version=parent))
            else:
                # votes gather on the oldest open proposal so some settle
                ph = (next(iter(s.model_proposals))
                      if s.model_proposals and rng.random() < 0.9
                      else bytes(32))
                payload = VoteModel(ph, rng.choice(("accept", "accept",
                                                    "reject", "abstain")))
            before = encode_state(s), state_root(s), set(s.seen_tdms)
            try:
                ledger._apply(s, Transaction(kind=kind, sender=sender,
                                             nonce=nonce, payload=payload))
            except TxRejected:
                # check-first: a rejected transaction must not mutate state
                assert (encode_state(s), state_root(s), s.seen_tdms) == before
                continue
            applied[kind] += 1
            assert conservation_delta(s) == 0
            check_derived_state(s)
            # a merge leaves no open proposal that could never be adopted
            assert all(ps.proposal.parent_version == s.model.version
                       for ps in s.model_proposals.values())
            for a in s.accounts.values():
                assert a.balance >= 0 and a.staked >= 0
        # the generator is not vacuous: every kind applies, TDMs settle and
        # a model proposal merges
        assert sum(applied.values()) > 50
        assert all(applied.values()), applied
        assert s.settlements and s.model.version >= 1
