import math
import os
import random
import subprocess
import sys

import pytest

from conftest import leo_record, site_under
import sdachain
from sdachain.astro import Epoch
from sdachain.dit import (
    DitError,
    DitScore,
    default_window,
    dit_leaderboard,
    dit_score,
    leaderboard_csv,
    leaderboard_json,
)
from sdachain.ledger import (
    Account,
    AttestValidation,
    EconomicsParams,
    SettlementRecord,
    Transaction,
    SubmitTdm,
    apply_transaction,
    compute_attestation,
    make_genesis,
    produce_block,
    save_chain,
)
from sdachain.tdm import serialize_tdm, synth_tdm
from sdachain.validation import ValidationParams

DAY = 86400.0
WINDOW = (Epoch(0.0), Epoch(30.0 * DAY))


def bare_state(object_ids=("SAT-1",)):
    """Genesis whose settlement history the tests fill in by hand."""
    rng = random.Random(5)
    recs = [leo_record(rng, oid) for oid in object_ids]
    site = site_under(recs[0], Epoch(700.0), site_id="S1")
    accounts = [Account("v", balance=0, staked=10, roles={"compute"})]
    state, _ = make_genesis(accounts, recs, [site], EconomicsParams(),
                            ValidationParams(), time=0.0)
    return state


def settle(state, object_id, *, t, site="S1", rms=0.0, verdict="verified",
           n=0):
    state.settlements.append(SettlementRecord(
        height=state.height, tdm_hash=f"{n:064x}", verdict=verdict,
        object_id=object_id, site_id=site, submitter="alice", rms=rms,
        first_epoch_t=t))


class TestFormulas:
    def test_full_saturation(self):
        # 30 tracks, 3 sites, one track per day, perfect residuals
        state = bare_state()
        for k in range(30):
            settle(state, "SAT-1", t=k * DAY + 1000.0,
                   site=f"S{k % 3}", rms=0.0, n=k)
        s = dit_score("SAT-1", state, WINDOW)
        assert s.detectability == 1.0
        assert s.trackability == 1.0
        assert s.identifiability == 1.0
        assert s.composite == 1.0

    def test_empty_history_scores_zero(self):
        state = bare_state()
        s = dit_score("SAT-1", state, WINDOW)
        assert (s.detectability, s.trackability, s.identifiability) == \
            (0.0, 0.0, 0.0)
        assert s.composite == 0.0

    def test_partial_formula_values(self):
        # 10 tracks, single site, 5 distinct days, median rms at half
        # the verification threshold
        state = bare_state()
        theta = state.vparams.theta_verify
        for k in range(10):
            settle(state, "SAT-1", t=(k % 5) * DAY + 1000.0 + k,
                   rms=theta / 2.0, n=k)
        s = dit_score("SAT-1", state, WINDOW)
        assert s.detectability == min(1.0, 10 / 10) * min(1.0, 1 / 3)
        assert s.trackability == 5 / 30
        assert s.identifiability == 0.5
        assert s.composite == (1 / 3 + 5 / 30 + 0.5) / 3.0

    def test_rejected_tracks_do_not_count(self):
        state = bare_state()
        for k in range(20):
            settle(state, "SAT-1", t=k * DAY + 500.0, verdict="rejected", n=k)
        s = dit_score("SAT-1", state, WINDOW)
        assert s.composite == 0.0

    def test_window_excludes_outside_tracks(self):
        state = bare_state()
        settle(state, "SAT-1", t=-5.0, n=0)
        settle(state, "SAT-1", t=30.0 * DAY + 5.0, n=1)
        settle(state, "SAT-1", t=15.0 * DAY, n=2)
        s = dit_score("SAT-1", state, WINDOW)
        assert s.detectability == (1 / 10) * (1 / 3)
        assert s.trackability == 1 / 30

    def test_identifiability_clamps_to_zero(self):
        state = bare_state()
        settle(state, "SAT-1", t=1000.0,
               rms=state.vparams.theta_verify * 3.0, n=0)
        s = dit_score("SAT-1", state, WINDOW)
        assert s.identifiability == 0.0

    def test_median_is_robust_to_one_outlier(self):
        state = bare_state()
        theta = state.vparams.theta_verify
        for k, rms in enumerate([theta / 10, theta / 10, theta * 5]):
            settle(state, "SAT-1", t=1000.0 + k, rms=rms, n=k)
        s = dit_score("SAT-1", state, WINDOW)
        assert s.identifiability == 1.0 - (theta / 10) / theta

    def test_monotonic_in_verified_tracks(self):
        state = bare_state()
        prev = dit_score("SAT-1", state, WINDOW)
        for k in range(40):
            settle(state, "SAT-1", t=(k % 31) * DAY + 2000.0,
                   site=f"S{k % 4}", rms=1e-5, n=k)
            cur = dit_score("SAT-1", state, WINDOW)
            assert cur.detectability >= prev.detectability
            assert cur.trackability >= prev.trackability
            prev = cur

    def test_other_objects_do_not_leak(self):
        state = bare_state(("SAT-1", "SAT-2"))
        settle(state, "SAT-2", t=1000.0, n=0)
        s = dit_score("SAT-1", state, WINDOW)
        assert s.composite == 0.0


class TestApi:
    def test_unknown_object_raises(self):
        state = bare_state()
        with pytest.raises(DitError):
            dit_score("NOPE", state, WINDOW)

    def test_bad_windows_raise(self):
        state = bare_state()
        with pytest.raises(DitError):
            dit_score("SAT-1", state, (Epoch(10.0), Epoch(10.0)))
        with pytest.raises(DitError):
            dit_score("SAT-1", state, (0.0, 86400.0))
        with pytest.raises(DitError):
            dit_score("SAT-1", state, (Epoch(0.0),))

    def test_default_window_trails_chain_clock(self):
        state = bare_state()
        state.time = 100.0 * DAY
        lo, hi = default_window(state)
        assert hi.t == 100.0 * DAY
        assert lo.t == 70.0 * DAY
        settle(state, "SAT-1", t=80.0 * DAY, n=0)
        settle(state, "SAT-1", t=50.0 * DAY, n=1)    # before the window
        s = dit_score("SAT-1", state)
        assert s.trackability == 1 / 30

    def test_score_range_enforced(self):
        with pytest.raises(DitError):
            DitScore(object_id="X", detectability=1.5, trackability=0.0,
                     identifiability=0.0, composite=0.5,
                     window=(Epoch(0.0), Epoch(1.0)), as_of_block=0)


class TestLeaderboard:
    def ranked_state(self):
        state = bare_state(("ALPHA", "BRAVO", "CHARLIE"))
        for k in range(12):
            settle(state, "BRAVO", t=(k % 6) * DAY + 100.0, site=f"S{k % 3}",
                   rms=1e-5, n=k)
        settle(state, "ALPHA", t=100.0, rms=1e-4, n=100)
        return state

    def test_sorted_by_composite_then_id(self):
        state = self.ranked_state()
        board = dit_leaderboard(state, WINDOW)
        assert [s.object_id for s in board] == ["BRAVO", "ALPHA", "CHARLIE"]
        assert board[0].composite > board[1].composite

    def test_ties_break_by_object_id(self):
        state = bare_state(("ZULU", "ECHO", "MIKE"))
        board = dit_leaderboard(state, WINDOW)
        assert [s.object_id for s in board] == ["ECHO", "MIKE", "ZULU"]

    def test_csv_shape_and_exact_zero_row(self):
        state = bare_state(("ONLY",))
        text = leaderboard_csv(dit_leaderboard(state, WINDOW))
        lines = text.splitlines()
        assert lines[0] == "object_id,D,T,I,composite,as_of_block"
        assert lines[1] == "ONLY,0.0,0.0,0.0,0.0,0"
        assert text.endswith("\n")

    def test_csv_deterministic_for_same_state(self):
        state = self.ranked_state()
        a = leaderboard_csv(dit_leaderboard(state, WINDOW))
        b = leaderboard_csv(dit_leaderboard(state, WINDOW))
        assert a == b

    def test_json_parses_and_matches(self):
        import json
        state = self.ranked_state()
        board = dit_leaderboard(state, WINDOW)
        rows = json.loads(leaderboard_json(board))
        assert [r["object_id"] for r in rows] == [s.object_id for s in board]
        assert rows[0]["composite"] == board[0].composite


class TestOnChain:
    def settled_chain_dir(self, tmp_path):
        """Drive a real submit/attest/settle flow and persist the chain."""
        rec = leo_record(random.Random(5), "SAT-1")
        site = site_under(rec, Epoch(700.0), site_id="S1")
        accounts = [
            Account("alice", balance=100, roles={"observer"}),
            Account("val-a", balance=0, staked=40, roles={"compute"}),
            Account("val-b", balance=0, staked=40, roles={"compute"}),
        ]
        state, g = make_genesis(accounts, [rec], [site], EconomicsParams(),
                                ValidationParams(), time=0.0)
        tdm = synth_tdm(rec, site, [Epoch(600.0 + 30 * k) for k in range(8)],
                        1e-5, 3)
        sub = Transaction(kind="submit_tdm", sender="alice", nonce=0,
                          payload=SubmitTdm(tdm_text=serialize_tdm(tdm)))
        s1, b1 = produce_block(state, [sub], 1, time=30.0)
        rep = compute_attestation(s1, tdm.hex_hash())
        attests = [Transaction(kind="attest_validation", sender=v, nonce=0,
                               payload=AttestValidation(rep))
                   for v in ("val-a", "val-b")]
        s2, b2 = produce_block(s1, attests, 2, time=60.0)
        s3, b3 = produce_block(s2, [], 3, time=DAY)
        path = str(tmp_path / "chain.log")
        save_chain(path, [g, b1, b2, b3])
        return path, s3

    def test_settled_history_scores(self, tmp_path):
        _, state = self.settled_chain_dir(tmp_path)
        s = dit_score("SAT-1", state)    # default window ends at t=86400
        assert s.detectability == (1 / 10) * (1 / 3)
        assert s.trackability == 1 / 30
        assert s.identifiability > 0.9
        assert s.as_of_block == 3

    def test_recompute_across_processes_is_byte_identical(self, tmp_path):
        path, _ = self.settled_chain_dir(tmp_path)
        # the child imports the package this process imported
        src = os.path.dirname(os.path.dirname(sdachain.__file__))
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from sdachain.ledger import load_chain, replay_state\n"
            "from sdachain.dit import dit_leaderboard, leaderboard_csv\n"
            f"state = replay_state(load_chain({path!r}))\n"
            "sys.stdout.write(leaderboard_csv(dit_leaderboard(state)))\n")
        outs = [subprocess.run([sys.executable, "-c", script],
                               capture_output=True, check=True).stdout
                for _ in range(2)]
        assert outs[0] == outs[1]
        assert outs[0].startswith(b"object_id,")
        assert b"SAT-1" in outs[0]
