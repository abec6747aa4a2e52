"""Proof-of-stake state machine: accounts, transactions, blocks, economics.

The ledger is a synchronous-round, single-proposer chain without forks:
consensus attacks are out of scope, which keeps the verdict economics
(escrow, slashing, quorum settlement) exactly testable. All token
arithmetic is integer-only, with fractional parameters held as exact
rationals, so conservation is an assertable identity rather than a
tolerance. Blocks serialize to a documented big-endian binary layout;
every digest is SHA-256 of canonical bytes, and replaying a persisted
chain from its genesis snapshot reproduces each state root bit for bit.

Settlement happens inside the ``_apply`` of the attestation that brings
a TDM to the stake quorum on an identical (verdict, report hash) pair:
verified tracks return their escrow and collect task fees, rejected
tracks burn their escrow, unresolved tracks join the UCT pool and spawn
internal follow-up tasks, and pool tracks that associate are mined into
the catalog for a minted reward. The mined orbit is the one the quorum's
report carries: settlement applies it and fits nothing.
"""

import copy
import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import NamedTuple, Optional

from .astro import (
    AstroError,
    Epoch,
    GroundSite,
    KeplerianElements,
    propagate_j2,
    state_to_kepler,
)
from .errors import SdaError
from .fedprop import (
    MODEL,
    PROPOSAL,
    ModelProposal,
    ResidualModel,
    merge_model,
)
from .tasking import (
    TARGET,
    TASK,
    Task,
    internal_retask,
    is_expired,
    task_identity,
)
from .tdm import Tdm, TdmError, parse_tdm
from .validation import (
    ELEMENTS,
    ORBIT,
    REPORT,
    VALIDATION_PARAMS,
    ValidationParams,
    ValidationReport,
    associate_uct,
    mine_object,
    validate_tdm,
)
from .wire import (
    BLOB,
    BOOL,
    DIGEST,
    F64,
    FRACTION,
    STRING,
    U64,
    U8,
    WireError,
    ZERO_DIGEST,
    optional,
    read_chain_log,
    record,
    seq,
    sha256,
    sorted_map,
    sorted_set,
    union,
    wrapped,
    write_chain_log,
)

ROLES = ("observer", "compute", "requester")

STATE_HEADER = b"SDASTATE\x04"     # magic, then the version byte


class LedgerError(SdaError):
    """Raised for structural ledger failures (bad genesis, bad round)."""


class TxRejected(LedgerError):
    """A transaction that cannot apply; the state is left untouched."""


def _check_fraction(name: str, v) -> Fraction:
    # floats are refused: 0.1 is not 1/10 in binary, and token math must
    # be exact
    if isinstance(v, float):
        raise LedgerError(f"{name} must be an int or Fraction, not float")
    return Fraction(v)


@dataclass(frozen=True)
class EconomicsParams:
    """Genesis-configured token economics."""

    observer_stake_min: int = 10
    slash_fraction: Fraction = Fraction(1)
    validator_fee_cut: Fraction = Fraction(1, 10)
    r_mint: int = 50
    r_model: int = 20
    block_subsidy: int = 1
    attestation_quorum: Fraction = Fraction(2, 3)

    def __post_init__(self):
        for name in ("observer_stake_min", "r_mint", "r_model",
                     "block_subsidy"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise LedgerError(f"{name} must be a nonnegative integer")
        object.__setattr__(self, "slash_fraction",
                           _check_fraction("slash_fraction", self.slash_fraction))
        object.__setattr__(self, "validator_fee_cut",
                           _check_fraction("validator_fee_cut",
                                           self.validator_fee_cut))
        object.__setattr__(self, "attestation_quorum",
                           _check_fraction("attestation_quorum",
                                           self.attestation_quorum))
        if not 0 <= self.slash_fraction <= 1:
            raise LedgerError("slash_fraction must lie in [0, 1]")
        if not 0 <= self.validator_fee_cut <= 1:
            raise LedgerError("validator_fee_cut must lie in [0, 1]")
        if not Fraction(1, 2) < self.attestation_quorum <= 1:
            raise LedgerError("attestation_quorum must lie in (1/2, 1]")
        try:
            ECONOMICS_PARAMS.encode(self)   # every value fits its u64s
        except WireError as e:
            raise LedgerError(f"economics parameters do not fit their "
                              f"layout: {e}") from None


ECONOMICS_PARAMS = record(
    EconomicsParams, ("observer_stake_min", U64), ("slash_fraction", FRACTION),
    ("validator_fee_cut", FRACTION), ("attestation_quorum", FRACTION),
    ("r_mint", U64), ("r_model", U64), ("block_subsidy", U64))


@dataclass
class Account:
    account_id: str
    balance: int = 0
    staked: int = 0
    roles: set = field(default_factory=set)
    nonce: int = 0          # the nonce of the account's next transaction

    def __post_init__(self):
        if not self.account_id:
            raise LedgerError("account_id must be nonempty")
        for name in ("balance", "staked", "nonce"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise LedgerError(f"{name} must be a nonnegative integer")
        bad = set(self.roles) - set(ROLES)
        if bad:
            raise LedgerError(f"unknown roles {sorted(bad)}")
        self.roles = set(self.roles)


# -- transaction payloads ---------------------------------------------------

@dataclass(frozen=True)
class GenesisPayload:
    snapshot: bytes     # canonical state encoding


@dataclass(frozen=True)
class SubmitTdm:
    tdm_text: str
    task_id: bytes = b""    # empty for unsolicited submissions


@dataclass(frozen=True)
class PostTask:
    target: object          # object_id str | IodRegion
    fee: int
    urgency: bool = False
    origin: str = "external"


@dataclass(frozen=True)
class RegisterStake:
    amount: int
    role: str


@dataclass(frozen=True)
class AttestValidation:
    report: ValidationReport


@dataclass(frozen=True)
class ProposeModel:
    proposal: ModelProposal


@dataclass(frozen=True)
class VoteModel:
    proposal_hash: bytes
    vote: str               # accept | reject


@dataclass(frozen=True)
class ClaimReward:
    task_id: bytes


# tx kind -> payload type and its fields in wire order; the order of the
# kinds is their wire tag
_PAYLOADS = {
    "genesis": (GenesisPayload, ("snapshot", BLOB)),
    "submit_tdm": (SubmitTdm, ("tdm_text", STRING), ("task_id", BLOB)),
    "post_task": (PostTask, ("target", TARGET), ("fee", U64),
                  ("urgency", BOOL), ("origin", STRING)),
    "register_stake": (RegisterStake, ("amount", U64), ("role", STRING)),
    "attest_validation": (AttestValidation, ("report", wrapped(REPORT))),
    "propose_model": (ProposeModel, ("proposal", wrapped(PROPOSAL))),
    "vote_model": (VoteModel, ("proposal_hash", DIGEST), ("vote", STRING)),
    "claim_reward": (ClaimReward, ("task_id", DIGEST)),
}
TX_KINDS = tuple(_PAYLOADS)


@dataclass(frozen=True)
class Transaction:
    kind: str
    sender: str
    nonce: int
    payload: object

    def __post_init__(self):
        if self.kind not in TX_KINDS:
            raise LedgerError(f"unknown tx kind {self.kind!r}")
        if not isinstance(self.payload, _PAYLOADS[self.kind][0]):
            raise LedgerError(f"payload type mismatch for {self.kind}")
        # every field fits its layout, or there is no transaction; the
        # record keeps the bytes, so hashing it later encodes nothing
        try:
            TRANSACTION.encode(self)
        except WireError as e:
            raise LedgerError(f"{self.kind} transaction of sender "
                              f"{self.sender!r}, nonce {self.nonce!r} does "
                              f"not fit its layout: {e}") from None


# u8 kind tag, sender, nonce, then the kind's payload
TRANSACTION = union(
    lambda tx: TX_KINDS.index(tx.kind),
    *(record(partial(Transaction, kind), ("sender", STRING), ("nonce", U64),
             ("payload", record(cls, *fields)))
      for kind, (cls, *fields) in _PAYLOADS.items()))


def tx_hash(tx: Transaction) -> bytes:
    return sha256(TRANSACTION.encode(tx))


# -- blocks -----------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    tx_root: bytes
    state_root: bytes
    proposer: str
    time: float
    txs: tuple

    def __post_init__(self):
        if self.height < 0:
            raise LedgerError("height must be nonnegative")
        for name in ("prev_hash", "tx_root", "state_root"):
            if len(getattr(self, name)) != 32:
                raise LedgerError(f"{name} must be a 32-byte digest")
        if not math.isfinite(self.time):
            raise LedgerError("block time must be finite")


# a block's transactions: a u32 count, then one blob per transaction
TXS = seq(wrapped(TRANSACTION))


def compute_tx_root(txs) -> bytes:
    """SHA-256 of the block's ``txs`` field."""
    return sha256(TXS.encode(txs))


BLOCK = record(Block, ("height", U64), ("prev_hash", DIGEST),
               ("tx_root", DIGEST), ("state_root", DIGEST),
               ("proposer", STRING), ("time", F64), ("txs", TXS))


def block_hash(b: Block) -> bytes:
    return sha256(BLOCK.encode(b))


# -- state ------------------------------------------------------------------

@dataclass
class PendingTdm:
    """A submitted track awaiting attestation quorum."""

    tdm: Tdm
    submitter: str
    escrow: int
    task_id: bytes = b""
    attestations: dict = field(default_factory=dict)    # attester -> report


@dataclass
class PoolEntry:
    """An uncorrelated track parked until association mines it.

    elements is the settled uct report's proposed_elements, the track's
    own fit; attestations associate against it without re-fitting.
    """

    tdm: Tdm
    submitter: str
    elements: Optional[KeplerianElements]


@dataclass
class ProposalState:
    proposal: ModelProposal
    votes: dict = field(default_factory=dict)           # voter -> vote


class Escrow(NamedTuple):
    """A posted task's fee, held until it is paid out or reclaimed."""

    amount: int
    requester: str


@dataclass(frozen=True)
class SettlementRecord:
    """One quorum outcome, kept in state for sustainability scoring."""

    height: int
    tdm_hash: str
    verdict: str
    object_id: str          # matched or mined id, "" when none
    site_id: str
    submitter: str
    rms: float
    first_epoch_t: float


@dataclass
class LedgerState:
    params: EconomicsParams
    vparams: ValidationParams
    accounts: dict = field(default_factory=dict)
    catalog: dict = field(default_factory=dict)
    sites: dict = field(default_factory=dict)
    tasks: dict = field(default_factory=dict)           # open ones only
    task_escrows: dict = field(default_factory=dict)    # task_id -> Escrow
    pending: dict = field(default_factory=dict)         # tdm_hash -> PendingTdm
    uct_pool: dict = field(default_factory=dict)        # tdm_hash -> PoolEntry
    model: ResidualModel = field(default_factory=ResidualModel)
    model_proposals: dict = field(default_factory=dict)
    settlements: list = field(default_factory=list)
    # Derived, never encoded; decode_state rebuilds both. seen_tdms is
    # every pending or settled TDM hash, the index of the duplicate check;
    # settlement_chain folds each settlement in once, as it is appended.
    seen_tdms: set = field(default_factory=set)
    settlement_chain: bytes = ZERO_DIGEST
    burned: int = 0
    minted: int = 0
    genesis_supply: int = 0
    time: float = 0.0
    height: int = 0         # next block height
    last_hash: bytes = ZERO_DIGEST

    @property
    def settlement_count(self) -> int:
        return len(self.settlements)

    def clone(self) -> "LedgerState":
        return copy.deepcopy(self)

    def account(self, account_id: str) -> Account:
        acct = self.accounts.get(account_id)
        if acct is None:
            raise TxRejected(f"unknown account {account_id!r}")
        return acct


def _is_validator(acct: Account) -> bool:
    """Staked compute accounts attest, propose, vote and enter the lottery."""
    return "compute" in acct.roles and acct.staked > 0


def compute_stakes(state: LedgerState) -> dict:
    """Stake weights of accounts eligible for validation and the lottery."""
    return {a.account_id: a.staked for a in state.accounts.values()
            if _is_validator(a)}


def _reaches_quorum(state: LedgerState, stakes: dict, voters) -> bool:
    """True when voters hold at least the attestation quorum of all stake."""
    total = sum(stakes.values())
    weight = sum(stakes.get(a, 0) for a in voters)
    q = state.params.attestation_quorum
    return total > 0 and weight * q.denominator >= total * q.numerator


def conservation_delta(state: LedgerState) -> int:
    """Zero iff tokens are conserved: holdings + escrows + burned - minted
    must equal the genesis supply exactly."""
    held = sum(a.balance + a.staked for a in state.accounts.values())
    escrowed = sum(amount for amount, _ in state.task_escrows.values())
    escrowed += sum(p.escrow for p in state.pending.values())
    return held + escrowed + state.burned - state.minted - state.genesis_supply


ACCOUNT = record(Account, ("account_id", STRING), ("nonce", U64),
                 ("balance", U64), ("staked", U64),
                 ("roles", sorted_set(STRING, count=U8)))
SITE = record(GroundSite, ("site_id", STRING), ("lat", F64), ("lon", F64),
              ("alt", F64))
ESCROW = record(Escrow, ("amount", U64), ("requester", STRING))
# a held Tdm is written as its canonical text, and parsed once on read
TDM = record(parse_tdm, ("text", STRING))
PENDING = record(PendingTdm, ("tdm", TDM), ("submitter", STRING),
                 ("escrow", U64), ("task_id", BLOB),
                 ("attestations", sorted_map(wrapped(REPORT), key=STRING)))
POOL_ENTRY = record(PoolEntry, ("tdm", TDM), ("submitter", STRING),
                    ("elements", optional(ELEMENTS)))
PROPOSAL_STATE = record(ProposalState, ("proposal", wrapped(PROPOSAL)),
                        ("votes", sorted_map(STRING, key=STRING)))
SETTLEMENT = record(SettlementRecord, ("height", U64), ("tdm_hash", STRING),
                    ("verdict", STRING), ("object_id", STRING),
                    ("site_id", STRING), ("submitter", STRING),
                    ("rms", F64), ("first_epoch_t", F64))


def _held_tdm_hash(entry) -> str:
    """The key of a pending or pooled TDM: its own hash."""
    return entry.tdm.hex_hash()


# The sections of the state, shared by its snapshot and its root. The
# chain position (height, last_hash) is recoverable from the blocks and
# stays out of both.
_SECTIONS = (
    ("params", wrapped(ECONOMICS_PARAMS)),
    ("vparams", wrapped(VALIDATION_PARAMS)),
    ("time", F64),
    ("burned", U64), ("minted", U64), ("genesis_supply", U64),
    ("accounts", sorted_map(ACCOUNT, key_of=attrgetter("account_id"))),
    ("sites", sorted_map(SITE, key_of=attrgetter("site_id"))),
    ("catalog", sorted_map(ORBIT, key_of=attrgetter("object_id"))),
    ("tasks", sorted_map(TASK, key_of=attrgetter("task_id"))),
    ("task_escrows", sorted_map(ESCROW, key=DIGEST)),
    ("pending", sorted_map(PENDING, key_of=_held_tdm_hash)),
    ("uct_pool", sorted_map(POOL_ENTRY, key_of=_held_tdm_hash)),
    ("model", MODEL),
    ("model_proposals", sorted_map(
        PROPOSAL_STATE, key_of=attrgetter("proposal.proposal_hash"))))

# The snapshot after STATE_HEADER: the sections, then every settlement.
STATE = record(LedgerState, *_SECTIONS,
               ("settlements", seq(SETTLEMENT, make=list)))

# The root preimage after STATE_HEADER: the sections, then the settlement
# count and chain, which commit to every settlement in fixed size. It is
# only written, for state_root to hash.
STATE_ROOT = record(LedgerState, *_SECTIONS, ("settlement_count", U64),
                    ("settlement_chain", DIGEST))


def _chain_settlement(chain: bytes, rec: SettlementRecord) -> bytes:
    """The settlement chain once rec is appended."""
    return sha256(chain + SETTLEMENT.encode(rec))


def encode_state(state: LedgerState) -> bytes:
    """Canonical state snapshot: STATE_HEADER, then STATE."""
    return STATE_HEADER + STATE.encode(state)


def decode_state(raw: bytes) -> LedgerState:
    """The state of a snapshot, with its seen-TDM index and settlement
    chain rebuilt from the pending TDMs and the settlements."""
    if raw[:len(STATE_HEADER)] != STATE_HEADER:
        raise WireError("bad state magic or version")
    state = STATE.decode(raw[len(STATE_HEADER):])
    state.seen_tdms.update(state.pending)
    for rec in state.settlements:
        state.seen_tdms.add(rec.tdm_hash)
        state.settlement_chain = _chain_settlement(state.settlement_chain,
                                                   rec)
    return state


def state_root(state: LedgerState) -> bytes:
    """SHA-256 of STATE_HEADER, then STATE_ROOT."""
    return sha256(STATE_HEADER + STATE_ROOT.encode(state))


# -- genesis ----------------------------------------------------------------

def make_genesis(accounts: list, catalog: list, sites: list,
                 params: EconomicsParams, vparams: ValidationParams, *,
                 time: float = 0.0) -> tuple:
    """Initial state plus block 0, whose single pseudo-transaction carries
    the canonical state snapshot every replay starts from."""
    state = LedgerState(params=params, vparams=vparams, time=time)
    for a in accounts:
        if a.account_id in state.accounts:
            raise LedgerError(f"duplicate account {a.account_id!r}")
        state.accounts[a.account_id] = copy.deepcopy(a)
    for rec in catalog:
        if rec.object_id in state.catalog:
            raise LedgerError(f"duplicate object {rec.object_id!r}")
        state.catalog[rec.object_id] = rec
    for site in sites:
        if site.site_id in state.sites:
            raise LedgerError(f"duplicate site {site.site_id!r}")
        state.sites[site.site_id] = site
    state.genesis_supply = sum(a.balance + a.staked
                               for a in state.accounts.values())
    gen_tx = Transaction(kind="genesis", sender="", nonce=0,
                         payload=GenesisPayload(snapshot=encode_state(state)))
    block = Block(height=0, prev_hash=ZERO_DIGEST,
                  tx_root=compute_tx_root([gen_tx]),
                  state_root=state_root(state), proposer="", time=time,
                  txs=(gen_tx,))
    state.height = 1
    state.last_hash = block_hash(block)
    return state, block


# -- validator lottery ------------------------------------------------------

def select_validator(prev_hash: bytes, round_no: int, stakes: dict) -> str:
    """Stake-weighted deterministic lottery.

    The winning ticket is SHA-256(prev_hash || round as 8-byte big endian)
    reduced mod total stake; accounts own contiguous ticket intervals in
    lexicographic id order.
    """
    total = sum(stakes.values())
    if total <= 0:
        raise LedgerError("no staked validators for this round")
    seed = sha256(prev_hash + round_no.to_bytes(8, "big"))
    ticket = int.from_bytes(seed, "big") % total
    acc = 0
    for aid in sorted(stakes):
        acc += stakes[aid]
        if ticket < acc:
            return aid
    raise AssertionError("unreachable: ticket below total stake")


# -- transaction application ------------------------------------------------

def _distribute(pot: int, weights: dict) -> dict:
    """Integer pro-rata split of pot by weights; remainder goes one token
    at a time to the lexicographically first recipients."""
    total = sum(weights.values())
    if pot <= 0 or total <= 0:
        return {}
    out = {}
    handed = 0
    for aid in sorted(weights):
        share = pot * weights[aid] // total
        out[aid] = share
        handed += share
    for aid in sorted(weights):
        if handed >= pot:
            break
        out[aid] += 1
        handed += 1
    return out


def _frac_mul(amount: int, f: Fraction) -> int:
    return amount * f.numerator // f.denominator


def _spawn_retask(state: LedgerState, report: ValidationReport) -> None:
    # internal tasks are subsidy-funded at payout; nothing escrows here
    task = internal_retask(report, Epoch(state.time))
    if task is not None and task.task_id not in state.tasks:
        state.tasks[task.task_id] = task


def _pay_task(state: LedgerState, pend: PendingTdm, attesters: list) -> None:
    """Fee payout when a tracked task is serviced: the validator cut is
    split pro rata by stake, the rest goes to the submitting observer. A
    paid task leaves the state; one already paid or expired pays nothing."""
    task = state.tasks.pop(pend.task_id, None)
    if task is None:
        return
    if task.origin == "internal":
        fee = task.fee
        state.minted += fee     # subsidy-funded
    else:
        fee, _ = state.task_escrows.pop(task.task_id, (0, ""))
    cut = _frac_mul(fee, state.params.validator_fee_cut)
    weights = {aid: state.accounts[aid].staked for aid in attesters
               if aid in state.accounts}
    for aid, share in _distribute(cut, weights).items():
        state.accounts[aid].balance += share
    state.account(pend.submitter).balance += fee - cut


def _settle(state: LedgerState, tdm_hash_hex: str, report: ValidationReport,
            attesters: list) -> None:
    pend = state.pending.pop(tdm_hash_hex)
    submitter = state.account(pend.submitter)
    tdm = pend.tdm
    verdict = report.verdict
    object_id = report.matched_object or ""

    if verdict == "rejected":
        slash = _frac_mul(pend.escrow, state.params.slash_fraction)
        state.burned += slash
        submitter.balance += pend.escrow - slash
    else:
        submitter.balance += pend.escrow

    if verdict == "verified":
        if pend.task_id:
            _pay_task(state, pend, attesters)
        rec = state.catalog.get(report.matched_object)
        t_last = tdm.records[-1].epoch
        if rec is not None and t_last.t > rec.elements.epoch.t:
            # refresh the catalog epoch so task priorities age correctly;
            # a record that cannot be carried to t_last stays as it is
            try:
                sv = propagate_j2(rec.elements, rec.bstar, t_last)
                state.catalog[rec.object_id] = dataclasses.replace(
                    rec, elements=state_to_kepler(sv))
            except AstroError:
                pass
    elif verdict == "ambiguous":
        _spawn_retask(state, report)
    elif verdict == "uct":
        mined = report.mined
        if (mined is not None and mined.object_id not in state.catalog
                and all(h in state.uct_pool for h in report.uct_matches)):
            # the report, which the block keeps, holds the grids built on
            # its own elements; the catalog entry gets elements of its own
            state.catalog[mined.object_id] = dataclasses.replace(
                mined, elements=dataclasses.replace(mined.elements))
            object_id = mined.object_id
            contributors = {pend.submitter}
            contributors.update(state.uct_pool[h].submitter
                                for h in report.uct_matches)
            weights = {aid: 1 for aid in contributors}
            state.minted += state.params.r_mint
            for aid, share in _distribute(state.params.r_mint,
                                          weights).items():
                state.account(aid).balance += share
            for h in report.uct_matches:
                del state.uct_pool[h]
            if pend.task_id:
                _pay_task(state, pend, attesters)
        else:
            state.uct_pool[tdm_hash_hex] = PoolEntry(
                tdm=tdm, submitter=pend.submitter,
                elements=report.proposed_elements)
            _spawn_retask(state, report)

    rec = SettlementRecord(
        height=state.height, tdm_hash=tdm_hash_hex, verdict=verdict,
        object_id=object_id, site_id=tdm.meta.site_id,
        submitter=pend.submitter, rms=report.rms_residual,
        first_epoch_t=tdm.records[0].epoch.t)
    state.settlements.append(rec)
    state.settlement_chain = _chain_settlement(state.settlement_chain, rec)


def _check_quorum(state: LedgerState, tdm_hash_hex: str) -> None:
    pend = state.pending[tdm_hash_hex]
    stakes = compute_stakes(state)
    groups = {}
    for attester, report in pend.attestations.items():
        key = (report.verdict, report.report_hash)
        groups.setdefault(key, []).append(attester)
    for key in sorted(groups):
        attesters = sorted(groups[key])
        if _reaches_quorum(state, stakes, attesters):
            _settle(state, tdm_hash_hex, pend.attestations[attesters[0]],
                    attesters)
            return


def _settle_proposal(state: LedgerState, proposal_hash: bytes) -> None:
    ps = state.model_proposals[proposal_hash]
    stakes = compute_stakes(state)
    for choice in ("accept", "reject"):
        voters = [v for v, vote in ps.votes.items() if vote == choice]
        if not _reaches_quorum(state, stakes, voters):
            continue
        del state.model_proposals[proposal_hash]
        if choice == "accept":
            # a decoded snapshot may hold a stale winner: it is discarded
            # without reward
            if ps.proposal.parent_version == state.model.version:
                state.model = merge_model(state.model, ps.proposal)
                # every other open proposal names the old version, which
                # propose_model no longer admits: none can be adopted
                state.model_proposals.clear()
                proposer = state.accounts.get(ps.proposal.proposer)
                if proposer is not None:
                    state.minted += state.params.r_model
                    proposer.balance += state.params.r_model
        return


def compute_attestation(state: LedgerState,
                        tdm_hash_hex: str) -> ValidationReport:
    """The report an honest validator attests to for a pending TDM.

    Runs the deterministic validation pipeline against the current
    catalog and, for uncorrelated tracks, associates against the on-chain
    UCT pool. Pool entries carry the fit their own settled report
    proposed, so the new track is the one track fitted alone. When pool
    tracks match, the report also carries the orbit mine_object fits to
    them and the new track (None when that fit fails), so the quorum
    agrees on it and settlement applies it without fitting. Every honest
    node holding the same state produces the identical report.
    """
    pend = state.pending.get(tdm_hash_hex)
    if pend is None:
        raise LedgerError(f"no pending TDM {tdm_hash_hex[:12]}")
    catalog = [state.catalog[k] for k in sorted(state.catalog)]
    report = validate_tdm(pend.tdm, catalog, state.sites, state.vparams,
                          state.model)
    if report.verdict != "uct" or not state.uct_pool:
        return report
    pool = [(h, e.elements) for h, e in sorted(state.uct_pool.items())
            if e.elements is not None]
    matches = tuple(h for h, _ in associate_uct(report.proposed_elements,
                                                pool, state.vparams))
    if not matches:
        return report
    mined = mine_object([state.uct_pool[h].tdm for h in matches] + [pend.tdm],
                        state.sites, state.vparams)
    return dataclasses.replace(report, uct_matches=matches, mined=mined)


def _apply(state: LedgerState, tx: Transaction) -> None:
    """Mutating apply with check-first discipline: TxRejected may only be
    raised before the first state mutation."""
    if tx.kind == "genesis":
        raise TxRejected("genesis is only valid at height 0")
    sender = state.accounts.get(tx.sender)
    if sender is None:
        raise TxRejected(f"unknown sender {tx.sender!r}")
    if tx.nonce != sender.nonce:
        raise TxRejected(f"bad nonce {tx.nonce} for {tx.sender!r} "
                         f"(expected {sender.nonce})")
    p = tx.payload

    if tx.kind == "submit_tdm":
        if "observer" not in sender.roles:
            raise TxRejected(f"{tx.sender!r} lacks the observer role")
        stake_min = state.params.observer_stake_min
        if sender.balance < stake_min:
            raise TxRejected("insufficient balance for observer escrow")
        try:
            tdm = parse_tdm(p.tdm_text)     # the one parse of a submission
        except TdmError as exc:
            raise TxRejected(f"malformed TDM: {exc}")
        if tdm.text != p.tdm_text:
            raise TxRejected("TDM text is not in canonical form")
        if tdm.meta.site_id not in state.sites:
            raise TxRejected(f"unregistered site {tdm.meta.site_id!r}")
        h = tdm.hex_hash()
        if h in state.seen_tdms:
            raise TxRejected(f"duplicate TDM {h[:12]}")
        if p.task_id and p.task_id not in state.tasks:
            raise TxRejected("task reference is not an open task")
        sender.balance -= stake_min
        state.seen_tdms.add(h)
        state.pending[h] = PendingTdm(tdm=tdm, submitter=tx.sender,
                                      escrow=stake_min, task_id=p.task_id)

    elif tx.kind == "post_task":
        if "requester" not in sender.roles:
            raise TxRejected(f"{tx.sender!r} lacks the requester role")
        if p.origin != "external":
            raise TxRejected(f"requesters cannot post {p.origin!r} tasks")
        if sender.balance < p.fee:
            raise TxRejected("insufficient balance for task fee")
        created_at = Epoch(state.time)
        ref = tx.sender.encode("utf-8") + tx.nonce.to_bytes(8, "big")
        tid = task_identity(p.target, p.fee, p.urgency, p.origin,
                            created_at, ref)
        if tid in state.tasks:
            raise TxRejected("task already exists")
        task = Task(task_id=tid, target=p.target, fee=p.fee,
                    urgency=p.urgency, origin=p.origin, created_at=created_at)
        sender.balance -= p.fee
        state.tasks[tid] = task
        state.task_escrows[tid] = Escrow(p.fee, tx.sender)

    elif tx.kind == "register_stake":
        if p.role not in ROLES:
            raise TxRejected(f"unknown role {p.role!r}")
        if sender.balance < p.amount:
            raise TxRejected("insufficient balance to stake")
        sender.balance -= p.amount
        sender.staked += p.amount
        sender.roles.add(p.role)

    elif tx.kind == "attest_validation":
        if not _is_validator(sender):
            raise TxRejected("attestation requires a staked compute account")
        h = p.report.tdm_hash
        pend = state.pending.get(h)
        if pend is None:
            raise TxRejected(f"attestation references unknown TDM {h[:12]}")
        if tx.sender in pend.attestations:
            raise TxRejected("duplicate attestation")
        pend.attestations[tx.sender] = p.report
        _check_quorum(state, h)

    elif tx.kind == "propose_model":
        if not _is_validator(sender):
            raise TxRejected("proposal requires a staked compute account")
        if p.proposal.proposer != tx.sender:
            raise TxRejected("proposal must be signed by its proposer")
        if p.proposal.parent_version != state.model.version:
            raise TxRejected(f"stale proposal (parent "
                             f"{p.proposal.parent_version}, model "
                             f"{state.model.version})")
        if p.proposal.proposal_hash in state.model_proposals:
            raise TxRejected("proposal already pending")
        state.model_proposals[p.proposal.proposal_hash] = ProposalState(
            proposal=p.proposal)

    elif tx.kind == "vote_model":
        if not _is_validator(sender):
            raise TxRejected("vote requires a staked compute account")
        if p.vote not in ("accept", "reject"):
            raise TxRejected(f"vote must be accept or reject, got {p.vote!r}")
        ps = state.model_proposals.get(p.proposal_hash)
        if ps is None:
            raise TxRejected("vote references unknown proposal")
        if tx.sender in ps.votes:
            raise TxRejected("duplicate vote")
        ps.votes[tx.sender] = p.vote
        _settle_proposal(state, p.proposal_hash)

    else:   # claim_reward
        escrow = state.task_escrows.get(p.task_id)
        if escrow is None:
            raise TxRejected("task has no refundable escrow")
        if p.task_id in state.tasks:
            raise TxRejected("task is still open")
        amount, requester = escrow
        if requester != tx.sender:
            raise TxRejected("only the requester may reclaim the fee")
        del state.task_escrows[p.task_id]
        sender.balance += amount

    sender.nonce += 1


def apply_transaction(state: LedgerState, tx: Transaction) -> LedgerState:
    """Pure transition: returns the post-state, raises TxRejected (with the
    input state untouched) when the transaction cannot apply."""
    out = state.clone()
    _apply(out, tx)
    return out


def _sweep_expired(state: LedgerState) -> None:
    """Drop the tasks past their service window. An external task's fee
    stays in task_escrows until its requester reclaims it."""
    now = Epoch(state.time)
    for tid in [tid for tid, task in state.tasks.items()
                if is_expired(task, now)]:
        del state.tasks[tid]


def produce_block(state: LedgerState, pending_txs: list, round_no: int, *,
                  time: float = None) -> tuple:
    """Run the round's lottery, apply what fits, and seal a block: the one
    block transition, for producers and for replay alike.

    Mutates ``state`` in place and returns (state, block). A tx that
    ``_apply`` rejects is excluded deterministically; ``_apply`` raises
    TxRejected only before its first mutation, so exclusion needs no copy.
    The block subsidy mints to the proposer even when no transaction
    applies. The round, time and lottery checks raise LedgerError before
    any mutation; after any later exception the state is half applied and
    must be discarded.
    """
    if round_no != state.height:
        raise LedgerError(f"round {round_no} != next height {state.height}")
    if time is None:
        time = state.time
    if not math.isfinite(time) or time < state.time:
        raise LedgerError("block time must be finite and cannot run "
                          "backwards")
    proposer = select_validator(state.last_hash, round_no,
                                compute_stakes(state))
    ordered = sorted(pending_txs,
                     key=lambda tx: (tx.sender, tx.nonce, tx_hash(tx)))
    prev_hash = state.last_hash
    state.time = time
    _sweep_expired(state)
    applied = []
    for tx in ordered:
        try:
            _apply(state, tx)
        except TxRejected:
            continue
        applied.append(tx)
    state.minted += state.params.block_subsidy
    state.account(proposer).balance += state.params.block_subsidy
    block = Block(height=round_no, prev_hash=prev_hash,
                  tx_root=compute_tx_root(applied),
                  state_root=state_root(state), proposer=proposer, time=time,
                  txs=tuple(applied))
    state.height = round_no + 1
    state.last_hash = block_hash(block)
    return state, block


def _replay(blocks: list) -> tuple:
    """Replay a chain from its genesis snapshot, re-producing each block
    from its txs and time; a block checks out when the re-produced one has
    the same hash (link, time, proposer, tx_root, txs and state_root).
    Returns (None, final state), or (first bad height, None)."""
    if not blocks:
        return 0, None
    b0 = blocks[0]
    if (b0.height != 0 or b0.prev_hash != ZERO_DIGEST or len(b0.txs) != 1
            or b0.txs[0].kind != "genesis"):
        return 0, None
    if b0.tx_root != compute_tx_root(b0.txs):
        return 0, None
    try:
        state = decode_state(b0.txs[0].payload.snapshot)
    except (WireError, SdaError, ValueError):
        return 0, None
    if b0.state_root != state_root(state):
        return 0, None
    state.height = 1
    state.last_hash = block_hash(b0)

    for k, b in enumerate(blocks[1:], start=1):
        try:
            produce_block(state, b.txs, k, time=b.time)
        except SdaError:
            return k, None
        if state.last_hash != block_hash(b):
            return k, None
    return None, state


def verify_chain(blocks: list):
    """None when re-producing every block of the chain gives the same
    bytes, else the first bad height."""
    return _replay(blocks)[0]


def replay_state(blocks: list) -> LedgerState:
    """State after replaying a verified chain; raises on a bad chain."""
    bad, state = _replay(blocks)
    if bad is not None:
        raise LedgerError(f"chain fails verification at height {bad}")
    return state


# -- persistence ------------------------------------------------------------

def save_chain(path: str, blocks: list) -> None:
    write_chain_log(path, [BLOCK.encode(b) for b in blocks])


def load_chain(path: str) -> list:
    return [BLOCK.decode(raw) for raw in read_chain_log(path)]


def verify_chain_file(path: str):
    """Like verify_chain, but a record that fails to decode or is cut short
    is a bad height too: the first bad height of the blocks before it, else
    its index. A log with bad magic is bad at 0."""
    blocks, whole = [], True
    try:
        for raw in read_chain_log(path):
            blocks.append(BLOCK.decode(raw))
    except (WireError, SdaError, ValueError):
        whole = False
    bad = verify_chain(blocks)
    if bad is None and not whole:
        return len(blocks)
    return bad
