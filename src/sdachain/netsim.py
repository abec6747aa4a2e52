"""Deterministic discrete-event simulation of the full protocol.

Observer, compute, and requester nodes exchange transactions over a
lossy, latent network while a synchronous-round chain settles their
submissions. Everything random (observation noise, network latency and
drops, spoof targets, breakup fragments) is drawn from streams derived
from the scenario seed, so a (scenario, seed) pair reproduces the chain
byte for byte. Messages may be dropped or delayed; nodes re-send
unconfirmed transactions each block, so network imperfections only
delay quorum and never violate ledger invariants.

The event loop is single-threaded by construction: one master heap
ordered by (time, sequence number) carries observation cycles, task
postings, federated-learning rounds, network deliveries, and block
production. Node behaviors concretize the adversary taxonomy: honest,
spoofer (corrupts claimed tracks by a configured element offset),
lazy_validator (never attests or votes), and model_poisoner (proposes
garbage weights and votes accept on everything).

A spoofer's claimed track is the object's orbit with its RAAN turned by
spoof_offset_rad, seen from the spoofer's site. The simulator applies
the offset to the site instead: it observes the true orbit from a copy
of the site at longitude lon - spoof_offset_rad. Gravity, J2 and drag in
the co-rotating atmosphere are all unchanged by a rotation about the
polar axis, so the RK4 map on the epoch-0 grid turns the RAAN-shifted
orbit into the true orbit rotated by the offset; azimuth, elevation and
range are unchanged when the object and the site turn together. The two
agree up to rounding, and the spoofer reads the truth grid the honest
observers already built instead of integrating a grid of its own.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import itertools
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .astro import (
    MAX_STEP_S,
    MIN_STEP_S,
    Epoch,
    GroundSite,
    KeplerianElements,
    OrbitRecord,
    StateVector,
    norm,
    propagate_j2,
    state_to_kepler,
)
from .errors import SdaError
from .fedprop import (
    MIN_HOLDOUT_SAMPLES,
    MIN_TRAIN_SAMPLES,
    ModelProposal,
    holdout_split,
    model_rms,
    samples_from_range_tdm,
    train_local,
    verify_proposal,
)
from .ledger import (
    Account,
    AttestValidation,
    EconomicsParams,
    PostTask,
    ProposeModel,
    ROLES,
    SubmitTdm,
    Transaction,
    VoteModel,
    compute_attestation,
    conservation_delta,
    make_genesis,
    produce_block,
    save_chain,
    state_root,
    tx_hash,
)
from .tasking import IodRegion, TaskingError, assign, visible_epochs
from .tdm import synth_tdm
from .validation import ValidationParams

__all__ = [
    "BEHAVIORS",
    "NetsimError",
    "NetworkParams",
    "NodeSpec",
    "Scenario",
    "ScriptedTask",
    "SimReport",
    "fl_scenario",
    "inject_breakup",
    "load_scenario",
    "reference_scenario",
    "run_scenario",
    "scenario_from_json",
    "scenario_to_json",
    "uct_scenario",
    "validate_scenario",
]

BEHAVIORS = ("honest", "spoofer", "lazy_validator", "model_poisoner")

MIN_TRACK_EPOCHS = 4        # shortest arc worth submitting
SURVEY_MIN_EPOCHS = 6       # UNKNOWN tracks must support batch refinement
RANGE_NOISE_KM = 0.05
MAX_BLOCKS = 20_000         # duration_s / block_interval_s; reference needs 1008
# 1/km.  Drag only slows an orbit, and at or below this its RK4 stages stay
# stable, so finite, down to the decay altitude at any step up to MAX_STEP_S.
BSTAR_MAX = 0.1


class NetsimError(SdaError):
    """Scenario validation or simulation setup failed."""


@dataclass(frozen=True)
class NetworkParams:
    """Delivery model: uniform latency draw, independent drop chance."""

    latency_ms: tuple = (50.0, 500.0)
    drop_prob: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "latency_ms", tuple(self.latency_ms))
        if len(self.latency_ms) != 2:
            raise NetsimError(f"latency_ms must be a (min, max) pair: "
                              f"{self.latency_ms}")
        lo, hi = self.latency_ms
        # an infinite maximum passes lo <= hi but delivers nothing
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
            raise NetsimError(f"bad latency range: {self.latency_ms}")
        if not 0.0 <= self.drop_prob < 1.0:
            raise NetsimError(f"drop_prob must be in [0,1): {self.drop_prob}")


@dataclass(frozen=True)
class NodeSpec:
    """One participant: ledger account plus simulated behavior."""

    account: str
    role: str
    behavior: str = "honest"
    site: str = ""
    noise_std: float = 1e-4
    balance: int = 100
    stake: int = 0
    mode: str = "optical"

    def __post_init__(self):
        if self.role not in ROLES:
            raise NetsimError(f"unknown role {self.role!r}")
        if self.behavior not in BEHAVIORS:
            raise NetsimError(f"unknown behavior {self.behavior!r}")
        if self.mode not in ("optical", "radar"):
            raise NetsimError(f"unknown sensor mode {self.mode!r}")


@dataclass(frozen=True)
class ScriptedTask:
    """External task the requester posts at a fixed simulation time."""

    t: float
    target: str
    fee: int
    urgency: bool = True


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration_s: float
    truth_orbits: tuple
    initial_catalog: tuple
    sites: tuple
    nodes: tuple
    network: NetworkParams = NetworkParams()
    economics: EconomicsParams = EconomicsParams()
    validation: ValidationParams = ValidationParams()
    cycle_s: float = 1800.0
    block_interval_s: float = 600.0
    task_interval_s: float = 0.0    # 0 disables the periodic task series
    task_fee: int = 20
    spoof_offset_rad: float = math.radians(2.0)
    fl_interval_s: float = 0.0      # 0 disables federated learning rounds
    fl_start_s: float = 14400.0
    calibration_ids: tuple = ()
    drag_injection: float = 0.0     # extra truth bstar on calibration ids
    scripted_tasks: tuple = ()
    max_track_len: int = 8
    step_s: float = 30.0
    intent_ttl_s: float = 7200.0

    def __post_init__(self):
        for name in ("truth_orbits", "initial_catalog", "sites", "nodes",
                     "scripted_tasks", "calibration_ids"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def cooldown_s(self) -> float:
        """Quiet tail so in-flight submissions settle before the end."""
        return 4.0 * self.block_interval_s


_FLOAT_FIELDS = ("duration_s", "cycle_s", "block_interval_s", "task_interval_s",
                 "spoof_offset_rad", "fl_interval_s", "fl_start_s",
                 "drag_injection", "step_s", "intent_ttl_s")


def validate_scenario(sc: Scenario) -> list:
    """Every configuration problem, collected before any event runs."""
    errs = []
    truth_ids = [r.object_id for r in sc.truth_orbits]
    if len(set(truth_ids)) != len(truth_ids):
        errs.append("duplicate truth object ids")
    for oid in sc.initial_catalog:
        if oid not in truth_ids:
            errs.append(f"catalog id not in truth: {oid}")
    for oid in sc.calibration_ids:
        if oid not in sc.initial_catalog:
            errs.append(f"calibration id not cataloged: {oid}")
    site_ids = [s.site_id for s in sc.sites]
    if len(set(site_ids)) != len(site_ids):
        errs.append("duplicate site ids")
    accounts = [n.account for n in sc.nodes]
    if len(set(accounts)) != len(accounts):
        errs.append("duplicate node accounts")
    for n in sc.nodes:
        if n.role == "observer" and n.site not in site_ids:
            errs.append(f"observer {n.account} references unknown site "
                        f"{n.site!r}")
        if n.behavior == "spoofer" and n.role != "observer":
            errs.append(f"spoofer {n.account} must be an observer")
        if n.behavior in ("lazy_validator", "model_poisoner") \
                and n.role != "compute":
            errs.append(f"{n.behavior} {n.account} must be a compute node")
        if n.role == "compute" and n.stake <= 0:
            errs.append(f"compute node {n.account} needs positive stake")
        for name in ("balance", "stake"):
            if not 0 <= getattr(n, name) < 2 ** 64:
                errs.append(f"{name} of {n.account} must be in [0, 2**64)")
        if not math.isfinite(n.noise_std):
            errs.append(f"non-finite noise_std on {n.account}")
        elif n.noise_std < 0.0:
            errs.append(f"negative noise_std on {n.account}")
    if sum(n.balance + n.stake for n in sc.nodes) >= 2 ** 64:
        errs.append("node balances and stakes must sum to less than 2**64 "
                    "(the genesis supply)")
    if not any(n.role == "compute" for n in sc.nodes):
        errs.append("need at least one compute node")
    # NaN passes every range test below, so finiteness is checked first
    for name in _FLOAT_FIELDS:
        if not math.isfinite(getattr(sc, name)):
            errs.append(f"{name} must be finite")
    if sc.duration_s <= 0.0:
        errs.append("duration must be positive")
    if sc.cycle_s < 180.0:
        errs.append("cycle_s must be at least 180 s (three 60 s epochs)")
    if sc.block_interval_s <= 0.0:
        errs.append("block_interval_s must be positive")
    elif sc.duration_s > MAX_BLOCKS * sc.block_interval_s:
        errs.append(f"duration_s / block_interval_s must be at most "
                    f"{MAX_BLOCKS} blocks")
    for r in sc.truth_orbits:
        sensed = r.bstar + (sc.drag_injection
                            if r.object_id in sc.calibration_ids else 0.0)
        if not (0.0 <= r.bstar <= BSTAR_MAX and 0.0 <= sensed <= BSTAR_MAX):
            errs.append(f"bstar of {r.object_id}, and its sum with "
                        f"drag_injection, must be in [0, {BSTAR_MAX}]")
    if not MIN_STEP_S <= sc.step_s <= MAX_STEP_S:
        errs.append(f"step_s must be in [{MIN_STEP_S}, {MAX_STEP_S}]")
    if sc.intent_ttl_s <= 0.0:
        errs.append("intent_ttl_s must be positive")
    has_requester = any(n.role == "requester" for n in sc.nodes)
    if sc.task_interval_s > 0.0 and not has_requester:
        errs.append("task series configured but no requester node")
    if sc.scripted_tasks and not has_requester:
        errs.append("scripted tasks configured but no requester node")
    if not 0 <= sc.task_fee < 2 ** 64:
        errs.append("task_fee must be in [0, 2**64)")
    if sc.spoof_offset_rad < 0.0:
        errs.append("spoof_offset_rad must be nonnegative")
    if sc.max_track_len < MIN_TRACK_EPOCHS:
        errs.append(f"max_track_len must be >= {MIN_TRACK_EPOCHS}")
    for st in sc.scripted_tasks:
        if st.target not in sc.initial_catalog:
            errs.append(f"scripted task target not cataloged: {st.target}")
        # a NaN time passes no comparison, so the task is never posted
        if not (math.isfinite(st.t) and st.t >= 0.0):
            errs.append(f"scripted task time must be finite and "
                        f"nonnegative: {st.t}")
        if not 0 <= st.fee < 2 ** 64:
            errs.append(f"scripted task fee must be in [0, 2**64): {st.fee}")
    return errs


def inject_breakup(sc: Scenario, parent: str, n_fragments: int,
                   t: Epoch) -> Scenario:
    """Fragment the parent at t: new uncataloged truth orbits sharing its
    position with seeded delta-v kicks (<= 0.1 km/s), plus an urgency task."""
    truth = {r.object_id: r for r in sc.truth_orbits}
    if parent not in truth:
        raise NetsimError(f"breakup parent not in truth: {parent}")
    if n_fragments < 0:
        raise NetsimError("n_fragments must be nonnegative")
    rec = truth[parent]
    sv = propagate_j2(rec.elements, rec.bstar, t, step_s=sc.step_s)
    rng = random.Random(f"{sc.seed}:breakup:{parent}:{n_fragments}:{t.t}")
    frags = []
    for k in range(n_fragments):
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = norm(d) or 1.0
        dv = rng.uniform(0.02, 0.1)
        v = tuple(sv.v[j] + dv * d[j] / n for j in range(3))
        el = state_to_kepler(StateVector(epoch=t, r=sv.r, v=v))
        frags.append(OrbitRecord(object_id=f"{parent}-F{k + 1}",
                                 elements=el, bstar=rec.bstar))
    urgent = ScriptedTask(t=t.t, target=parent, fee=sc.task_fee, urgency=True)
    return dataclasses.replace(
        sc, truth_orbits=sc.truth_orbits + tuple(frags),
        scripted_tasks=sc.scripted_tasks + (urgent,))


# ---------------------------------------------------------------------------
# scenario (de)serialization

def _angles(*names: str) -> dict:
    # canonical files store radians; hand-written ones may use degrees
    return {f"{n}_{unit}": float for n in names for unit in ("rad", "deg")}


def _angle(d: dict, name: str) -> float:
    if f"{name}_rad" in d:
        return d[f"{name}_rad"]
    if f"{name}_deg" in d:
        return math.radians(d[f"{name}_deg"])
    raise KeyError(f"{name}_rad or {name}_deg")


# Top-level keys that map one to one onto Scenario fields.
_SCALARS = {"cycle_s": float, "block_interval_s": float,
            "task_interval_s": float, "task_fee": int, "fl_interval_s": float,
            "fl_start_s": float, "drag_injection": float,
            "max_track_len": int, "step_s": float, "intent_ttl_s": float}
# Every key a scenario file may carry, with its JSON kind: a type, a list
# of one kind, or an object.
_SCENARIO = {
    "seed": int, "duration_s": float, **_SCALARS, **_angles("spoof_offset"),
    "truth_orbits": [{"object_id": str, "a_km": float, "e": float,
                      "epoch_s": float, "bstar": float,
                      **_angles("i", "raan", "argp", "M")}],
    "initial_catalog": [str], "calibration_ids": [str],
    "sites": [{"site_id": str, "alt_km": float, **_angles("lat", "lon")}],
    "nodes": [{"account": str, "role": str, "behavior": str, "site": str,
               "noise_std": float, "balance": int, "stake": int,
               "mode": str}],
    "network": {"latency_ms": [float], "drop_prob": float},
    "economics": {"observer_stake_min": int, "r_mint": int, "r_model": int,
                  "block_subsidy": int, "slash_fraction": str,
                  "validator_fee_cut": str, "attestation_quorum": str},
    "validation": {f.name: float for f in dataclasses.fields(ValidationParams)},
    "scripted_tasks": [{"t": float, "target": str, "fee": int,
                        "urgency": bool}],
}


def _json_of_kind(where: str, v, kind):
    """v, checked to be of this JSON kind (an int counts as a float); a
    value of another kind, or an unknown key, raises NetsimError."""
    if isinstance(kind, list):
        return [_json_of_kind(f"{where}[{k}]", x, kind[0])
                for k, x in enumerate(_json_of_kind(where, v, list))]
    if isinstance(kind, dict):
        for key in _json_of_kind(where, v, dict):
            if key not in kind:
                raise NetsimError(f"unknown key {key!r} in {where}")
        return {k: _json_of_kind(f"{where}.{k}", x, kind[k])
                for k, x in v.items()}
    if kind is float and type(v) is int:
        v = float(v)
    if not isinstance(v, kind) or (type(v) is bool and kind is not bool):
        raise NetsimError(f"{where} must be a JSON {kind.__name__}, "
                          f"got {v!r}")
    return v


def _elements_to_json(el: KeplerianElements) -> dict:
    return {"a_km": el.a, "e": el.e, "i_rad": el.i, "raan_rad": el.raan,
            "argp_rad": el.argp, "M_rad": el.M, "epoch_s": el.epoch.t}


def _elements_from_json(d: dict) -> KeplerianElements:
    return KeplerianElements(
        a=d["a_km"], e=d["e"], i=_angle(d, "i"), raan=_angle(d, "raan"),
        argp=_angle(d, "argp"), M=_angle(d, "M"), epoch=Epoch(d["epoch_s"]))


def _economics_from_json(kw: dict) -> EconomicsParams:
    for name in ("slash_fraction", "validator_fee_cut", "attestation_quorum"):
        if name in kw:
            try:
                kw[name] = Fraction(kw[name])
            except (ValueError, ZeroDivisionError):
                raise NetsimError(f"economics.{name} must be a fraction "
                                  f"such as \"2/3\", got {kw[name]!r}") \
                    from None
    return EconomicsParams(**kw)


def scenario_to_json(sc: Scenario) -> dict:
    """Plain-JSON form of a scenario (angles in radians; see
    docs/scenario.md for the schema)."""
    return {
        "seed": sc.seed,
        "duration_s": sc.duration_s,
        "truth_orbits": [dict(object_id=r.object_id, bstar=r.bstar,
                              **_elements_to_json(r.elements))
                         for r in sc.truth_orbits],
        "initial_catalog": list(sc.initial_catalog),
        "sites": [{"site_id": s.site_id, "lat_rad": s.lat,
                   "lon_rad": s.lon, "alt_km": s.alt}
                  for s in sc.sites],
        "nodes": [dataclasses.asdict(n) for n in sc.nodes],
        "network": {"latency_ms": list(sc.network.latency_ms),
                    "drop_prob": sc.network.drop_prob},
        # fractions travel as "num/den" strings
        "economics": {k: str(v) if isinstance(v, Fraction) else v
                      for k, v in dataclasses.asdict(sc.economics).items()},
        "validation": dataclasses.asdict(sc.validation),
        "spoof_offset_rad": sc.spoof_offset_rad,
        "calibration_ids": list(sc.calibration_ids),
        "scripted_tasks": [dataclasses.asdict(s) for s in sc.scripted_tasks],
        **{name: getattr(sc, name) for name in _SCALARS},
    }


def scenario_from_json(d: dict) -> Scenario:
    """The scenario of its JSON form. Scenario files are outside input: an
    unknown key, a missing required key, a value of another JSON kind
    than docs/scenario.md gives it (a string for a number, a fraction for
    an integer), or an orbit or site value out of its range (an
    eccentricity of 1.5, a NaN latitude), raises NetsimError."""
    d = _json_of_kind("scenario", d, _SCENARIO)
    try:
        return _scenario_of(d)
    except (KeyError, TypeError) as e:
        # a required key is absent: a bare lookup raises KeyError, a
        # dataclass built from the entry's keywords TypeError
        raise NetsimError(f"scenario file lacks a required key: {e}") \
            from None


@contextlib.contextmanager
def _entry(where: str):
    """Raise the ValueError an out-of-range value makes a record raise (an
    eccentricity of 1.5, a NaN latitude) as a NetsimError naming where."""
    try:
        yield
    except ValueError as e:
        raise NetsimError(f"{where}: {e}") from None


def _scenario_of(d: dict) -> Scenario:
    truth_orbits = []
    for k, o in enumerate(d["truth_orbits"]):
        with _entry(f"truth_orbits[{k}]"):
            truth_orbits.append(OrbitRecord(object_id=o["object_id"],
                                            elements=_elements_from_json(o),
                                            bstar=o.get("bstar", 0.0)))
    sites = []
    for k, s in enumerate(d["sites"]):
        with _entry(f"sites[{k}]"):
            sites.append(GroundSite(site_id=s["site_id"], lat=_angle(s, "lat"),
                                    lon=_angle(s, "lon"),
                                    alt=s.get("alt_km", 0.0)))
    kwargs = {name: d[name] for name in _SCALARS if name in d}
    if "spoof_offset_rad" in d or "spoof_offset_deg" in d:
        kwargs["spoof_offset_rad"] = _angle(d, "spoof_offset")
    if "economics" in d:
        kwargs["economics"] = _economics_from_json(d["economics"])
    if "validation" in d:
        kwargs["validation"] = ValidationParams(**d["validation"])
    return Scenario(
        seed=d["seed"], duration_s=d["duration_s"],
        truth_orbits=tuple(truth_orbits),
        initial_catalog=tuple(d["initial_catalog"]),
        sites=tuple(sites),
        nodes=tuple(NodeSpec(**n) for n in d["nodes"]),
        network=NetworkParams(**d.get("network", {})),
        calibration_ids=tuple(d.get("calibration_ids", ())),
        scripted_tasks=tuple(ScriptedTask(**s)
                             for s in d.get("scripted_tasks", ())),
        **kwargs)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        return scenario_from_json(json.load(f))


# ---------------------------------------------------------------------------
# simulation internals

@dataclass
class _Intent:
    """One unconfirmed transaction a node keeps re-sending until the
    chain reflects it (or it goes stale / times out)."""

    kind: str
    payload: object
    key: tuple
    done: object            # callable(state) -> bool, or None for nonce rule
    expires_at: float
    last_nonce: int = -1


class _Node:
    def __init__(self, spec: NodeSpec, sim: "_Sim"):
        self.spec = spec
        self.sim = sim
        self.site = sim.sites.get(spec.site)
        if spec.behavior == "spoofer":
            # the RAAN-shifted orbit seen from the site is the true orbit
            # seen from the site turned back by the offset (module docstring)
            self.spoof_site = dataclasses.replace(
                self.site, lon=self.site.lon - sim.sc.spoof_offset_rad)
        self.rng = random.Random(f"{sim.sc.seed}:node:{spec.account}")
        self.queue: list = []

    # -- intent plumbing ----------------------------------------------------

    def _enqueue(self, kind, payload, key, done, t):
        if any(it.key == key for it in self.queue):
            return
        self.queue.append(_Intent(kind=kind, payload=payload, key=key,
                                  done=done,
                                  expires_at=t + self.sim.sc.intent_ttl_s))

    def on_block(self, state, t: float) -> None:
        acct = self.spec.account
        base = state.nonces.get(acct, 0)
        keep = []
        for it in self.queue:
            if it.done is not None:
                if it.done(state):
                    continue
            elif 0 <= it.last_nonce < base:
                continue
            if t >= it.expires_at:
                continue
            keep.append(it)
        self.queue = keep
        if self.spec.role == "compute" and self.spec.behavior != "lazy_validator":
            self._attest_duty(state, t)
            self._vote_duty(state, t)
        for i, it in enumerate(self.queue):
            it.last_nonce = base + i
            tx = Transaction(kind=it.kind, sender=acct, nonce=base + i,
                             payload=it.payload)
            self.sim.network_send(self, tx, t)

    # -- validator duties ---------------------------------------------------

    def _attest_duty(self, state, t: float) -> None:
        acct = self.spec.account
        for h in sorted(state.pending):
            if acct in state.pending[h].attestations:
                continue
            key = ("attest", h)
            if any(it.key == key for it in self.queue):
                continue
            report = self.sim.attestation_for(state, h)
            if report is None:
                continue
            done = lambda s, h=h, a=acct: (h not in s.pending
                                           or a in s.pending[h].attestations)
            self._enqueue("attest_validation", AttestValidation(report),
                          key, done, t)

    def _vote_duty(self, state, t: float) -> None:
        acct = self.spec.account
        for ph in sorted(state.model_proposals):
            ps = state.model_proposals[ph]
            if acct in ps.votes:
                continue
            key = ("vote", ph)
            if any(it.key == key for it in self.queue):
                continue
            if self.spec.behavior == "model_poisoner":
                vote = "accept"
            else:
                _, _, vote = verify_proposal(ps.proposal,
                                             self.sim.calib_samples,
                                             state.model)
                if vote == "abstain":
                    continue
            self.sim.vote_log.append({"proposal": ph.hex(), "voter": acct,
                                      "vote": vote})
            done = lambda s, ph=ph, a=acct: (ph not in s.model_proposals
                                             or a in s.model_proposals[ph].votes)
            self._enqueue("vote_model", VoteModel(proposal_hash=ph, vote=vote),
                          key, done, t)

    # -- observer behavior --------------------------------------------------

    def cycle(self, state, t: float) -> None:
        if self.spec.role != "observer":
            return
        sc = self.sim.sc
        window = (Epoch(t), Epoch(t + sc.cycle_s))
        queue = [task for task in state.tasks.values()
                 if task.status == "open"]
        got = None
        try:
            got = assign(queue, self.site, window, state.catalog,
                         step_s=sc.step_s)
        except TaskingError:
            got = None
        submitted = False
        if got is not None:
            task, epochs = got
            submitted = self._observe_task(state, t, window, task, epochs)
        if not submitted:
            self._observe_untasked(state, t, window)
        if self.spec.behavior != "spoofer":
            self._survey(state, t, window)

    def _track(self, rec, window, min_epochs, site=None):
        """The epochs of one track of rec from site (default: the node's
        own): the first max_track_len visible epochs of the window, or None
        when fewer than min_epochs remain."""
        sc = self.sim.sc
        eps = visible_epochs(rec.elements, rec.bstar, site or self.site,
                             window, step_s=sc.step_s)[:sc.max_track_len]
        return eps if len(eps) >= min_epochs else None

    def _observe_task(self, state, t, window, task, epochs) -> bool:
        epochs = list(epochs)[:self.sim.sc.max_track_len]
        if isinstance(task.target, IodRegion):
            rec = self._region_candidate(state, task.target)
            if rec is None:
                return False
            eps = self._track(rec, window, SURVEY_MIN_EPOCHS)
            if eps is None:
                return False
            return self._submit_track(t, window, rec, "UNKNOWN", eps,
                                      task.task_id)
        rec = self.sim.truth.get(task.target)
        if rec is None:
            return False
        return self._submit_track(t, window, rec, task.target, epochs,
                                  task.task_id)

    def _region_candidate(self, state, region):
        """What is actually inside the requested element box: the first
        uncataloged truth object, if any."""
        for rec in self.sim.truth_sorted:
            if rec.object_id in state.catalog:
                continue
            if region.contains(rec.elements):
                return rec
        return None

    def _observe_untasked(self, state, t, window) -> bool:
        for oid in sorted(state.catalog):
            rec = self.sim.truth.get(oid)
            if rec is None:
                continue    # mined objects have no independent truth entry
            eps = self._track(rec, window, MIN_TRACK_EPOCHS)
            if eps is not None:
                return self._submit_track(t, window, rec, oid, eps, b"")
        return False

    def _survey(self, state, t, window) -> None:
        """Serendipitous detection of whatever uncataloged object crosses
        the sensor's sky this cycle."""
        for rec in self.sim.truth_sorted:
            if rec.object_id in state.catalog:
                continue
            eps = self._track(rec, window, SURVEY_MIN_EPOCHS)
            if eps is not None:
                self._submit_track(t, window, rec, "UNKNOWN", eps, b"")
                return

    def _submit_track(self, t, window, rec, participant, epochs,
                      task_id) -> bool:
        sc = self.sim.sc
        data_rec = self.sim.observed_record(rec)
        site = self.site
        if self.spec.behavior == "spoofer" and participant != "UNKNOWN":
            # rec, not observed_record(rec): the spoofed track never
            # carried the injected drag
            data_rec, site = rec, self.spoof_site
            epochs = self._track(rec, window, MIN_TRACK_EPOCHS, site)
            if epochs is None:
                return False
        seed = self.rng.randrange(2 ** 31)
        with_range = self.spec.mode == "radar"
        try:
            tdm = synth_tdm(data_rec, site, epochs,
                            self.spec.noise_std, seed,
                            participant=participant, with_range=with_range,
                            range_noise_km=RANGE_NOISE_KM if with_range
                            else 0.0, step_s=sc.step_s)
        except (SdaError, ValueError):
            return False
        h = tdm.hex_hash()
        self.sim.tdm_cache[h] = tdm
        self._enqueue("submit_tdm",
                      SubmitTdm(tdm_text=tdm.text, task_id=task_id),
                      ("submit", h), lambda s, h=h: h in s.seen_tdms, t)
        return True

    # -- requester / proposer behavior --------------------------------------

    def post_task(self, target: str, fee: int, urgency: bool,
                  t: float) -> None:
        self._enqueue("post_task",
                      PostTask(target=target, fee=fee, urgency=urgency),
                      ("post", target, t), None, t)

    def propose_model(self, state, t: float) -> None:
        sc = self.sim.sc
        if self.spec.behavior == "model_poisoner":
            W = tuple(tuple(100.0 for _ in range(6)) for _ in range(3))
            claimed = 1e-6
        else:
            train, hold = holdout_split(self.sim.calib_samples)
            if len(train) < MIN_TRAIN_SAMPLES or len(hold) < MIN_HOLDOUT_SAMPLES:
                return
            W = train_local(train)
            claimed = model_rms(W, train)
        prop = ModelProposal(W_new=W, proposer=self.spec.account,
                             claimed_rms=claimed,
                             parent_version=state.model.version)
        ph = prop.proposal_hash
        self.sim.round_log.append({
            "time": t, "proposer": self.spec.account,
            "behavior": self.spec.behavior, "proposal": ph.hex(),
            "claimed_rms": claimed, "parent_version": prop.parent_version})
        done = lambda s, ph=ph, v=prop.parent_version: (
            ph in s.model_proposals or s.model.version > v)
        self._enqueue("propose_model", ProposeModel(prop), ("propose", ph),
                      done, t)


class _Sim:
    def __init__(self, sc: Scenario):
        errs = validate_scenario(sc)
        if errs:
            raise NetsimError("invalid scenario: " + "; ".join(errs))
        self.sc = sc
        self.truth = {}
        for rec in sc.truth_orbits:
            self.truth[rec.object_id] = rec
        self.truth_sorted = sorted(sc.truth_orbits,
                                   key=lambda r: r.object_id)
        self.sites = {s.site_id: s for s in sc.sites}
        accounts = [Account(n.account, balance=n.balance, staked=n.stake,
                            roles={n.role}) for n in sc.nodes]
        catalog = [self.truth[oid] for oid in sc.initial_catalog]
        self.genesis_catalog = {r.object_id: r for r in catalog}
        self.state, genesis = make_genesis(accounts, catalog, list(sc.sites),
                                           sc.economics, sc.validation,
                                           step_s=sc.step_s, time=0.0)
        self.blocks = [genesis]
        self.initial_holdings = {a.account_id: a.balance + a.staked
                                 for a in accounts}
        self.nodes = [_Node(n, self) for n in sc.nodes]
        self.events: list = []
        self.seq = itertools.count()
        self.mempool: dict = {}
        self.tdm_cache: dict = {}       # hex hash -> Tdm sent, until settled
        self.calib_samples: list = []
        self.attest_cache: dict = {}    # (height, tdm hash) -> report | None
        self.settled_seen = 0
        self.vote_log: list = []
        self.round_log: list = []
        self.version_log: list = []
        self.verdict_rows: list = []
        self.balance_rows: list = []
        self.dropped = 0
        self.delivered = 0

    # -- plumbing ------------------------------------------------------------

    def push(self, t: float, kind: str, data) -> None:
        heapq.heappush(self.events, (t, next(self.seq), kind, data))

    def network_send(self, node: _Node, tx: Transaction, t: float) -> None:
        h = tx_hash(tx)
        if h in self.mempool:
            return
        lo, hi = self.sc.network.latency_ms
        if node.rng.random() < self.sc.network.drop_prob:
            self.dropped += 1
            return
        latency = node.rng.uniform(lo, hi) / 1000.0
        self.push(t + latency, "deliver", tx)

    def observed_record(self, rec: OrbitRecord) -> OrbitRecord:
        """Ground truth as the sensors see it: calibration objects carry
        the injected drag the catalog does not know about."""
        if rec.object_id in self.sc.calibration_ids \
                and self.sc.drag_injection != 0.0:
            return dataclasses.replace(
                rec, bstar=rec.bstar + self.sc.drag_injection)
        return rec

    def attestation_for(self, state, tdm_hash_hex: str):
        """One canonical report per (height, TDM): every honest validator
        reacting to the same block attests identical bytes."""
        key = (state.height, tdm_hash_hex)
        if key not in self.attest_cache:
            try:
                self.attest_cache[key] = compute_attestation(state,
                                                             tdm_hash_hex)
            except SdaError:
                self.attest_cache[key] = None
        return self.attest_cache[key]

    # -- event handlers ------------------------------------------------------

    def handle_block(self, t: float) -> None:
        txs = list(self.mempool.values())
        self.mempool.clear()
        self.state, block = produce_block(self.state, txs, self.state.height,
                                          time=t)
        self.blocks.append(block)
        if self.state.model.version != (self.version_log[-1]["version"]
                                        if self.version_log else 0):
            self.version_log.append({"time": t, "height": block.height,
                                     "version": self.state.model.version})
        self._harvest_settlements(t)
        for acct in sorted(self.state.accounts):
            a = self.state.accounts[acct]
            self.balance_rows.append((block.height, t, acct, a.balance,
                                      a.staked))
        for node in self.nodes:
            node.on_block(self.state, t)

    def _harvest_settlements(self, t: float) -> None:
        new = self.state.settlements[self.settled_seen:]
        self.settled_seen = len(self.state.settlements)
        for s in new:
            self.verdict_rows.append((s.height, t, s.tdm_hash, s.verdict,
                                      s.object_id, s.submitter))
            tdm = self.tdm_cache.pop(s.tdm_hash, None)
            if s.verdict not in ("verified", "ambiguous"):
                continue
            oid = s.object_id
            if oid not in self.sc.calibration_ids:
                continue
            site = self.sites.get(s.site_id)
            rec = self.genesis_catalog.get(oid)
            if tdm is None or site is None or rec is None \
                    or not tdm.meta.has_range:
                continue
            self.calib_samples.extend(
                samples_from_range_tdm(tdm, site, rec, step_s=self.sc.step_s))

    def handle_cycle(self, node: _Node, t: float) -> None:
        node.cycle(self.state, t)

    def handle_fl(self, round_no: int, t: float) -> None:
        computes = sorted((n for n in self.nodes if n.spec.role == "compute"),
                          key=lambda n: n.spec.account)
        if not computes:
            return
        proposer = computes[round_no % len(computes)]
        if proposer.spec.behavior == "lazy_validator":
            return
        proposer.propose_model(self.state, t)

    # -- main loop -----------------------------------------------------------

    def run(self) -> "SimReport":
        sc = self.sc
        active_until = sc.duration_s - sc.cooldown_s()
        for i, node in enumerate(self.nodes):
            if node.spec.role == "observer":
                self.push(37.0 * (i + 1), "cycle", node)
        requesters = [n for n in self.nodes if n.spec.role == "requester"]
        if sc.task_interval_s > 0.0 and requesters:
            k = 0
            t = sc.task_interval_s
            while t <= active_until:
                self.push(t, "post", k)
                k += 1
                t += sc.task_interval_s
        for st in sc.scripted_tasks:
            if requesters and st.t <= active_until:
                self.push(st.t, "scripted", st)
        if sc.fl_interval_s > 0.0:
            k = 0
            t = sc.fl_start_s
            while t <= active_until:
                self.push(t, "fl", k)
                k += 1
                t += sc.fl_interval_s
        t = sc.block_interval_s
        while t <= sc.duration_s:
            self.push(t, "block", None)
            t += sc.block_interval_s

        cataloged = sorted(sc.initial_catalog)
        post_idx = 0
        while self.events:
            t, _, kind, data = heapq.heappop(self.events)
            if t > sc.duration_s:
                break
            if kind == "block":
                self.handle_block(t)
            elif kind == "cycle":
                if t <= active_until:
                    self.handle_cycle(data, t)
                    self.push(t + sc.cycle_s, "cycle", data)
            elif kind == "deliver":
                self.mempool[tx_hash(data)] = data
                self.delivered += 1
            elif kind == "post":
                target = cataloged[post_idx % len(cataloged)]
                post_idx += 1
                requesters[0].post_task(target, sc.task_fee, False, t)
            elif kind == "scripted":
                requesters[0].post_task(data.target, data.fee, data.urgency, t)
            elif kind == "fl":
                self.handle_fl(data, t)
        return self._report()

    # -- reporting -----------------------------------------------------------

    def _report(self) -> "SimReport":
        state = self.state
        final = {a: acc.balance + acc.staked
                 for a, acc in state.accounts.items()}
        verdicts = Counter(s.verdict for s in state.settlements)
        mined = sorted(oid for oid, r in state.catalog.items()
                       if r.source == "mined")
        rms_model = rms_zero = None
        n_holdout = 0
        if self.calib_samples:
            _, hold = holdout_split(self.calib_samples)
            n_holdout = len(hold)
            if hold:
                zero = tuple((0.0,) * 6 for _ in range(3))
                rms_zero = model_rms(zero, hold)
                rms_model = model_rms(state.model.W, hold)
        return SimReport(
            seed=self.sc.seed,
            duration_s=self.sc.duration_s,
            height=state.height - 1,
            state_root=state_root(state).hex(),
            initial_holdings=dict(self.initial_holdings),
            final_holdings=final,
            pnl={a: final[a] - self.initial_holdings[a] for a in final},
            verdicts=dict(verdicts),
            catalog_initial=sorted(self.sc.initial_catalog),
            catalog_final=sorted(state.catalog),
            mined=mined,
            model_version=state.model.version,
            model_rounds=list(self.round_log),
            model_votes=list(self.vote_log),
            model_versions=list(self.version_log),
            holdout_rms_model=rms_model,
            holdout_rms_zero=rms_zero,
            n_holdout=n_holdout,
            n_settlements=len(state.settlements),
            dropped=self.dropped,
            delivered=self.delivered,
            conservation=conservation_delta(state),
            final_state=state,
            blocks=list(self.blocks),
        )


@dataclass
class SimReport:
    """Everything a scenario run produced, plus the chain itself."""

    seed: int
    duration_s: float
    height: int
    state_root: str
    initial_holdings: dict
    final_holdings: dict
    pnl: dict
    verdicts: dict
    catalog_initial: list
    catalog_final: list
    mined: list
    model_version: int
    model_rounds: list
    model_votes: list
    model_versions: list
    holdout_rms_model: object
    holdout_rms_zero: object
    n_holdout: int
    n_settlements: int
    dropped: int
    delivered: int
    conservation: int
    final_state: object
    blocks: list

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("final_state")
        d.pop("blocks")
        return d


def run_scenario(sc: Scenario, out_dir: str = None) -> SimReport:
    """Validate, simulate, and (optionally) persist chain.log,
    report.json, and CSV timelines under out_dir."""
    sim = _Sim(sc)
    report = sim.run()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_chain(os.path.join(out_dir, "chain.log"), report.blocks)
        with open(os.path.join(out_dir, "report.json"), "w",
                  encoding="utf-8") as f:
            json.dump(report.to_json_dict(), f, sort_keys=True, indent=2)
            f.write("\n")
        with open(os.path.join(out_dir, "verdicts.csv"), "w",
                  encoding="utf-8") as f:
            f.write("height,time,tdm_hash,verdict,object_id,submitter\n")
            for row in sim.verdict_rows:
                f.write(",".join(str(v) for v in row) + "\n")
        with open(os.path.join(out_dir, "balances.csv"), "w",
                  encoding="utf-8") as f:
            f.write("height,time,account,balance,staked\n")
            for row in sim.balance_rows:
                f.write(",".join(str(v) for v in row) + "\n")
        with open(os.path.join(out_dir, "model_rms.csv"), "w",
                  encoding="utf-8") as f:
            f.write("time,height,version\n")
            for row in sim.version_log:
                f.write(f"{row['time']},{row['height']},{row['version']}\n")
    return report


# ---------------------------------------------------------------------------
# reference scenarios

def _random_leo(rng: random.Random, object_id: str) -> OrbitRecord:
    a = rng.uniform(7000.0, 7600.0)
    e = rng.uniform(0.001, min(0.02, 1.0 - (6378.137 + 250.0) / a))
    el = KeplerianElements(a=a, e=e, i=rng.uniform(0.6, 1.6),
                           raan=rng.uniform(0.0, 2.0 * math.pi),
                           argp=rng.uniform(0.0, 2.0 * math.pi),
                           M=rng.uniform(0.0, 2.0 * math.pi), epoch=Epoch(0.0))
    return OrbitRecord(object_id=object_id, elements=el)


def reference_scenario(seed: int) -> Scenario:
    """Acceptance economics run: 3 honest observers, 1 spoofer, 3 compute
    nodes, a requester posting paid tasks, 10 cataloged objects, 7 days."""
    rng = random.Random(f"reference:{seed}")
    orbits = tuple(_random_leo(rng, f"OBJ-{k:02d}") for k in range(1, 11))
    sites = (GroundSite("S1", math.radians(35.0), math.radians(-106.0), 1.6),
             GroundSite("S2", math.radians(-30.0), math.radians(27.0), 1.4),
             GroundSite("S3", math.radians(10.0), math.radians(130.0), 0.1))
    nodes = (
        NodeSpec("alice", "observer", site="S1", balance=100),
        NodeSpec("bob", "observer", site="S2", balance=100),
        NodeSpec("carol", "observer", site="S3", balance=100),
        NodeSpec("mallory", "observer", behavior="spoofer", site="S1",
                 balance=100),
        NodeSpec("val-a", "compute", balance=0, stake=40),
        NodeSpec("val-b", "compute", balance=0, stake=40),
        NodeSpec("val-c", "compute", balance=0, stake=40),
        NodeSpec("rita", "requester", balance=10000),
    )
    return Scenario(seed=seed, duration_s=7.0 * 86400.0, truth_orbits=orbits,
                    initial_catalog=tuple(r.object_id for r in orbits),
                    sites=sites, nodes=nodes, cycle_s=10800.0,
                    block_interval_s=600.0, task_interval_s=7200.0,
                    task_fee=20)


def _equatorial(object_id: str, a: float, m0: float) -> OrbitRecord:
    el = KeplerianElements(a=a, e=0.001, i=0.02, raan=0.1, argp=0.2, M=m0,
                           epoch=Epoch(0.0))
    return OrbitRecord(object_id=object_id, elements=el)


def uct_scenario(seed: int) -> Scenario:
    """Mining convergence run: one uncataloged object over two equatorial
    sites; surveys should pool, retask, associate, and mine it."""
    rng = random.Random(f"uct:{seed}")
    ghost = _equatorial("GHOST", 7000.0, rng.uniform(0.0, 2.0 * math.pi))
    known = _random_leo(rng, "OBJ-01")
    sites = (GroundSite("E1", 0.0, math.radians(10.0), 0.0),
             GroundSite("E2", 0.0, math.radians(190.0), 0.0))
    # radar fences: range data keeps short-arc IOD tight enough for
    # track-to-track association
    nodes = (
        NodeSpec("alice", "observer", site="E1", balance=100, noise_std=1e-5,
                 mode="radar"),
        NodeSpec("bob", "observer", site="E2", balance=100, noise_std=1e-5,
                 mode="radar"),
        NodeSpec("val-a", "compute", balance=0, stake=50),
        NodeSpec("val-b", "compute", balance=0, stake=50),
    )
    # short radar arcs give percent-level IOD eccentricity scatter, so
    # association needs a looser gate; the only other object is tens of
    # degrees away in inclination, so cross-matching stays impossible
    vparams = ValidationParams(d_assoc=0.2)
    return Scenario(seed=seed, duration_s=5.0 * 1800.0,
                    truth_orbits=(ghost, known), initial_catalog=("OBJ-01",),
                    sites=sites, nodes=nodes, cycle_s=1800.0,
                    block_interval_s=300.0, validation=vparams)


def fl_scenario(seed: int) -> Scenario:
    """Federated-learning run: a drag residual the catalog does not model
    is injected into a calibration object; compute nodes learn it on
    chain while a poisoner tries to merge garbage."""
    cal = _equatorial("CAL-1", 6978.0, 0.3)
    sites = (GroundSite("E1", 0.0, math.radians(10.0), 0.0),)
    nodes = (
        NodeSpec("alice", "observer", site="E1", balance=1000,
                 noise_std=1e-5, mode="radar"),
        NodeSpec("val-a", "compute", balance=0, stake=40),
        NodeSpec("val-b", "compute", balance=0, stake=40),
        NodeSpec("val-c", "compute", balance=0, stake=40),
        NodeSpec("val-z", "compute", behavior="model_poisoner", balance=0,
                 stake=40),
    )
    return Scenario(seed=seed, duration_s=86400.0, truth_orbits=(cal,),
                    initial_catalog=("CAL-1",), sites=sites, nodes=nodes,
                    cycle_s=1800.0, block_interval_s=600.0,
                    fl_interval_s=7200.0, fl_start_s=14400.0,
                    calibration_ids=("CAL-1",), drag_injection=1e-6)
