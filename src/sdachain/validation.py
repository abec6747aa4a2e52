"""Validator pipeline: catalog correlation, claim checking, UCT mining.

Every function here is pure given its inputs, which is what lets
independent validators reach byte-identical verdicts and attest to the
same report hash.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .astro import (
    DecayError,
    GroundSite,
    KeplerianElements,
    OrbitRecord,
    angular_separation,
    propagate_j2,
    state_to_kepler,
)
from .errors import SdaError
from .fedprop import ResidualModel, corrected_propagate
from .iod import IodError, IodSolution, iod_from_tdm, refine_elements
from .tdm import Tdm, observe_from, separation_rms, site_geometry
from .wire import EPOCH, F64, STRING, U32, optional, record, seq, sha256

VERDICTS = ("verified", "rejected", "ambiguous", "uct")
UNKNOWN_CLAIM = "UNKNOWN"


class ValidationError(SdaError):
    pass


@dataclass(frozen=True)
class ValidationParams:
    """Genesis-configurable thresholds, all angles in radians."""

    theta_verify: float = math.radians(0.1)
    theta_reject: float = math.radians(0.5)
    theta_gate: float = math.radians(1.0)
    d_assoc: float = 0.05
    w_a_per_km: float = 1.0 / 100.0
    w_e: float = 1.0 / 0.01
    w_i_per_deg: float = 1.0 / 0.5
    w_raan_per_deg: float = 1.0

    def __post_init__(self):
        # NaN makes every comparison false, so finiteness is checked first
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValidationError(f"{f.name} must be finite")
        if not (0.0 < self.theta_verify < self.theta_reject <= self.theta_gate):
            raise ValidationError("need 0 < theta_verify < theta_reject <= theta_gate")
        for name in ("d_assoc", "w_a_per_km", "w_e", "w_i_per_deg", "w_raan_per_deg"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be positive")


VALIDATION_PARAMS = record(ValidationParams, *(
    (name, F64) for name in (
        "theta_verify", "theta_reject", "theta_gate", "d_assoc",
        "w_a_per_km", "w_e", "w_i_per_deg", "w_raan_per_deg")))

# The one on-chain element layout.
ELEMENTS = record(KeplerianElements, ("a", F64), ("e", F64), ("i", F64),
                  ("raan", F64), ("argp", F64), ("M", F64), ("epoch", EPOCH))
# A catalog entry, in the state and in a report's mined orbit.
ORBIT = record(OrbitRecord, ("object_id", STRING), ("elements", ELEMENTS),
               ("bstar", F64), ("source", STRING))


@dataclass(frozen=True)
class ValidationReport:
    """Deterministic verdict a validator attests to on chain."""

    tdm_hash: str
    verdict: str
    matched_object: Optional[str]
    rms_residual: float          # rad; inf when no residual could be formed
    candidates_checked: int
    proposed_elements: Optional[KeplerianElements] = None
    uct_matches: tuple = ()      # tdm hashes folded into a mining proposal
    mined: Optional[OrbitRecord] = None   # the orbit uct_matches mine
    notes: tuple = ()
    report_hash: str = field(init=False)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValidationError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "verified":
            if self.matched_object is None:
                raise ValidationError("verified report needs matched_object")
            if math.isinf(self.rms_residual):
                raise ValidationError("verified report needs a finite rms")
        if not self.rms_residual >= 0.0:    # NaN fails this too
            raise ValidationError("rms_residual must be nonnegative")
        if self.mined is not None:
            if self.verdict != "uct":
                raise ValidationError("only a uct report carries a mined orbit")
            if not self.uct_matches:
                raise ValidationError("a mined orbit needs uct_matches")
            if len(set(self.uct_matches)) != len(self.uct_matches):
                # settlement takes each match out of the pool once
                raise ValidationError("a mined orbit needs distinct "
                                      "uct_matches")
            if getattr(self.mined, "source", None) != "mined":
                raise ValidationError("a mined orbit needs source 'mined'")
        object.__setattr__(self, "report_hash",
                           sha256(REPORT.encode(self)).hex())


REPORT = record(ValidationReport,
                ("tdm_hash", STRING), ("verdict", STRING),
                ("matched_object", optional(STRING)), ("rms_residual", F64),
                ("candidates_checked", U32),
                ("proposed_elements", optional(ELEMENTS)),
                ("uct_matches", seq(STRING)), ("mined", optional(ORBIT)),
                ("notes", seq(STRING)))


def _refined_iod(tdm: Tdm, site: GroundSite) -> Optional[IodSolution]:
    """Best per-track orbit estimate, or None when geometry defeats IOD."""
    try:
        sol = iod_from_tdm(tdm, site)
    except IodError:
        return None
    if len(tdm.records) >= 6:
        try:
            return refine_elements(sol.elements, [tdm],
                                   {tdm.meta.site_id: site}, bstar=0.0)
        except (IodError, DecayError):
            # a refinement step that wanders below the decay altitude is
            # a failed fit, not a validator crash
            pass
    return sol


def validate_tdm(tdm: Tdm, catalog: list, sites: dict,
                 params: ValidationParams,
                 model: ResidualModel = ResidualModel()) -> ValidationReport:
    """Correlate one TDM against the catalog and issue a verdict.

    Each candidate's RMS covers this track's records only: settlement's
    catalog refresh re-anchors an orbit and fits no observation into it.
    """
    if tdm.meta.site_id not in sites:
        raise ValidationError(f"unregistered site {tdm.meta.site_id!r}")
    site = sites[tdm.meta.site_id]
    obs = [(rec, site_geometry(site, rec.epoch, tdm.meta.mode))
           for rec in tdm.records]
    first, first_geometry = obs[0]
    notes = []

    claim = tdm.meta.participant
    catalog_ids = {c.object_id for c in catalog}
    claim_in_catalog = claim != UNKNOWN_CLAIM and claim in catalog_ids

    gated = []          # (rms, object_id)
    claim_rms = None
    for cand in sorted(catalog, key=lambda c: c.object_id):
        is_claim = cand.object_id == claim

        def predict(t):
            return corrected_propagate(cand.elements, cand.bstar, t, model)
        try:
            sv = predict(first.epoch)
            p1, p2, _ = observe_from(sv.r, first_geometry)
            gate_sep = angular_separation(first.angle1, first.angle2, p1, p2)
            if gate_sep > params.theta_gate and not is_claim:
                continue
            rms = separation_rms(obs, [sv, *(predict(rec.epoch)
                                            for rec, _ in obs[1:])])
        except DecayError:
            notes.append(f"candidate {cand.object_id} decayed; skipped")
            continue
        if is_claim:
            claim_rms = rms
        if gate_sep <= params.theta_gate:
            gated.append((rms, cand.object_id))

    gated.sort()
    best = gated[0] if gated else None

    if claim_in_catalog and claim_rms is not None and claim_rms > params.theta_reject:
        return ValidationReport(
            tdm_hash=tdm.hex_hash(), verdict="rejected",
            matched_object=claim, rms_residual=claim_rms,
            candidates_checked=len(gated), notes=tuple(notes))

    if best is not None and best[0] <= params.theta_verify:
        return ValidationReport(
            tdm_hash=tdm.hex_hash(), verdict="verified",
            matched_object=best[1], rms_residual=best[0],
            candidates_checked=len(gated), notes=tuple(notes))

    if best is not None:
        # closest-but-unconfirmed candidate rides along so settlement can
        # retask follow-up observations of it
        return ValidationReport(
            tdm_hash=tdm.hex_hash(), verdict="ambiguous",
            matched_object=best[1], rms_residual=best[0],
            candidates_checked=len(gated), notes=tuple(notes))

    sol = _refined_iod(tdm, site)
    if sol is None:
        notes.append("orbit fit failed; retask needed")
        return ValidationReport(
            tdm_hash=tdm.hex_hash(), verdict="ambiguous",
            matched_object=None, rms_residual=math.inf,
            candidates_checked=0, notes=tuple(notes))
    return ValidationReport(
        tdm_hash=tdm.hex_hash(), verdict="uct", matched_object=None,
        rms_residual=sol.rms_residual, candidates_checked=0,
        proposed_elements=sol.elements, notes=tuple(notes))


def element_distance(a: KeplerianElements, b: KeplerianElements,
                     params: ValidationParams) -> float:
    """Weighted element-space distance with both orbits at b's epoch.

    Osculating elements drift secularly under J2, so a is propagated to
    b's epoch before differencing; raises DecayError if it decays first.
    """
    if a.epoch.t != b.epoch.t:
        sv = propagate_j2(a, 0.0, b.epoch)
        a = state_to_kepler(sv)
    d_raan = abs((a.raan - b.raan + math.pi) % (2.0 * math.pi) - math.pi)
    return (params.w_a_per_km * abs(a.a - b.a)
            + params.w_e * abs(a.e - b.e)
            + params.w_i_per_deg * abs(math.degrees(a.i - b.i))
            + params.w_raan_per_deg * math.degrees(d_raan))


def associate_uct(new_elements: KeplerianElements, uct_pool: list,
                  params: ValidationParams) -> list:
    """Pool entries matching the new track's fit, as (tdm_hash, distance).

    uct_pool holds (tdm_hash, KeplerianElements) pairs, one fit per
    pooled track. Sorted ascending by distance, ties broken by hash;
    entries the comparison orbit decays against are unmatched.
    """
    matches = []
    for tdm_hash, elements in uct_pool:
        try:
            d = element_distance(new_elements, elements, params)
        except DecayError:
            continue
        if d <= params.d_assoc:
            matches.append((d, tdm_hash))
    matches.sort()
    return [(h, d) for d, h in matches]


def mine_object(tdms: list, sites: dict,
                params: ValidationParams) -> Optional[OrbitRecord]:
    """Fit one orbit to associated UCT tracks; None when the fit fails.

    The object_id is derived from the chronologically first track's
    hash, so re-mining the same inputs names the same object.
    """
    if len(tdms) < 2:
        raise ValidationError("mining needs at least two associated TDMs")
    for t in tdms:
        if t.meta.site_id not in sites:
            raise ValidationError(f"unregistered site {t.meta.site_id!r}")
    ordered = sorted(tdms, key=lambda t: (t.records[0].epoch.t, t.hex_hash()))
    # A start seeded from one end of a long gap can phase-slip into a
    # local minimum, so both end tracks are tried and the better fit kept.
    best = None
    for pick in (ordered[0], ordered[-1]):
        try:
            start = iod_from_tdm(pick, sites[pick.meta.site_id])
            sol = refine_elements(start.elements, list(ordered), sites,
                                  bstar=0.0)
        except (IodError, DecayError):
            continue
        if best is None or sol.rms_residual < best.rms_residual:
            best = sol
    if best is None or best.rms_residual > params.theta_verify:
        return None
    return OrbitRecord(object_id=f"MINED-{ordered[0].hex_hash()[:8]}",
                       elements=best.elements, bstar=0.0, source="mined")
