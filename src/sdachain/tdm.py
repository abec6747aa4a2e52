"""Tracking data message codec: strict KVN profile with a canonical byte form.

A TDM is the chain's observation payload. Consensus needs every node to
agree on the exact bytes being staked, so this codec defines one canonical
serialization (fixed key order, fixed number formats, LF endings) and a
content hash over those bytes. The parser accepts cosmetic variation
(whitespace, digit count, record order) but rejects anything outside the
profile; see docs/tdm-profile.md for the grammar.

The module also owns the observation model, the one definition of what a
record's two angles mean in each ANGLE_TYPE. Only site_geometry reads
ANGLE_TYPE; callers build its geometry once per record and read the
record through it: observe_from maps a position to the angles and range,
line_of_sight and observed_position are its inverse, and separation_rms
is the residual every validation threshold is stated in.

Angles are degrees in files and radians in memory.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from .astro import (
    Epoch,
    GroundSite,
    J2_EARTH,
    OrbitRecord,
    StateVector,
    angles_to_unit_vector,
    angular_separation,
    azel_from,
    propagate_many,
    radec_from,
    radec_to_unit_vector,
    site_frame,
    wrap_two_pi,
)
from .errors import SdaError

TDM_VERSION = "2.0"
TIME_SYSTEM = "SIM-J2000"
MODES = ("AZEL", "RADEC")
ELEVATION_MASK_RAD = math.radians(10.0)
MIN_RECORDS = 3

_META_KEYS_ORDER = ("TIME_SYSTEM", "PARTICIPANT_1", "PARTICIPANT_2", "MODE",
                    "ANGLE_TYPE", "RANGE_UNITS")
_MANDATORY_META = ("TIME_SYSTEM", "PARTICIPANT_1", "PARTICIPANT_2", "MODE", "ANGLE_TYPE")
_DATA_KEYS = ("ANGLE_1", "ANGLE_2", "RANGE")


class TdmError(SdaError):
    pass


class TdmParseError(TdmError):
    """Malformed KVN text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TdmValidationError(TdmError):
    """Structurally valid KVN whose content violates the profile."""


class VisibilityError(TdmError):
    """Synthesis requested at epochs where the target is below the mask."""

    def __init__(self, offending: list):
        iso = ", ".join(e.iso() for e in offending)
        super().__init__(f"target below {math.degrees(ELEVATION_MASK_RAD):.0f} deg elevation at: {iso}")
        self.offending = tuple(offending)


def _quantize_deg(rad: float) -> float:
    """Snap a radian value to the 9-decimal-degree grid of the file form."""
    deg = round(math.degrees(rad), 9)
    return 0.0 if deg == 0.0 else deg


def _fmt(value: float) -> str:
    return f"{value:.9f}"


@dataclass(frozen=True)
class TdmMeta:
    """Metadata block: who observed what, in which angle convention."""

    site_id: str
    participant: str          # claimed object id, or "UNKNOWN" for a UCT
    mode: str                 # AZEL | RADEC
    has_range: bool = False

    def __post_init__(self):
        if not self.site_id or self.site_id != self.site_id.strip():
            raise TdmValidationError(f"bad site_id {self.site_id!r}")
        if not self.participant or self.participant != self.participant.strip():
            raise TdmValidationError(f"bad participant {self.participant!r}")
        if self.mode not in MODES:
            raise TdmValidationError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class ObservationRecord:
    """One time-tagged observation: two angles and an optional slant range."""

    epoch: Epoch
    angle1: float             # az or RA, rad
    angle2: float             # el or DEC, rad
    range_km: float = None

    def __post_init__(self):
        if not (math.isfinite(self.angle1) and math.isfinite(self.angle2)):
            raise TdmValidationError("angles must be finite")
        if self.range_km is not None and not math.isfinite(self.range_km):
            raise TdmValidationError("range must be finite")


@dataclass(frozen=True)
class Tdm:
    """Canonical tracking data message.

    Construction canonicalizes: records are sorted by epoch, epochs snapped
    to the microsecond grid, angles and ranges to the 9-decimal-degree/km
    grid of the file form. text is the canonical serialization, built once
    here; content_hash is its SHA-256 and is therefore identical for any
    two Tdms with the same observable content.
    """

    meta: TdmMeta
    records: tuple
    text: str = field(init=False, compare=False, repr=False)
    content_hash: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        canon = []
        for rec in self.records:
            a1 = _quantize_deg(wrap_two_pi(rec.angle1))
            if a1 >= 360.0:
                a1 -= 360.0
            a2 = _quantize_deg(rec.angle2)
            if not -90.0 <= a2 <= 90.0:
                raise TdmValidationError(f"angle2 out of range at {rec.epoch.iso()}: {a2} deg")
            if self.meta.has_range:
                if rec.range_km is None:
                    raise TdmValidationError(f"missing range at {rec.epoch.iso()}")
                rng = round(rec.range_km, 9)
                if rng <= 0.0:
                    raise TdmValidationError(f"range must be positive at {rec.epoch.iso()}")
            else:
                if rec.range_km is not None:
                    raise TdmValidationError("range present but meta has_range is false")
                rng = None
            canon.append(ObservationRecord(
                epoch=rec.epoch.quantized(),
                angle1=math.radians(a1),
                angle2=math.radians(a2),
                range_km=rng,
            ))
        canon.sort(key=lambda r: r.epoch.t)
        if len(canon) < MIN_RECORDS:
            raise TdmValidationError(f"need at least {MIN_RECORDS} records, got {len(canon)}")
        for prev, cur in zip(canon, canon[1:]):
            if cur.epoch.t <= prev.epoch.t:
                raise TdmValidationError(f"epochs not strictly increasing at {cur.epoch.iso()}")
        object.__setattr__(self, "records", tuple(canon))
        meta = self.meta
        lines = [f"CCSDS_TDM_VERS = {TDM_VERSION}", "META_START",
                 f"TIME_SYSTEM = {TIME_SYSTEM}",
                 f"PARTICIPANT_1 = {meta.participant}",
                 f"PARTICIPANT_2 = {meta.site_id}",
                 "MODE = SEQUENTIAL",
                 f"ANGLE_TYPE = {meta.mode}"]
        if meta.has_range:
            lines.append("RANGE_UNITS = km")
        lines.append("META_STOP")
        lines.append("DATA_START")
        for rec in canon:
            iso = rec.epoch.iso()
            lines.append(f"ANGLE_1 = {iso} {_fmt(math.degrees(rec.angle1))}")
            lines.append(f"ANGLE_2 = {iso} {_fmt(math.degrees(rec.angle2))}")
            if meta.has_range:
                lines.append(f"RANGE = {iso} {_fmt(rec.range_km)}")
        lines.append("DATA_STOP")
        object.__setattr__(self, "text", "\n".join(lines) + "\n")
        object.__setattr__(self, "content_hash",
                           hashlib.sha256(self.text.encode()).digest())

    def hex_hash(self) -> str:
        return self.content_hash.hex()


def serialize_tdm(tdm: Tdm) -> str:
    """Canonical KVN text, tdm.text; parse_tdm(serialize_tdm(t)) == t
    byte-for-byte."""
    return tdm.text


def _split_kv(line: str, line_no: int) -> tuple:
    if "=" not in line:
        raise TdmParseError(line_no, f"expected KEY = VALUE, got {line!r}")
    key, _, value = line.partition("=")
    key = key.strip()
    value = value.strip()
    if not key or not value:
        raise TdmParseError(line_no, f"expected KEY = VALUE, got {line!r}")
    return key, value


def _parse_data_value(value: str, line_no: int) -> tuple:
    parts = value.split()
    if len(parts) != 2:
        raise TdmParseError(line_no, f"expected '<epoch> <number>', got {value!r}")
    try:
        epoch = Epoch.from_iso(parts[0])
    except ValueError as exc:
        raise TdmParseError(line_no, f"bad epoch {parts[0]!r}: {exc}") from None
    try:
        num = float(parts[1])
    except ValueError:
        raise TdmParseError(line_no, f"bad number {parts[1]!r}") from None
    if not math.isfinite(num):
        raise TdmParseError(line_no, f"non-finite number {parts[1]!r}")
    return epoch, num


def parse_tdm(text: str) -> Tdm:
    """Parse KVN text into a canonical Tdm.

    Strict profile: unknown or duplicate keys, missing mandatory keys,
    blank lines, and anything outside the version/meta/data skeleton are
    rejected with the offending line number. Never raises anything but
    TdmError subclasses on arbitrary input.
    """
    if not isinstance(text, str):
        raise TdmParseError(0, "input is not text")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    state = "version"
    meta: dict = {}
    meta_stop_line = 0
    raw_records: list = []
    pending: dict = {}    # partially assembled record

    def flush_pending(line_no: int):
        if not pending:
            return
        if "ANGLE_2" not in pending:
            raise TdmParseError(line_no, "record missing ANGLE_2")
        if meta.get("RANGE_UNITS") and "RANGE" not in pending:
            raise TdmParseError(line_no, "record missing RANGE (RANGE_UNITS declared)")
        raw_records.append(dict(pending))
        pending.clear()

    for idx, line in enumerate(lines, start=1):
        if line != line.strip() or line == "":
            raise TdmParseError(idx, "blank line or stray surrounding whitespace")

        if state == "version":
            key, value = _split_kv(line, idx)
            if key != "CCSDS_TDM_VERS":
                raise TdmParseError(idx, f"expected CCSDS_TDM_VERS first, got {key!r}")
            if value != TDM_VERSION:
                raise TdmParseError(idx, f"unsupported version {value!r} (profile requires {TDM_VERSION})")
            state = "pre_meta"

        elif state == "pre_meta":
            if line != "META_START":
                raise TdmParseError(idx, f"expected META_START, got {line!r}")
            state = "meta"

        elif state == "meta":
            if line == "META_STOP":
                for want in _MANDATORY_META:
                    if want not in meta:
                        raise TdmParseError(idx, f"missing mandatory key {want}")
                state = "pre_data"
                meta_stop_line = idx
                continue
            key, value = _split_kv(line, idx)
            if key not in _META_KEYS_ORDER:
                raise TdmParseError(idx, f"unknown meta key {key!r}")
            if key in meta:
                raise TdmParseError(idx, f"duplicate meta key {key}")
            if key == "TIME_SYSTEM" and value != TIME_SYSTEM:
                raise TdmParseError(idx, f"TIME_SYSTEM must be {TIME_SYSTEM}, got {value!r}")
            if key == "MODE" and value != "SEQUENTIAL":
                raise TdmParseError(idx, f"MODE must be SEQUENTIAL, got {value!r}")
            if key == "ANGLE_TYPE" and value not in MODES:
                raise TdmParseError(idx, f"ANGLE_TYPE must be one of {MODES}, got {value!r}")
            if key == "RANGE_UNITS" and value != "km":
                raise TdmParseError(idx, f"RANGE_UNITS must be km, got {value!r}")
            meta[key] = value

        elif state == "pre_data":
            if line != "DATA_START":
                raise TdmParseError(idx, f"expected DATA_START, got {line!r}")
            state = "data"

        elif state == "data":
            if line == "DATA_STOP":
                flush_pending(idx)
                state = "done"
                continue
            key, value = _split_kv(line, idx)
            if key not in _DATA_KEYS:
                raise TdmParseError(idx, f"unknown data key {key!r}")
            if key == "RANGE" and not meta.get("RANGE_UNITS"):
                raise TdmParseError(idx, "RANGE line without RANGE_UNITS in meta")
            epoch, num = _parse_data_value(value, idx)
            if key == "ANGLE_1":
                flush_pending(idx)
                pending["epoch"] = epoch
                pending["ANGLE_1"] = num
                pending["line"] = idx
            else:
                if "ANGLE_1" not in pending:
                    raise TdmParseError(idx, f"{key} before ANGLE_1")
                if key in pending:
                    raise TdmParseError(idx, f"duplicate {key} in record")
                if epoch.t != pending["epoch"].t:
                    raise TdmParseError(idx, f"epoch mismatch within record ({key})")
                pending[key] = num

        else:    # done
            raise TdmParseError(idx, f"content after DATA_STOP: {line!r}")

    if state != "done":
        raise TdmParseError(len(lines) + 1,
                            {"version": "missing CCSDS_TDM_VERS",
                             "pre_meta": "missing META_START",
                             "meta": "missing META_STOP",
                             "pre_data": "missing DATA_START",
                             "data": "missing DATA_STOP"}[state])

    mode = meta["ANGLE_TYPE"]
    has_range = bool(meta.get("RANGE_UNITS"))
    records = []
    for raw in raw_records:
        a1, a2 = raw["ANGLE_1"], raw["ANGLE_2"]
        if not 0.0 <= a1 <= 360.0:
            raise TdmParseError(raw["line"], f"ANGLE_1 out of [0, 360]: {a1}")
        if not -90.0 <= a2 <= 90.0:
            raise TdmParseError(raw["line"], f"ANGLE_2 out of [-90, 90]: {a2}")
        rng = raw.get("RANGE")
        if rng is not None and rng <= 0.0:
            raise TdmParseError(raw["line"], f"RANGE must be positive: {rng}")
        records.append(ObservationRecord(
            epoch=raw["epoch"], angle1=math.radians(a1), angle2=math.radians(a2),
            range_km=rng))

    tdm_meta = TdmMeta(site_id=meta["PARTICIPANT_2"], participant=meta["PARTICIPANT_1"],
                       mode=mode, has_range=has_range)
    try:
        return Tdm(meta=tdm_meta, records=tuple(records))
    except TdmValidationError:
        raise
    except SdaError as exc:    # pragma: no cover - defensive
        raise TdmValidationError(str(exc)) from exc


def site_geometry(site: GroundSite, epoch: Epoch, mode: str) -> tuple:
    """(ECI position, (east, north, up) basis, radec) of a site at an
    epoch; radec tells RADEC angles, taken in the inertial frame, from
    AZEL ones, taken in the basis."""
    return (*site_frame(site, epoch), mode == "RADEC")


def observe_from(r, geometry) -> tuple:
    """(angle1, angle2, slant range) of an ECI position r as a site sees
    it, given site_geometry at r's epoch: azimuth and elevation for
    AZEL, topocentric right ascension and declination for RADEC."""
    rs, basis, radec = geometry
    if radec:
        return radec_from(r, rs)
    return azel_from(r, rs, basis)


def observe(sv: StateVector, site: GroundSite, mode: str) -> tuple:
    """observe_from for a state."""
    return observe_from(sv.r, site_geometry(site, sv.epoch, mode))


def line_of_sight(rec: ObservationRecord, geometry) -> tuple:
    """ECI unit vector along a record's two angles, given site_geometry
    at its epoch."""
    _, basis, radec = geometry
    if radec:
        return radec_to_unit_vector(rec.angle1, rec.angle2)
    return angles_to_unit_vector(rec.angle1, rec.angle2, basis)


def observed_position(rec: ObservationRecord, geometry) -> tuple:
    """ECI position of a ranged record: the site plus the slant range
    along the line of sight."""
    rs, u = geometry[0], line_of_sight(rec, geometry)
    return tuple(rs[k] + rec.range_km * u[k] for k in range(3))


def separation_rms(entries: list, states) -> float:
    """RMS great-circle separation between records and predicted states.

    entries holds (record, site_geometry at its epoch) pairs; states
    yields one predicted state per entry, in the same order.
    """
    acc = 0.0
    for (rec, geometry), sv in zip(entries, states):
        p1, p2, _ = observe_from(sv.r, geometry)
        sep = angular_separation(rec.angle1, rec.angle2, p1, p2)
        acc += sep * sep
    return math.sqrt(acc / len(entries))


def synth_tdm(record: OrbitRecord, site: GroundSite, epochs: list, noise_std: float,
              seed: int, *, mode: str = "AZEL", with_range: bool = False,
              participant: str = None, range_noise_km: float = 0.0,
              j2: float = J2_EARTH) -> Tdm:
    """Simulated sensor: observe a cataloged orbit and emit a canonical Tdm.

    Angles come from the reference propagator plus zero-mean Gaussian noise
    (seeded, so the same call yields identical bytes). Every epoch must
    clear the 10 degree elevation mask or a VisibilityError lists the
    offenders. participant=None claims record.object_id; pass "UNKNOWN"
    to emit an anonymous track.
    """
    if noise_std < 0.0 or range_noise_km < 0.0:
        raise ValueError("noise levels must be nonnegative")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    ordered = sorted(epochs, key=lambda e: e.t)
    states = list(propagate_many(record.elements, record.bstar, ordered,
                                 j2=j2))
    observed, offending = [], []
    for ep, sv in zip(ordered, states):
        rs, basis, radec = geometry = site_geometry(site, ep, mode)
        angles = observe_from(sv.r, geometry)
        # an AZEL record's second angle is the elevation the mask tests
        elevation = azel_from(sv.r, rs, basis)[1] if radec else angles[1]
        if elevation <= ELEVATION_MASK_RAD:
            offending.append(ep)
        observed.append(angles)
    if offending:
        raise VisibilityError(offending)

    rng = random.Random(seed)
    half_pi = math.pi / 2.0
    records = []
    for ep, (a1, a2, rho) in zip(ordered, observed):
        if noise_std > 0.0:
            a1 = wrap_two_pi(a1 + rng.gauss(0.0, noise_std))
            a2 = max(-half_pi, min(half_pi, a2 + rng.gauss(0.0, noise_std)))
        if with_range and range_noise_km > 0.0:
            rho = max(1e-9, rho + rng.gauss(0.0, range_noise_km))
        records.append(ObservationRecord(
            epoch=ep, angle1=a1, angle2=a2,
            range_km=rho if with_range else None))

    meta = TdmMeta(site_id=site.site_id,
                   participant=participant if participant is not None else record.object_id,
                   mode=mode, has_range=with_range)
    return Tdm(meta=meta, records=tuple(records))
