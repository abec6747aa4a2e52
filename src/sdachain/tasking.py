"""Prioritized observation task queue and sensor assignment.

Tasks are observation requests carried on the ledger: external requests
paid by a requester, and internal follow-ups spawned when validation
leaves an orbit unresolved.
A task targets either a cataloged object (by id) or an element-space
region around an initial orbit estimate. Priority is an explicit
weighted sum so scenarios can study alternative weightings; ordering is
a strict total order (score, then task_id bytes) so queue pops are
deterministic everywhere.
"""

import itertools
import math
from dataclasses import dataclass

from .astro import (
    Epoch,
    GroundSite,
    KeplerianElements,
    times_above_mask,
)
from .errors import SdaError
from .tdm import ELEVATION_MASK_RAD
from .validation import ELEMENTS, ValidationReport
from .wire import (
    BLOB,
    BOOL,
    DIGEST,
    EPOCH,
    F64,
    STRING,
    U64,
    record,
    sha256,
    union,
)

TASK_ORIGINS = ("external", "internal")

TASK_EXPIRY_S = 48.0 * 3600.0
INTERNAL_TASK_FEE = 10          # tokens, funded from protocol subsidy

# priority(task) = 2.0*urgency + 1.5*followup + 1.0*min(age/7d, 1) + 0.5*fee/(fee+100)
URGENCY_WEIGHT = 2.0
FOLLOWUP_WEIGHT = 1.5
AGE_WEIGHT = 1.0
AGE_SATURATION_DAYS = 7.0
FEE_WEIGHT = 0.5
FEE_SOFTENER = 100.0

MIN_VISIBLE_EPOCHS = 3
MIN_EPOCH_SPACING_S = 60.0
MAX_WINDOW_S = 24.0 * 3600.0

# follow-up region bounds: 3 * (angular rms scaled into each element) + floor
REGION_RMS_FACTOR = 3.0
REGION_FLOOR_A_KM = 1.0
REGION_FLOOR_E = 1e-3
REGION_FLOOR_ANGLE_RAD = 1e-3


class TaskingError(SdaError):
    """Raised for malformed tasks, windows, or precondition violations."""


def _wrapped_diff(x: float, y: float) -> float:
    d = abs(x - y) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


@dataclass(frozen=True)
class IodRegion:
    """Element-space box around an orbit estimate, for UCT follow-up.

    Tolerances cover a, e, i, and raan only: for the near-circular
    orbits that dominate the catalog, argp and M are individually
    ill-defined, so membership tests skip them (matching the element
    distance used for track association).
    """

    elements: KeplerianElements
    tol_a: float        # km
    tol_e: float
    tol_i: float        # rad
    tol_raan: float     # rad

    def __post_init__(self):
        for name in ("tol_a", "tol_e", "tol_i", "tol_raan"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise TaskingError(f"{name} must be positive and finite: {v}")

    def contains(self, el: KeplerianElements) -> bool:
        """True when el falls inside the box (raan compared wrapped).

        The caller is responsible for supplying elements osculating at
        an epoch comparable to the region's own.
        """
        return (abs(el.a - self.elements.a) <= self.tol_a
                and abs(el.e - self.elements.e) <= self.tol_e
                and abs(el.i - self.elements.i) <= self.tol_i
                and _wrapped_diff(el.raan, self.elements.raan) <= self.tol_raan)


def region_from_solution(elements: KeplerianElements,
                         rms_residual: float) -> IodRegion:
    """Follow-up region around an orbit fit, sized from its angular rms."""
    s = REGION_RMS_FACTOR * rms_residual
    return IodRegion(
        elements=elements,
        tol_a=s * elements.a + REGION_FLOOR_A_KM,
        tol_e=s + REGION_FLOOR_E,
        tol_i=s + REGION_FLOOR_ANGLE_RAD,
        tol_raan=s + REGION_FLOOR_ANGLE_RAD,
    )


@dataclass(frozen=True)
class Task:
    """A prioritized observation request.

    target is either an object_id string (cataloged target) or an
    IodRegion (follow-up on an uncataloged estimate). A task is open for
    as long as the ledger holds it: payout and expiry remove it.
    """

    task_id: bytes
    target: object      # str | IodRegion
    fee: int            # tokens
    urgency: bool
    origin: str
    created_at: Epoch

    def __post_init__(self):
        if len(self.task_id) != 32:
            raise TaskingError("task_id must be a 32-byte digest")
        if isinstance(self.target, str):
            if not self.target:
                raise TaskingError("object target must be nonempty")
        elif not isinstance(self.target, IodRegion):
            raise TaskingError(f"bad target type {type(self.target).__name__}")
        if not isinstance(self.fee, int) or self.fee < 0:
            raise TaskingError(f"fee must be a nonnegative integer: {self.fee}")
        if self.origin not in TASK_ORIGINS:
            raise TaskingError(f"unknown origin {self.origin!r}")

    def is_followup(self) -> bool:
        return isinstance(self.target, IodRegion)


REGION = record(IodRegion, ("elements", ELEMENTS), ("tol_a", F64),
                ("tol_e", F64), ("tol_i", F64), ("tol_raan", F64))

# The one on-chain target layout: tag 0 and an object_id, or tag 1 and a
# region.
TARGET = union(lambda t: 0 if isinstance(t, str) else 1, STRING, REGION)


def task_identity(target, fee: int, urgency: bool, origin: str,
                  created_at: Epoch, ref: bytes = b"") -> bytes:
    """Deterministic 32-byte task_id from the task's identity payload.

    ref distinguishes otherwise-identical requests: the posting account
    and nonce for external tasks, the validation report hash for
    internal follow-ups (so identical reports spawn the identical task).
    """
    return sha256(b"TASK" + TARGET.encode(target) + U64.encode(fee)
                  + BOOL.encode(urgency) + STRING.encode(origin)
                  + EPOCH.encode(created_at) + BLOB.encode(ref))


TASK = record(Task, ("task_id", DIGEST), ("target", TARGET), ("fee", U64),
              ("urgency", BOOL), ("origin", STRING), ("created_at", EPOCH))


def priority(task: Task, catalog: dict, now: Epoch) -> float:
    """Score a task; higher means observe sooner.

    Age counts days since the target's elements were last confirmed
    (the catalog record's epoch for cataloged targets, the estimate
    epoch for follow-up regions); targets missing from the catalog are
    maximally stale.
    """
    score = URGENCY_WEIGHT if task.urgency else 0.0
    if task.is_followup():
        score += FOLLOWUP_WEIGHT
        ref_epoch = task.target.elements.epoch
    else:
        rec = catalog.get(task.target)
        ref_epoch = rec.elements.epoch if rec is not None else None
    if ref_epoch is None:
        age_days = AGE_SATURATION_DAYS
    else:
        age_days = max(0.0, (now.t - ref_epoch.t) / 86400.0)
    score += AGE_WEIGHT * min(age_days / AGE_SATURATION_DAYS, 1.0)
    score += FEE_WEIGHT * task.fee / (task.fee + FEE_SOFTENER)
    return score


def order_queue(tasks, catalog: dict, now: Epoch) -> list:
    """Tasks sorted by descending score, ties broken by task_id."""
    return sorted(tasks, key=lambda t: (-priority(t, catalog, now), t.task_id))


def is_expired(task: Task, now: Epoch) -> bool:
    """True when the task has outlived the 48 h service window."""
    return now.t - task.created_at.t > TASK_EXPIRY_S


def visible_epochs(elements: KeplerianElements, bstar: float, site: GroundSite,
                   window) -> tuple:
    """Epochs in the window where the orbit clears the elevation mask.

    Samples every MIN_EPOCH_SPACING_S seconds, so returned epochs are
    spaced at least that far apart. A target that decays inside the
    window is visible only at epochs before its decay.

    The samples go to times_above_mask as one pass: it extends the
    orbit's grid over the window once, then screens the samples in one
    call of a template kernel, which skips a sample whose elevation stays
    at or below ELEVATION_MASK_RAD (10 deg) anywhere within a bound of
    its grid point moved in a straight line over the remainder step, and
    accepts one whose elevation stays above it. Only the samples it
    cannot decide get the exact propagated state and elevation, so the
    returned epochs and the errors raised are those of testing every
    sample exactly.
    """
    t0, t1 = window
    times = itertools.takewhile(lambda t: t <= t1.t, (
        t0.t + k * MIN_EPOCH_SPACING_S for k in itertools.count()))
    return tuple(Epoch(t) for t in times_above_mask(
        elements, bstar, site, times, ELEVATION_MASK_RAD))


def assign(queue, site: GroundSite, window, catalog: dict):
    """Pick the highest-priority task visible from the site.

    Returns (the task, observation epochs) or None when no target clears
    the elevation mask for at least three epochs in the window.
    """
    t0, t1 = window
    if t1.t < t0.t or t1.t - t0.t > MAX_WINDOW_S:
        raise TaskingError("window must be forward and at most 24 h long")
    for task in order_queue(queue, catalog, t0):
        if task.is_followup():
            el, bstar = task.target.elements, 0.0
        else:
            rec = catalog.get(task.target)
            if rec is None:
                continue    # nothing to point at yet
            el, bstar = rec.elements, rec.bstar
        epochs = visible_epochs(el, bstar, site, window)
        if len(epochs) >= MIN_VISIBLE_EPOCHS:
            return task, epochs
    return None


def internal_retask(report: ValidationReport, now: Epoch) -> Task | None:
    """Follow-up task for a settlement that left an orbit unresolved, or
    None when the report gives nothing to point at.

    An ambiguous report with a matched object retasks that object;
    otherwise the target is a region around the report's proposed
    elements, or none when the rms makes the region's tolerances
    infinite. The task is created at chain time now and keyed by the
    report hash, so replaying a chain reproduces the queue exactly.
    """
    if report.verdict not in ("ambiguous", "uct"):
        raise TaskingError(
            f"retask requires an ambiguous or uct report, got {report.verdict!r}")
    if report.verdict == "ambiguous" and report.matched_object:
        target = report.matched_object
    elif report.proposed_elements is not None:
        try:
            target = region_from_solution(report.proposed_elements,
                                          report.rms_residual)
        except TaskingError:
            return None
    else:
        return None
    ref = bytes.fromhex(report.report_hash)
    task_id = task_identity(target, INTERNAL_TASK_FEE, False, "internal",
                            now, ref)
    return Task(task_id=task_id, target=target, fee=INTERNAL_TASK_FEE,
                urgency=False, origin="internal", created_at=now)
