"""Federated learning of a propagation-residual correction model.

The global model is a 3x6 linear map from orbit/timing features to an
RSW-frame position correction in km. Nodes train locally on calibration
samples (range observations minus the propagated prediction), propose
new weights, and peers vote after evaluating the proposal on a
deterministic holdout split. Accepted proposals are averaged into the
global model.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .astro import (
    Epoch,
    KeplerianElements,
    StateVector,
    cross,
    propagate_j2,
    unit,
)
from .errors import SdaError
from .tdm import Tdm, observed_position, site_geometry
from .wire import F64, STRING, U64, fixed, record, sha256

MODEL_ROWS = 3
MODEL_COLS = 6
MODEL_ENTRY_BOUND = 1e3
RIDGE_LAMBDA = 1e-6
MIN_TRAIN_SAMPLES = 12
MIN_HOLDOUT_SAMPLES = 10
ACCEPT_IMPROVEMENT = 0.98   # rms_new must be <= this fraction of rms_old
MERGE_WEIGHT = 0.5
MAX_FEATURE_DT_S = 30.0 * 86400.0


class FedpropError(SdaError):
    pass


def _check_matrix(w) -> tuple:
    rows = tuple(tuple(float(v) for v in row) for row in w)
    if len(rows) != MODEL_ROWS or any(len(r) != MODEL_COLS for r in rows):
        raise FedpropError(f"weight matrix must be {MODEL_ROWS}x{MODEL_COLS}")
    for row in rows:
        for v in row:
            if not math.isfinite(v) or abs(v) > MODEL_ENTRY_BOUND:
                raise FedpropError(f"weight entry {v} outside sanity bound")
    return rows


@dataclass(frozen=True)
class ResidualModel:
    """Versioned global correction model stored on chain."""

    W: tuple = ((0.0,) * MODEL_COLS,) * MODEL_ROWS
    version: int = 0
    trained_on: int = 0

    def __post_init__(self):
        object.__setattr__(self, "W", _check_matrix(self.W))
        if self.version < 0 or self.trained_on < 0:
            raise FedpropError("version and trained_on must be nonnegative")

    def correction(self, x) -> tuple:
        """W @ x, km in the RSW frame."""
        return tuple(sum(wij * xj for wij, xj in zip(row, x)) for row in self.W)


# W row by row as MODEL_ROWS * MODEL_COLS f64
MATRIX = fixed(f"{MODEL_ROWS * MODEL_COLS}d",
               to=lambda W: [v for row in W for v in row],
               frm=lambda *v: tuple(v[k:k + MODEL_COLS]
                                    for k in range(0, len(v), MODEL_COLS)))

# The residual model inside the state encoding.
MODEL = record(ResidualModel, ("W", MATRIX), ("version", U64),
               ("trained_on", U64))


@dataclass(frozen=True)
class ModelProposal:
    W_new: tuple
    proposer: str
    claimed_rms: float    # km on the proposer's local data
    parent_version: int
    proposal_hash: bytes = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "W_new", _check_matrix(self.W_new))
        if not math.isfinite(self.claimed_rms) or self.claimed_rms < 0.0:
            raise FedpropError("claimed_rms must be finite and nonnegative")
        if self.parent_version < 0:
            raise FedpropError("parent_version must be nonnegative")
        object.__setattr__(self, "proposal_hash", sha256(PROPOSAL.encode(self)))


PROPOSAL = record(ModelProposal, ("proposer", STRING), ("claimed_rms", F64),
                  ("parent_version", U64), ("W_new", MATRIX))


@dataclass(frozen=True)
class CalibrationSample:
    """One supervised pair: features at an epoch, RSW position residual in km."""

    epoch: Epoch
    x: tuple      # 6 features
    y: tuple      # 3 residual components, km

    def __post_init__(self):
        if len(self.x) != MODEL_COLS or len(self.y) != MODEL_ROWS:
            raise FedpropError("sample has wrong feature/residual arity")

    def in_holdout(self) -> bool:
        # Deterministic 50% split on the epoch text hash: LSB 1 = holdout.
        h = hashlib.sha256(self.epoch.iso().encode("ascii")).digest()
        return bool(h[-1] & 1)


def features(el: KeplerianElements, bstar: float, dt_s: float) -> tuple:
    """Dimensionless model inputs for a LEO record at offset dt from epoch."""
    if abs(dt_s) > MAX_FEATURE_DT_S:
        raise FedpropError(f"dt {dt_s} s exceeds 30-day feature horizon")
    d = dt_s / 86400.0
    return (1.0, d, d * d, bstar * 1e4, el.e, (el.a - 7000.0) / 1000.0)


def rsw_axes(sv: StateVector) -> tuple:
    """Radial / along-track / cross-track unit vectors at a state."""
    r_hat = unit(sv.r)
    w_hat = unit(cross(sv.r, sv.v))
    s_hat = cross(w_hat, r_hat)
    return r_hat, s_hat, w_hat


def corrected_propagate(el: KeplerianElements, bstar: float, t: Epoch,
                        model: ResidualModel) -> StateVector:
    """propagate_j2 plus the model's RSW position correction; velocity untouched."""
    sv = propagate_j2(el, bstar, t)
    x = features(el, bstar, t.t - el.epoch.t)
    dr, ds, dw = model.correction(x)
    r_hat, s_hat, w_hat = rsw_axes(sv)
    r = tuple(sv.r[k] + dr * r_hat[k] + ds * s_hat[k] + dw * w_hat[k]
              for k in range(3))
    return StateVector(epoch=t, r=r, v=sv.v)


def samples_from_range_tdm(tdm: Tdm, site, record) -> list:
    """Supervision pairs from a range-bearing TDM of a calibration object.

    The observed ECI position comes from the measured line of sight and
    range; the residual is observed minus propagate_j2, expressed in the
    predicted state's RSW frame.
    """
    if not tdm.meta.has_range:
        raise FedpropError("calibration samples need range observations")
    out = []
    el = record.elements
    for rec in tdm.records:
        sv = propagate_j2(el, record.bstar, rec.epoch)
        observed = observed_position(
            rec, site_geometry(site, rec.epoch, tdm.meta.mode))
        diff = tuple(observed[k] - sv.r[k] for k in range(3))
        r_hat, s_hat, w_hat = rsw_axes(sv)
        y = (sum(diff[k] * r_hat[k] for k in range(3)),
             sum(diff[k] * s_hat[k] for k in range(3)),
             sum(diff[k] * w_hat[k] for k in range(3)))
        x = features(el, record.bstar, rec.epoch.t - el.epoch.t)
        out.append(CalibrationSample(epoch=rec.epoch, x=x, y=y))
    return out


def holdout_split(samples: list) -> tuple:
    """(train, holdout) by the deterministic epoch-hash rule."""
    train = [s for s in samples if not s.in_holdout()]
    hold = [s for s in samples if s.in_holdout()]
    return train, hold


def train_local(samples: list, lam: float = RIDGE_LAMBDA) -> tuple:
    """Closed-form ridge regression, one solve per output row."""
    if lam <= 0.0:
        raise FedpropError("ridge lambda must be positive")
    if len(samples) < MIN_TRAIN_SAMPLES:
        raise FedpropError(f"need at least {MIN_TRAIN_SAMPLES} samples, "
                           f"got {len(samples)}")
    X = np.array([s.x for s in samples], dtype=float)
    Y = np.array([s.y for s in samples], dtype=float)
    gram = X.T @ X + lam * np.eye(MODEL_COLS)
    W = np.linalg.solve(gram, X.T @ Y).T
    return _check_matrix(W.tolist())


def model_rms(W: tuple, samples: list) -> float:
    """RMS 3-D residual (km) of y - W x over the samples."""
    if not samples:
        raise FedpropError("cannot evaluate on zero samples")
    Wm = np.array(W, dtype=float)
    X = np.array([s.x for s in samples], dtype=float)
    Y = np.array([s.y for s in samples], dtype=float)
    E = Y - X @ Wm.T
    return float(np.sqrt(np.mean(np.sum(E * E, axis=1))))


def verify_proposal(p: ModelProposal, samples: list,
                    current: ResidualModel) -> tuple:
    """(rms_new, rms_old, vote) on the deterministic holdout.

    vote is "accept", "reject", or "abstain" (holdout too small to judge;
    abstentions never count toward quorum). Pure, so every honest
    verifier holding the same chain emits the same vote.
    """
    if p.parent_version != current.version:
        return (math.inf, math.inf, "reject")
    _, hold = holdout_split(samples)
    if len(hold) < MIN_HOLDOUT_SAMPLES:
        return (math.inf, math.inf, "abstain")
    rms_new = model_rms(p.W_new, hold)
    rms_old = model_rms(current.W, hold)
    vote = "accept" if rms_new <= ACCEPT_IMPROVEMENT * rms_old else "reject"
    return (rms_new, rms_old, vote)


def merge_model(current: ResidualModel, p: ModelProposal,
                trained_on: int = 0) -> ResidualModel:
    """Average the accepted proposal into the global model, bump version."""
    if p.parent_version != current.version:
        raise FedpropError(f"stale proposal: parent {p.parent_version} != "
                           f"global {current.version}")
    W = tuple(tuple(MERGE_WEIGHT * g + (1.0 - MERGE_WEIGHT) * n
                    for g, n in zip(grow, nrow))
              for grow, nrow in zip(current.W, p.W_new))
    return ResidualModel(W=W, version=current.version + 1,
                         trained_on=max(current.trained_on, trained_on))
