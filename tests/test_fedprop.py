import math
import random

import numpy as np
import pytest

from conftest import site_under
from sdachain.astro import (
    Epoch,
    KeplerianElements,
    OrbitRecord,
    norm,
    propagate_j2,
    topocentric_angles,
)
from sdachain.fedprop import (
    CalibrationSample,
    FedpropError,
    ModelProposal,
    ResidualModel,
    corrected_propagate,
    features,
    holdout_split,
    merge_model,
    model_rms,
    samples_from_range_tdm,
    train_local,
    verify_proposal,
)
from sdachain.tdm import ObservationRecord, Tdm, TdmMeta, observe

CAL_ELEMENTS = KeplerianElements(a=7100.0, e=0.01, i=0.9, raan=0.4, argp=1.0,
                                 M=0.2, epoch=Epoch(0.0))
CAL_RECORD = OrbitRecord(object_id="CAL-1", elements=CAL_ELEMENTS,
                         source="calibration")
# along-track drift, linear plus quadratic in dt: the shape a drag error has
W_TRUE = ((0.0,) * 6,
          (0.0, 0.8, 0.3, 0.0, 0.0, 0.0),
          (0.0,) * 6)


def range_tdm_of_truth(truth_model, epochs, site, mode="AZEL"):
    obs = []
    for t in epochs:
        sv = corrected_propagate(CAL_ELEMENTS, 0.0, t, truth_model)
        a1, a2, rng_km = observe(sv, site, mode)
        obs.append(ObservationRecord(epoch=t, angle1=a1, angle2=a2,
                                     range_km=rng_km))
    meta = TdmMeta(site_id=site.site_id, participant="CAL-1", mode=mode,
                   has_range=True)
    return Tdm(meta=meta, records=obs)


def calibration_samples(n_passes=8):
    truth = ResidualModel(W=W_TRUE)
    samples = []
    for k in range(n_passes):
        t0 = 400.0 + 5000.0 * k
        site = site_under(CAL_RECORD, Epoch(t0 + 150.0), site_id=f"S{k}")
        epochs = [Epoch(t0 + 60.0 * j) for j in range(5)]
        tdm = range_tdm_of_truth(truth, epochs, site)
        samples.extend(samples_from_range_tdm(tdm, site, CAL_RECORD))
    return samples


def synthetic_samples(rng, n, w_star):
    out = []
    for k in range(n):
        x = (1.0, rng.uniform(-1, 1), rng.uniform(0, 1), rng.uniform(0, 2),
             rng.uniform(0, 0.1), rng.uniform(-0.5, 0.5))
        y = tuple(sum(w * xi for w, xi in zip(row, x)) for row in w_star)
        out.append(CalibrationSample(epoch=Epoch(float(k)), x=x, y=y))
    return out


class TestFeatures:
    def test_origin(self):
        el = KeplerianElements(a=7000.0, e=0.0, i=1.0, raan=0.0, argp=0.0,
                               M=0.0, epoch=Epoch(0.0))
        assert features(el, 0.0, 0.0) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_day_normalization(self):
        el = KeplerianElements(a=7000.0, e=0.0, i=1.0, raan=0.0, argp=0.0,
                               M=0.0, epoch=Epoch(0.0))
        x = features(el, 0.0, 86400.0)
        assert x[1] == 1.0 and x[2] == 1.0

    def test_pure(self):
        x1 = features(CAL_ELEMENTS, 1e-5, 4321.0)
        x2 = features(CAL_ELEMENTS, 1e-5, 4321.0)
        assert x1 == x2

    def test_horizon_limit(self):
        with pytest.raises(FedpropError):
            features(CAL_ELEMENTS, 0.0, 31.0 * 86400.0)


class TestResidualModel:
    def test_default_is_zero(self):
        m = ResidualModel()
        assert m.version == 0
        assert m.correction((1.0,) * 6) == (0.0, 0.0, 0.0)

    def test_entry_bound(self):
        with pytest.raises(FedpropError):
            ResidualModel(W=((2e3,) * 6,) * 3)

    def test_nan_rejected(self):
        with pytest.raises(FedpropError):
            ResidualModel(W=((math.nan,) * 6,) * 3)

    def test_proposal_hash_tracks_content(self):
        p1 = ModelProposal(W_new=W_TRUE, proposer="n1", claimed_rms=0.1,
                           parent_version=0)
        p2 = ModelProposal(W_new=W_TRUE, proposer="n1", claimed_rms=0.1,
                           parent_version=0)
        p3 = ModelProposal(W_new=W_TRUE, proposer="n2", claimed_rms=0.1,
                           parent_version=0)
        assert p1.proposal_hash == p2.proposal_hash
        assert p1.proposal_hash != p3.proposal_hash


class TestCorrectedPropagate:
    def test_zero_model_is_identity(self):
        t = Epoch(3000.0)
        plain = propagate_j2(CAL_ELEMENTS, 0.0, t)
        corr = corrected_propagate(CAL_ELEMENTS, 0.0, t, ResidualModel())
        assert corr.r == plain.r
        assert corr.v == plain.v

    def test_radial_row_shifts_radius(self):
        w = ((0.25, 0.0, 0.0, 0.0, 0.0, 0.0),
             (0.0,) * 6,
             (0.0,) * 6)
        t = Epoch(3000.0)
        plain = propagate_j2(CAL_ELEMENTS, 0.0, t)
        corr = corrected_propagate(CAL_ELEMENTS, 0.0, t, ResidualModel(W=w))
        assert abs((norm(corr.r) - norm(plain.r)) - 0.25) < 1e-9
        assert corr.v == plain.v

    def test_correction_magnitude_is_isometric(self):
        m = ResidualModel(W=W_TRUE)
        t = Epoch(40000.0)
        plain = propagate_j2(CAL_ELEMENTS, 0.0, t)
        corr = corrected_propagate(CAL_ELEMENTS, 0.0, t, m)
        shift = norm(tuple(a - b for a, b in zip(corr.r, plain.r)))
        x = features(CAL_ELEMENTS, 0.0, t.t)
        assert abs(shift - norm(m.correction(x))) < 1e-9


class TestTrainLocal:
    def test_null_residuals_give_null_model(self):
        rng = random.Random(1)
        zero = ((0.0,) * 6,) * 3
        W = train_local(synthetic_samples(rng, 40, zero))
        assert max(abs(v) for row in W for v in row) < 1e-9

    def test_recovers_exact_linear_process(self):
        rng = random.Random(2)
        W = train_local(synthetic_samples(rng, 60, W_TRUE))
        err = max(abs(a - b) for ra, rb in zip(W, W_TRUE)
                  for a, b in zip(ra, rb))
        assert err < 1e-6

    def test_duplication_invariance(self):
        # scale invariance of the normal equations, up to the tiny
        # fixed-lambda bias
        rng = random.Random(3)
        s = synthetic_samples(rng, 30, W_TRUE)
        w1 = np.array(train_local(s))
        w2 = np.array(train_local(s + s))
        assert np.max(np.abs(w1 - w2)) < 1e-6

    def test_sample_floor(self):
        rng = random.Random(4)
        with pytest.raises(FedpropError):
            train_local(synthetic_samples(rng, 11, W_TRUE))


class TestHoldout:
    def test_partition(self):
        samples = calibration_samples()
        train, hold = holdout_split(samples)
        assert len(train) + len(hold) == len(samples)
        assert all(not s.in_holdout() for s in train)
        assert all(s.in_holdout() for s in hold)

    def test_split_is_deterministic_and_balanced(self):
        rng = random.Random(6)
        samples = synthetic_samples(rng, 200, W_TRUE)
        t1, h1 = holdout_split(samples)
        t2, h2 = holdout_split(samples)
        assert [s.epoch.t for s in h1] == [s.epoch.t for s in h2]
        assert 0.2 < len(h1) / len(samples) < 0.8


class TestVerifyAndMerge:
    def test_identity_proposal_rejected(self):
        samples = calibration_samples()
        g = ResidualModel()
        p = ModelProposal(W_new=g.W, proposer="n", claimed_rms=0.0,
                          parent_version=0)
        _, _, vote = verify_proposal(p, samples, g)
        assert vote == "reject"

    def test_stale_parent_rejected(self):
        samples = calibration_samples()
        g = ResidualModel(version=2)
        p = ModelProposal(W_new=W_TRUE, proposer="n", claimed_rms=0.0,
                          parent_version=0)
        assert verify_proposal(p, samples, g)[2] == "reject"
        with pytest.raises(FedpropError):
            merge_model(g, p)

    def test_small_holdout_abstains(self):
        samples = calibration_samples()[:6]
        g = ResidualModel()
        p = ModelProposal(W_new=W_TRUE, proposer="n", claimed_rms=0.0,
                          parent_version=0)
        assert verify_proposal(p, samples, g)[2] == "abstain"

    def test_poisoned_proposal_rejected(self):
        samples = calibration_samples()
        g = ResidualModel()
        p = ModelProposal(W_new=((900.0,) * 6,) * 3, proposer="evil",
                          claimed_rms=0.0, parent_version=0)
        rms_new, rms_old, vote = verify_proposal(p, samples, g)
        assert vote == "reject"
        assert rms_new > rms_old

    def test_merge_arithmetic(self):
        g = ResidualModel()
        p = ModelProposal(W_new=W_TRUE, proposer="n", claimed_rms=0.0,
                          parent_version=0)
        m = merge_model(g, p)
        assert m.version == 1
        assert m.W[1][1] == 0.5 * W_TRUE[1][1]

    def test_merge_fixed_point(self):
        g = ResidualModel(W=W_TRUE, version=4)
        p = ModelProposal(W_new=W_TRUE, proposer="n", claimed_rms=0.0,
                          parent_version=4)
        m = merge_model(g, p)
        assert m.W == g.W
        assert m.version == 5

    def test_merge_contracts_geometrically(self):
        g = ResidualModel()
        for k in range(3):
            p = ModelProposal(W_new=W_TRUE, proposer="n", claimed_rms=0.0,
                              parent_version=g.version)
            g = merge_model(g, p)
        assert abs(g.W[1][1] - 0.875 * W_TRUE[1][1]) < 1e-12

    def test_three_rounds_halve_holdout_rms(self):
        # drag-shaped residual in the feature span: the federated loop
        # must cut corrected holdout RMS below half of uncorrected
        samples = calibration_samples()
        train, hold = holdout_split(samples)
        base = model_rms(ResidualModel().W, hold)
        g = ResidualModel()
        for _ in range(3):
            W = train_local(train)
            p = ModelProposal(W_new=W, proposer="n",
                              claimed_rms=model_rms(W, train),
                              parent_version=g.version)
            assert verify_proposal(p, samples, g)[2] == "accept"
            g = merge_model(g, p)
        assert model_rms(g.W, hold) < 0.2 * base


class TestSampleConstruction:
    def test_requires_range(self):
        site = site_under(CAL_RECORD, Epoch(600.0))
        obs = []
        for t in (Epoch(500.0), Epoch(600.0), Epoch(700.0)):
            sv = propagate_j2(CAL_ELEMENTS, 0.0, t)
            az, el, _ = topocentric_angles(sv, site)
            obs.append(ObservationRecord(epoch=t, angle1=az, angle2=el))
        meta = TdmMeta(site_id=site.site_id, participant="CAL-1", mode="AZEL",
                       has_range=False)
        tdm = Tdm(meta=meta, records=obs)
        with pytest.raises(FedpropError):
            samples_from_range_tdm(tdm, site, CAL_RECORD)

    def test_zero_residual_process(self):
        # truth identical to the propagator: supervision must be ~0
        site = site_under(CAL_RECORD, Epoch(600.0))
        epochs = [Epoch(500.0 + 60.0 * j) for j in range(5)]
        tdm = range_tdm_of_truth(ResidualModel(), epochs, site)
        samples = samples_from_range_tdm(tdm, site, CAL_RECORD)
        worst = max(norm(s.y) for s in samples)
        assert worst < 1e-5   # limited by 9-dp angle quantization

    def test_radec_matches_azel(self):
        # one truth seen in either angle type gives the same supervision
        truth = ResidualModel(W=W_TRUE)
        site = site_under(CAL_RECORD, Epoch(600.0))
        epochs = [Epoch(500.0 + 60.0 * j) for j in range(5)]
        azel, radec = (samples_from_range_tdm(
            range_tdm_of_truth(truth, epochs, site, mode), site, CAL_RECORD)
            for mode in ("AZEL", "RADEC"))
        assert max(norm(s.y) for s in azel) > 1e-3
        for a, r in zip(azel, radec):
            assert a.x == r.x
            assert norm(tuple(u - v for u, v in zip(a.y, r.y))) < 1e-5
