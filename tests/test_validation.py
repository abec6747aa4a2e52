import dataclasses
import math
import random
import struct

import pytest

from conftest import count_calls, count_site_frames, leo_record, site_under
from sdachain import fedprop
from sdachain.astro import Epoch, KeplerianElements, OrbitRecord
from sdachain.iod import iod_from_tdm, refine_elements
from sdachain.tdm import MODES, ObservationRecord, Tdm, synth_tdm
from sdachain.validation import (
    REPORT,
    ValidationError,
    ValidationParams,
    ValidationReport,
    associate_uct,
    element_distance,
    mine_object,
    validate_tdm,
)

P = ValidationParams()


def catalog_of(seed, n):
    rng = random.Random(seed)
    return [leo_record(rng, object_id=f"SAT-{k:03d}") for k in range(n)]


def observe(rec, seed, noise, offset_deg=0.0, claim=None, site_id="S1",
            t0=None, with_range=False, n_rec=8, mode="AZEL"):
    t0 = 600.0 + (seed % 7) * 400.0 if t0 is None else t0
    site = site_under(rec, Epoch(t0 + 120.0), site_id=site_id)
    epochs = [Epoch(t0 + 30.0 * k) for k in range(n_rec)]
    tdm = synth_tdm(rec, site, epochs, noise, seed=seed,
                    participant=claim or rec.object_id, with_range=with_range,
                    mode=mode)
    if offset_deg:
        off = math.radians(offset_deg)
        recs = [ObservationRecord(epoch=r.epoch, angle1=r.angle1,
                                  angle2=max(-math.pi / 2,
                                             min(math.pi / 2, r.angle2 + off)),
                                  range_km=r.range_km)
                for r in tdm.records]
        tdm = Tdm(meta=tdm.meta, records=recs)
    return tdm, site


class TestParams:
    def test_defaults_ordered(self):
        assert P.theta_verify < P.theta_reject <= P.theta_gate

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValidationError):
            ValidationParams(theta_verify=math.radians(0.5),
                             theta_reject=math.radians(0.1))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            ValidationParams(d_assoc=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ValidationParams)])
    def test_nonfinite_value_rejected(self, name, value):
        # NaN passes `<= 0.0`, and a NaN d_assoc made association never
        # match; an infinite theta_gate or weight passed as well
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            ValidationParams(**{name: value})


class TestReport:
    def test_verified_needs_match(self):
        with pytest.raises(ValidationError):
            ValidationReport(tdm_hash="ab", verdict="verified",
                             matched_object=None, rms_residual=0.001,
                             candidates_checked=1)

    def test_unknown_verdict(self):
        with pytest.raises(ValidationError):
            ValidationReport(tdm_hash="ab", verdict="plausible",
                             matched_object=None, rms_residual=0.0,
                             candidates_checked=0)

    @pytest.mark.parametrize("verdict", ["verified", "uct"])
    def test_nan_rms_refused_built_and_decoded(self, verdict):
        fields = dict(tdm_hash="ab", verdict=verdict, matched_object="SAT-1",
                      candidates_checked=1)
        with pytest.raises(ValidationError, match="nonnegative"):
            ValidationReport(rms_residual=math.nan, **fields)
        # the same bytes with the rms field set to NaN do not decode either
        raw = REPORT.encode(ValidationReport(rms_residual=0.5, **fields))
        at = raw.index(struct.pack(">d", 0.5))
        nan = raw[:at] + struct.pack(">d", math.nan) + raw[at + 8:]
        with pytest.raises(ValidationError, match="nonnegative"):
            REPORT.decode(nan)

    def test_hash_tracks_content(self):
        r1 = ValidationReport(tdm_hash="ab", verdict="uct", matched_object=None,
                              rms_residual=0.001, candidates_checked=0)
        r2 = ValidationReport(tdm_hash="ab", verdict="uct", matched_object=None,
                              rms_residual=0.001, candidates_checked=0)
        r3 = ValidationReport(tdm_hash="ab", verdict="uct", matched_object=None,
                              rms_residual=0.002, candidates_checked=0)
        assert r1.report_hash == r2.report_hash
        assert r1.report_hash != r3.report_hash

    @staticmethod
    def mined_report(**changes):
        rec = leo_record(random.Random(3), "MINED-abcdef01")
        fields = dict(tdm_hash="ab", verdict="uct", matched_object=None,
                      rms_residual=0.001, candidates_checked=0,
                      proposed_elements=rec.elements, uct_matches=("cd",),
                      mined=dataclasses.replace(rec, source="mined"))
        return ValidationReport(**{**fields, **changes})

    def test_mined_orbit_is_hashed(self):
        rep = self.mined_report()
        assert rep.report_hash != self.mined_report(mined=None).report_hash
        moved = dataclasses.replace(rep.mined, object_id="MINED-abcdef02")
        assert rep.report_hash != self.mined_report(mined=moved).report_hash

    @pytest.mark.parametrize("verdict", ["verified", "rejected", "ambiguous"])
    def test_mined_orbit_needs_uct_verdict(self, verdict):
        with pytest.raises(ValidationError, match="only a uct report"):
            self.mined_report(verdict=verdict, matched_object="SAT-1")

    def test_mined_orbit_needs_uct_matches(self):
        with pytest.raises(ValidationError, match="needs uct_matches"):
            self.mined_report(uct_matches=())

    def test_mined_orbit_needs_distinct_matches(self):
        with pytest.raises(ValidationError, match="distinct uct_matches"):
            self.mined_report(uct_matches=("cd", "ef", "cd"))

    @pytest.mark.parametrize("source", ["cataloged", "calibration"])
    def test_mined_orbit_needs_mined_source(self, source):
        rec = self.mined_report().mined
        with pytest.raises(ValidationError, match="source 'mined'"):
            self.mined_report(mined=dataclasses.replace(rec, source=source))

    def test_mined_must_be_an_orbit(self):
        with pytest.raises(ValidationError, match="source 'mined'"):
            self.mined_report(mined="MINED-abcdef01")


class TestValidateTdm:
    def test_honest_verified(self):
        catalog = catalog_of(11, 6)
        for mode in MODES:
            for k in range(5):
                rec = catalog[k % len(catalog)]
                tdm, site = observe(rec, 5000 + k, 1e-4, mode=mode)
                rep = validate_tdm(tdm, catalog, {"S1": site}, P)
                assert rep.verdict == "verified", mode
                assert rep.matched_object == rec.object_id
                assert rep.rms_residual <= P.theta_verify

    @pytest.mark.parametrize("mode", MODES)
    def test_one_site_geometry_per_record(self, monkeypatch, mode):
        # every candidate reads the records through one geometry each,
        # and predicts the first record once, for its gate and its RMS
        catalog = catalog_of(13, 10)
        tdm, site = observe(catalog[3], 5100, 1e-4, mode=mode)
        frames = count_site_frames(monkeypatch)
        calls = count_calls(monkeypatch, (fedprop, "corrected_propagate"))
        rep = validate_tdm(tdm, catalog, {"S1": site}, P)
        assert rep.verdict == "verified"
        assert sum(frames.values()) <= len(tdm.records)
        assert calls["corrected_propagate"] == (
            len(catalog) + (len(tdm.records) - 1) * rep.candidates_checked)

    def test_noiseless_self_consistency(self):
        catalog = catalog_of(12, 3)
        tdm, site = observe(catalog[0], 42, 0.0)
        rep = validate_tdm(tdm, catalog, {"S1": site}, P)
        assert rep.verdict == "verified"
        assert rep.rms_residual < 1e-5

    def test_spoof_rejected(self):
        catalog = catalog_of(11, 6)
        for mode in MODES:
            for k in range(5):
                rec = catalog[k % len(catalog)]
                tdm, site = observe(rec, 6000 + k, 1e-4, offset_deg=1.0,
                                    mode=mode)
                rep = validate_tdm(tdm, catalog, {"S1": site}, P)
                assert rep.verdict == "rejected", mode
                assert rep.matched_object == rec.object_id
                assert rep.rms_residual > P.theta_reject

    def test_borderline_ambiguous_never_rejected(self):
        catalog = catalog_of(11, 6)
        for k in range(5):
            rec = catalog[k % len(catalog)]
            tdm, site = observe(rec, 7000 + k, 1e-4, offset_deg=0.3)
            rep = validate_tdm(tdm, catalog, {"S1": site}, P)
            assert rep.verdict == "ambiguous"

    def test_uncataloged_is_uct_with_elements(self):
        catalog = catalog_of(11, 6)
        ghost = leo_record(random.Random(999), object_id="GHOST")
        tdm, site = observe(ghost, 8000, 1e-4, claim="UNKNOWN",
                            with_range=True)
        rep = validate_tdm(tdm, catalog, {"S1": site}, P)
        assert rep.verdict == "uct"
        assert rep.proposed_elements is not None
        assert abs(rep.proposed_elements.a - ghost.elements.a) < 5.0

    def test_angles_only_uct_still_detected(self):
        # without ranges the track still lands in the pool, just with a
        # coarser orbit estimate
        catalog = catalog_of(11, 6)
        ghost = leo_record(random.Random(999), object_id="GHOST")
        tdm, site = observe(ghost, 8001, 1e-4, claim="UNKNOWN")
        rep = validate_tdm(tdm, catalog, {"S1": site}, P)
        assert rep.verdict == "uct"
        assert rep.proposed_elements is not None

    def test_short_arc_uct_falls_back_to_ambiguous(self):
        # geometry defeats IOD (all records in a tight clump): retask,
        # never a rejection
        catalog = catalog_of(11, 3)
        ghost = leo_record(random.Random(998), object_id="GHOST2")
        site = site_under(ghost, Epoch(610.0), site_id="S1")
        epochs = [Epoch(600.0 + 2.0 * k) for k in range(3)]
        tdm = synth_tdm(ghost, site, epochs, 1e-4, seed=1, participant="UNKNOWN")
        rep = validate_tdm(tdm, catalog, {"S1": site}, P)
        assert rep.verdict == "ambiguous"
        assert rep.candidates_checked == 0

    def test_pure_function(self):
        catalog = catalog_of(13, 4)
        tdm, site = observe(catalog[1], 900, 1e-4)
        r1 = validate_tdm(tdm, catalog, {"S1": site}, P)
        r2 = validate_tdm(tdm, catalog, {"S1": site}, P)
        assert r1.report_hash == r2.report_hash

    def test_unknown_site_raises(self):
        catalog = catalog_of(13, 2)
        tdm, site = observe(catalog[0], 901, 1e-4)
        with pytest.raises(ValidationError):
            validate_tdm(tdm, catalog, {"OTHER": site}, P)

    def test_claim_not_in_catalog_ignored(self):
        catalog = catalog_of(13, 4)
        tdm, site = observe(catalog[2], 902, 1e-4, claim="NOSUCH")
        rep = validate_tdm(tdm, catalog, {"S1": site}, P)
        assert rep.verdict == "verified"
        assert rep.matched_object == catalog[2].object_id

    def test_decayed_candidate_skipped_with_note(self):
        rng = random.Random(77)
        rec = leo_record(rng, object_id="LIVE")
        # perigee in dense atmosphere plus a huge drag coefficient: gone
        # long before the observation epochs
        dead_el = KeplerianElements(a=6560.0, e=0.001, i=0.9, raan=0.1,
                                    argp=0.2, M=0.3, epoch=Epoch(0.0))
        dead = OrbitRecord(object_id="DECAYED", elements=dead_el, bstar=1e-2)
        tdm, site = observe(rec, 903, 1e-4, t0=500000.0)
        rep = validate_tdm(tdm, [rec, dead], {"S1": site}, P)
        assert rep.verdict == "verified"
        assert any("DECAYED" in n for n in rep.notes)


class TestAssociation:
    def test_same_elements_zero_distance(self):
        rec = leo_record(random.Random(20))
        assert element_distance(rec.elements, rec.elements, P) == 0.0

    def test_weight_scaling(self):
        rec = leo_record(random.Random(21))
        el = rec.elements
        shifted = KeplerianElements(a=el.a + 100.0, e=el.e, i=el.i,
                                    raan=el.raan, argp=el.argp, M=el.M,
                                    epoch=el.epoch)
        assert abs(element_distance(shifted, el, P) - 1.0) < 1e-9

    def test_j2_drift_absorbed_by_common_epoch(self):
        # osculating elements of one orbit sampled 90 min apart: naive
        # differencing would see the secular raan drift
        from sdachain.astro import propagate_j2, state_to_kepler
        rec = leo_record(random.Random(22))
        el_a = state_to_kepler(propagate_j2(rec.elements, 0.0, Epoch(600.0)))
        el_b = state_to_kepler(propagate_j2(rec.elements, 0.0, Epoch(6000.0)))
        assert element_distance(el_a, el_b, P) < 0.02

    def test_pool_matching_and_order(self):
        rec = leo_record(random.Random(23))
        tdm_a, site_a = observe(rec, 930, 1e-5, site_id="A", t0=600.0,
                                with_range=True)
        tdm_b, site_b = observe(rec, 931, 1e-5, site_id="B", t0=6000.0,
                                with_range=True)
        sol_a = refine_elements(iod_from_tdm(tdm_a, site_a).elements, [tdm_a],
                                {"A": site_a}, bstar=0.0)
        sol_b = refine_elements(iod_from_tdm(tdm_b, site_b).elements, [tdm_b],
                                {"B": site_b}, bstar=0.0)
        far = leo_record(random.Random(24), object_id="FAR")
        far_el = KeplerianElements(a=far.elements.a + 600.0, e=far.elements.e,
                                   i=far.elements.i, raan=far.elements.raan,
                                   argp=far.elements.argp, M=far.elements.M,
                                   epoch=far.elements.epoch)
        pool = [("hash-far", far_el), ("hash-a", sol_a.elements)]
        matches = associate_uct(sol_b.elements, pool, P)
        assert [h for h, _ in matches] == ["hash-a"]
        assert matches[0][1] <= P.d_assoc

    def test_distinct_orbits_do_not_match(self):
        rng = random.Random(25)
        rec1 = leo_record(rng)
        rec2 = leo_record(rng)
        assert associate_uct(rec1.elements, [("h2", rec2.elements)], P) == []

    def test_tie_break_by_hash(self):
        rec = leo_record(random.Random(26))
        pool = [("zz", rec.elements), ("aa", rec.elements)]
        matches = associate_uct(rec.elements, pool, P)
        assert [h for h, _ in matches] == ["aa", "zz"]


class TestMining:
    def mine_inputs(self, seed=30, noise=0.0):
        ghost = leo_record(random.Random(seed), object_id="GHOST")
        tdm_a, site_a = observe(ghost, 940, noise, site_id="A", t0=600.0,
                                with_range=True, claim="UNKNOWN")
        tdm_b, site_b = observe(ghost, 941, noise, site_id="B", t0=22200.0,
                                with_range=True, claim="UNKNOWN")
        return ghost, [tdm_a, tdm_b], {"A": site_a, "B": site_b}

    def test_mines_uncataloged_orbit(self):
        from sdachain.astro import propagate_j2, state_to_kepler
        ghost, tdms, sites = self.mine_inputs()
        rec = mine_object(tdms, sites, P)
        assert rec is not None
        assert rec.source == "mined"
        # compare osculating against osculating at the fit epoch
        truth = state_to_kepler(propagate_j2(ghost.elements, 0.0,
                                             rec.elements.epoch))
        for name in ("a", "e", "i", "raan", "argp", "M"):
            got = getattr(rec.elements, name)
            want = getattr(truth, name)
            diff = abs(got - want)
            if name in ("raan", "argp", "M"):
                diff = abs((got - want + math.pi) % (2.0 * math.pi) - math.pi)
            assert diff / max(abs(want), 1.0) < 1e-4, name

    def test_object_id_is_deterministic(self):
        _, tdms, sites = self.mine_inputs()
        r1 = mine_object(tdms, sites, P)
        r2 = mine_object(list(reversed(tdms)), sites, P)
        first = min(tdms, key=lambda t: t.records[0].epoch.t)
        assert r1.object_id == r2.object_id == f"MINED-{first.hex_hash()[:8]}"

    def test_mismatched_tracks_fail(self):
        _, tdms, sites = self.mine_inputs()
        other = leo_record(random.Random(31), object_id="OTHER")
        tdm_c, site_c = observe(other, 942, 0.0, site_id="C", t0=22200.0,
                                with_range=True, claim="UNKNOWN")
        sites = dict(sites)
        sites["C"] = site_c
        assert mine_object([tdms[0], tdm_c], sites, P) is None

    def test_needs_two_tracks(self):
        _, tdms, sites = self.mine_inputs()
        with pytest.raises(ValidationError):
            mine_object(tdms[:1], sites, P)

    def test_unknown_site_raises(self):
        _, tdms, sites = self.mine_inputs()
        del sites["B"]
        with pytest.raises(ValidationError):
            mine_object(tdms, sites, P)

