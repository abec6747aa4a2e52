"""Tests for the TDM codec: canonical form, strict parsing, synthesis."""

import math
import random
import statistics

import pytest

from conftest import count_site_frames
from sdachain.astro import Epoch, GroundSite, KeplerianElements, OrbitRecord, gmst
from sdachain.tdm import (
    MODES,
    ObservationRecord,
    Tdm,
    TdmMeta,
    TdmParseError,
    TdmValidationError,
    VisibilityError,
    parse_tdm,
    serialize_tdm,
    synth_tdm,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def geo_record():
    el = KeplerianElements(a=42164.0, e=0.0, i=0.0, raan=0.0, argp=0.0, M=0.0,
                           epoch=Epoch(0.0))
    return OrbitRecord(object_id="GEO-1", elements=el)


@pytest.fixture(scope="module")
def eq_site():
    # Equatorial site offset 35 deg in longitude from the object at t=0;
    # the target sits near 49 deg elevation indefinitely.
    return GroundSite(site_id="EQ1", lat=0.0, lon=-gmst(Epoch(0.0)) - math.radians(35.0))


GOLDEN_TEXT = """CCSDS_TDM_VERS = 2.0
META_START
TIME_SYSTEM = SIM-J2000
PARTICIPANT_1 = GEO-1
PARTICIPANT_2 = EQ1
MODE = SEQUENTIAL
ANGLE_TYPE = AZEL
RANGE_UNITS = km
META_STOP
DATA_START
ANGLE_1 = 2000-01-01T12:00:00.000000 90.000000000
ANGLE_2 = 2000-01-01T12:00:00.000000 49.344059923
RANGE = 2000-01-01T12:00:00.000000 37120.049366582
ANGLE_1 = 2000-01-01T12:01:00.000000 90.000000000
ANGLE_2 = 2000-01-01T12:01:00.000000 49.344058213
RANGE = 2000-01-01T12:01:00.000000 37120.049461271
ANGLE_1 = 2000-01-01T12:02:00.000000 90.000000000
ANGLE_2 = 2000-01-01T12:02:00.000000 49.344056497
RANGE = 2000-01-01T12:02:00.000000 37120.049526139
DATA_STOP
"""
GOLDEN_HASH = "f1b8073715c59bc76a570c53e57779eaacc4306196c338fb41aa54f45aa617df"


class TestCanonicalForm:
    def test_golden_bytes_and_hash(self, geo_record, eq_site):
        tdm = synth_tdm(geo_record, eq_site, [Epoch(0.0), Epoch(60.0), Epoch(120.0)],
                        0.0, seed=0, with_range=True)
        assert serialize_tdm(tdm) == GOLDEN_TEXT
        assert tdm.hex_hash() == GOLDEN_HASH

    def test_parse_serialize_round_trip(self, geo_record, eq_site):
        for mode, with_range in (("AZEL", False), ("AZEL", True), ("RADEC", False)):
            tdm = synth_tdm(geo_record, eq_site,
                            [Epoch(10.0 * k) for k in range(5)],
                            1e-4, seed=3, mode=mode, with_range=with_range,
                            range_noise_km=0.1 if with_range else 0.0)
            text = serialize_tdm(tdm)
            back = parse_tdm(text)
            assert back == tdm
            assert back.content_hash == tdm.content_hash
            assert serialize_tdm(back) == text

    def test_serialize_idempotent_on_noncanonical_input(self):
        # Extra digits, loose spacing, shuffled records: one canonical form.
        messy = (
            "CCSDS_TDM_VERS =  2.0\n"
            "META_START\n"
            "PARTICIPANT_1=OBJ-7\n"
            "TIME_SYSTEM = SIM-J2000\n"
            "PARTICIPANT_2 = S1\n"
            "MODE = SEQUENTIAL\n"
            "ANGLE_TYPE = AZEL\n"
            "META_STOP\n"
            "DATA_START\n"
            "ANGLE_1 = 2000-01-01T12:02:00 30.1234567894999\n"
            "ANGLE_2 = 2000-01-01T12:02:00 10.0\n"
            "ANGLE_1 = 2000-01-01T12:00:00 10.5\n"
            "ANGLE_2 = 2000-01-01T12:00:00 20.25\n"
            "ANGLE_1 = 2000-01-01T12:01:00 20\n"
            "ANGLE_2 = 2000-01-01T12:01:00 -5.000000000123\n"
            "DATA_STOP\n"
        )
        once = serialize_tdm(parse_tdm(messy))
        twice = serialize_tdm(parse_tdm(once))
        assert once == twice
        # Canonical output sorts records and prints 9 decimals.
        assert "ANGLE_1 = 2000-01-01T12:00:00.000000 10.500000000" in once
        assert "30.123456789" in once

    def test_record_order_does_not_change_hash(self):
        meta = TdmMeta(site_id="S1", participant="UNKNOWN", mode="AZEL")
        recs = [ObservationRecord(Epoch(60.0 * k), 0.1 * k + 0.5, 0.3) for k in range(4)]
        a = Tdm(meta=meta, records=tuple(recs))
        b = Tdm(meta=meta, records=tuple(reversed(recs)))
        assert a.content_hash == b.content_hash

    def test_azimuth_wraps_to_zero(self):
        meta = TdmMeta(site_id="S1", participant="X", mode="AZEL")
        recs = [ObservationRecord(Epoch(60.0 * k), math.radians(359.9999999996), 0.2)
                for k in range(3)]
        tdm = Tdm(meta=meta, records=tuple(recs))
        assert "ANGLE_1 = 2000-01-01T12:00:00.000000 0.000000000" in serialize_tdm(tdm)

    def test_no_negative_zero_in_output(self):
        meta = TdmMeta(site_id="S1", participant="X", mode="AZEL")
        recs = [ObservationRecord(Epoch(60.0 * k), 1.0, -1e-13) for k in range(3)]
        assert "-0.000000000" not in serialize_tdm(Tdm(meta=meta, records=tuple(recs)))


class TestValidation:
    def _tdm(self, records, **meta_kw):
        kw = dict(site_id="S1", participant="X", mode="AZEL")
        kw.update(meta_kw)
        return Tdm(meta=TdmMeta(**kw), records=tuple(records))

    def test_too_few_records(self):
        recs = [ObservationRecord(Epoch(0.0), 1.0, 0.2),
                ObservationRecord(Epoch(60.0), 1.0, 0.2)]
        with pytest.raises(TdmValidationError, match="at least 3"):
            self._tdm(recs)

    def test_duplicate_epochs_rejected(self):
        recs = [ObservationRecord(Epoch(0.0), 1.0, 0.2),
                ObservationRecord(Epoch(0.0), 1.1, 0.2),
                ObservationRecord(Epoch(60.0), 1.0, 0.2)]
        with pytest.raises(TdmValidationError, match="strictly increasing"):
            self._tdm(recs)

    def test_range_consistency(self):
        recs = [ObservationRecord(Epoch(60.0 * k), 1.0, 0.2, range_km=500.0)
                for k in range(3)]
        with pytest.raises(TdmValidationError, match="has_range"):
            self._tdm(recs)
        recs_no = [ObservationRecord(Epoch(60.0 * k), 1.0, 0.2) for k in range(3)]
        with pytest.raises(TdmValidationError, match="missing range"):
            self._tdm(recs_no, has_range=True)

    def test_elevation_bounds(self):
        recs = [ObservationRecord(Epoch(60.0 * k), 1.0, 1.65) for k in range(3)]
        with pytest.raises(TdmValidationError, match="angle2"):
            self._tdm(recs)

    def test_meta_validation(self):
        with pytest.raises(TdmValidationError):
            TdmMeta(site_id="", participant="X", mode="AZEL")
        with pytest.raises(TdmValidationError):
            TdmMeta(site_id="S1", participant="X", mode="SIDEWAYS")


class TestParser:
    def test_missing_data_stop_names_line(self):
        text = GOLDEN_TEXT.replace("DATA_STOP\n", "")
        with pytest.raises(TdmParseError, match="missing DATA_STOP") as exc:
            parse_tdm(text)
        assert exc.value.line_no == 20

    def test_missing_mandatory_meta_key(self):
        text = GOLDEN_TEXT.replace("ANGLE_TYPE = AZEL\n", "")
        with pytest.raises(TdmParseError, match="ANGLE_TYPE"):
            parse_tdm(text)

    def test_unknown_keys_rejected(self):
        text = GOLDEN_TEXT.replace("META_STOP", "COMMENT = hi\nMETA_STOP")
        with pytest.raises(TdmParseError, match="unknown meta key"):
            parse_tdm(text)

    def test_duplicate_meta_key_rejected(self):
        text = GOLDEN_TEXT.replace("MODE = SEQUENTIAL",
                                   "MODE = SEQUENTIAL\nMODE = SEQUENTIAL")
        with pytest.raises(TdmParseError, match="duplicate"):
            parse_tdm(text)

    def test_wrong_version_rejected(self):
        text = GOLDEN_TEXT.replace("= 2.0", "= 1.0")
        with pytest.raises(TdmParseError, match="version"):
            parse_tdm(text)

    def test_blank_line_rejected(self):
        text = GOLDEN_TEXT.replace("DATA_START\n", "DATA_START\n\n")
        with pytest.raises(TdmParseError, match="blank"):
            parse_tdm(text)

    def test_range_without_units_rejected(self):
        text = GOLDEN_TEXT.replace("RANGE_UNITS = km\n", "")
        with pytest.raises(TdmParseError, match="RANGE_UNITS"):
            parse_tdm(text)

    def test_epoch_mismatch_within_record(self):
        text = GOLDEN_TEXT.replace(
            "ANGLE_2 = 2000-01-01T12:01:00.000000",
            "ANGLE_2 = 2000-01-01T12:01:01.000000")
        with pytest.raises(TdmParseError, match="epoch mismatch"):
            parse_tdm(text)

    def test_content_after_data_stop(self):
        with pytest.raises(TdmParseError, match="after DATA_STOP"):
            parse_tdm(GOLDEN_TEXT + "EXTRA = 1\n")

    def test_out_of_range_values(self):
        bad = GOLDEN_TEXT.replace("49.344059923", "95.000000000")
        with pytest.raises(TdmParseError, match=r"ANGLE_2 out of"):
            parse_tdm(bad)
        bad = GOLDEN_TEXT.replace(
            "ANGLE_1 = 2000-01-01T12:00:00.000000 90.000000000",
            "ANGLE_1 = 2000-01-01T12:00:00.000000 370.000000000")
        with pytest.raises(TdmParseError, match=r"ANGLE_1 out of"):
            parse_tdm(bad)

    @pytest.mark.parametrize("offset", ["+00:00", "Z"])
    def test_utc_offset_rejected(self, offset):
        # the timescale has no zones; datetime would parse an aware time
        text = GOLDEN_TEXT.replace(".000000 ", f".000000{offset} ")
        with pytest.raises(TdmParseError, match="UTC offset") as exc:
            parse_tdm(text)
        assert exc.value.line_no == 11

    def test_fuzz_never_crashes(self):
        rng = random.Random(99)
        corpus = [
            "", "\n", "=", "CCSDS_TDM_VERS = 2.0", "\x00\x01\x02",
            GOLDEN_TEXT.replace("=", ""), GOLDEN_TEXT.upper(), GOLDEN_TEXT[:100],
        ]
        for _ in range(200):
            n = rng.randrange(0, 120)
            corpus.append("".join(chr(rng.randrange(9, 127)) for _ in range(n)))
            # Mutated golden documents exercise deeper states.
            chars = list(GOLDEN_TEXT)
            for _ in range(rng.randrange(1, 6)):
                chars[rng.randrange(len(chars))] = chr(rng.randrange(32, 127))
            corpus.append("".join(chars))
            # a UTC offset on one data line's epoch
            lines = GOLDEN_TEXT.split("\n")
            k = rng.randrange(10, 19)
            key, eq, epoch, num = lines[k].split(" ")
            offset = rng.choice(("Z", "+00:00", "-05:30", "+14:00"))
            lines[k] = " ".join((key, eq, epoch + offset, num))
            corpus.append("\n".join(lines))
        for text in corpus:
            try:
                parse_tdm(text)
            except (TdmParseError, TdmValidationError):
                pass


class TestSynth:
    def test_same_seed_identical_bytes(self, geo_record, eq_site):
        epochs = [Epoch(20.0 * k) for k in range(6)]
        a = synth_tdm(geo_record, eq_site, epochs, 1e-4, seed=5)
        b = synth_tdm(geo_record, eq_site, epochs, 1e-4, seed=5)
        assert serialize_tdm(a) == serialize_tdm(b)
        c = synth_tdm(geo_record, eq_site, epochs, 1e-4, seed=6)
        assert serialize_tdm(c) != serialize_tdm(a)

    @pytest.mark.parametrize("mode", MODES)
    def test_one_site_frame_per_record(self, monkeypatch, geo_record,
                                       eq_site, mode):
        # the elevation mask and the record's angles share one frame
        epochs = [Epoch(20.0 * k) for k in range(6)]
        frames = count_site_frames(monkeypatch)
        synth_tdm(geo_record, eq_site, epochs, 1e-4, seed=5, mode=mode)
        assert sum(frames.values()) == len(epochs)

    def test_noise_statistics(self, geo_record, eq_site):
        epochs = [Epoch(10.0 * k) for k in range(1000)]
        clean = synth_tdm(geo_record, eq_site, epochs, 0.0, seed=1)
        noisy = synth_tdm(geo_record, eq_site, epochs, 1e-4, seed=7)

        def wdiff(a, b):
            return (a - b + math.pi) % TWO_PI - math.pi

        d = [wdiff(x.angle1, y.angle1) for x, y in zip(noisy.records, clean.records)]
        d += [x.angle2 - y.angle2 for x, y in zip(noisy.records, clean.records)]
        assert abs(statistics.pstdev(d) - 1e-4) < 1e-5
        assert abs(statistics.fmean(d)) < 1e-5

    def test_visibility_error_lists_offenders(self, geo_record):
        # A site on the far side of the Earth never sees the object.
        far = GroundSite(site_id="FAR", lat=0.0,
                         lon=-gmst(Epoch(0.0)) + math.pi)
        with pytest.raises(VisibilityError) as exc:
            synth_tdm(geo_record, far, [Epoch(0.0), Epoch(60.0), Epoch(120.0)], 0.0, seed=0)
        assert len(exc.value.offending) == 3
        assert "2000-01-01T12:01:00" in str(exc.value)

    def test_participant_override(self, geo_record, eq_site):
        epochs = [Epoch(30.0 * k) for k in range(3)]
        named = synth_tdm(geo_record, eq_site, epochs, 0.0, seed=0)
        anon = synth_tdm(geo_record, eq_site, epochs, 0.0, seed=0, participant="UNKNOWN")
        assert named.meta.participant == "GEO-1"
        assert anon.meta.participant == "UNKNOWN"
        assert named.content_hash != anon.content_hash

    def test_radec_mode(self, geo_record, eq_site):
        tdm = synth_tdm(geo_record, eq_site, [Epoch(30.0 * k) for k in range(3)],
                        0.0, seed=0, mode="RADEC")
        assert tdm.meta.mode == "RADEC"
        assert "ANGLE_TYPE = RADEC" in serialize_tdm(tdm)

    def test_negative_noise_rejected(self, geo_record, eq_site):
        with pytest.raises(ValueError):
            synth_tdm(geo_record, eq_site, [Epoch(0.0)], -1.0, seed=0)
