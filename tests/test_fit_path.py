"""Property tests for the consensus fit path.

Every validator runs the per-track fit (validation._refined_iod) and
mining (validation.mine_object) on tracks a submitter chooses, so both
must decide on any canonical track: a result or None, never a crash.
"""
import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import leo_record, site_under
from sdachain.astro import (
    Epoch,
    GroundSite,
    OrbitRecord,
    kepler_to_state,
    radec_from,
    site_eci,
    topocentric_angles,
)
from sdachain.iod import IodSolution
from sdachain.tdm import ObservationRecord, Tdm, TdmMeta
from sdachain.validation import (
    ValidationError,
    ValidationParams,
    _refined_iod,
    mine_object,
)

P = ValidationParams()


@st.composite
def canonical_tracks(draw, site_id="S", orbit_seed=None):
    """A canonical UNKNOWN track of a random LEO: any mode, ranges on or
    off, any spacing and noise level, seen from a site near the ground
    track or anywhere at all (then the object may be below the horizon).
    Heavy noise makes tracks no orbit fits."""
    if orbit_seed is None:
        orbit_seed = draw(st.integers(0, 2**32 - 1))
    rec = leo_record(random.Random(orbit_seed))
    n_rec = draw(st.integers(3, 10))
    spacing = draw(st.floats(1.0, 300.0))
    t0 = draw(st.floats(0.0, 7200.0))
    if draw(st.booleans()):
        site = site_under(rec, Epoch(t0 + 0.5 * spacing * (n_rec - 1)),
                          site_id=site_id,
                          lon_off_deg=draw(st.floats(-10.0, 10.0)))
    else:
        site = GroundSite(site_id=site_id,
                          lat=draw(st.floats(-1.5, 1.5)),
                          lon=draw(st.floats(-math.pi, math.pi)),
                          alt=draw(st.floats(0.0, 3.0)))
    mode = draw(st.sampled_from(["AZEL", "RADEC"]))
    with_range = draw(st.booleans())
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    records = []
    for k in range(n_rec):
        t = Epoch(t0 + spacing * k)
        sv = kepler_to_state(rec.elements, t)
        if mode == "AZEL":
            a1, a2, rho = topocentric_angles(sv, site)
        else:
            a1, a2, rho = radec_from(sv.r, site_eci(site, t))
        a2 = max(-math.pi / 2, min(math.pi / 2, a2 + rng.gauss(0.0, noise)))
        records.append(ObservationRecord(
            epoch=t, angle1=a1 + rng.gauss(0.0, noise), angle2=a2,
            range_km=max(1e-3, rho * (1.0 + rng.gauss(0.0, noise)))
            if with_range else None))
    meta = TdmMeta(site_id=site_id, participant="UNKNOWN", mode=mode,
                   has_range=with_range)
    return Tdm(meta=meta, records=tuple(records)), site


FIT_PATH_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.too_slow])


class TestFitPathProperties:
    @FIT_PATH_SETTINGS
    @given(canonical_tracks())
    def test_refined_iod_never_raises(self, track):
        tdm, site = track
        sol = _refined_iod(tdm, site)
        assert sol is None or isinstance(sol, IodSolution)

    @FIT_PATH_SETTINGS
    @given(st.data())
    def test_mine_object_returns_or_raises_validation_error(self, data):
        # half the pairs observe one object, so some fits succeed
        seed = data.draw(st.integers(0, 2**32 - 1))
        same = data.draw(st.booleans())
        tdm_a, site_a = data.draw(canonical_tracks("A", seed))
        tdm_b, site_b = data.draw(canonical_tracks("B", seed if same else None))
        try:
            rec = mine_object([tdm_a, tdm_b], {"A": site_a, "B": site_b}, P)
        except ValidationError:
            return
        assert rec is None or isinstance(rec, OrbitRecord)
