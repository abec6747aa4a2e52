"""Shared helpers for building observable geometries in tests."""
import dataclasses
import gc
import collections
import math
import random
import sys

from hypothesis import strategies as st

from sdachain import astro
from sdachain.astro import (
    Epoch,
    GroundSite,
    KeplerianElements,
    OrbitRecord,
    R_EARTH,
    gmst,
    norm,
    propagate_j2,
)


def pytest_report_header(config):
    """Name the stepping loops this run propagates with: the C library
    astro built and checked, or the Python loops it falls back to."""
    loops = astro.NATIVE_LIBRARY or "the Python loops (no checked C library)"
    return f"sdachain stepping loops: {loops}"


# the screens every visibility oracle runs: the Python rendering of the
# mask_screen kernel, and the C kernel where astro calls it
SCREENS = {"python": astro._python_kernels()[5]}
if astro.NATIVE_LIBRARY is not None:
    SCREENS["native"] = astro._mask_screen


def grids(el: KeplerianElements) -> dict:
    """The propagation grids kept on el, by (bstar, step_s, j2)."""
    return el.__dict__.get(astro._GRIDS, {})


def fresh(el: KeplerianElements) -> KeplerianElements:
    """Equal elements that hold no grid. copy.copy would share el's."""
    return dataclasses.replace(el)


def assert_common_points_equal(el: KeplerianElements,
                               other: KeplerianElements) -> None:
    """Every grid point both el's and other's grids hold is bit-equal."""
    for key in grids(el).keys() & grids(other).keys():
        g, h = grids(el)[key], grids(other)[key]
        for a, b in ((g.forward, h.forward), (g.backward, h.backward)):
            n = min(len(a), len(b))
            assert a[:n].tobytes() == b[:n].tobytes()


def live_grids() -> int:
    """How many propagation grids are alive in the process."""
    return sum(isinstance(o, astro._Grid) for o in gc.get_objects())


def count_force_evaluations(monkeypatch) -> dict:
    """Count from now on, by stepping loop, the force evaluations the
    propagator makes: four per RK4 step ("rk4": the start-up and the
    remainder steps), two per multistep step plus _ORDER per multistep
    call, which evaluates the back values at the last _ORDER points it is
    given ("multistep")."""
    counts = {"rk4": 0, "multistep": 0}
    rk4, abm = astro._rk4_steps, astro._abm_steps

    def rk4_counted(state, h, n, *args):
        counts["rk4"] += 4 * n
        return rk4(state, h, n, *args)

    def abm_counted(points, h, n, *args):
        counts["multistep"] += 2 * n + astro._ORDER
        return abm(points, h, n, *args)

    monkeypatch.setattr(astro, "_rk4_steps", rk4_counted)
    monkeypatch.setattr(astro, "_abm_steps", abm_counted)
    return counts


def count_calls(monkeypatch, *functions) -> collections.Counter:
    """Count from now on, by name, the calls of each (module, name)
    function, through every binding of it in the sdachain modules (a
    ``from x import f`` copy included)."""
    counts = collections.Counter()
    for owner, name in functions:
        orig = getattr(owner, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "sdachain":
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def check_derived_state(state) -> None:
    """The parts of a ledger state that are never encoded agree with the
    rest: its seen-TDM index is every pending or settled TDM hash, and its
    root equals the root of its decoded snapshot, where decode_state
    refolds the settlement chain."""
    from sdachain.ledger import decode_state, encode_state, state_root
    assert state.seen_tdms == set(state.pending) | {
        s.tdm_hash for s in state.settlements}
    assert state_root(state) == state_root(decode_state(encode_state(state)))


def count_fits(monkeypatch) -> collections.Counter:
    """count_calls of mine_object, refine_elements and iod_from_tdm."""
    from sdachain import iod, validation
    return count_calls(monkeypatch, (validation, "mine_object"),
                       (iod, "refine_elements"), (iod, "iod_from_tdm"))


def count_site_frames(monkeypatch) -> collections.Counter:
    """count_calls of the two functions that build a site's frame at an
    epoch: site_frame (position and basis) and site_eci (position)."""
    return count_calls(monkeypatch, (astro, "site_frame"),
                       (astro, "site_eci"))


def site_under(record: OrbitRecord, t: Epoch, site_id: str = "SITE",
               lon_off_deg: float = 3.0, j2: float = None) -> GroundSite:
    """Ground site directly beneath the object at time t, nudged in longitude.

    The offset keeps the object away from zenith so azimuth stays well
    conditioned while elevation remains high for the whole arc. Pass
    j2=0.0 when the observations themselves are two-body so placement
    and data share the same dynamics.
    """
    if j2 is None:
        sv = propagate_j2(record.elements, record.bstar, t)
    else:
        sv = propagate_j2(record.elements, record.bstar, t, j2=j2)
    lat = math.asin(max(-1.0, min(1.0, sv.r[2] / norm(sv.r))))
    lon = math.atan2(sv.r[1], sv.r[0]) - gmst(t) + math.radians(lon_off_deg)
    lon = (lon + math.pi) % (2.0 * math.pi) - math.pi
    return GroundSite(site_id=site_id, lat=lat, lon=lon)


def leo_record(rng: random.Random, object_id: str = "LEO") -> OrbitRecord:
    """Random LEO record with perigee kept safely above the atmosphere model."""
    a = rng.uniform(7000.0, 7600.0)
    e_max = min(0.02, 1.0 - (R_EARTH + 250.0) / a)
    el = KeplerianElements(
        a=a,
        e=rng.uniform(0.001, e_max),
        i=rng.uniform(0.1, 1.6),
        raan=rng.uniform(0.0, 2.0 * math.pi),
        argp=rng.uniform(0.0, 2.0 * math.pi),
        M=rng.uniform(0.0, 2.0 * math.pi),
        epoch=Epoch(0.0),
    )
    return OrbitRecord(object_id=object_id, elements=el)


def lon_offset_for_peak(record: OrbitRecord, t: Epoch, el_deg: float) -> float:
    """site_under's longitude offset (deg) that puts the object el_deg above
    the horizon at t, seen from a site at the sub-satellite latitude."""
    sv = propagate_j2(record.elements, record.bstar, t)
    r = norm(sv.r)
    el = math.radians(el_deg)
    central = math.acos(R_EARTH / r * math.cos(el)) - el
    lat = math.asin(sv.r[2] / r)
    c = (math.cos(central) - math.sin(lat) ** 2) / math.cos(lat) ** 2
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


@st.composite
def visibility_cases(draw):
    """(elements, bstar, site, window, cadence_s) for sampling an
    orbit's sky track: random LEO orbits and sites (latitudes to +-89 deg,
    altitudes to 5 km), grazing passes that peak near the 10 deg mask, and
    drag orbits that decay inside the window. Windows fall anywhere near
    the element epoch, wholly before it (on the backward grid) or across
    it (on both grids)."""
    kind = draw(st.sampled_from(("random", "grazing", "decaying")))
    placement = draw(st.sampled_from(("near", "backward", "straddling")))
    unit = st.floats(0.0, 1.0)
    epoch = Epoch(draw(st.floats(-1e6, 1e6)))
    if kind == "decaying":
        # down from 160-200 km in about 0.5-4.5 h
        a = R_EARTH + draw(st.floats(160.0, 200.0))
        e = 0.001
        bstar = 10.0 ** draw(st.floats(-4.5, -4.0))
        near = 3600.0
        duration = draw(st.floats(3600.0, 5.0 * 3600.0))
    else:
        a = R_EARTH + draw(st.floats(300.0, 1500.0))
        e = draw(st.floats(0.0, min(0.02, 1.0 - (R_EARTH + 250.0) / a)))
        # the grazing geometry is placed on the orbit, which must not decay
        bstar = draw(st.sampled_from(
            (0.0, 1e-6) if kind == "grazing" else (0.0, 1e-6, 1e-4)))
        near = 86400.0
        duration = draw(st.floats(0.0, 4.0 * 3600.0))
    if placement == "near":
        start = draw(st.floats(-near, near))
    elif placement == "backward":
        start = -duration - draw(st.floats(0.0, near))
    else:
        start = -duration * draw(unit)
    el = KeplerianElements(a=a, e=e, i=draw(st.floats(0.0, math.pi)),
                           raan=2.0 * math.pi * draw(unit),
                           argp=2.0 * math.pi * draw(unit),
                           M=2.0 * math.pi * draw(unit), epoch=epoch)
    t0 = epoch.t + start
    alt = draw(st.floats(0.0, 5.0))
    if kind == "grazing":
        rec = OrbitRecord(object_id="GRAZE", elements=el, bstar=bstar)
        t_peak = Epoch(t0 + draw(unit) * duration)
        peak_deg = 10.0 + draw(st.floats(-0.5, 0.5))
        site = site_under(rec, t_peak,
                          lon_off_deg=lon_offset_for_peak(rec, t_peak, peak_deg))
        site = dataclasses.replace(site, alt=alt)
    else:
        site = GroundSite(site_id="S",
                          lat=math.radians(draw(st.floats(-89.0, 89.0))),
                          lon=math.radians(draw(st.floats(-180.0, 180.0))),
                          alt=alt)
    cadence_s = draw(st.sampled_from((60.0, 90.0, 150.0)))
    return el, bstar, site, (Epoch(t0), Epoch(t0 + duration)), cadence_s
