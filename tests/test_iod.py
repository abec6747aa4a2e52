import math
import random
import re

import numpy as np
import pytest

import functools

from conftest import grids, leo_record, live_grids
from conftest import site_under as _site_under

# every observation in this module is generated from two-body states, so
# site placement must use the same dynamics
site_under = functools.partial(_site_under, j2=0.0)
import test_validation
from sdachain import astro, iod, validation
from sdachain.astro import (
    Epoch,
    GroundSite,
    KeplerConvergenceError,
    KeplerianElements,
    MU_EARTH,
    OrbitRecord,
    StateVector,
    kepler_to_state,
    norm,
    propagate_j2,
    propagate_many,
    topocentric_angles,
)
from sdachain.iod import (
    IodDivergenceError,
    IodError,
    IodGeometryError,
    IodNoSolutionError,
    IodRankError,
    iod_from_tdm,
    iod_gauss,
    iod_gibbs,
    refine_elements,
)
from sdachain.tdm import (ObservationRecord, observe, separation_rms,
                          site_geometry, synth_tdm)


def angular_rms(elements, bstar, tdms, sites, *, j2=astro.J2_EARTH):
    """RMS great-circle separation between messages and a propagated orbit,
    the quantity every validation threshold is stated in."""
    entries = [(rec, site_geometry(site, rec.epoch, mode))
               for rec, site, mode in iod._collect_records(tdms, sites)]
    return separation_rms(entries, (
        propagate_j2(elements, bstar, rec.epoch, j2=j2)
        for rec, _ in entries))


def ranged_records(record, site, epochs):
    """Noiseless az/el/range observations from exact two-body states."""
    recs = []
    for t in epochs:
        sv = kepler_to_state(record.elements, t)
        az, el, rng_km = topocentric_angles(sv, site)
        recs.append(ObservationRecord(epoch=t, angle1=az, angle2=el, range_km=rng_km))
    return recs


def angle_records(record, site, epochs):
    recs = []
    for t in epochs:
        sv = kepler_to_state(record.elements, t)
        az, el, _ = topocentric_angles(sv, site)
        recs.append(ObservationRecord(epoch=t, angle1=az, angle2=el))
    return recs


class TestGibbs:
    def test_circular_orbit_speed(self):
        # 7000 km circular orbit sampled at 0/30/60 deg anomaly: recovered
        # speed must be sqrt(mu/a) and eccentricity numerically zero.
        el = KeplerianElements(a=7000.0, e=0.0, i=0.8, raan=0.3, argp=0.0,
                               M=0.0, epoch=Epoch(0.0))
        rec = OrbitRecord(object_id="CIRC", elements=el)
        n = el.mean_motion()
        epochs = [Epoch(math.radians(th) / n) for th in (0.0, 30.0, 60.0)]
        site = site_under(rec, epochs[1])
        sol = iod_gibbs(ranged_records(rec, site, epochs), site)
        v = norm(kepler_to_state(sol.elements, sol.elements.epoch).v)
        assert abs(v - math.sqrt(MU_EARTH / 7000.0)) < 1e-6
        assert sol.elements.e < 1e-6
        assert sol.method == "gibbs"

    def test_elliptic_recovery(self):
        rng = random.Random(41)
        for _ in range(10):
            rec = leo_record(rng)
            period = rec.elements.period()
            t_mid = Epoch(600.0)
            epochs = [Epoch(600.0 + dt) for dt in (-period / 20.0, 0.0, period / 20.0)]
            site = site_under(rec, t_mid)
            sol = iod_gibbs(ranged_records(rec, site, epochs), site)
            truth = kepler_to_state(rec.elements, epochs[1])
            got = kepler_to_state(sol.elements, epochs[1])
            assert norm([a - b for a, b in zip(got.r, truth.r)]) / norm(truth.r) < 1e-6
            assert norm([a - b for a, b in zip(got.v, truth.v)]) / norm(truth.v) < 1e-6
            assert abs(sol.elements.a - rec.elements.a) / rec.elements.a < 1e-6

    def test_solution_epoch_is_middle(self):
        rng = random.Random(42)
        rec = leo_record(rng)
        epochs = [Epoch(300.0), Epoch(600.0), Epoch(900.0)]
        site = site_under(rec, epochs[1])
        sol = iod_gibbs(ranged_records(rec, site, epochs), site)
        assert sol.elements.epoch == epochs[1]

    def test_requires_range(self):
        rng = random.Random(43)
        rec = leo_record(rng)
        epochs = [Epoch(300.0), Epoch(600.0), Epoch(900.0)]
        site = site_under(rec, epochs[1])
        with pytest.raises(IodGeometryError):
            iod_gibbs(angle_records(rec, site, epochs), site)

    def test_rejects_coincident_positions(self):
        rng = random.Random(44)
        rec = leo_record(rng)
        site = site_under(rec, Epoch(600.0))
        recs = ranged_records(rec, site, [Epoch(600.0)] * 3)
        with pytest.raises(IodGeometryError):
            iod_gibbs(recs, site)

    def test_rejects_noncoplanar_positions(self):
        # Middle observation taken from an orbit tilted 12 deg off the
        # plane of the outer two: coplanarity gate must fire.
        el = KeplerianElements(a=7000.0, e=0.0, i=0.6, raan=0.3, argp=0.0,
                               M=0.0, epoch=Epoch(0.0))
        tilted = KeplerianElements(a=7000.0, e=0.0, i=0.6 + math.radians(12.0),
                                   raan=0.3, argp=0.0, M=0.0, epoch=Epoch(0.0))
        rec = OrbitRecord(object_id="A", elements=el)
        rec_t = OrbitRecord(object_id="B", elements=tilted)
        n = el.mean_motion()
        epochs = [Epoch(math.radians(th) / n) for th in (20.0, 45.0, 70.0)]
        site = site_under(rec, epochs[1])
        recs = ranged_records(rec, site, epochs)
        recs[1] = ranged_records(rec_t, site, [epochs[1]])[0]
        with pytest.raises(IodGeometryError):
            iod_gibbs(recs, site)

    def test_rejects_wrong_record_count(self):
        rng = random.Random(45)
        rec = leo_record(rng)
        site = site_under(rec, Epoch(600.0))
        recs = ranged_records(rec, site, [Epoch(300.0), Epoch(600.0)])
        with pytest.raises(IodError):
            iod_gibbs(recs, site)


class TestGauss:
    def test_noiseless_recovery(self):
        rng = random.Random(51)
        worst_a = 0.0
        worst_i = 0.0
        for _ in range(20):
            rec = leo_record(rng)
            epochs = [Epoch(600.0 + 120.0 * k) for k in range(3)]
            site = site_under(rec, epochs[1])
            sol = iod_gauss(angle_records(rec, site, epochs), site)
            worst_a = max(worst_a, abs(sol.elements.a - rec.elements.a) / rec.elements.a)
            worst_i = max(worst_i, abs(math.degrees(sol.elements.i - rec.elements.i)))
            assert sol.method == "gauss"
        assert worst_a < 0.01
        assert worst_i < 0.1
        # exact f/g iteration should do far better than the gate above
        assert worst_a < 1e-4

    def test_noisy_recovery_distribution(self):
        # 1e-5 rad angle noise: 95th percentile semi-major-axis error
        # stays under 5 percent.
        rng = random.Random(52)
        errs = []
        for k in range(30):
            rec = leo_record(rng)
            epochs = [Epoch(600.0 + 120.0 * j) for j in range(3)]
            site = site_under(rec, epochs[1])
            tdm = synth_tdm(rec, site, epochs, 1e-5, seed=900 + k, j2=0.0)
            sol = iod_gauss(tdm.records, site)
            errs.append(abs(sol.elements.a - rec.elements.a) / rec.elements.a)
        errs.sort()
        assert errs[int(0.95 * len(errs))] < 0.05

    def test_rejects_close_epochs(self):
        rng = random.Random(53)
        rec = leo_record(rng)
        epochs = [Epoch(600.0), Epoch(610.0), Epoch(620.0)]
        site = site_under(rec, epochs[1])
        with pytest.raises(IodGeometryError):
            iod_gauss(angle_records(rec, site, epochs), site)

    def test_rejects_wide_epochs(self):
        rng = random.Random(54)
        rec = leo_record(rng)
        epochs = [Epoch(0.0), Epoch(1500.0), Epoch(3000.0)]
        site = site_under(rec, epochs[1])
        with pytest.raises(IodGeometryError):
            iod_gauss(angle_records(rec, site, epochs), site)

    def test_rejects_stationary_line_of_sight(self):
        # A GEO object barely moves relative to the site over a short arc,
        # so the line-of-sight separation gate fires.
        el = KeplerianElements(a=42164.0, e=0.0, i=0.0, raan=0.0, argp=0.0,
                               M=0.0, epoch=Epoch(0.0))
        rec = OrbitRecord(object_id="GEO", elements=el)
        epochs = [Epoch(600.0 + 60.0 * k) for k in range(3)]
        site = site_under(rec, epochs[1], lon_off_deg=20.0)
        with pytest.raises(IodGeometryError):
            iod_gauss(angle_records(rec, site, epochs), site)

    def test_subsurface_fabrication_has_no_solution(self):
        # Angles that all point at a spot 2700 km from the geocenter: no
        # admissible orbit exists, and the solver must say so rather than
        # return garbage.
        site = GroundSite(site_id="S", lat=0.3, lon=0.5)
        target = (2000.0, 1500.0, 1000.0)
        recs = []
        for k in range(3):
            t = Epoch(300.0 * k)
            sv = StateVector(epoch=t, r=target, v=(0.0, 0.0, 0.0))
            az, el, _ = topocentric_angles(sv, site)
            recs.append(ObservationRecord(epoch=t, angle1=az, angle2=el))
        with pytest.raises(IodNoSolutionError):
            iod_gauss(recs, site)


class TestRefine:
    def two_pass_tdms(self, rec, seed, noise=0.0):
        site_a = site_under(rec, Epoch(800.0), site_id="A")
        site_b = site_under(rec, Epoch(2600.0), site_id="B")
        ep_a = [Epoch(600.0 + 100.0 * k) for k in range(4)]
        ep_b = [Epoch(2400.0 + 100.0 * k) for k in range(4)]
        tdms = [synth_tdm(rec, site_a, ep_a, noise, seed=seed, j2=0.0),
                synth_tdm(rec, site_b, ep_b, noise, seed=seed + 1, j2=0.0)]
        return tdms, {"A": site_a, "B": site_b}

    def test_fixed_point(self):
        rng = random.Random(61)
        rec = leo_record(rng)
        tdms, sites = self.two_pass_tdms(rec, seed=100)
        sol = refine_elements(rec.elements, tdms, sites, bstar=0.0, j2=0.0)
        assert sol.rms_residual < 1e-9
        assert abs(sol.elements.a - rec.elements.a) < 1e-6

    def test_fit_elements_are_floats(self):
        # a numpy scalar in a fit would reach a live catalog, where a
        # decoded chain or snapshot holds Python floats
        start, tdms, sites = radar_arc()
        fits = [start, refine_elements(start, tdms, sites).elements,
                iod.iod_gauss(tdms[0].records[::3], sites["A"]).elements]
        for el in fits:
            assert [type(v) for v in el.key()] == [float] * 7

    def test_recovers_perturbed_start(self):
        rng = random.Random(62)
        for k in range(3):
            rec = leo_record(rng)
            tdms, sites = self.two_pass_tdms(rec, seed=200 + 10 * k)
            el = rec.elements
            start = KeplerianElements(a=el.a + 5.0, e=el.e, i=el.i, raan=el.raan,
                                      argp=el.argp, M=el.M, epoch=el.epoch)
            sol = refine_elements(start, tdms, sites, bstar=0.0, j2=0.0)
            for name in ("a", "e", "i", "raan", "argp", "M"):
                got = getattr(sol.elements, name)
                want = getattr(el, name)
                assert abs(got - want) / max(abs(want), 1.0) < 1e-4, name

    def test_improves_noisy_start(self):
        rng = random.Random(63)
        rec = leo_record(rng)
        tdms, sites = self.two_pass_tdms(rec, seed=300, noise=1e-4)
        el = rec.elements
        start = KeplerianElements(a=el.a + 5.0, e=el.e, i=el.i, raan=el.raan,
                                  argp=el.argp, M=el.M, epoch=el.epoch)
        before = angular_rms(start, 0.0, tdms, sites, j2=0.0)
        sol = refine_elements(start, tdms, sites, bstar=0.0, j2=0.0)
        assert sol.rms_residual < before
        # converged fit should sit near the injected noise level
        assert sol.rms_residual < 5e-4

    def test_rank_error_on_equatorial_orbit(self):
        # At zero inclination the node is undefined, so raan and argp are
        # jointly unobservable and the normal matrix loses rank.
        el = KeplerianElements(a=7000.0, e=0.01, i=0.0, raan=0.0, argp=0.5,
                               M=1.0, epoch=Epoch(0.0))
        rec = OrbitRecord(object_id="EQ", elements=el)
        site = site_under(rec, Epoch(1000.0), site_id="E")
        tdm = synth_tdm(rec, site, [Epoch(1000.0 + 40.0 * k) for k in range(6)],
                        0.0, seed=0, j2=0.0)
        with pytest.raises(IodRankError) as err:
            refine_elements(el, [tdm], {"E": site}, bstar=0.0, j2=0.0)
        assert err.value.weak in ("raan", "argp")

    def test_divergence_far_start(self):
        el = KeplerianElements(a=7000.0, e=0.01, i=0.8, raan=1.0, argp=0.5,
                               M=1.0, epoch=Epoch(0.0))
        rec = OrbitRecord(object_id="T", elements=el)
        site = site_under(rec, Epoch(1000.0), site_id="T")
        tdm = synth_tdm(rec, site, [Epoch(1000.0 + 40.0 * k) for k in range(6)],
                        0.0, seed=0, j2=0.0)
        bad = KeplerianElements(a=9000.0, e=0.3, i=0.3, raan=4.0, argp=2.0,
                                M=(el.M + math.pi) % (2.0 * math.pi), epoch=el.epoch)
        with pytest.raises(IodDivergenceError):
            refine_elements(bad, [tdm], {"T": site}, bstar=0.0, j2=0.0)

    def test_rejects_too_few_records(self):
        rng = random.Random(64)
        rec = leo_record(rng)
        site = site_under(rec, Epoch(800.0), site_id="A")
        tdm = synth_tdm(rec, site, [Epoch(600.0 + 100.0 * k) for k in range(4)],
                        0.0, seed=1, j2=0.0)
        with pytest.raises(IodError):
            refine_elements(rec.elements, [tdm], {"A": site}, bstar=0.0, j2=0.0)

    def test_leaves_no_grid_alive(self):
        # every trial integrates fresh elements, whose grids die with them
        rng = random.Random(66)
        rec = leo_record(rng)
        tdms, sites = self.two_pass_tdms(rec, seed=500, noise=1e-4)
        el = rec.elements
        start = KeplerianElements(a=el.a + 5.0, e=el.e, i=el.i, raan=el.raan,
                                  argp=el.argp, M=el.M, epoch=el.epoch)
        before = live_grids()
        sol = refine_elements(start, tdms, sites, bstar=0.0, j2=0.0)
        assert sol.method == "refined"
        assert grids(start) == grids(sol.elements) == {}
        assert live_grids() == before

    def test_rejects_unknown_site(self):
        rng = random.Random(65)
        rec = leo_record(rng)
        tdms, sites = self.two_pass_tdms(rec, seed=400)
        del sites["B"]
        with pytest.raises(IodError):
            refine_elements(rec.elements, tdms, sites, bstar=0.0, j2=0.0)


def radar_arc(seed=23):
    """One 8-record radar track under the full force model (the consensus
    per-track fit's input) and the IOD start it is refined from."""
    rec = leo_record(random.Random(seed))
    site = _site_under(rec, Epoch(720.0), site_id="A")
    tdm = synth_tdm(rec, site, [Epoch(600.0 + 30.0 * k) for k in range(8)],
                    1e-5, 930, with_range=True)
    return iod_from_tdm(tdm, site).elements, [tdm], {"A": site}


def mining_fixture():
    """TestMining's two radar tracks of one object, 6 h apart, with the
    IOD start of each end track."""
    _, tdms, sites = test_validation.TestMining().mine_inputs()
    starts = [iod_from_tdm(t, sites[t.meta.site_id]).elements for t in tdms]
    return starts, tdms, sites


def circular_arc():
    """radar_arc started from e = 0, where the e partial is one-sided."""
    el, tdms, sites = radar_arc()
    return (KeplerianElements(a=el.a, e=0.0, i=el.i, raan=el.raan, argp=el.argp,
                              M=el.M, epoch=el.epoch), tdms, sites)


def oracle_jacobian(x, epoch, entries, j2=astro.J2_EARTH):
    """The reduced-model Jacobian from public pieces: drifted
    KeplerianElements, kepler_to_state and observe, one state per record,
    with the fit's differences and order of operations."""
    def residuals(xk):
        try:
            el = KeplerianElements(a=xk[0], e=xk[1], i=xk[2], raan=xk[3],
                                   argp=xk[4], M=xk[5], epoch=epoch)
            eta = math.sqrt(1.0 - el.e * el.e)
            k = 1.5 * j2 * el.mean_motion() * (astro.R_EARTH / (el.a * eta * eta)) ** 2
            s2 = math.sin(el.i) ** 2
            raan_dot = -k * math.cos(el.i)
            argp_dot = k * (2.0 - 2.5 * s2)
            m_dot = k * eta * (1.0 - 1.5 * s2)
            angles, ranges = [], []
            for rec, site, mode in entries:
                dt = rec.epoch.t - epoch.t
                sv = kepler_to_state(KeplerianElements(
                    a=el.a, e=el.e, i=el.i, raan=el.raan + raan_dot * dt,
                    argp=el.argp + argp_dot * dt, M=el.M + m_dot * dt,
                    epoch=epoch), rec.epoch)
                p1, p2, _ = observe(sv, site, mode)
                d1 = (rec.angle1 - p1 + math.pi) % (2.0 * math.pi) - math.pi
                angles += [d1 * math.cos(rec.angle2), rec.angle2 - p2]
                if rec.range_km is not None:
                    rs = astro.site_eci(site, rec.epoch)
                    rho = norm(tuple(sv.r[c] - rs[c] for c in range(3)))
                    ranges.append((rec.range_km - rho) / rec.range_km)
            return np.array(angles + ranges)
        except (ValueError, KeplerConvergenceError):
            return None

    base = residuals(x)
    columns = []
    for k, h in enumerate(iod._MODEL_STEPS):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        rp, rm = residuals(xp), residuals(xm)
        if rp is not None and rm is not None:
            columns.append((rm - rp) / (2.0 * h))
        elif rp is not None:
            columns.append((base - rp) / h)
        else:
            columns.append((rm - base) / h)
    return np.column_stack(columns)


# float.hex of refine_elements(*radar_arc()): elements (a, e, i, raan,
# argp, M, epoch.t) and RMS. Any change to the fit's arithmetic moves
# these bits and re-pins them on purpose, with the uct golden hashes.
PINNED_FIT = ["0x1.d7aed32e2948bp+12", "0x1.47758eb4b9702p-6",
              "0x1.704635b1a52aep+0", "0x1.0cc1d7d7577b3p-1",
              "0x1.da0385edd41f2p+1", "0x1.afa846b567440p+1",
              "0x1.6800000000000p+9"]
PINNED_FIT_RMS = "0x1.50819a5b6f5d0p-17"

# float.hex of the RMS each fixture's fits reached when the fit stopped
# only on a 1e-10 relative cost change, after up to 10 halvings (radar_arc;
# mining_fixture from each start, all tracks).
TIGHT_STOP_RMS = {
    "radar_arc": ["0x1.508199630700dp-17"],
    "mining": ["0x1.80be05afc42cep-27", "0x1.332528d2031c9p-26"],
}


class TestReducedModelJacobian:
    @staticmethod
    def fit_log(monkeypatch):
        # R: refine_elements entered, P: one arc integration, S: one
        # Gauss-Newton iteration's SVD.
        log = []

        def logged(tag, fn):
            def wrapper(*args, **kwargs):
                log.append(tag)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(iod, "propagate_many", logged("P", iod.propagate_many))
        monkeypatch.setattr(np.linalg, "svd", logged("S", np.linalg.svd))
        monkeypatch.setattr(validation, "refine_elements",
                            logged("R", validation.refine_elements))
        return log

    def test_no_integration_for_partials(self, monkeypatch):
        # Each fit integrates once at its start point, then only for each
        # line-search trial (1 to REFINE_MAX_HALVINGS + 1 per iteration);
        # the Jacobian adds no P. A fit that stops on the predicted
        # reduction ends with an S and no trial. iod has no single-epoch
        # propagator to fall back on.
        assert not hasattr(iod, "propagate_j2")
        log = self.fit_log(monkeypatch)
        trials = iod.REFINE_MAX_HALVINGS + 1
        one_fit = r"RP(SP{1,%d})*SP{0,%d}" % (trials, trials)

        validation.refine_elements(*radar_arc())
        assert re.fullmatch(one_fit, "".join(log)), "".join(log)

        log.clear()
        _, tdms, sites = mining_fixture()
        assert validation.mine_object(tdms, sites, validation.ValidationParams())
        assert re.fullmatch(f"({one_fit}){{2}}", "".join(log)), "".join(log)

    @pytest.mark.parametrize("fixture", ["radar_arc", "mining", "circular"])
    def test_equals_public_model_bit_for_bit(self, fixture):
        # The fit's Jacobian reuses each record's site geometry and builds
        # no elements or states per record; its bytes must still be those
        # of the model built from the public functions.
        if fixture == "mining":
            starts, tdms, sites = mining_fixture()
        else:
            start, tdms, sites = radar_arc() if fixture == "radar_arc" else circular_arc()
            starts = [start]
        entries = iod._collect_records(tdms, sites)
        records = iod._fit_records(entries)
        n_terms = 2 * len(entries) + sum(rec.range_km is not None
                                         for rec, _, _ in entries)
        for el in starts:
            x = np.array(el.key()[:6])
            got = iod._model_jacobian(x, el.epoch, records, n_terms, astro.J2_EARTH)
            assert got.tobytes() == oracle_jacobian(x, el.epoch, entries).tobytes()

    def test_nonfinite_drift_raises(self):
        # a = 1e-100 km overflows the J2 rates; at the element epoch the
        # drift is inf * 0 = NaN, which drifted elements would reject
        x = np.array([1e-100, 0.01, 0.5, 0.0, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            list(iod._secular_positions(x, Epoch(0.0), [Epoch(0.0)], astro.J2_EARTH))

    @pytest.mark.parametrize("fixture", ["radar_arc", "mining"])
    def test_agrees_with_numerical_jacobian(self, fixture):
        # Column-wise relative 2-norm error against central differences of
        # the reference-propagator residuals (the Jacobian used before).
        # Tolerance 5e-2: the reduced model drops the J2 short-period
        # terms, which measured 4e-4 to 1.2e-2 on radar arcs and up to
        # 4.2e-2 on the 6 h two-track arc; a Keplerian model without the
        # secular rates misses the two-track arc by 0.6 to 1.1.
        if fixture == "radar_arc":
            start, tdms, sites = radar_arc()
            starts = [start]
        else:
            starts, tdms, sites = mining_fixture()
        entries = iod._collect_records(tdms, sites)
        records = iod._fit_records(entries)
        epochs = [rec.epoch for rec, _, _ in entries]
        n_terms = 2 * len(entries) + sum(rec.range_km is not None
                                         for rec, _, _ in entries)

        def numerical(x, epoch):
            return iod._residuals(
                records, (sv.r for sv in propagate_many(
                    iod._make_elements(x, epoch), 0.0, epochs)))

        for el in starts:
            x = np.array(el.key()[:6])
            model = iod._model_jacobian(x, el.epoch, records, n_terms,
                                        astro.J2_EARTH)
            for k, h in enumerate((1e-3, 1e-7, 1e-7, 1e-7, 1e-7, 1e-7)):
                xp = x.copy()
                xm = x.copy()
                xp[k] += h
                xm[k] -= h
                col = (numerical(xm, el.epoch) - numerical(xp, el.epoch)) / (2.0 * h)
                err = np.linalg.norm(model[:, k] - col) / np.linalg.norm(col)
                assert err < 5e-2, (iod._ELEMENT_NAMES[k], err)

    def test_converged_start_makes_no_trial(self, monkeypatch):
        start, tdms, sites = radar_arc()
        sol = refine_elements(start, tdms, sites)
        log = self.fit_log(monkeypatch)
        assert validation.refine_elements(sol.elements, tdms, sites) == sol
        assert "".join(log) == "RPS"

    @pytest.mark.parametrize("fixture", ["radar_arc", "mining"])
    def test_rms_matches_the_tight_stop(self, fixture):
        # Stopping on the predicted reduction costs at most a relative
        # 1e-6 of RMS against the fits that ran to a 1e-10 cost change.
        if fixture == "radar_arc":
            start, tdms, sites = radar_arc()
            starts = [start]
        else:
            starts, tdms, sites = mining_fixture()
        for start, tight in zip(starts, TIGHT_STOP_RMS[fixture], strict=True):
            sol = refine_elements(start, tdms, sites)
            assert sol.rms_residual <= (1.0 + 1e-6) * float.fromhex(tight)

    def test_pinned_fit_bits(self):
        sol = refine_elements(*radar_arc())
        assert [v.hex() for v in sol.elements.key()] == PINNED_FIT
        assert sol.rms_residual.hex() == PINNED_FIT_RMS


class TestAngularRms:
    def test_self_consistent_is_tiny(self):
        rng = random.Random(71)
        rec = leo_record(rng)
        site = site_under(rec, Epoch(800.0), site_id="A")
        tdm = synth_tdm(rec, site, [Epoch(600.0 + 100.0 * k) for k in range(4)],
                        0.0, seed=2)
        rms = angular_rms(rec.elements, rec.bstar, [tdm], {"A": site})
        assert rms < 1e-9

    def test_tracks_noise_level(self):
        rng = random.Random(72)
        rec = leo_record(rng)
        site = site_under(rec, Epoch(800.0), site_id="A")
        tdm = synth_tdm(rec, site, [Epoch(600.0 + 50.0 * k) for k in range(10)],
                        1e-4, seed=3)
        rms = angular_rms(rec.elements, rec.bstar, [tdm], {"A": site})
        assert 2e-5 < rms < 5e-4

    def test_unknown_site_raises(self):
        rng = random.Random(73)
        rec = leo_record(rng)
        site = site_under(rec, Epoch(800.0), site_id="A")
        tdm = synth_tdm(rec, site, [Epoch(600.0 + 100.0 * k) for k in range(4)],
                        0.0, seed=4)
        with pytest.raises(IodError):
            angular_rms(rec.elements, 0.0, [tdm], {"B": site})


class TestDispatch:
    def test_tdm_with_range_uses_gibbs(self):
        rng = random.Random(81)
        rec = leo_record(rng)
        period = rec.elements.period()
        epochs = [Epoch(600.0 + dt) for dt in (-period / 20.0, 0.0, period / 20.0)]
        site = site_under(rec, epochs[1])
        tdm = synth_tdm(rec, site, epochs, 0.0, seed=5, with_range=True, j2=0.0)
        sol = iod_from_tdm(tdm, site)
        assert sol.method == "gibbs"
        assert abs(sol.elements.a - rec.elements.a) / rec.elements.a < 1e-6

    def test_angles_only_tdm_uses_gauss(self):
        rng = random.Random(82)
        rec = leo_record(rng)
        epochs = [Epoch(600.0 + 120.0 * k) for k in range(3)]
        site = site_under(rec, epochs[1])
        tdm = synth_tdm(rec, site, epochs, 0.0, seed=6, j2=0.0)
        sol = iod_from_tdm(tdm, site)
        assert sol.method == "gauss"
        assert abs(sol.elements.a - rec.elements.a) / rec.elements.a < 0.01

    def test_many_record_tdm_uses_spread_triplet(self):
        rng = random.Random(83)
        rec = leo_record(rng)
        epochs = [Epoch(600.0 + 30.0 * k) for k in range(9)]
        site = site_under(rec, epochs[4])
        tdm = synth_tdm(rec, site, epochs, 0.0, seed=7, j2=0.0)
        sol = iod_from_tdm(tdm, site)
        assert abs(sol.elements.a - rec.elements.a) / rec.elements.a < 0.01
