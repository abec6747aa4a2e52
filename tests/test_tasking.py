import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import (SCREENS, assert_common_points_equal,
                      count_force_evaluations, fresh, grids, leo_record,
                      site_under, visibility_cases)
from sdachain import astro
from sdachain.astro import (
    DecayError,
    Epoch,
    KeplerianElements,
    OrbitRecord,
    PropagationLimitError,
    R_EARTH,
    propagate_j2,
    propagate_many,
    state_to_kepler,
    topocentric_angles,
)
from sdachain.iod import iod_from_tdm, refine_elements
from sdachain.netsim import NetsimError, NodeSpec
from sdachain.tasking import (
    INTERNAL_TASK_FEE,
    IodRegion,
    MIN_EPOCH_SPACING_S,
    TASK,
    Task,
    TaskingError,
    assign,
    internal_retask,
    is_expired,
    order_queue,
    priority,
    region_from_solution,
    task_identity,
    visible_epochs,
)
from sdachain.tdm import ELEVATION_MASK_RAD, synth_tdm
from sdachain.validation import ValidationReport
from sdachain.wire import DIGEST, U8, Reader, WireError


def object_task(target="SAT-1", fee=0, urgency=False, created_at=Epoch(0.0),
                ref=b"t1", origin="external"):
    tid = task_identity(target, fee, urgency, origin, created_at, ref)
    return Task(task_id=tid, target=target, fee=fee, urgency=urgency,
                origin=origin, created_at=created_at)


def region_of(rec, epoch=Epoch(0.0)):
    el = state_to_kepler(propagate_j2(rec.elements, rec.bstar, epoch))
    return IodRegion(elements=el, tol_a=5.0, tol_e=1e-3, tol_i=1e-3,
                     tol_raan=1e-3)


def region_task(rec, fee=0, created_at=Epoch(0.0), ref=b"r1"):
    region = region_of(rec, created_at)
    tid = task_identity(region, fee, False, "internal", created_at, ref)
    return Task(task_id=tid, target=region, fee=fee, urgency=False,
                origin="internal", created_at=created_at)


class TestTask:
    def test_field_validation(self):
        t = object_task()
        assert not t.is_followup()
        with pytest.raises(TaskingError):
            Task(task_id=b"short", target="X", fee=0, urgency=False,
                 origin="external", created_at=Epoch(0.0))
        with pytest.raises(TaskingError):
            object_task(target="")
        with pytest.raises(TaskingError):
            Task(task_id=bytes(32), target=3.14, fee=0, urgency=False,
                 origin="external", created_at=Epoch(0.0))
        with pytest.raises(TaskingError):
            Task(task_id=bytes(32), target="X", fee=-1, urgency=False,
                 origin="external", created_at=Epoch(0.0))
        with pytest.raises(TaskingError):
            Task(task_id=bytes(32), target="X", fee=1.5, urgency=False,
                 origin="external", created_at=Epoch(0.0))
        with pytest.raises(TaskingError):
            object_task(origin="unknown")
        # nothing posts a calibration task
        with pytest.raises(TaskingError):
            object_task(origin="calibration")

    def test_identity_sensitive_to_every_field(self):
        base = task_identity("SAT-1", 5, False, "external", Epoch(0.0), b"n")
        assert task_identity("SAT-2", 5, False, "external", Epoch(0.0), b"n") != base
        assert task_identity("SAT-1", 6, False, "external", Epoch(0.0), b"n") != base
        assert task_identity("SAT-1", 5, True, "external", Epoch(0.0), b"n") != base
        assert task_identity("SAT-1", 5, False, "internal", Epoch(0.0), b"n") != base
        assert task_identity("SAT-1", 5, False, "external", Epoch(1.0), b"n") != base
        assert task_identity("SAT-1", 5, False, "external", Epoch(0.0), b"m") != base
        assert task_identity("SAT-1", 5, False, "external", Epoch(0.0), b"n") == base


class TestRegion:
    def test_tolerances_must_be_positive(self):
        rec = leo_record(random.Random(1))
        for field in ("tol_a", "tol_e", "tol_i", "tol_raan"):
            kwargs = dict(tol_a=1.0, tol_e=1e-3, tol_i=1e-3, tol_raan=1e-3)
            kwargs[field] = 0.0
            with pytest.raises(TaskingError):
                IodRegion(elements=rec.elements, **kwargs)

    def test_contains_per_axis(self):
        rec = leo_record(random.Random(2))
        region = region_of(rec)
        el = region.elements
        assert region.contains(el)
        import dataclasses
        assert not region.contains(dataclasses.replace(el, a=el.a + 5.1))
        assert not region.contains(dataclasses.replace(el, e=el.e + 2e-3))
        assert not region.contains(dataclasses.replace(el, i=el.i + 2e-3))
        assert not region.contains(dataclasses.replace(el, raan=el.raan + 2e-3))
        # argp and M are unconstrained for near-circular orbits
        assert region.contains(dataclasses.replace(el, argp=el.argp + 1.0))
        assert region.contains(dataclasses.replace(el, M=el.M + 1.0))

    def test_contains_wraps_raan(self):
        rec = leo_record(random.Random(3))
        import dataclasses
        el = dataclasses.replace(rec.elements, raan=5e-4)
        region = IodRegion(elements=el, tol_a=1.0, tol_e=1e-3, tol_i=1e-3,
                           tol_raan=2e-3)
        other = dataclasses.replace(el, raan=2.0 * math.pi - 5e-4)
        assert region.contains(other)


class TestCodec:
    def test_object_target_roundtrip(self):
        t = object_task(target="SAT-9", fee=25, urgency=True)
        r = Reader(TASK.encode(t))
        assert TASK.read(r) == t
        r.done()

    def test_region_target_roundtrip(self):
        t = region_task(leo_record(random.Random(4)), fee=INTERNAL_TASK_FEE)
        back = TASK.read(Reader(TASK.encode(t)))
        assert back == t and back.is_followup()

    def test_unknown_target_tag_rejected(self):
        raw = DIGEST.encode(bytes(32)) + U8.encode(9)
        with pytest.raises(WireError):
            TASK.read(Reader(raw))


class TestPriority:
    def test_urgent_fresh_zero_fee(self):
        # fresh target: catalog epoch equals now, so the age term is zero
        rec = leo_record(random.Random(5), "SAT-1")
        t = object_task(target="SAT-1", urgency=True)
        assert priority(t, {"SAT-1": rec}, Epoch(0.0)) == pytest.approx(2.0)

    def test_stale_followup_zero_fee(self):
        rec = leo_record(random.Random(6))
        t = region_task(rec, created_at=Epoch(0.0))
        now = Epoch(8.0 * 86400.0)    # age past the 7 day saturation
        assert priority(t, {}, now) == pytest.approx(2.5)

    def test_age_saturates(self):
        rec = leo_record(random.Random(7), "SAT-1")
        t = object_task(target="SAT-1")
        cat = {"SAT-1": rec}
        at_7d = priority(t, cat, Epoch(7.0 * 86400.0))
        at_14d = priority(t, cat, Epoch(14.0 * 86400.0))
        assert at_7d == pytest.approx(1.0)
        assert at_14d == at_7d

    def test_fee_term(self):
        rec = leo_record(random.Random(8), "SAT-1")
        t = object_task(target="SAT-1", fee=100)
        assert priority(t, {"SAT-1": rec}, Epoch(0.0)) == pytest.approx(0.25)

    def test_uncataloged_target_is_maximally_stale(self):
        t = object_task(target="NOBODY")
        assert priority(t, {}, Epoch(0.0)) == pytest.approx(1.0)

    def test_equal_scores_order_by_task_id(self):
        a = object_task(target="SAT-1", ref=b"a")
        b = object_task(target="SAT-1", ref=b"b")
        rec = leo_record(random.Random(9), "SAT-1")
        queue = order_queue([a, b], {"SAT-1": rec}, Epoch(0.0))
        assert [t.task_id for t in queue] == sorted([a.task_id, b.task_id])

    def test_order_is_deterministic_total(self):
        rng = random.Random(10)
        cat = {"SAT-1": leo_record(random.Random(11), "SAT-1")}
        tasks = [object_task(target="SAT-1", fee=rng.randrange(200),
                             urgency=rng.random() < 0.5, ref=bytes([k]))
                 for k in range(12)]
        now = Epoch(3600.0)
        first = order_queue(tasks, cat, now)
        rng.shuffle(tasks)
        second = order_queue(tasks, cat, now)
        assert [t.task_id for t in first] == [t.task_id for t in second]
        assert sorted(t.task_id for t in first) == sorted(
            t.task_id for t in tasks)
        scores = [priority(t, cat, now) for t in first]
        assert scores == sorted(scores, reverse=True)


class TestExpiry:
    def test_expires_strictly_after_48h(self):
        t = object_task(created_at=Epoch(0.0))
        assert not is_expired(t, Epoch(48.0 * 3600.0))
        assert is_expired(t, Epoch(48.0 * 3600.0 + 1.0))


class TestAssign:
    # seed-7 orbit, site under it at t=4000: the pass clears the 10 deg
    # mask for exactly ten 60 s samples between 3760 and 4300
    def pass_setup(self):
        rec = leo_record(random.Random(7), "TGT")
        site = site_under(rec, Epoch(4000.0))
        return rec, site

    def test_constructed_pass_found(self):
        rec, site = self.pass_setup()
        eps = visible_epochs(rec.elements, rec.bstar, site,
                             (Epoch(3100.0), Epoch(4900.0)))
        assert len(eps) == 10
        assert eps[0].t == 3760.0 and eps[-1].t == 4300.0
        for t0, t1 in zip(eps, eps[1:]):
            assert t1.t - t0.t >= 60.0
        for e in eps:
            sv = propagate_j2(rec.elements, rec.bstar, e)
            assert topocentric_angles(sv, site)[1] > math.radians(10.0)

    def test_assign_returns_pass_and_the_queued_task(self):
        rec, site = self.pass_setup()
        task = object_task(target="TGT")
        got = assign([task], site, (Epoch(3100.0), Epoch(4900.0)),
                     {"TGT": rec})
        assert got is not None
        picked, eps = got
        assert picked is task
        assert len(eps) >= 3

    def test_below_horizon_all_window_is_empty(self):
        rec, site = self.pass_setup()
        period = 2.0 * math.pi * math.sqrt(rec.elements.a ** 3 / 398600.4418)
        w0 = 4000.0 + period / 2.0 - 900.0
        task = object_task(target="TGT")
        got = assign([task], site, (Epoch(w0), Epoch(w0 + 1800.0)),
                     {"TGT": rec})
        assert got is None

    def test_priority_order_respected_among_visible(self):
        rec, site = self.pass_setup()
        low = object_task(target="TGT", fee=0, ref=b"low")
        high = object_task(target="TGT", fee=150, urgency=True, ref=b"high")
        got = assign([low, high], site,
                     (Epoch(3100.0), Epoch(4900.0)), {"TGT": rec})
        assert got[0].task_id == high.task_id

    def test_invisible_high_priority_falls_through(self):
        rec, site = self.pass_setup()
        # urgent task on an antipodal orbit nobody can see this window
        other = leo_record(random.Random(21), "FAR")
        far_site = site_under(other, Epoch(4000.0))
        urgent = object_task(target="FAR", urgency=True, ref=b"u")
        plain = object_task(target="TGT", ref=b"p")
        period = 2.0 * math.pi * math.sqrt(other.elements.a ** 3 / 398600.4418)
        vis = visible_epochs(other.elements, other.bstar, site,
                             (Epoch(3100.0), Epoch(4900.0)))
        assert len(vis) < 3
        got = assign([urgent, plain], site,
                     (Epoch(3100.0), Epoch(4900.0)),
                     {"TGT": rec, "FAR": other})
        assert got[0].task_id == plain.task_id

    def test_unknown_object_target_skipped(self):
        rec, site = self.pass_setup()
        ghost = object_task(target="NOT-IN-CATALOG", urgency=True, ref=b"g")
        plain = object_task(target="TGT", ref=b"p")
        got = assign([ghost, plain], site,
                     (Epoch(3100.0), Epoch(4900.0)), {"TGT": rec})
        assert got[0].task_id == plain.task_id

    def test_window_validation(self):
        rec, site = self.pass_setup()
        with pytest.raises(TaskingError):
            assign([], site, (Epoch(100.0), Epoch(0.0)), {})
        with pytest.raises(TaskingError):
            assign([], site, (Epoch(0.0), Epoch(25.0 * 3600.0)), {})

    def test_sensor_mode_checked(self):
        # assign takes only the site; the sensor mode that decides on range
        # lives on the node spec, which rejects unknown modes.
        assert NodeSpec("x", "observer", mode="radar").mode == "radar"
        with pytest.raises(NetsimError):
            NodeSpec("x", "observer", mode="lidar")


def exact_visible_epochs(elements, bstar, site, window):
    """Reference for visible_epochs: every sample propagated and tested
    exactly, with no screening."""
    t0, t1 = window
    epochs = []
    k = 0
    while True:
        t = t0.t + k * MIN_EPOCH_SPACING_S
        if t > t1.t:
            break
        epochs.append(Epoch(t))
        k += 1
    out = []
    try:
        for sv in propagate_many(elements, bstar, epochs):
            if topocentric_angles(sv, site)[1] > ELEVATION_MASK_RAD:
                out.append(sv.epoch)
    except DecayError:
        pass
    return tuple(out)


def grid_state(el):
    """The points el's grids hold and, per grid, the points held each way."""
    held = [(len(g.forward) // 6, len(g.backward) // 6)
            for g in grids(el).values()]
    return sum(f + b for f, b in held), held


def cold_run(fn, el, *args, **kw):
    """fn's result (or its PropagationLimitError text) on elements equal to
    el that hold no grid, and those elements, which hold the grids it
    leaves."""
    el = fresh(el)
    try:
        result = fn(el, *args, **kw)
    except PropagationLimitError as exc:
        result = ("PropagationLimitError", str(exc))
    return result, el


# a 150 km circular orbit that drag decays within ten minutes
_LOW = OrbitRecord(object_id="LOW", bstar=3e-3, elements=KeplerianElements(
    a=R_EARTH + 150.0, e=0.0, i=0.9, raan=0.0, argp=0.0, M=0.0,
    epoch=Epoch(0.0)))


class TestScreenedVisibility:
    """visible_epochs screens samples on the propagation grid; it must return
    exactly what testing every sample does, up to the first that decays,
    and the grid points it shares with that loop must be the same bits."""

    def test_mask_is_above_the_horizon(self):
        # visible_epochs hands its mask to times_above_mask, whose screen
        # holds for masks from the horizon up to below the zenith
        assert 0.0 <= ELEVATION_MASK_RAD < 0.5 * math.pi

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(visibility_cases())
    def test_equals_exact_loop(self, case):
        # the case's cadence_s is times_above_mask's (test_astro);
        # visible_epochs samples every MIN_EPOCH_SPACING_S
        el, bstar, site, window, _ = case
        got, screened = cold_run(visible_epochs, el, bstar, site, window)
        want, exact = cold_run(exact_visible_epochs, el, bstar, site, window)
        assert got == want
        assert_common_points_equal(screened, exact)

    @pytest.mark.parametrize("start, at_grid_point", [(0.0, True),
                                                      (10.0, False)],
                             ids=["grid-point", "remainder-step"])
    def test_decay_inside_the_window(self, start, at_grid_point):
        # samples every 60 s from start, seen from under _LOW's track at
        # 400 s: from 0 s the first to decay is on a grid point below the
        # decay altitude, from 10 s it is 490 s, whose grid point holds
        # but whose remainder step decays; the epochs before it are kept
        el, bstar = _LOW.elements, _LOW.bstar
        for first in itertools.count(start, MIN_EPOCH_SPACING_S):
            decaying = fresh(el)
            try:
                propagate_j2(decaying, bstar, Epoch(first))
            except DecayError:
                break
        # a grid point below the decay altitude is not held
        (grid,) = grids(decaying).values()
        assert (len(grid.forward) // 6 <= first // astro.STEP_S) == \
            at_grid_point
        site = site_under(_LOW, Epoch(400.0))
        window = (Epoch(start), Epoch(start + 1200.0))
        got, screened = cold_run(visible_epochs, el, bstar, site, window)
        want, exact = cold_run(exact_visible_epochs, el, bstar, site, window)
        assert got == want and got
        assert got[-1].t < first
        assert_common_points_equal(screened, exact)

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_span_limit_raises_at_the_same_sample(self, direction):
        # the window crosses the 30-day span: the same samples are reached
        # before the same PropagationLimitError (at the first sample when
        # the window starts past the span, before the element epoch)
        rec = leo_record(random.Random(7), "TGT")
        edge = rec.elements.epoch.t + direction * astro.MAX_SPAN_S
        window = (Epoch(edge - 1800.0), Epoch(edge + 1800.0))
        site = astro.GroundSite(site_id="S", lat=0.3, lon=1.0)
        want, exact = cold_run(exact_visible_epochs, rec.elements, rec.bstar,
                               site, window)
        el = fresh(rec.elements)
        with pytest.raises(PropagationLimitError) as exc:
            visible_epochs(el, rec.bstar, site, window)
        assert want == ("PropagationLimitError", str(exc.value))
        assert grid_state(el) == grid_state(exact)


class TestVisibilityWork:
    """Host-independent work counts of one visible_epochs call."""

    def counted(self, monkeypatch, fn, el, *args):
        """fn's result on elements equal to el that hold no grid, its
        topocentric_angles and _abm_steps calls, its force evaluations (by
        stepping loop, as count_force_evaluations counts them), and the
        grids it leaves on those elements."""
        calls = {"angles": 0, "abm_calls": 0}
        angles_fn = astro.topocentric_angles

        def angles(sv, site):
            calls["angles"] += 1
            return angles_fn(sv, site)

        monkeypatch.setattr(astro, "topocentric_angles", angles)
        # the reference loop calls this module's binding
        monkeypatch.setitem(globals(), "topocentric_angles", angles)
        evals = count_force_evaluations(monkeypatch)
        abm = astro._abm_steps

        def abm_called(*args):
            calls["abm_calls"] += 1
            return abm(*args)

        monkeypatch.setattr(astro, "_abm_steps", abm_called)
        el = fresh(el)
        result = fn(el, *args)
        monkeypatch.undo()
        return result, {**calls, **evals}, grid_state(el)

    def test_exact_test_on_few_samples(self, monkeypatch):
        rec, site = TestAssign().pass_setup()
        # 6 h of samples, none on the 90 s grid
        window = (Epoch(10.0), Epoch(10.0 + 6 * 3600.0))
        samples = 361
        want, exact_work, exact_left = self.counted(
            monkeypatch, exact_visible_epochs, rec.elements, rec.bstar, site,
            window)
        assert exact_work["angles"] == samples
        for name, screen in SCREENS.items():
            monkeypatch.setattr(astro, "_mask_screen", screen)
            got, work, left = self.counted(monkeypatch, visible_epochs,
                                           rec.elements, rec.bstar, site,
                                           window)
            assert got == want and got, name
            # each rendering of the screen decides every sample of this
            # pass, accepting or skipping it, so none takes the exact test
            assert work["angles"] == 0, name
            assert left == exact_left, name
            # the same grid, so the same multistep steps: the pass takes
            # them in one call, the sample-by-sample loop in one call per
            # grid point past the start-up, and each call evaluates _ORDER
            # back values besides its two per step. RK4 makes the same
            # start-up, three steps per point, plus one remainder step per
            # exactly tested sample
            assert (work["abm_calls"], exact_work["abm_calls"]) == (1, 231)
            steps = work["multistep"] - astro._ORDER * work["abm_calls"]
            assert steps == exact_work["multistep"] - astro._ORDER * 231 > 0
            startup = 4 * 3 * (astro._ORDER - 1)
            assert exact_work["rk4"] == startup + 4 * samples
            assert work["rk4"] == startup + 4 * work["angles"]

    @pytest.mark.parametrize("start, ways", [
        (10.0, 1), (-6 * 3600.0 - 10.0, 1), (-3 * 3600.0 - 10.0, 2)],
        ids=["forward", "backward", "straddling"])
    def test_one_multistep_call_per_direction(self, monkeypatch, start, ways):
        # the pass extends the grid once each way it reaches, where taking
        # the samples one by one makes a call per new grid point
        rec, site = TestAssign().pass_setup()
        t0 = rec.elements.epoch.t + start
        window = (Epoch(t0), Epoch(t0 + 6 * 3600.0))
        calls = {"multistep": 0}
        abm = astro._abm_steps

        def counted(*args):
            calls["multistep"] += 1
            return abm(*args)

        monkeypatch.setattr(astro, "_abm_steps", counted)
        for name, screen in SCREENS.items():
            monkeypatch.setattr(astro, "_mask_screen", screen)
            calls["multistep"] = 0
            el = fresh(rec.elements)
            visible_epochs(el, rec.bstar, site, window)
            assert calls["multistep"] == ways, name
            visible_epochs(el, rec.bstar, site, window)
            assert calls["multistep"] == ways, name


class TestRetask:
    NOW = Epoch(5000.0)     # chain time at settlement

    def refined_solution(self, noise=0.0, seed=1, range_noise=0.0,
                         anchor=None):
        """The ghost, its track and the fit; anchor re-anchors the ghost's
        elements at that epoch first."""
        ghost = leo_record(random.Random(11), "GHOST")
        site = site_under(ghost, Epoch(700.0), site_id="G1")
        if anchor is not None:
            ghost = dataclasses.replace(ghost, elements=state_to_kepler(
                propagate_j2(ghost.elements, ghost.bstar, anchor)))
        epochs = [Epoch(600.0 + 30.0 * k) for k in range(8)]
        tdm = synth_tdm(ghost, site, epochs, noise, seed, with_range=True,
                        range_noise_km=range_noise)
        sol = refine_elements(iod_from_tdm(tdm, site).elements, [tdm],
                              {site.site_id: site})
        return ghost, tdm, sol

    def uct_report(self, tdm, sol, **kw):
        fields = dict(tdm_hash=tdm.hex_hash(), verdict="uct",
                      matched_object=None, rms_residual=sol.rms_residual,
                      candidates_checked=0, proposed_elements=sol.elements)
        fields.update(kw)
        return ValidationReport(**fields)

    def test_noiseless_region_contains_truth(self):
        ghost, tdm, sol = self.refined_solution()
        task = internal_retask(self.uct_report(tdm, sol), self.NOW)
        truth = state_to_kepler(propagate_j2(ghost.elements, ghost.bstar,
                                             sol.elements.epoch))
        assert task.origin == "internal" and not task.urgency
        assert task.fee == INTERNAL_TASK_FEE
        assert task.created_at == self.NOW
        assert task.target == region_from_solution(sol.elements, sol.rms_residual)
        assert task.target.contains(truth)

    def test_noisy_region_still_contains_truth(self):
        ghost, tdm, sol = self.refined_solution(noise=1e-4, seed=2,
                                                range_noise=0.05)
        task = internal_retask(self.uct_report(tdm, sol), self.NOW)
        truth = state_to_kepler(propagate_j2(ghost.elements, ghost.bstar,
                                             sol.elements.epoch))
        assert task.target.contains(truth)
        # noisy bounds widen with the residual: 3 * 9e-5 * a over a km
        assert task.target.tol_a > 1.5

    def test_region_floors_apply_when_noiseless(self):
        # the fit's grid is anchored at the middle record (720 s); a ghost
        # anchored there too reaches the records through the same steps, so
        # the noiseless fit reaches the float floor. A ghost anchored at 0
        # leaves 1.6e-8 rad, which widens tol_a by 3.6e-4 km
        _, tdm, sol = self.refined_solution(anchor=Epoch(720.0))
        assert sol.elements.epoch == Epoch(720.0)
        region = internal_retask(self.uct_report(tdm, sol), self.NOW).target
        assert region.tol_a == pytest.approx(1.0, rel=1e-6)
        assert region.tol_e == pytest.approx(1e-3, rel=1e-6)

    def test_verified_report_rejected(self):
        ghost, tdm, sol = self.refined_solution()
        report = ValidationReport(tdm_hash=tdm.hex_hash(), verdict="verified",
                                  matched_object="GHOST",
                                  rms_residual=sol.rms_residual,
                                  candidates_checked=1)
        with pytest.raises(TaskingError):
            internal_retask(report, self.NOW)

    def test_idempotent_task_id(self):
        _, tdm, sol = self.refined_solution()
        report = self.uct_report(tdm, sol)
        t1 = internal_retask(report, self.NOW)
        t2 = internal_retask(report, self.NOW)
        assert t1.task_id == t2.task_id and t1 == t2

    def test_different_reports_different_ids(self):
        _, tdm, sol = self.refined_solution()
        _, tdm2, sol2 = self.refined_solution(noise=1e-5, seed=3)
        t1 = internal_retask(self.uct_report(tdm, sol), self.NOW)
        t2 = internal_retask(self.uct_report(tdm2, sol2), self.NOW)
        assert t1.task_id != t2.task_id

    def test_ambiguous_match_targets_the_object(self):
        _, tdm, sol = self.refined_solution()
        report = self.uct_report(tdm, sol, verdict="ambiguous",
                                 matched_object="SAT-7")
        task = internal_retask(report, self.NOW)
        assert task.target == "SAT-7" and not task.is_followup()
        assert task.created_at == self.NOW
        assert task.task_id == task_identity(
            "SAT-7", INTERNAL_TASK_FEE, False, "internal", self.NOW,
            bytes.fromhex(report.report_hash))

    def test_nothing_to_point_at_returns_none(self):
        _, tdm, sol = self.refined_solution()
        no_elements = self.uct_report(tdm, sol, proposed_elements=None)
        infinite_rms = self.uct_report(tdm, sol, rms_residual=math.inf)
        failed_fit = self.uct_report(tdm, sol, verdict="ambiguous",
                                     proposed_elements=None,
                                     rms_residual=math.inf)
        for report in (no_elements, infinite_rms, failed_fit):
            assert internal_retask(report, self.NOW) is None
