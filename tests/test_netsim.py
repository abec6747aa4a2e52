import copy
import dataclasses
import json
import math
import pathlib
import re
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import count_fits, count_force_evaluations, grids
from sdachain import astro, ledger, netsim, tdm as tdm_module
from sdachain.astro import Epoch, GroundSite, propagate_j2
from sdachain.errors import SdaError
from sdachain.ledger import (
    BLOCK,
    SubmitTdm,
    Transaction,
    apply_transaction,
    load_chain,
    replay_state,
    encode_state,
    verify_chain,
)
from sdachain.netsim import (
    NetsimError,
    NetworkParams,
    NodeSpec,
    Scenario,
    ScriptedTask,
    fl_scenario,
    inject_breakup,
    load_scenario,
    reference_scenario,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    uct_scenario,
    validate_scenario,
)
from sdachain.tdm import ObservationRecord, Tdm, TdmMeta, serialize_tdm

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def uct_report():
    return run_scenario(uct_scenario(7))


@pytest.fixture(scope="module")
def fl_report():
    return run_scenario(fl_scenario(2))


@pytest.fixture(scope="module")
def day_report():
    # the 7-day economics scenario, trimmed to one day for test speed
    sc = dataclasses.replace(reference_scenario(5), duration_s=86400.0)
    return run_scenario(sc)


class TestScenarioValidation:
    def test_reference_is_valid(self):
        assert validate_scenario(reference_scenario(1)) == []
        assert validate_scenario(uct_scenario(1)) == []
        assert validate_scenario(fl_scenario(1)) == []

    def test_problems_are_enumerated(self):
        sc = reference_scenario(1)
        bad = dataclasses.replace(
            sc,
            duration_s=-1.0,
            initial_catalog=sc.initial_catalog + ("NOPE",),
            nodes=sc.nodes + (NodeSpec("alice", "observer", site="S1"),))
        errs = validate_scenario(bad)
        assert len(errs) >= 3
        with pytest.raises(NetsimError):
            run_scenario(bad)

    def test_role_behavior_constraints(self):
        sc = reference_scenario(1)
        spoof_validator = dataclasses.replace(
            sc, nodes=sc.nodes + (NodeSpec("eve", "compute",
                                           behavior="spoofer", stake=10),))
        assert any("spoofer" in e for e in validate_scenario(spoof_validator))
        lazy_observer = dataclasses.replace(
            sc, nodes=sc.nodes + (NodeSpec("eve", "observer",
                                           behavior="lazy_validator",
                                           site="S1"),))
        assert any("lazy" in e for e in validate_scenario(lazy_observer))
        broke_validator = dataclasses.replace(
            sc, nodes=sc.nodes + (NodeSpec("eve", "compute", stake=0),))
        assert any("stake" in e for e in validate_scenario(broke_validator))

    @pytest.mark.parametrize("edit", [
        lambda sc: dataclasses.replace(sc, truth_orbits=(dataclasses.replace(
            sc.truth_orbits[0], elements=dataclasses.replace(
                sc.truth_orbits[0].elements, epoch=Epoch(1e9))),
            *sc.truth_orbits[1:])),
        lambda sc: dataclasses.replace(sc, duration_s=31 * 86400.0),
        # within the limit of duration_s, but not of the last observation
        # window, which a cycle started before the cooldown takes 600 s
        # past it
        lambda sc: dataclasses.replace(sc, truth_orbits=(dataclasses.replace(
            sc.truth_orbits[0], elements=dataclasses.replace(
                sc.truth_orbits[0].elements,
                epoch=Epoch(sc.duration_s - astro.MAX_SPAN_S))),
            *sc.truth_orbits[1:])),
    ], ids=["far_epoch", "31_days", "last_window"])
    def test_truth_past_the_propagation_span_refused(self, edit):
        # each used to validate and stop mid-run with PropagationLimitError
        bad = edit(uct_scenario(1))
        assert any(e.startswith("truth_orbits[0]: epoch_s must lie within")
                   for e in validate_scenario(bad))
        with pytest.raises(NetsimError, match=r"truth_orbits\[0\]"):
            run_scenario(bad)

    def test_network_params_validate(self):
        with pytest.raises(NetsimError):
            NetworkParams(drop_prob=1.0)
        with pytest.raises(NetsimError):
            NetworkParams(latency_ms=(500.0, 50.0))
        with pytest.raises(NetsimError):
            NodeSpec("x", "wizard")
        with pytest.raises(NetsimError):
            NodeSpec("x", "observer", mode="lidar")

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("name", [
        "duration_s", "cycle_s", "block_interval_s", "task_interval_s",
        "spoof_offset_rad", "fl_interval_s", "fl_start_s", "drag_injection",
        "intent_ttl_s", "noise_std"])
    def test_nonfinite_value_rejected(self, name, value):
        # NaN passes every range comparison, so finiteness needs its own
        # check; a NaN offset would otherwise fail only mid-run
        sc = reference_scenario(1)
        if name == "noise_std":
            nodes = (dataclasses.replace(sc.nodes[0], noise_std=value),)
            bad = dataclasses.replace(sc, nodes=nodes + sc.nodes[1:])
        else:
            bad = dataclasses.replace(sc, **{name: value})
        assert any(name in e and "finite" in e for e in validate_scenario(bad))
        with pytest.raises(NetsimError, match=name):
            run_scenario(bad)

    @pytest.mark.parametrize("latency", [(50.0, math.inf), (math.inf, math.inf),
                                         (math.nan, 50.0), (50.0, math.nan)],
                             ids=["inf_max", "inf_both", "nan_min", "nan_max"])
    def test_nonfinite_latency_rejected(self, latency):
        # an infinite maximum used to pass 0 <= lo <= hi, and a run with it
        # delivered no message at all
        with pytest.raises(NetsimError, match="latency"):
            NetworkParams(latency_ms=latency)
        d = scenario_to_json(uct_scenario(1))
        d["network"]["latency_ms"] = list(latency)
        with pytest.raises(NetsimError, match="latency"):
            scenario_from_json(d)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0],
                             ids=["nan", "inf", "negative"])
    def test_scripted_task_time_checked(self, t):
        # a NaN task time used to validate, and the task was never posted
        sc = reference_scenario(1)
        bad = dataclasses.replace(sc, scripted_tasks=(
            ScriptedTask(t=t, target=sc.initial_catalog[0], fee=5),))
        assert any("scripted_tasks[0].t must be" in e
                   for e in validate_scenario(bad))
        with pytest.raises(NetsimError,
                           match=r"scripted_tasks\[0\]\.t must be"):
            run_scenario(bad)

    @pytest.mark.parametrize("value", [-1, 2 ** 64],
                             ids=["negative", "2**64"])
    @pytest.mark.parametrize("name", ["balance", "stake"])
    def test_node_holdings_checked(self, name, value):
        # these used to validate, and the run then failed in make_genesis
        sc = reference_scenario(1)
        nodes = (dataclasses.replace(sc.nodes[0], **{name: value}),)
        bad = dataclasses.replace(sc, nodes=nodes + sc.nodes[1:])
        assert any(f"nodes[0].{name}" in e for e in validate_scenario(bad))
        with pytest.raises(NetsimError, match=name):
            run_scenario(bad)

    def test_genesis_supply_checked(self):
        # each holding fits a u64 but their sum, which make_genesis stores
        # as the u64 genesis_supply, does not; this used to validate and
        # then fail while encoding the genesis snapshot
        sc = uct_scenario(1)
        nodes = tuple(dataclasses.replace(n, balance=2 ** 63)
                      if n.account in ("alice", "bob") else n for n in sc.nodes)
        bad = dataclasses.replace(sc, nodes=nodes)
        assert any("genesis supply" in e for e in validate_scenario(bad))
        with pytest.raises(NetsimError, match="genesis supply"):
            run_scenario(bad)

    @pytest.mark.parametrize("fee", [-1, 2 ** 64], ids=["negative", "2**64"])
    def test_scripted_task_fee_checked(self, fee):
        # these used to validate, and the run then failed mid-run when the
        # requester's post_task was hashed
        sc = reference_scenario(1)
        bad = dataclasses.replace(sc, scripted_tasks=(
            ScriptedTask(t=10.0, target=sc.initial_catalog[0], fee=fee),))
        assert any("scripted_tasks[0].fee" in e
                   for e in validate_scenario(bad))
        with pytest.raises(NetsimError, match=r"scripted_tasks\[0\]\.fee"):
            run_scenario(bad)

    @pytest.mark.parametrize("fee", [-1, 2 ** 64], ids=["negative", "2**64"])
    def test_task_fee_checked(self, fee):
        bad = dataclasses.replace(reference_scenario(1), task_fee=fee)
        assert any("task_fee" in e for e in validate_scenario(bad))
        with pytest.raises(NetsimError, match="task_fee"):
            run_scenario(bad)

    @pytest.mark.parametrize("step_s", [0.5, 90.0, 120.0])
    def test_step_s_outside_integrator_range_rejected(self, step_s):
        # the grid step is astro.STEP_S for every node and the ledger, so a
        # file that still sets one is refused rather than ignored: a step
        # outside the integrator's range, which once validated and then
        # raised PropagationLimitError at the first propagation, never
        # reaches a run, and neither does the default itself
        d = scenario_to_json(uct_scenario(1))
        d["step_s"] = step_s
        with pytest.raises(NetsimError, match="unknown key 'step_s'"):
            scenario_from_json(d)

    @pytest.mark.parametrize("ttl", [0.0, -5.0])
    def test_nonpositive_intent_ttl_rejected(self, ttl):
        # -5 used to validate, and the run made its blocks with every
        # transaction expired before sending, settling nothing
        bad = dataclasses.replace(uct_scenario(1), intent_ttl_s=ttl)
        assert any("intent_ttl_s" in e for e in validate_scenario(bad))
        with pytest.raises(NetsimError, match="intent_ttl_s"):
            run_scenario(bad)

    # The three scenarios below used to validate.  Run, the first two would
    # schedule more block events than memory holds and the third overflows
    # the drag term mid-run, so these tests only validate them.
    def test_huge_duration_rejected(self):
        bad = dataclasses.replace(uct_scenario(1), duration_s=2 ** 63)
        assert any(f"at most {netsim.MAX_BLOCKS} blocks" in e
                   for e in validate_scenario(bad))

    def test_tiny_block_interval_rejected(self):
        bad = dataclasses.replace(uct_scenario(1), block_interval_s=1e-300)
        assert any(f"at most {netsim.MAX_BLOCKS} blocks" in e
                   for e in validate_scenario(bad))

    def test_huge_truth_bstar_rejected(self):
        sc = uct_scenario(1)
        first = dataclasses.replace(sc.truth_orbits[0], bstar=1e300)
        bad = dataclasses.replace(sc, truth_orbits=(first,) + sc.truth_orbits[1:])
        assert any("truth_orbits[0].bstar" in e
                   for e in validate_scenario(bad))

    def test_scripted_tasks_need_requester(self):
        sc = uct_scenario(1)    # no requester node
        with_task = dataclasses.replace(
            sc, scripted_tasks=(ScriptedTask(t=10.0, target="OBJ-01",
                                             fee=5),))
        assert any("requester" in e for e in validate_scenario(with_task))

    def test_task_series_needs_a_catalog(self):
        # this used to validate, and the first task post raised
        # ZeroDivisionError picking its target round-robin
        bad = dataclasses.replace(reference_scenario(1), initial_catalog=())
        assert any("task series" in e for e in validate_scenario(bad))

    # Each of these used to validate, and a run of it never ended: the
    # first two scheduled their series up front, where t + 1e-300 == t
    # pushes events forever, the third listed every sample of a 1e300 s
    # window, and the fourth, with no orbit to propagate, ran 5.6e9
    # observer cycles. So these tests only validate them.
    @pytest.mark.parametrize("build, changes, name", [
        (fl_scenario, {"fl_interval_s": 1e-300}, "fl_interval_s"),
        (reference_scenario, {"task_interval_s": 1e-300}, "task_interval_s"),
        (uct_scenario, {"cycle_s": 1e300}, "cycle_s"),
        (uct_scenario, {"truth_orbits": (), "initial_catalog": (),
                        "duration_s": 1e12, "block_interval_s": 1e8},
         "cycle_s")],
        ids=["fl_interval", "task_interval", "cycle", "cycle_count"])
    def test_endless_scenario_rejected(self, build, changes, name):
        bad = dataclasses.replace(build(1), **changes)
        assert any(name in e for e in validate_scenario(bad))


class TestScenarioJson:
    def test_roundtrip_preserves_scenario(self):
        sc = reference_scenario(9)
        assert scenario_from_json(scenario_to_json(sc)) == sc
        sc2 = fl_scenario(3)
        assert scenario_from_json(scenario_to_json(sc2)) == sc2

    def test_load_from_file(self, tmp_path):
        sc = uct_scenario(4)
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(scenario_to_json(sc)))
        assert load_scenario(str(p)) == sc

    def test_nonfinite_site_rejected(self):
        for bad in ({"lat": math.nan}, {"lon": math.inf}, {"alt": math.nan}):
            with pytest.raises(ValueError, match="finite"):
                GroundSite(**{"site_id": "X", "lat": 0.0, "lon": 0.0, **bad})
        # json parses the NaN literal, so a scenario file can carry one
        d = scenario_to_json(uct_scenario(4))
        d["sites"][0]["lat_rad"] = math.nan
        text = json.dumps(d)
        assert '"lat_rad": NaN' in text
        with pytest.raises(NetsimError, match="finite"):
            scenario_from_json(json.loads(text))

    def test_nonfinite_validation_param_rejected(self):
        # json parses NaN, and a NaN d_assoc used to load
        d = scenario_to_json(uct_scenario(4))
        d["validation"]["d_assoc"] = math.nan
        with pytest.raises(SdaError, match="d_assoc must be finite"):
            scenario_from_json(json.loads(json.dumps(d)))

    @pytest.mark.parametrize("edit, where", [
        (lambda d: d["truth_orbits"][0].update(e=1.5), r"truth_orbits\[0\]"),
        (lambda d: d["truth_orbits"][0].update(i_rad=4.0),
         r"truth_orbits\[0\]"),
        (lambda d: d["sites"][0].update(lat_rad=math.nan), r"sites\[0\]"),
        (lambda d: d["nodes"][1].update(role="wizard"), r"nodes\[1\]"),
        (lambda d: d["network"].update(latency_ms=[500, 50]), "network"),
    ], ids=["eccentricity", "inclination", "nan_latitude", "unknown_role",
            "latency_range"])
    def test_out_of_range_value_rejected(self, edit, where):
        d = scenario_to_json(uct_scenario(4))
        edit(d)
        with pytest.raises(NetsimError, match=where):
            scenario_from_json(d)

    @pytest.mark.parametrize("edit, where", [
        (lambda d: d["truth_orbits"][0].update(a_km=1e-300),
         r"truth_orbits\[0\]"),
        (lambda d: d["truth_orbits"][0].update(a_km=1e300),
         r"truth_orbits\[0\]"),
        (lambda d: d["economics"].update(r_mint=-1), "economics.*r_mint"),
        (lambda d: d["validation"].update(d_assoc=0), "validation.*d_assoc"),
    ], ids=["tiny_a", "huge_a", "negative_r_mint", "zero_d_assoc"])
    def test_load_escape_raises_netsim_error(self, edit, where):
        # each of these used to escape as another error: a ZeroDivisionError
        # or OverflowError from the run's first mean motion, a LedgerError,
        # a ValidationError
        d = scenario_to_json(uct_scenario(4))
        edit(d)
        with pytest.raises(NetsimError, match=where):
            scenario_from_json(d)

    def test_integer_beyond_float_range(self):
        # an int leaf holds any JSON integer, a float leaf none past the
        # float range: neither check may overflow converting it
        d = scenario_to_json(uct_scenario(4))
        d["seed"] = 10 ** 400
        assert scenario_from_json(d).seed == 10 ** 400
        d["duration_s"] = 10 ** 400
        with pytest.raises(NetsimError, match="duration_s must be finite"):
            scenario_from_json(d)

    def test_every_key_is_documented(self):
        """Every key _SCENARIO declares is named in docs/scenario.md."""
        text = (ROOT / "docs" / "scenario.md").read_text(encoding="utf-8")
        named = set(re.findall(r"`([A-Za-z_]\w*)`", text))
        keys, kinds = set(), [netsim._SCENARIO]
        while kinds:
            kind = kinds.pop()
            if isinstance(kind, list):
                kinds.append(kind[0])
            elif isinstance(kind, dict):
                keys.update(kind)
                kinds.extend(kind.values())
        assert len(keys) > 60
        assert sorted(keys - named) == []

    def test_unknown_key_rejected(self):
        d = scenario_to_json(uct_scenario(4))
        d["cycle_sec"] = 900.0
        with pytest.raises(NetsimError, match="cycle_sec"):
            scenario_from_json(d)
        d = scenario_to_json(uct_scenario(4))
        d["nodes"][0]["stake_amount"] = 5
        with pytest.raises(NetsimError, match="stake_amount"):
            scenario_from_json(d)

    def test_fractional_integer_rejected(self):
        d = scenario_to_json(uct_scenario(4))
        d["economics"]["r_mint"] = 5.7
        with pytest.raises(NetsimError, match="r_mint"):
            scenario_from_json(d)

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(max_track_len="8"),
        lambda d: d.update(block_interval_s="600"),
        lambda d: d["nodes"][0].update(noise_std="big"),
    ], ids=["max_track_len", "block_interval_s", "noise_std"])
    def test_string_number_rejected(self, edit):
        d = scenario_to_json(uct_scenario(4))
        edit(d)
        with pytest.raises(NetsimError):
            scenario_from_json(d)

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.pop("seed"), "seed"),
        (lambda d: d.pop("nodes"), "nodes"),
        (lambda d: d["truth_orbits"][0].pop("a_km"), "a_km"),
        (lambda d: d["truth_orbits"][0].pop("raan_rad"), "raan_rad"),
        (lambda d: d["sites"][0].pop("site_id"), "site_id"),
        (lambda d: d["nodes"][0].pop("account"), "account"),
        (lambda d: d.update(scripted_tasks=[{"t": 60.0, "fee": 5}]),
         "target"),
    ], ids=["seed", "nodes", "a_km", "raan", "site_id", "account",
            "scripted_target"])
    def test_missing_key_rejected(self, edit, key):
        d = scenario_to_json(uct_scenario(4))
        edit(d)
        with pytest.raises(NetsimError, match=key):
            scenario_from_json(d)

    @pytest.mark.parametrize("latency", [[], [50.0], [50.0, 100.0, 500.0]],
                             ids=["empty", "one", "three"])
    def test_latency_must_be_a_pair(self, latency):
        d = scenario_to_json(uct_scenario(4))
        d["network"]["latency_ms"] = latency
        with pytest.raises(NetsimError, match="latency"):
            scenario_from_json(d)
        with pytest.raises(NetsimError, match="latency"):
            NetworkParams(latency_ms=latency)


class TestEventHeap:
    def test_peak_does_not_grow_with_duration(self, monkeypatch):
        # each recurring event schedules the next when it fires, so the
        # heap holds about one event per series and node, however long
        # the run; with every series scheduled up front it held 168
        # events over one day and 480 over three
        peaks = {}
        push = netsim._Sim.push

        def recording(sim, *args, **kwargs):
            push(sim, *args, **kwargs)
            peaks[sim.sc.duration_s] = max(peaks.get(sim.sc.duration_s, 0),
                                           len(sim.events))

        monkeypatch.setattr(netsim._Sim, "push", recording)
        for days in (1, 3):
            run_scenario(dataclasses.replace(reference_scenario(1),
                                             duration_s=days * 86400.0))
        assert peaks[86400.0] == peaks[3 * 86400.0] <= 32


def _fuzz_base() -> dict:
    """uct_scenario(1) as JSON, with a requester, a scripted task and a
    calibration id, so that every key of _SCENARIO has a leaf to edit."""
    d = scenario_to_json(uct_scenario(1))
    d["nodes"].append(dataclasses.asdict(
        NodeSpec("rita", "requester", balance=1000)))
    d["scripted_tasks"] = [dataclasses.asdict(
        ScriptedTask(t=600.0, target="OBJ-01", fee=5))]
    d["calibration_ids"] = ["OBJ-01"]
    return d


def _leaves(v, kind, path=()):
    """(path, kind) of each leaf of v that kind declares, and of each key
    an object may carry but v lacks (an angle in degrees)."""
    if isinstance(kind, list):
        for k, x in enumerate(v):
            yield from _leaves(x, kind[0], path + (k,))
    elif isinstance(kind, dict):
        for key, sub in kind.items():
            if key in v:
                yield from _leaves(v[key], sub, path + (key,))
            elif not isinstance(sub, (list, dict)):
                yield path + (key,), sub
    else:
        yield path, kind


FUZZ_BASE = _fuzz_base()
FUZZ_LEAVES = list(_leaves(FUZZ_BASE, netsim._SCENARIO))
EDGE_VALUES = (0, -1, 1e-300, 1e300, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
               10 ** 400, math.nan, math.inf, -math.inf)


def _values(kind) -> list:
    """The edge values, plus a number leaf's bounds and their neighbours,
    and a leaf of another kind's own kind."""
    out = list(EDGE_VALUES)
    if isinstance(kind, netsim._Num):
        for b in (kind.lo, kind.hi):
            if math.isfinite(b):
                out += [b, b - 1, b + 1] if kind.kind is int else \
                    [b, math.nextafter(b, -math.inf),
                     math.nextafter(b, math.inf)]
    else:
        out += ["", "OBJ-01", True, False]
    return out


class TestScenarioFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_file_loads_and_runs_or_is_refused(self, data):
        d = copy.deepcopy(FUZZ_BASE)
        for path, kind in data.draw(st.lists(st.sampled_from(FUZZ_LEAVES),
                                             min_size=1, max_size=3)):
            *parents, last = path
            node = d
            for key in parents:
                node = node[key]
            node[last] = data.draw(st.sampled_from(_values(kind)))
        try:
            sc = scenario_from_json(d)
        except NetsimError:
            return
        if validate_scenario(sc):
            return
        # a longer run only repeats the same steps; the work bound keeps
        # the unclipped run finite
        sc = dataclasses.replace(sc, duration_s=min(
            sc.duration_s, 5400.0, 200 * sc.block_interval_s))
        assert validate_scenario(sc) == []
        try:
            run_scenario(sc)
        except SdaError:
            pass


class TestBreakup:
    def test_unknown_parent_raises(self):
        with pytest.raises(NetsimError):
            inject_breakup(uct_scenario(1), "NOPE", 2, Epoch(100.0))

    def test_zero_fragments_only_adds_task(self):
        sc = uct_scenario(1)
        out = inject_breakup(sc, "OBJ-01", 0, Epoch(100.0))
        assert out.truth_orbits == sc.truth_orbits
        assert len(out.scripted_tasks) == len(sc.scripted_tasks) + 1
        task = out.scripted_tasks[-1]
        assert task.target == "OBJ-01" and task.urgency

    def test_fragments_share_parent_position(self):
        sc = uct_scenario(1)
        t = Epoch(500.0)
        out = inject_breakup(sc, "OBJ-01", 3, t)
        parent = next(r for r in out.truth_orbits if r.object_id == "OBJ-01")
        psv = propagate_j2(parent.elements, parent.bstar, t, step_s=30.0)
        frags = [r for r in out.truth_orbits if "-F" in r.object_id]
        assert len(frags) == 3
        for fr in frags:
            fsv = propagate_j2(fr.elements, fr.bstar, t, step_s=30.0)
            assert math.dist(psv.r, fsv.r) < 1.0
            dv = math.dist(psv.v, fsv.v)
            assert 0.0 < dv <= 0.1
            assert fr.object_id not in out.initial_catalog

    def test_deterministic_fragments(self):
        sc = uct_scenario(1)
        a = inject_breakup(sc, "OBJ-01", 2, Epoch(500.0))
        b = inject_breakup(sc, "OBJ-01", 2, Epoch(500.0))
        assert a == b

    def test_fragment_gets_mined(self):
        # put the breakup right over the radar fence and watch the
        # survey -> pool -> retask -> associate -> mine loop pick it up
        base = uct_scenario(1)
        ghost = next(r for r in base.truth_orbits if r.object_id == "GHOST")
        parent = dataclasses.replace(ghost, object_id="OBJ-01")
        sc = dataclasses.replace(
            base, truth_orbits=(parent,), initial_catalog=("OBJ-01",),
            nodes=base.nodes + (NodeSpec("rita", "requester", balance=1000),))
        sc = inject_breakup(sc, "OBJ-01", 2, Epoch(300.0))
        rep = run_scenario(sc)
        assert rep.mined
        assert rep.conservation == 0


class TestUctRun:
    def test_object_mined_within_five_cycles(self, uct_report):
        assert uct_report.mined
        assert uct_report.catalog_final != uct_report.catalog_initial
        assert uct_report.verdicts.get("uct", 0) >= 2

    def test_live_reports_hold_float_elements(self, uct_report):
        # the orbits a live sim attests hold what a decoded chain holds
        reports = [tx.payload.report for b in uct_report.blocks
                   for tx in b.txs if tx.kind == "attest_validation"]
        proposed = [r.proposed_elements for r in reports
                    if r.proposed_elements is not None]
        mined = [r.mined.elements for r in reports if r.mined is not None]
        assert proposed and mined
        for el in proposed + mined:
            assert [type(v) for v in el.key()] == [float] * 7

    def test_conservation_and_balances(self, uct_report):
        rep = uct_report
        assert rep.conservation == 0
        for acct, pnl in rep.pnl.items():
            assert rep.final_holdings[acct] == rep.initial_holdings[acct] + pnl
        # miners split the discovery mint, so someone must be up
        assert any(v > 0 for v in rep.pnl.values())

    def test_chain_verifies_and_replays(self, uct_report):
        assert verify_chain(uct_report.blocks) is None
        replayed = replay_state(uct_report.blocks)
        assert encode_state(replayed) == encode_state(uct_report.final_state)

    def test_tampering_detected(self, uct_report):
        chain = list(uct_report.blocks)
        victim = next(i for i, b in enumerate(chain) if i > 0 and b.txs)
        b = chain[victim]
        bad_tx = dataclasses.replace(b.txs[0], nonce=b.txs[0].nonce + 1)
        chain[victim] = dataclasses.replace(b, txs=(bad_tx,) + b.txs[1:])
        assert verify_chain(chain) == victim
        # genesis time is outside the snapshot, so that tamper only shows
        # up when block 1's prev_hash fails to match
        chain = list(uct_report.blocks)
        g = chain[0]
        chain[0] = dataclasses.replace(g, time=g.time - 1.0)
        assert verify_chain(chain) == 1

    def test_replaced_catalog_entry_releases_its_grid(self, monkeypatch):
        # a catalog entry that settlement refreshed is read by nothing, so
        # its grids go with it, while the run's report is still held; an
        # initial entry is its truth record, which the sensors still observe
        sc = uct_scenario(1)
        truth = {id(r) for r in sc.truth_orbits}
        released, kept = [], []
        settle = ledger._settle

        def recording(state, *args):
            before = dict(state.catalog)
            settle(state, *args)
            for oid, old in before.items():
                if state.catalog[oid] is not old:
                    refs = [weakref.ref(g.forward)
                            for g in grids(old.elements).values()]
                    assert refs
                    (kept if id(old) in truth else released).extend(refs)

        monkeypatch.setattr(ledger, "_settle", recording)
        rep = run_scenario(sc)
        assert released and kept
        assert all(ref() is None for ref in released)
        assert all(ref() is not None for ref in kept)
        assert rep.state_root

    def test_force_evaluations_per_phase(self, monkeypatch, tmp_path):
        # every grid is shared wherever one orbit is propagated again, so
        # the sim and the replay evaluate exactly these forces; RK4 on a
        # 30 s grid made 15 592 and 6 960 (3 898 and 1 740 steps). Replay
        # made 2 568 and 896 while settlement re-ran the mining fits; now
        # it integrates only the catalog refreshes. The sim made 8 484 RK4
        # evaluations while validation predicted a gated candidate's first
        # record twice, once for the gate and once for the RMS
        evals = count_force_evaluations(monkeypatch)
        run_scenario(uct_scenario(1), out_dir=str(tmp_path))
        sim = dict(evals)
        evals.update(rk4=0, multistep=0)
        assert verify_chain(load_chain(str(tmp_path / "chain.log"))) is None
        assert (sim, evals) == ({"rk4": 8476, "multistep": 1644},
                                {"rk4": 176, "multistep": 64})

    @pytest.mark.parametrize("workload", ["uct", "breakup"])
    def test_replay_fits_no_orbit(self, workload, monkeypatch, tmp_path):
        # the attestation that reaches quorum carries the mined orbit, so
        # the sim's validators fit and replay only applies what they agreed
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        from workloads import breakup_scenario
        sc = uct_scenario(1) if workload == "uct" else breakup_scenario(1)
        calls = count_fits(monkeypatch)
        rep = run_scenario(sc, out_dir=str(tmp_path))
        assert rep.mined and calls["mine_object"] == len(rep.mined)
        assert calls["refine_elements"] and calls["iod_from_tdm"]
        calls.clear()
        assert verify_chain(load_chain(str(tmp_path / "chain.log"))) is None
        assert calls == {}


    def test_future_dated_claim_gets_no_attestation(self):
        sim = netsim._Sim(uct_scenario(1))
        tdm = Tdm(meta=TdmMeta(site_id="E1", participant="OBJ-01", mode="AZEL"),
                  records=tuple(ObservationRecord(epoch=Epoch(40 * 86400.0 + 30.0 * k),
                                                  angle1=1.0, angle2=0.5)
                                for k in range(8)))
        tx = Transaction(kind="submit_tdm", sender="alice", nonce=0,
                         payload=SubmitTdm(tdm_text=serialize_tdm(tdm)))
        sim.state = apply_transaction(sim.state, tx)
        assert tdm.hex_hash() in sim.state.pending
        assert sim.attestation_for(sim.state, tdm.hex_hash()) is None

    def test_each_admitted_tdm_is_parsed_once(self, monkeypatch, tmp_path):
        # the state and the simulator hold the parsed message: the only
        # parse is _apply's, once per submit_tdm a block admits
        calls = []
        parse = tdm_module.parse_tdm

        def counting(text):
            calls.append(text)
            return parse(text)

        for mod in (tdm_module, ledger, netsim):
            if hasattr(mod, "parse_tdm"):
                monkeypatch.setattr(mod, "parse_tdm", counting)
        rep = run_scenario(uct_scenario(1), out_dir=str(tmp_path))
        admitted = sorted(tx.payload.tdm_text for b in rep.blocks
                          for tx in b.txs if tx.kind == "submit_tdm")
        assert len(admitted) == 4
        assert sorted(calls) == admitted
        calls.clear()
        assert verify_chain(load_chain(str(tmp_path / "chain.log"))) is None
        assert sorted(calls) == admitted

    def test_rerun_is_bit_identical(self, uct_report):
        again = run_scenario(uct_scenario(7))
        a = b"".join(BLOCK.encode(x) for x in uct_report.blocks)
        b = b"".join(BLOCK.encode(x) for x in again.blocks)
        assert a == b
        assert again.state_root == uct_report.state_root

    def test_json_dict_is_asdict_without_state_and_blocks(self):
        rep = run_scenario(uct_scenario(1))
        whole = dataclasses.asdict(rep)
        del whole["final_state"], whole["blocks"]
        assert rep.to_json_dict() == whole

    def test_report_records_the_constants(self, uct_report):
        assert uct_report.constants == astro.constants_dict()
        assert uct_report.to_json_dict()["constants"] == astro.constants_dict()

    def test_outputs_persisted(self, tmp_path):
        out = str(tmp_path / "run")
        rep = run_scenario(uct_scenario(3), out_dir=out)
        chain = load_chain(f"{out}/chain.log")
        assert [x.height for x in chain] == [x.height for x in rep.blocks]
        with open(f"{out}/report.json") as f:
            doc = json.load(f)
        assert doc["state_root"] == rep.state_root
        assert doc["conservation"] == 0
        assert doc["constants"] == astro.constants_dict()
        with open(f"{out}/verdicts.csv") as f:
            header = f.readline().strip()
        assert header == "height,time,tdm_hash,verdict,object_id,submitter"
        with open(f"{out}/balances.csv") as f:
            assert f.readline().startswith("height,time,account")


class TestReferenceRun:
    def test_force_evaluations(self, monkeypatch):
        # the multistep grid's purpose: RK4 on a 30 s grid made 407 297
        # steps, four evaluations each, in this run. RK4 made 83 100
        # while validation predicted a gated candidate's first record
        # twice, once for the gate and once for the RMS
        evals = count_force_evaluations(monkeypatch)
        run_scenario(reference_scenario(1))
        assert evals == {"rk4": 82444, "multistep": 262288}
        assert 2 * sum(evals.values()) <= 4 * 407_297


class TestSpoofer:
    def test_spoofer_integrates_no_grid_of_its_own(self, monkeypatch):
        # the spoofer observes the truth orbit from a turned copy of its
        # site, so every grid the run builds belongs to a truth orbit or
        # to an orbit the catalog held at some point; settlement is what
        # refreshes catalog entries, sometimes twice within one block
        sc = dataclasses.replace(reference_scenario(1), duration_s=43200.0)
        known = {r.elements.key() for r in sc.truth_orbits}
        integrated = set()
        settle, grid = ledger._settle, astro._grid

        def recording(state, *args):
            settle(state, *args)
            known.update(r.elements.key() for r in state.catalog.values())

        def building(el, *args):
            integrated.add(el.key())
            return grid(el, *args)

        monkeypatch.setattr(ledger, "_settle", recording)
        monkeypatch.setattr(astro, "_grid", building)
        rep = run_scenario(sc)
        assert rep.verdicts.get("rejected", 0) > 0
        assert integrated and integrated <= known


class TestEconomicsDay:
    def test_honest_up_spoofer_down(self, day_report):
        rep = day_report
        for honest in ("alice", "bob", "carol"):
            assert rep.pnl[honest] > 0
        assert rep.pnl["mallory"] < 0

    def test_no_honest_observer_slashed(self, day_report):
        state = day_report.final_state
        rejected = [s for s in state.settlements if s.verdict == "rejected"]
        assert rejected, "the spoofer must get caught"
        assert {s.submitter for s in rejected} == {"mallory"}

    def test_verified_dominate(self, day_report):
        v = day_report.verdicts
        assert v.get("verified", 0) > v.get("rejected", 0)
        assert day_report.conservation == 0

    def test_catalog_unchanged_without_unknowns(self, day_report):
        assert day_report.catalog_final == day_report.catalog_initial


class TestLazyValidator:
    def test_quorum_without_the_lazy_node(self):
        sc = uct_scenario(11)
        lazy = dataclasses.replace(
            sc, nodes=sc.nodes + (NodeSpec("val-z", "compute",
                                           behavior="lazy_validator",
                                           stake=25),))
        rep = run_scenario(lazy)
        # 100 of 125 staked is above the 2/3 quorum without val-z
        assert rep.n_settlements > 0
        attesters = {tx.sender for b in rep.blocks for tx in b.txs
                     if tx.kind == "attest_validation"}
        assert "val-z" not in attesters
        assert attesters >= {"val-a", "val-b"}


class TestFederatedLearning:
    def test_model_improves(self, fl_report):
        rep = fl_report
        assert rep.model_version >= 3
        assert rep.n_holdout >= 10
        assert rep.holdout_rms_model <= 0.5 * rep.holdout_rms_zero

    def test_poisoner_rejected_unanimously(self, fl_report):
        rep = fl_report
        poison = {r["proposal"] for r in rep.model_rounds
                  if r["behavior"] == "model_poisoner"}
        assert poison, "the poisoner must get a proposing turn"
        honest_votes = [v for v in rep.model_votes
                        if v["proposal"] in poison and v["voter"] != "val-z"]
        assert honest_votes
        assert all(v["vote"] == "reject" for v in honest_votes)

    def test_merges_happened_on_chain(self, fl_report):
        assert fl_report.model_versions
        assert fl_report.model_versions[-1]["version"] == \
            fl_report.model_version
        assert fl_report.conservation == 0
