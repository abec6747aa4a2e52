"""Tests for time, Kepler machinery, the propagator, and observation geometry."""

import hashlib
import math
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fresh, grids, visibility_cases
from sdachain import astro
from sdachain.astro import (
    AstroError,
    DecayError,
    Epoch,
    GroundSite,
    J2_EARTH,
    KeplerianElements,
    MU_EARTH,
    R_EARTH,
    StateVector,
    UnsupportedRegimeError,
    angles_to_unit_vector,
    angular_separation,
    azel_from,
    dot,
    gmst,
    kepler_to_state,
    norm,
    propagate_above_horizon,
    propagate_j2,
    propagate_many,
    radec_from,
    radec_to_unit_vector,
    site_eci,
    site_frame,
    solve_kepler,
    state_to_kepler,
    topocentric_angles,
    wrap_two_pi,
)
from sdachain.errors import SdaError
from sdachain.netsim import reference_scenario

TWO_PI = 2.0 * math.pi


def leo_elements(rng, epoch=Epoch(0.0)):
    """Random LEO with perigee altitude kept above 250 km."""
    a = rng.uniform(6778.0, 7578.0)
    e = rng.uniform(0.0, min(0.03, 1.0 - (R_EARTH + 250.0) / a))
    return KeplerianElements(
        a=a, e=e,
        i=rng.uniform(math.radians(20.0), math.radians(98.0)),
        raan=rng.uniform(0.0, TWO_PI), argp=rng.uniform(0.0, TWO_PI),
        M=rng.uniform(0.0, TWO_PI), epoch=epoch,
    )


def vec_err(a, b):
    return norm(tuple(x - y for x, y in zip(a, b)))


class TestEpoch:
    def test_iso_round_trip_microseconds(self):
        e = Epoch(123456.654321)
        assert Epoch.from_iso(e.iso()).t == pytest.approx(e.t, abs=1e-6)

    def test_iso_text_form(self):
        assert Epoch(0.0).iso() == "2000-01-01T12:00:00.000000"
        assert Epoch(86400.0).iso() == "2000-01-02T12:00:00.000000"

    def test_negative_epochs_supported(self):
        e = Epoch(-3600.0)
        assert e.iso() == "2000-01-01T11:00:00.000000"
        assert Epoch.from_iso(e.iso()).t == e.t

    def test_ordering(self):
        assert Epoch(1.0) < Epoch(2.0)

    def test_quantized_matches_text_resolution(self):
        e = Epoch(1.0000004999)
        assert Epoch.from_iso(e.iso()).t == e.quantized().t

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Epoch(float("nan"))


class TestElements:
    def test_angle_normalization(self):
        el = KeplerianElements(a=7000.0, e=0.01, i=1.0, raan=-0.5,
                               argp=TWO_PI + 0.25, M=7.0, epoch=Epoch(0.0))
        assert 0.0 <= el.raan < TWO_PI
        assert el.raan == pytest.approx(TWO_PI - 0.5)
        assert el.argp == pytest.approx(0.25)
        assert el.M == pytest.approx(7.0 - TWO_PI)

    def test_invalid_elements_rejected(self):
        with pytest.raises(ValueError):
            KeplerianElements(a=-7000.0, e=0.0, i=1.0, raan=0.0, argp=0.0,
                              M=0.0, epoch=Epoch(0.0))
        with pytest.raises(ValueError):
            KeplerianElements(a=7000.0, e=1.0, i=1.0, raan=0.0, argp=0.0,
                              M=0.0, epoch=Epoch(0.0))
        with pytest.raises(ValueError):
            KeplerianElements(a=7000.0, e=0.1, i=4.0, raan=0.0, argp=0.0,
                              M=0.0, epoch=Epoch(0.0))

    def test_period_against_keplers_third_law(self):
        el = KeplerianElements(a=7000.0, e=0.0, i=0.9, raan=0.0, argp=0.0,
                               M=0.0, epoch=Epoch(0.0))
        assert el.period() == pytest.approx(TWO_PI * math.sqrt(7000.0**3 / MU_EARTH))


class TestKepler:
    def test_solve_kepler_residual(self):
        rng = random.Random(3)
        for _ in range(500):
            M = rng.uniform(0.0, TWO_PI)
            e = rng.uniform(0.0, 0.95)
            E = solve_kepler(M, e)
            assert abs(E - e * math.sin(E) - M) < 1e-12

    def test_round_trip_state_elements_state(self):
        rng = random.Random(1)
        for _ in range(300):
            el = KeplerianElements(
                a=rng.uniform(6700.0, 45000.0), e=rng.uniform(0.0, 0.7),
                i=rng.uniform(0.01, math.pi - 0.01),
                raan=rng.uniform(0.0, TWO_PI), argp=rng.uniform(0.0, TWO_PI),
                M=rng.uniform(0.0, TWO_PI), epoch=Epoch(0.0))
            sv = kepler_to_state(el, Epoch(rng.uniform(-1e5, 1e5)))
            back = kepler_to_state(state_to_kepler(sv), sv.epoch)
            assert vec_err(sv.r, back.r) < 1e-8
            assert vec_err(sv.v, back.v) < 1e-11

    def test_circular_and_equatorial_degeneracies(self):
        for el in (
            KeplerianElements(a=7000.0, e=0.0, i=0.8, raan=1.0, argp=0.0, M=2.0, epoch=Epoch(0.0)),
            KeplerianElements(a=8000.0, e=0.2, i=0.0, raan=0.0, argp=1.0, M=2.0, epoch=Epoch(0.0)),
            KeplerianElements(a=9000.0, e=0.0, i=0.0, raan=0.0, argp=0.0, M=2.0, epoch=Epoch(0.0)),
        ):
            sv = kepler_to_state(el, Epoch(500.0))
            back = kepler_to_state(state_to_kepler(sv), sv.epoch)
            assert vec_err(sv.r, back.r) < 1e-8

    def test_vis_viva_and_angular_momentum(self):
        el = KeplerianElements(a=7200.0, e=0.05, i=1.1, raan=0.3, argp=2.2,
                               M=4.0, epoch=Epoch(0.0))
        sv = kepler_to_state(el, Epoch(1234.5))
        r = norm(sv.r)
        assert dot(sv.v, sv.v) == pytest.approx(MU_EARTH * (2.0 / r - 1.0 / el.a), rel=1e-12)
        h = norm((
            sv.r[1] * sv.v[2] - sv.r[2] * sv.v[1],
            sv.r[2] * sv.v[0] - sv.r[0] * sv.v[2],
            sv.r[0] * sv.v[1] - sv.r[1] * sv.v[0],
        ))
        assert h == pytest.approx(math.sqrt(MU_EARTH * el.a * (1.0 - el.e**2)), rel=1e-12)

    def test_hyperbolic_state_rejected(self):
        sv = StateVector(epoch=Epoch(0.0), r=(7000.0, 0.0, 0.0), v=(0.0, 12.0, 0.0))
        with pytest.raises(UnsupportedRegimeError):
            state_to_kepler(sv)

    def test_rectilinear_state_rejected(self):
        sv = StateVector(epoch=Epoch(0.0), r=(7000.0, 0.0, 0.0), v=(3.0, 0.0, 0.0))
        with pytest.raises(UnsupportedRegimeError):
            state_to_kepler(sv)


class TestPropagator:
    def test_constants_name_the_grid_step(self):
        assert astro.constants_dict()["step_s"] == astro.STEP_S == 90.0

    def test_two_body_limit_one_period(self):
        # J2 and drag off: RK4 must track the analytic conic tightly.
        rng = random.Random(42)
        for _ in range(20):
            el = leo_elements(rng)
            t = Epoch(el.period())
            truth = kepler_to_state(el, t)
            sv = propagate_j2(el, 0.0, t, step_s=2.0, j2=0.0)
            assert vec_err(sv.r, truth.r) < 1e-6

    def test_energy_conserved_with_j2(self):
        # E = v^2/2 - mu/r + mu J2 Re^2 (3 z^2/r^2 - 1)/(2 r^3) is an integral
        # of the J2-only motion; drift measures integrator truncation.
        def energy(sv):
            r = norm(sv.r)
            z = sv.r[2]
            v_j2 = MU_EARTH * J2_EARTH * R_EARTH**2 / (2.0 * r**3) * (3.0 * z * z / (r * r) - 1.0)
            return 0.5 * dot(sv.v, sv.v) - MU_EARTH / r + v_j2

        el = KeplerianElements(a=7000.0, e=0.0, i=math.radians(51.6), raan=0.5,
                               argp=0.0, M=1.0, epoch=Epoch(0.0))
        e0 = energy(kepler_to_state(el, el.epoch))
        for day in (0.25, 1.0, 2.0):
            sv = propagate_j2(el, 0.0, Epoch(day * 86400.0), step_s=10.0)
            assert abs((energy(sv) - e0) / e0) < 1e-8

    def test_j2_short_period_radial_amplitude_bounded(self):
        el = KeplerianElements(a=7000.0, e=0.0, i=math.radians(51.6), raan=0.5,
                               argp=0.0, M=1.0, epoch=Epoch(0.0))
        P = el.period()
        worst = max(
            abs(norm(propagate_j2(el, 0.0, Epoch(P * k / 60.0), step_s=10.0).r) - el.a)
            for k in range(61)
        )
        assert 0.1 < worst < 10.0

    def test_drag_shrinks_orbit_energy(self):
        def energy(sv):
            r = norm(sv.r)
            z = sv.r[2]
            v_j2 = MU_EARTH * J2_EARTH * R_EARTH**2 / (2.0 * r**3) * (3.0 * z * z / (r * r) - 1.0)
            return 0.5 * dot(sv.v, sv.v) - MU_EARTH / r + v_j2

        el = KeplerianElements(a=6778.0, e=0.001, i=0.9, raan=0.0, argp=0.0,
                               M=0.0, epoch=Epoch(0.0))
        es = [energy(propagate_j2(el, 1e-5, Epoch(k * 3600.0), step_s=10.0))
              for k in range(25)]
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_backward_propagation_inverts_forward(self):
        el = KeplerianElements(a=7100.0, e=0.02, i=1.2, raan=0.8, argp=1.5,
                               M=0.3, epoch=Epoch(0.0))
        fwd = propagate_j2(el, 1e-6, Epoch(3600.0), step_s=10.0)
        el_fwd = state_to_kepler(fwd)
        back = propagate_j2(el_fwd, 1e-6, Epoch(0.0), step_s=10.0)
        start = kepler_to_state(el, el.epoch)
        assert vec_err(back.r, start.r) < 1e-5

    def test_cache_does_not_change_results(self):
        el = KeplerianElements(a=7050.0, e=0.01, i=1.0, raan=0.2, argp=0.4,
                               M=0.6, epoch=Epoch(0.0))
        # Warm the grid with a long query, then check a shorter one agrees
        # bit-for-bit with a run on equal elements that hold no grid.
        long = propagate_j2(el, 1e-6, Epoch(7200.0), step_s=10.0)
        short = propagate_j2(el, 1e-6, Epoch(1805.0), step_s=10.0)
        cold = propagate_j2(fresh(el), 1e-6, Epoch(1805.0), step_s=10.0)
        assert short.r == cold.r and short.v == cold.v
        cold_long = propagate_j2(fresh(el), 1e-6, Epoch(7200.0), step_s=10.0)
        assert long.r == cold_long.r

    def test_partial_step_continuity(self):
        el = KeplerianElements(a=7050.0, e=0.01, i=1.0, raan=0.2, argp=0.4,
                               M=0.6, epoch=Epoch(0.0))
        a = propagate_j2(el, 0.0, Epoch(99.999), step_s=10.0)
        b = propagate_j2(el, 0.0, Epoch(100.0), step_s=10.0)
        assert vec_err(a.r, b.r) < 0.01

    def test_step_and_span_limits(self):
        el = KeplerianElements(a=7000.0, e=0.0, i=1.0, raan=0.0, argp=0.0,
                               M=0.0, epoch=Epoch(0.0))
        with pytest.raises(ValueError):
            propagate_j2(el, 0.0, Epoch(100.0), step_s=0.5)
        with pytest.raises(ValueError):
            propagate_j2(el, 0.0, Epoch(100.0), step_s=91.0)
        with pytest.raises(ValueError):
            propagate_j2(el, 0.0, Epoch(31 * 86400.0))

    def test_decay_raises(self):
        el = KeplerianElements(a=R_EARTH + 150.0, e=0.0, i=0.9, raan=0.0,
                               argp=0.0, M=0.0, epoch=Epoch(0.0))
        with pytest.raises(DecayError):
            propagate_j2(el, 1e-3, Epoch(5 * 86400.0), step_s=30.0)

    def test_decay_deterministic_through_cache(self):
        el = KeplerianElements(a=R_EARTH + 150.0, e=0.0, i=0.9, raan=0.0,
                               argp=0.0, M=0.0, epoch=Epoch(0.0))
        with pytest.raises(DecayError):
            propagate_j2(el, 1e-3, Epoch(5 * 86400.0), step_s=30.0)
        # Second query hits the memoized decay index.
        with pytest.raises(DecayError):
            propagate_j2(el, 1e-3, Epoch(5 * 86400.0), step_s=30.0)


# float.hex of propagate_j2(_PIN_ELEMENTS, bstar, Epoch(t), step_s, j2=j2)
# as (x, y, z, vx, vy, vz); any change to the force model or its operation
# order moves these bits, and every golden hash with them.
_PIN_ELEMENTS = KeplerianElements(a=6878.0, e=0.012, i=0.9, raan=1.1, argp=0.7,
                                  M=2.3, epoch=Epoch(1000.0))
_PINNED_STATES = [
    ("drag_on_partial", 2e-05, 6437.25, 10.0, J2_EARTH,
     ("-0x1.0f8abc32de6afp+12",
      "-0x1.38d4aecce0b92p+12",
      "0x1.ed76cdc307f89p+10",
      "0x1.4a03a61d62703p+1",
      "-0x1.214dc517b607fp+2",
      "-0x1.5fdf13de948cbp+2")),
    ("drag_off_on_grid", 0.0, 8200.0, 10.0, J2_EARTH,
     ("0x1.d2067bf24a807p+11",
      "-0x1.0e8e5ff739c4fp+11",
      "-0x1.52abd844cbbbep+12",
      "0x1.c7464ee57701cp+1",
      "0x1.aa871e0b87865p+2",
      "-0x1.ed9ec849688e5p-4")),
    ("two_body_partial", 0.0, 4333.3, 7.0, 0.0,
     ("0x1.587cc2cf45356p+10",
      "0x1.8b82372a9f6ddp+12",
      "0x1.02b51817e8cdep+11",
      "-0x1.52c8bfd1f1c41p+2",
      "-0x1.620b0a46d109ap-1",
      "0x1.632de16ad813ap+2")),
    ("backward_partial", 1e-05, -3321.5, 30.0, J2_EARTH,
     ("0x1.78829ec80bbe6p+11",
      "-0x1.a215a42d3287ap+11",
      "-0x1.49e8f591f85aep+12",
      "0x1.1055535bc4ee0p+2",
      "0x1.851dc83b1901cp+2",
      "-0x1.57f8733fce54bp+0")),
    ("drag_only_partial", 3e-05, 1901.5, 10.0, 0.0,
     ("0x1.9cbf1a6835408p+9",
      "-0x1.5b73954f2e025p+12",
      "-0x1.008bf88167813p+12",
      "0x1.53dbe8e67952ep+2",
      "0x1.d4e689aa6959cp+1",
      "-0x1.ef573a4ae6d8bp+1")),
    ("backward_on_grid", 0.0, 400.0, 60.0, J2_EARTH,
     ("-0x1.3263d890a85e4p+12",
      "-0x1.753040ecfd81cp+11",
      "0x1.dabe5576ed360p+11",
      "0x1.f881e59f3b44bp-2",
      "-0x1.95aebac9a71b7p+2",
      "-0x1.0b0424191b2cdp+2")),
    ("default_step_partial", 2e-05, 87445.5, 90.0, J2_EARTH,
     ("0x1.b29d32ad1742ep+11",
      "-0x1.3f4ee9c4230f0p+11",
      "-0x1.524335890adc6p+12",
      "0x1.08a4fac3e47d4p+2",
      "0x1.9464abb01d8a6p+2",
      "-0x1.ed0edb5cb09c2p-3")),
]


def pick(el, warm):
    """el itself when warm (its grids outlive each test), else equal
    elements that hold no grid."""
    return el if warm else fresh(el)


class TestPropagatorBits:
    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("name,bstar,t,step_s,j2,expected", _PINNED_STATES,
                             ids=[c[0] for c in _PINNED_STATES])
    def test_pinned_state_bits(self, name, bstar, t, step_s, j2, expected, warm):
        el = pick(_PIN_ELEMENTS, warm)
        if warm:
            # grow the grid past t first
            far = Epoch(2.0 * t - el.epoch.t)
            propagate_j2(el, bstar, far, step_s=step_s, j2=j2)
        sv = propagate_j2(el, bstar, Epoch(t), step_s=step_s, j2=j2)
        assert tuple(c.hex() for c in (*sv.r, *sv.v)) == expected


def state_bits(sv):
    return tuple(c.hex() for c in (sv.epoch.t, *sv.r, *sv.v))


def grid_state(el):
    """Each grid kept on el, by key: the doubles it holds each way and
    its decay indices."""
    return {key: (g.forward.tobytes(), g.backward.tobytes(), g.decay_fwd,
                  g.decay_bwd) for key, g in grids(el).items()}


_MANY_ELEMENTS = KeplerianElements(a=6900.0, e=0.015, i=1.1, raan=0.3, argp=2.0,
                                   M=4.0, epoch=Epoch(5000.0))
# unsorted, forward and backward of the element epoch, on the step grid
# (rem == 0) and between grid points, with a repeat
_MANY_EPOCHS = [Epoch(5000.0 + dt) for dt in
                (3605.5, -120.0, 0.0, 60.0, -7777.7, 3605.5, 12.25, 86400.0,
                 -30.0, 1e-3)]


class TestPropagateMany:
    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("bstar,j2", [(0.0, J2_EARTH), (2e-5, J2_EARTH), (1e-5, 0.0)])
    def test_matches_propagate_j2_bit_for_bit(self, warm, bstar, j2):
        many = list(propagate_many(pick(_MANY_ELEMENTS, warm), bstar, _MANY_EPOCHS,
                                   step_s=10.0, j2=j2))
        single = [propagate_j2(fresh(_MANY_ELEMENTS), bstar, t, step_s=10.0, j2=j2)
                  for t in _MANY_EPOCHS]
        assert [state_bits(sv) for sv in many] == [state_bits(sv) for sv in single]
        assert all(sv.epoch is t for sv, t in zip(many, _MANY_EPOCHS))

    def test_empty_epochs_yield_nothing(self):
        assert list(propagate_many(_MANY_ELEMENTS, 0.0, [], step_s=0.1)) == []

    @pytest.mark.parametrize("warm", [True, False])
    def test_decay_yields_states_before_then_raises(self, warm):
        el = KeplerianElements(a=R_EARTH + 150.0, e=0.0, i=0.9, raan=0.0,
                               argp=0.0, M=0.0, epoch=Epoch(0.0))
        epochs = [Epoch(k * 6 * 3600.0) for k in range(21)]
        expected = []
        for t in epochs:
            try:
                expected.append(propagate_j2(fresh(el), 1e-3, t, step_s=30.0))
            except DecayError:
                break
        assert 0 < len(expected) < len(epochs)
        if warm:
            # the grid then already holds the decay index
            with pytest.raises(DecayError):
                propagate_j2(el, 1e-3, epochs[-1], step_s=30.0)
        got = []
        gen = propagate_many(pick(el, warm), 1e-3, epochs, step_s=30.0)
        with pytest.raises(DecayError):
            for sv in gen:
                got.append(sv)
        assert [state_bits(sv) for sv in got] == [state_bits(sv) for sv in expected]

    @pytest.mark.parametrize("warm", [True, False])
    def test_limit_errors_match_propagate_j2(self, warm):
        el = pick(_MANY_ELEMENTS, warm)
        bad_step = propagate_many(el, 0.0, [Epoch(5100.0)], step_s=0.5)
        with pytest.raises(astro.PropagationLimitError) as many_exc:
            next(bad_step)
        with pytest.raises(astro.PropagationLimitError) as single_exc:
            propagate_j2(el, 0.0, Epoch(5100.0), step_s=0.5)
        assert str(many_exc.value) == str(single_exc.value)

        far = Epoch(5000.0 - 31 * 86400.0)
        gen = propagate_many(el, 0.0, [Epoch(5100.0), Epoch(4000.0), far, Epoch(5200.0)])
        assert next(gen).epoch.t == 5100.0
        assert next(gen).epoch.t == 4000.0
        with pytest.raises(astro.PropagationLimitError) as many_exc:
            next(gen)
        with pytest.raises(astro.PropagationLimitError) as single_exc:
            propagate_j2(el, 0.0, far)
        assert str(many_exc.value) == str(single_exc.value)

    def test_limit_error_is_domain_and_value_error(self):
        assert issubclass(astro.PropagationLimitError, AstroError)
        assert issubclass(astro.PropagationLimitError, SdaError)
        assert issubclass(astro.PropagationLimitError, ValueError)


class TestMultistepAccuracy:
    """One day of the default grid against RK4 at 1 s, whose own error is
    far below a millimetre here."""

    @pytest.mark.parametrize("el,bstar", [
        (reference_scenario(1).truth_orbits[0].elements, 0.0),
        (reference_scenario(1).truth_orbits[1].elements, 0.0),
        (_PIN_ELEMENTS, 2e-5)], ids=["OBJ-01", "OBJ-02", "drag"])
    def test_one_day_against_fine_rk4(self, el, bstar):
        # on the grid, and 45 s short of it, where the RK4 remainder step
        # adds its own error; RK4 at 30 s, the old grid, misses OBJ-01 by
        # 48 m, OBJ-02 by 31 m and the drag orbit by 109 m
        kj, day = astro._j2_coeff(J2_EARTH), 86400.0
        t0 = el.epoch.t
        off = astro._rk4_steps(astro._anchor(el), 1.0, 86355, bstar, kj, t0, 0)
        on = astro._rk4_steps(off, 1.0, 45, bstar, kj, t0, 86355)
        coarse = astro._rk4_steps(astro._anchor(el), 30.0, 2880, bstar, kj,
                                  t0, 0)
        for t, fine in ((t0 + day, on), (t0 + day - 45.0, off)):
            sv = propagate_j2(fresh(el), bstar, Epoch(t))
            assert vec_err(sv.r, fine) < 0.05 * vec_err(coarse[:3], on)
            assert vec_err(sv.r, fine) < 2e-3     # km


def drain(states):
    """The states a pass yields, and the SdaError that ends it, if any."""
    got = []
    try:
        for sv in states:
            got.append(sv)
    except SdaError as exc:
        return got, (type(exc).__name__, str(exc))
    return got, None


class TestPropagateAboveHorizon:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(visibility_cases())
    def test_skips_only_states_below_the_horizon(self, case):
        el, bstar, site, (w0, w1), step_s, cadence_s = case
        times = [w0.t + k * cadence_s
                 for k in range(int((w1.t - w0.t) // cadence_s) + 1)
                 if w0.t + k * cadence_s <= w1.t]
        screened, exact_el = fresh(el), fresh(el)
        got, got_err = drain(propagate_above_horizon(screened, bstar, site, times,
                                                     step_s=step_s))
        want, want_err = drain(propagate_many(exact_el, bstar,
                                              [Epoch(t) for t in times],
                                              step_s=step_s))
        assert got_err == want_err
        assert grid_state(screened) == grid_state(exact_el)
        exact = {sv.epoch.t: sv for sv in want}
        assert [state_bits(sv) for sv in got] == [
            state_bits(exact[sv.epoch.t]) for sv in got]
        kept = {sv.epoch.t for sv in got}
        assert all(topocentric_angles(sv, site)[1] <= 0.0
                   for sv in want if sv.epoch.t not in kept)

    def test_longest_remainder_step_keeps_the_screen_open(self):
        # without drag, a remainder step of up to MAX_STEP_S gains less
        # speed at the decay altitude than the screen allows, so the
        # screen's speed condition never sends a time down the exact path
        assert astro.MAX_STEP_S * astro._A_GRAV_FLOOR <= astro._SPEED_SLACK

    def test_remainder_step_decay_is_never_screened(self):
        # a time past the last grid point above the decay altitude, seen
        # from the far side of the Earth: only the remainder step from that
        # grid point decays, and it must, as in propagate_many
        el = KeplerianElements(a=R_EARTH + 150.0, e=0.0, i=0.9, raan=0.0,
                               argp=0.0, M=0.0, epoch=Epoch(0.0))
        with pytest.raises(DecayError):
            propagate_j2(el, 3e-3, Epoch(86400.0), step_s=30.0)
        (grid,) = grids(el).values()
        t = (grid.decay_fwd - 1) * 30.0 + 29.0
        last = propagate_j2(el, 3e-3, Epoch(t - 29.0), step_s=30.0)
        lat = math.asin(last.r[2] / norm(last.r))
        lon = math.atan2(last.r[1], last.r[0]) - gmst(last.epoch)
        far = GroundSite(site_id="FAR", lat=-lat, lon=lon + math.pi)
        with pytest.raises(DecayError) as exact:
            propagate_j2(el, 3e-3, Epoch(t), step_s=30.0)
        assert f"t={t:.1f}" in str(exact.value)
        with pytest.raises(DecayError) as screened:
            list(propagate_above_horizon(fresh(el), 3e-3, far, [t], step_s=30.0))
        assert str(screened.value) == str(exact.value)

    def passes(self, times, site=GroundSite(site_id="S", lat=0.0, lon=0.0)):
        """The screened pass and propagate_many over times on _LOW (drag
        3e-3, 30 s grid), each on elements that hold no grid: what each
        yields, its error and the grid it leaves."""
        out = []
        for run in (lambda el: propagate_above_horizon(el, 3e-3, site, times,
                                                       step_s=30.0),
                    lambda el: propagate_many(el, 3e-3,
                                              [Epoch(t) for t in times],
                                              step_s=30.0)):
            el = fresh(_LOW)
            got, err = drain(run(el))
            (grid,) = grids(el).values()
            out.append((got, err, grid))
        return out

    def decay_index(self):
        el = fresh(_LOW)
        with pytest.raises(DecayError):
            propagate_j2(el, 3e-3, Epoch(86400.0), step_s=30.0)
        (grid,) = grids(el).values()
        return grid.decay_fwd

    def test_decay_in_the_one_extension_is_undone(self):
        # the pass's one extension, to its last time, reaches a grid point
        # below the decay altitude; undone, the times are taken one by one
        # and a remainder step decays first, before any grid point does
        decay = self.decay_index()
        times = [k * 30.0 + 29.0 for k in range(decay + 3)]
        assert int(times[-1] // 30.0) >= decay
        (got, got_err, got_grid), (want, want_err, want_grid) = \
            self.passes(times)
        assert got_err == want_err
        assert got_err[0] == "DecayError"
        assert f"t={(decay - 1) * 30.0 + 29.0:.1f}" in got_err[1]
        assert held(got_grid) == held(want_grid)
        assert got_grid.decay_fwd is want_grid.decay_fwd is None
        assert len(got_grid.forward) // 6 == decay
        exact = {sv.epoch.t: state_bits(sv) for sv in want}
        assert [state_bits(sv) for sv in got] == [exact[sv.epoch.t] for sv in got]

    def test_remainder_step_decay_rolls_the_extension_back(self):
        # the one extension succeeds both ways, but the first time's
        # remainder step decays: the grid keeps only what that time
        # reaches, so the backward grid stays at its anchor (undoing also
        # needs the numpy view of the grid dropped: a live one refuses it)
        decay = self.decay_index()
        times = [(decay - 1) * 30.0 + 29.0, -3600.0]
        (got, got_err, got_grid), (want, want_err, want_grid) = \
            self.passes(times)
        assert got == want == []
        assert got_err == want_err and got_err[0] == "DecayError"
        assert held(got_grid) == held(want_grid)
        assert len(got_grid.backward) // 6 == 1
        assert len(got_grid.forward) // 6 == decay


class TestArraySteps:
    @settings(max_examples=200, deadline=None)
    @given(epoch=st.floats(-1e9, 1e9),
           step_s=st.sampled_from((10.0, 30.0, 60.0, 90.0))
           | st.floats(astro.MIN_STEP_S, astro.MAX_STEP_S),
           offsets=st.lists(
               st.floats(-astro.MAX_SPAN_S, astro.MAX_SPAN_S)
               | st.tuples(st.integers(-28800, 28800),
                           st.sampled_from((-1e-9, 0.0, 1e-9))),
               min_size=1, max_size=20))
    def test_equal_grid_point(self, epoch, step_s, offsets):
        # the array screen's n_full and rem, against _Grid.point's for the
        # same times, off the grid and on or next to its points
        import numpy as np
        el = KeplerianElements(a=7000.0, e=1e-3, i=0.5, raan=0.0, argp=0.0,
                               M=0.0, epoch=Epoch(epoch))
        grid = astro._Grid(el, 0.0, step_s, J2_EARTH)
        times = [epoch + (off if isinstance(off, float)
                          else off[0] * step_s + off[1]) for off in offsets]
        with pytest.MonkeyPatch.context() as mp:
            # the index and step only: no points are made
            mp.setattr(astro._Grid, "_extend", lambda *args: None)
            want = [(i // 6, abs(h)) for _, i, h in map(grid.point, times)]
        n_full, rem = astro._steps_of(np.array(times) - grid.t0, step_s)
        got = list(zip(n_full.tolist(), rem.tolist()))
        assert [(n, r.hex()) for n, r in got] == [(n, r.hex()) for n, r in want]


_LOW = KeplerianElements(a=R_EARTH + 150.0, e=0.0, i=0.9, raan=0.0, argp=0.0,
                         M=0.0, epoch=Epoch(0.0))
# propagate_j2(_LOW, bstar, Epoch(86400.0), step_s=30.0) on a cold cache:
# the grid index that decays (past the start-up, so in the multistep
# loop), the DecayError text, and the SHA-256 of the forward grid left
# behind (comma-joined float.hex of its doubles)
_DECAY_PINS = [
    (1e-3, 23, "altitude 100.0 km below 100 km at t=690.0",
     "d882cdd96afc404286fb81dcdb01f25145b9b9306d0b397e86db405b8da03df7"),
    (3e-3, 17, "altitude 92.6 km below 100 km at t=510.0",
     "d697502fe33c70938577c70130c542cee46e8d94cb998de08378bb596672c267"),
]


def points_hash(points):
    return hashlib.sha256(",".join(v.hex() for v in points).encode()).hexdigest()


def held(grid):
    """A grid's points and back values, each way."""
    return (grid.forward.tobytes(), grid.backward.tobytes(), grid.back_fwd,
            grid.back_bwd)


class TestGridStepping:
    """A multistep extension runs all its steps in one _abm_steps call and
    appends them in bulk; the grid must hold what any other chunking of
    the same extension holds, and decay where and as that does."""

    @pytest.mark.parametrize("append_steps", [astro._APPEND_STEPS, 7])
    @pytest.mark.parametrize("bstar,j2", [(0.0, J2_EARTH), (2e-5, J2_EARTH),
                                          (0.0, 0.0), (2e-5, 0.0)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_extension_equals_one_step_per_call(self, monkeypatch, sign,
                                                    bstar, j2, append_steps):
        # ends of the chunks: one point per call; then chunks that end in
        # the start-up, on its last point, on the first multistep point,
        # and past it
        n, t0 = 50, _PIN_ELEMENTS.epoch.t
        chunkings = [range(1, n + 1), [3, astro._ORDER - 1, n],
                     [astro._ORDER, n], [astro._ORDER + 2, 30, n]]
        grids_by_chunking = []
        for ends in chunkings:
            grid = astro._Grid(_PIN_ELEMENTS, bstar, 10.0, j2)
            for k in ends:
                grid.point(t0 + sign * k * 10.0)
            grids_by_chunking.append(held(grid))
        # a small append size makes the one extension flush mid-way
        monkeypatch.setattr(astro, "_APPEND_STEPS", append_steps)
        whole = astro._Grid(_PIN_ELEMENTS, bstar, 10.0, j2)
        whole.point(t0 + sign * n * 10.0)
        grown = whole.forward if sign > 0 else whole.backward
        assert len(grown) == 6 * (n + 1)
        assert len(whole.back_fwd if sign > 0 else whole.back_bwd) == \
            6 * astro._ORDER
        assert all(g == held(whole) for g in grids_by_chunking)

    @pytest.mark.parametrize("append_steps", [astro._APPEND_STEPS, 5])
    @pytest.mark.parametrize("bstar,decay_at,message,points", _DECAY_PINS)
    def test_decay_matches_pins(self, monkeypatch, bstar, decay_at, message,
                                points, append_steps):
        monkeypatch.setattr(astro, "_APPEND_STEPS", append_steps)
        low = fresh(_LOW)
        with pytest.raises(DecayError) as first:
            propagate_j2(low, bstar, Epoch(86400.0), step_s=30.0)
        assert str(first.value) == message
        (grid,) = grids(low).values()
        assert (grid.decay_fwd, grid.decay_bwd) == (decay_at, None)
        assert len(grid.forward) == 6 * decay_at
        assert points_hash(grid.forward) == points
        assert len(grid.backward) == 6
        with pytest.raises(DecayError) as again:
            propagate_j2(low, bstar, Epoch(86400.0), step_s=30.0)
        assert str(again.value) == (f"altitude below 100 km at grid step "
                                    f"{decay_at} (t={decay_at * 30.0:.1f})")
        with pytest.raises(DecayError) as cold:
            propagate_j2(fresh(_LOW), bstar, Epoch(86400.0), step_s=30.0)
        assert str(cold.value) == message

    def test_remainder_step_decay_message(self):
        # grid point 16 (t=480) is above the decay altitude, the 29 s
        # remainder step from it is not; pinned as above, on a new grid
        # and on the grid that query left
        low = fresh(_LOW)
        for _ in range(2):
            with pytest.raises(DecayError) as exc:
                propagate_j2(low, 3e-3, Epoch(509.0), step_s=30.0)
            assert str(exc.value) == "altitude 92.9 km below 100 km at t=509.0"

    def test_uncached_propagate_j2_leaves_cache_untouched(self):
        # the grids kept on one instance are not those of equal elements
        el, low = fresh(_MANY_ELEMENTS), fresh(_LOW)
        propagate_j2(el, 0.0, Epoch(9000.0))
        propagate_j2(low, 1e-3, Epoch(300.0), step_s=30.0)
        before = grid_state(el), grid_state(low)
        assert len(before[0]) == 1 and len(before[1]) == 1
        # equal elements past the kept grids' ends, both ways, and to decay
        for t in (20000.0, -3000.0, 9000.0, 5012.5):
            propagate_j2(fresh(el), 0.0, Epoch(t))
        with pytest.raises(DecayError):
            propagate_j2(fresh(low), 1e-3, Epoch(86400.0), step_s=30.0)
        assert (grid_state(el), grid_state(low)) == before
        assert all(g.decay_fwd is None for g in grids(low).values())


class TestGridCacheAccounting:
    """Passes on equal but fresh elements step grids of their own and leave
    the grids kept on another instance as they were."""

    def test_uncached_passes_leave_cache_untouched(self):
        el = fresh(_MANY_ELEMENTS)
        propagate_j2(el, 0.0, Epoch(9000.0))
        list(propagate_many(el, 1e-6, _MANY_EPOCHS[:3]))
        before = grid_state(el)
        assert len(before) == 2
        list(propagate_many(fresh(el), 0.0, _MANY_EPOCHS))
        list(propagate_many(fresh(el), 3e-6, _MANY_EPOCHS))
        propagate_j2(fresh(el), 3e-6, Epoch(20000.0))
        assert grid_state(el) == before


class TestGridOwnership:
    """Each grid is kept on its elements instance and lives as long as it."""

    def test_grid_dies_with_its_elements(self):
        el = fresh(_MANY_ELEMENTS)
        list(propagate_many(el, 0.0, _MANY_EPOCHS))
        (grid,) = grids(el).values()
        points = weakref.ref(grid.forward)
        del el, grid
        assert points() is None

    def test_decayed_anchor_is_never_kept(self):
        sunk = KeplerianElements(a=R_EARTH + 50.0, e=0.0, i=0.9, raan=0.0,
                                 argp=0.0, M=0.0, epoch=Epoch(0.0))
        for _ in range(2):
            with pytest.raises(DecayError):
                propagate_j2(sunk, 0.0, Epoch(10.0))
        assert grids(sunk) == {}


@st.composite
def rotation_cases(draw):
    """(elements, bstar, site, offset, epochs): a random LEO orbit at epoch
    0, a random site, an offset in [0, 2*pi), and epochs within 2 days."""
    unit = st.floats(0.0, 1.0)
    a = R_EARTH + draw(st.floats(300.0, 1500.0))
    el = KeplerianElements(a=a, e=draw(st.floats(0.0, min(0.02, 1.0 - (R_EARTH + 250.0) / a))),
                           i=draw(st.floats(0.0, math.pi)), raan=TWO_PI * draw(unit),
                           argp=TWO_PI * draw(unit), M=TWO_PI * draw(unit), epoch=Epoch(0.0))
    site = GroundSite(site_id="S", lat=math.radians(draw(st.floats(-89.0, 89.0))),
                      lon=math.radians(draw(st.floats(-180.0, 180.0))),
                      alt=draw(st.floats(0.0, 5.0)))
    offset = draw(st.floats(0.0, TWO_PI, exclude_max=True))
    epochs = sorted(draw(st.lists(st.floats(0.0, 2.0 * 86400.0), min_size=1, max_size=4)))
    return el, draw(st.sampled_from((0.0, 1e-6))), site, offset, [Epoch(t) for t in epochs]


class TestRotationAboutThePole:
    """Gravity, J2 and drag in the co-rotating atmosphere are unchanged by a
    rotation about the polar axis, so an orbit with its RAAN turned by an
    offset, seen from a site, looks like the orbit itself seen from the site
    turned back by the offset. netsim's spoofer relies on this."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rotation_cases())
    def test_raan_offset_equals_site_rotation(self, case):
        el, bstar, site, offset, epochs = case
        turned = KeplerianElements(a=el.a, e=el.e, i=el.i, raan=el.raan + offset,
                                   argp=el.argp, M=el.M, epoch=el.epoch)
        phantom = GroundSite(site_id=site.site_id, lat=site.lat,
                             lon=site.lon - offset, alt=site.alt)
        spoofed = propagate_many(turned, bstar, epochs, step_s=30.0)
        truth = propagate_many(el, bstar, epochs, step_s=30.0)
        for a, b in zip(spoofed, truth):
            az1, el1, rng1 = topocentric_angles(a, site)
            az2, el2, rng2 = topocentric_angles(b, phantom)
            assert abs(wrap_two_pi(az1 - az2 + math.pi) - math.pi) < 1e-9
            assert abs(el1 - el2) < 1e-9
            assert abs(rng1 - rng2) < 1e-6


class TestObservationGeometry:
    def test_gmst_wraps_and_advances_at_earth_rate(self):
        g0 = gmst(Epoch(0.0))
        g1 = gmst(Epoch(1000.0))
        assert 0.0 <= g0 < TWO_PI
        assert wrap_two_pi(g1 - g0) == pytest.approx(wrap_two_pi(7.2921159e-5 * 1000.0))

    def test_site_radius_and_rotation(self):
        site = GroundSite(site_id="S1", lat=math.radians(35.0), lon=math.radians(-106.0), alt=2.0)
        p = site_eci(site, Epoch(0.0))
        assert norm(p) == pytest.approx(R_EARTH + 2.0, rel=1e-12)
        # Half a sidereal day later the site is on the other side of the axis.
        half_sidereal = math.pi / 7.2921159e-5
        q = site_eci(site, Epoch(half_sidereal))
        assert p[0] == pytest.approx(-q[0], abs=1e-6)
        assert p[1] == pytest.approx(-q[1], abs=1e-6)
        assert p[2] == pytest.approx(q[2], abs=1e-9)

    def test_zenith_target_has_90deg_elevation(self):
        site = GroundSite(site_id="S1", lat=0.4, lon=1.3)
        ep = Epoch(5000.0)
        rs = site_eci(site, ep)
        sv = StateVector(epoch=ep, r=tuple(2.0 * c for c in rs), v=(0.0, 0.0, 0.0))
        az, el, rng_km = topocentric_angles(sv, site)
        assert el == pytest.approx(math.pi / 2, abs=1e-9)
        assert rng_km == pytest.approx(norm(rs), rel=1e-12)

    def test_north_target_has_zero_azimuth(self):
        site = GroundSite(site_id="S1", lat=0.0, lon=0.0)
        ep = Epoch(0.0)
        rs = site_eci(site, ep)
        g = gmst(ep)
        north = (-math.sin(0.0) * math.cos(g), -math.sin(0.0) * math.sin(g), 1.0)
        target = tuple(rs[k] + 500.0 * north[k] + 200.0 * rs[k] / norm(rs) for k in range(3))
        az, el, _ = topocentric_angles(StateVector(epoch=ep, r=target, v=(0, 0, 0)), site)
        assert az == pytest.approx(0.0, abs=1e-9) or az == pytest.approx(TWO_PI, abs=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(lat=st.floats(-math.pi / 2, math.pi / 2),
           lon=st.floats(-math.pi, math.pi), alt=st.floats(0.0, 5.0),
           t=st.floats(-1e8, 1e8),
           r=st.tuples(*[st.floats(-5e4, 5e4)] * 3).filter(
               lambda r: norm(r) > 7000.0))
    def test_topocentric_angles_one_site_frame(self, lat, lon, alt, t, r):
        # one gmst and one sin/cos per angle keep the bits of a basis
        # built with its own gmst and trig calls, in the same order
        site = GroundSite(site_id="S1", lat=lat, lon=lon, alt=alt)
        ep = Epoch(t)
        lam = lon + gmst(ep)
        sl, cl = math.sin(lam), math.cos(lam)
        sp, cp = math.sin(lat), math.cos(lat)
        basis = ((-sl, cl, 0.0), (-sp * cl, -sp * sl, cp),
                 (cp * cl, cp * sl, sp))
        got = topocentric_angles(StateVector(epoch=ep, r=r, v=(0, 0, 0)),
                                 site)
        want = azel_from(r, site_eci(site, ep), basis)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert site_frame(site, ep) == (site_eci(site, ep), basis)

    def test_angles_to_unit_vector_round_trip(self):
        site = GroundSite(site_id="S1", lat=0.6, lon=-2.0, alt=1.0)
        rng = random.Random(9)
        for _ in range(50):
            ep = Epoch(rng.uniform(0.0, 1e6))
            sv = kepler_to_state(leo_elements(rng), ep)
            az, el, rho = topocentric_angles(sv, site)
            u = angles_to_unit_vector(az, el, site_frame(site, ep)[1])
            rs = site_eci(site, ep)
            rebuilt = tuple(rs[k] + rho * u[k] for k in range(3))
            assert vec_err(rebuilt, sv.r) < 1e-6

    def test_radec_to_unit_vector_round_trip(self):
        site = GroundSite(site_id="S1", lat=-0.3, lon=0.9)
        rng = random.Random(11)
        for _ in range(50):
            ep = Epoch(rng.uniform(0.0, 1e6))
            sv = kepler_to_state(leo_elements(rng), ep)
            ra, dec, rho = radec_from(sv.r, site_eci(site, ep))
            u = radec_to_unit_vector(ra, dec)
            rs = site_eci(site, ep)
            rebuilt = tuple(rs[k] + rho * u[k] for k in range(3))
            assert vec_err(rebuilt, sv.r) < 1e-6

    def test_angular_separation_small_angle_stable(self):
        assert angular_separation(1.0, 0.5, 1.0, 0.5) == 0.0
        d = angular_separation(1.0, 0.5, 1.0 + 1e-9, 0.5)
        assert d == pytest.approx(1e-9 * math.cos(0.5), rel=1e-6)

    def test_angular_separation_matches_dot_product_form(self):
        rng = random.Random(5)
        for _ in range(100):
            az1, el1 = rng.uniform(0, TWO_PI), rng.uniform(-1.4, 1.4)
            az2, el2 = rng.uniform(0, TWO_PI), rng.uniform(-1.4, 1.4)
            u1 = radec_to_unit_vector(az1, el1)
            u2 = radec_to_unit_vector(az2, el2)
            expect = math.acos(max(-1.0, min(1.0, dot(u1, u2))))
            assert angular_separation(az1, el1, az2, el2) == pytest.approx(expect, abs=1e-9)

    def test_site_validation(self):
        with pytest.raises(ValueError):
            GroundSite(site_id="", lat=0.0, lon=0.0)
        with pytest.raises(ValueError):
            GroundSite(site_id="S", lat=2.0, lon=0.0)
