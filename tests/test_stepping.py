"""Both renderings of the stepping loops against the handwritten loops
they replaced.

astro writes _rk4_steps and _abm_steps once each, as template kernels,
and renders them as C, which it builds and calls where the host's
compiler reproduces the Python rendering's bits, and as Python, which it
runs otherwise; both renderings of _abm_steps run in blocks of _ORDER
steps that rename the back values instead of shifting them, each block
stopping before its first step past the last. The two functions below
are the handwritten loops those replaced, kept verbatim as the bit
reference, with the drag force the template now inlines, and with no
back values carried between calls: each multistep call evaluates them at
the last _ORDER points it is given, as the first extension of a grid
always did.
Every test here checks each loop set this host has: the Python loops
always, so that the fallback cannot drift on a host that never runs it,
and the C loops wherever they are in use. Grids stepped by either set,
in any chunking, in either direction, with or without J2 and drag, must
hold the same bytes and raise the same DecayError text, again on every
query past a decay: a grid keeps no mark of its decay, so such a query
steps again from the last point it holds.
"""
import math
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdachain import astro
from sdachain.astro import (
    DECAY_ALTITUDE,
    MU_EARTH,
    R_EARTH,
    DecayError,
    Epoch,
    J2_EARTH,
    KeplerianElements,
    _AB,
    _AM,
    _ORDER,
    DRAG_H0,
    DRAG_RHO0,
    DRAG_SCALE_H,
    EARTH_ROT,
    _decay_error,
)
from test_astro import _DECAY_PINS, _LOW

_EXP, _SQRT = math.exp, math.sqrt
_APPEND_STEPS = 256     # grid points the reference buffers between appends


def _drag(x, y, vx, vy, vz, r, bstar):
    """The drag acceleration, as astro computed it before the template
    inlined it; with math's exp and sqrt taken at import, which the
    remainder-step test below does not count."""
    rho = DRAG_RHO0 * _EXP(-((r - R_EARTH) - DRAG_H0) / DRAG_SCALE_H)
    rvx = vx + EARTH_ROT * y
    rvy = vy - EARTH_ROT * x
    vr = _SQRT(rvx * rvx + rvy * rvy + vz * vz)
    d = -bstar * rho * vr
    return d * rvx, d * rvy, d * vz


def _rk4_steps(state, h, n, bstar, kj, t0, k0):
    """n RK4 steps of h seconds from state; returns the last state.

    kj is _j2_coeff(j2).  Step k, for k0 < k <= k0 + n, lands at
    t0 + k*h, the time a DecayError names when that step's state is below
    DECAY_ALTITUDE.
    """
    x, y, z, vx, vy, vz = state
    r2 = x * x + y * y + z * z
    r = math.sqrt(r2)
    h2 = 0.5 * h
    h6 = h / 6.0
    for k in range(k0 + 1, k0 + n + 1):
        c = -MU_EARTH / (r2 * r)
        ax1 = c * x
        ay1 = c * y
        az1 = c * z
        if kj:
            kr = kj / (r2 * r2 * r)
            f = 5.0 * z * z / r2
            ax1 += kr * x * (1.0 - f)
            ay1 += kr * y * (1.0 - f)
            az1 += kr * z * (3.0 - f)
        if bstar:
            dx, dy, dz = _drag(x, y, vx, vy, vz, r, bstar)
            ax1 += dx
            ay1 += dy
            az1 += dz

        x2 = x + h2 * vx
        y2 = y + h2 * vy
        z2 = z + h2 * vz
        vx2 = vx + h2 * ax1
        vy2 = vy + h2 * ay1
        vz2 = vz + h2 * az1
        r2 = x2 * x2 + y2 * y2 + z2 * z2
        r = math.sqrt(r2)
        c = -MU_EARTH / (r2 * r)
        ax2 = c * x2
        ay2 = c * y2
        az2 = c * z2
        if kj:
            kr = kj / (r2 * r2 * r)
            f = 5.0 * z2 * z2 / r2
            ax2 += kr * x2 * (1.0 - f)
            ay2 += kr * y2 * (1.0 - f)
            az2 += kr * z2 * (3.0 - f)
        if bstar:
            dx, dy, dz = _drag(x2, y2, vx2, vy2, vz2, r, bstar)
            ax2 += dx
            ay2 += dy
            az2 += dz

        x3 = x + h2 * vx2
        y3 = y + h2 * vy2
        z3 = z + h2 * vz2
        vx3 = vx + h2 * ax2
        vy3 = vy + h2 * ay2
        vz3 = vz + h2 * az2
        r2 = x3 * x3 + y3 * y3 + z3 * z3
        r = math.sqrt(r2)
        c = -MU_EARTH / (r2 * r)
        ax3 = c * x3
        ay3 = c * y3
        az3 = c * z3
        if kj:
            kr = kj / (r2 * r2 * r)
            f = 5.0 * z3 * z3 / r2
            ax3 += kr * x3 * (1.0 - f)
            ay3 += kr * y3 * (1.0 - f)
            az3 += kr * z3 * (3.0 - f)
        if bstar:
            dx, dy, dz = _drag(x3, y3, vx3, vy3, vz3, r, bstar)
            ax3 += dx
            ay3 += dy
            az3 += dz

        x4 = x + h * vx3
        y4 = y + h * vy3
        z4 = z + h * vz3
        vx4 = vx + h * ax3
        vy4 = vy + h * ay3
        vz4 = vz + h * az3
        r2 = x4 * x4 + y4 * y4 + z4 * z4
        r = math.sqrt(r2)
        c = -MU_EARTH / (r2 * r)
        ax4 = c * x4
        ay4 = c * y4
        az4 = c * z4
        if kj:
            kr = kj / (r2 * r2 * r)
            f = 5.0 * z4 * z4 / r2
            ax4 += kr * x4 * (1.0 - f)
            ay4 += kr * y4 * (1.0 - f)
            az4 += kr * z4 * (3.0 - f)
        if bstar:
            dx, dy, dz = _drag(x4, y4, vx4, vy4, vz4, r, bstar)
            ax4 += dx
            ay4 += dy
            az4 += dz

        x += h6 * (vx + 2.0 * (vx2 + vx3) + vx4)
        y += h6 * (vy + 2.0 * (vy2 + vy3) + vy4)
        z += h6 * (vz + 2.0 * (vz2 + vz3) + vz4)
        vx += h6 * (ax1 + 2.0 * (ax2 + ax3) + ax4)
        vy += h6 * (ay1 + 2.0 * (ay2 + ay3) + ay4)
        vz += h6 * (az1 + 2.0 * (az2 + az3) + az4)
        r2 = x * x + y * y + z * z
        r = math.sqrt(r2)
        if r - R_EARTH < DECAY_ALTITUDE:
            raise _decay_error(r - R_EARTH, t0 + k * h)
    return x, y, z, vx, vy, vz


def _abm_steps(points, h, n, bstar, kj, t0):
    """n multistep steps of h seconds, appended to the grid points.

    points is an array('d') grid holding at least _ORDER points; step k,
    for k0 < k <= k0 + n with k0 the index of its last point, lands at
    t0 + k*h, the time a DecayError names when that step's state is below
    DECAY_ALTITUDE; on a DecayError only the states before it are
    appended.  The back values, dx0..dx9 (velocity x, newest first), then
    dy, dz, ax, ay and az alike, are first evaluated at the last _ORDER
    points held, in passes that step nothing.
    """
    (b0, b1, b2, b3, b4, b5, b6, b7, b8, b9) = [h * b for b in _AB]
    (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9) = [h * c for c in _AM]
    k0 = len(points) // 6 - 1
    first = k0 + 1 - _ORDER
    (dx0, dx1, dx2, dx3, dx4, dx5, dx6, dx7, dx8, dx9,
     dy0, dy1, dy2, dy3, dy4, dy5, dy6, dy7, dy8, dy9,
     dz0, dz1, dz2, dz3, dz4, dz5, dz6, dz7, dz8, dz9,
     ax0, ax1, ax2, ax3, ax4, ax5, ax6, ax7, ax8, ax9,
     ay0, ay1, ay2, ay3, ay4, ay5, ay6, ay7, ay8, ay9,
     az0, az1, az2, az3, az4, az5, az6, az7, az8, az9) = [0.0] * (6 * _ORDER)
    x, y, z, vx, vy, vz = points[-6:]
    buf = []
    full = 6 * _APPEND_STEPS
    try:
        for k in range(first, k0 + n + 1):
            if k > k0:
                # predict
                px = x + (b0 * dx0 + b1 * dx1 + b2 * dx2 + b3 * dx3 + b4 * dx4
                          + b5 * dx5 + b6 * dx6 + b7 * dx7 + b8 * dx8
                          + b9 * dx9)
                py = y + (b0 * dy0 + b1 * dy1 + b2 * dy2 + b3 * dy3 + b4 * dy4
                          + b5 * dy5 + b6 * dy6 + b7 * dy7 + b8 * dy8
                          + b9 * dy9)
                pz = z + (b0 * dz0 + b1 * dz1 + b2 * dz2 + b3 * dz3 + b4 * dz4
                          + b5 * dz5 + b6 * dz6 + b7 * dz7 + b8 * dz8
                          + b9 * dz9)
                pvx = vx + (b0 * ax0 + b1 * ax1 + b2 * ax2 + b3 * ax3
                            + b4 * ax4 + b5 * ax5 + b6 * ax6 + b7 * ax7
                            + b8 * ax8 + b9 * ax9)
                pvy = vy + (b0 * ay0 + b1 * ay1 + b2 * ay2 + b3 * ay3
                            + b4 * ay4 + b5 * ay5 + b6 * ay6 + b7 * ay7
                            + b8 * ay8 + b9 * ay9)
                pvz = vz + (b0 * az0 + b1 * az1 + b2 * az2 + b3 * az3
                            + b4 * az4 + b5 * az5 + b6 * az6 + b7 * az7
                            + b8 * az8 + b9 * az9)
                # evaluate
                r2 = px * px + py * py + pz * pz
                r = math.sqrt(r2)
                c = -MU_EARTH / (r2 * r)
                qx = c * px
                qy = c * py
                qz = c * pz
                if kj:
                    kr = kj / (r2 * r2 * r)
                    f = 5.0 * pz * pz / r2
                    qx += kr * px * (1.0 - f)
                    qy += kr * py * (1.0 - f)
                    qz += kr * pz * (3.0 - f)
                if bstar:
                    dx, dy, dz = _drag(px, py, pvx, pvy, pvz, r, bstar)
                    qx += dx
                    qy += dy
                    qz += dz
                # correct
                x += (c0 * pvx + c1 * dx0 + c2 * dx1 + c3 * dx2 + c4 * dx3
                      + c5 * dx4 + c6 * dx5 + c7 * dx6 + c8 * dx7 + c9 * dx8)
                y += (c0 * pvy + c1 * dy0 + c2 * dy1 + c3 * dy2 + c4 * dy3
                      + c5 * dy4 + c6 * dy5 + c7 * dy6 + c8 * dy7 + c9 * dy8)
                z += (c0 * pvz + c1 * dz0 + c2 * dz1 + c3 * dz2 + c4 * dz3
                      + c5 * dz4 + c6 * dz5 + c7 * dz6 + c8 * dz7 + c9 * dz8)
                vx += (c0 * qx + c1 * ax0 + c2 * ax1 + c3 * ax2 + c4 * ax3
                       + c5 * ax4 + c6 * ax5 + c7 * ax6 + c8 * ax7 + c9 * ax8)
                vy += (c0 * qy + c1 * ay0 + c2 * ay1 + c3 * ay2 + c4 * ay3
                       + c5 * ay4 + c6 * ay5 + c7 * ay6 + c8 * ay7 + c9 * ay8)
                vz += (c0 * qz + c1 * az0 + c2 * az1 + c3 * az2 + c4 * az3
                       + c5 * az4 + c6 * az5 + c7 * az6 + c8 * az7 + c9 * az8)
                r2 = x * x + y * y + z * z
                r = math.sqrt(r2)
                if r - R_EARTH < DECAY_ALTITUDE:
                    raise _decay_error(r - R_EARTH, t0 + k * h)
            else:
                # a point held already, whose back value is missing
                x, y, z, vx, vy, vz = points[6 * k:6 * k + 6]
                r2 = x * x + y * y + z * z
                r = math.sqrt(r2)
            # evaluate
            c = -MU_EARTH / (r2 * r)
            ax = c * x
            ay = c * y
            az = c * z
            if kj:
                kr = kj / (r2 * r2 * r)
                f = 5.0 * z * z / r2
                ax += kr * x * (1.0 - f)
                ay += kr * y * (1.0 - f)
                az += kr * z * (3.0 - f)
            if bstar:
                dx, dy, dz = _drag(x, y, vx, vy, vz, r, bstar)
                ax += dx
                ay += dy
                az += dz
            dx9, dx8, dx7, dx6, dx5, dx4, dx3, dx2, dx1, dx0 = (
                dx8, dx7, dx6, dx5, dx4, dx3, dx2, dx1, dx0, vx)
            dy9, dy8, dy7, dy6, dy5, dy4, dy3, dy2, dy1, dy0 = (
                dy8, dy7, dy6, dy5, dy4, dy3, dy2, dy1, dy0, vy)
            dz9, dz8, dz7, dz6, dz5, dz4, dz3, dz2, dz1, dz0 = (
                dz8, dz7, dz6, dz5, dz4, dz3, dz2, dz1, dz0, vz)
            ax9, ax8, ax7, ax6, ax5, ax4, ax3, ax2, ax1, ax0 = (
                ax8, ax7, ax6, ax5, ax4, ax3, ax2, ax1, ax0, ax)
            ay9, ay8, ay7, ay6, ay5, ay4, ay3, ay2, ay1, ay0 = (
                ay8, ay7, ay6, ay5, ay4, ay3, ay2, ay1, ay0, ay)
            az9, az8, az7, az6, az5, az4, az3, az2, az1, az0 = (
                az8, az7, az6, az5, az4, az3, az2, az1, az0, az)
            if k > k0:
                buf += (x, y, z, vx, vy, vz)
                if len(buf) >= full:
                    points.fromlist(buf)
                    buf.clear()
    finally:
        if buf:
            points.fromlist(buf)


REFERENCE = (_rk4_steps, _abm_steps)
# the loop sets every test runs: the Python loops, and the C loops where
# astro calls them (tests/test_native.py checks that it does wherever cc
# is found)
LOOP_SETS = {"python": astro._python_kernels()[:2]}
if astro.NATIVE_LIBRARY is not None:
    LOOP_SETS["native"] = (astro._rk4_steps, astro._abm_steps)


def stepped(loops, el, bstar, step_s, j2, times):
    """Query a new grid of el at each time, with the stepping loops set to
    loops: what each query returns (state bits or DecayError text), and
    the grid's points each way."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(astro, "_rk4_steps", loops[0])
        mp.setattr(astro, "_abm_steps", loops[1])
        grid = astro._Grid(el, bstar, step_s, j2)
        out = []
        for t in times:
            try:
                out.append(tuple(v.hex() for v in grid.state_at(t)))
            except DecayError as exc:
                out.append(str(exc))
    return out, (grid.forward.tobytes(), grid.backward.tobytes())


@pytest.mark.parametrize("phase", range(_ORDER))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(a=st.floats(R_EARTH + 150.0, R_EARTH + 170.0)
       | st.floats(R_EARTH + 150.0, R_EARTH + 1500.0),
       e=st.floats(0.0, 0.02), i=st.floats(0.0, math.pi),
       angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3),
       epoch=st.floats(-1e6, 1e6),
       bstar=st.just(0.0) | st.floats(5e-4, 1e-3) | st.floats(0.0, 1e-3),
       j2=st.sampled_from((J2_EARTH, 0.0)),
       sign=st.sampled_from((1.0, -1.0)),
       step_s=st.floats(astro.MIN_STEP_S, astro.MAX_STEP_S),
       chunks=st.lists(st.integers(1, 3 * _ORDER), min_size=1, max_size=4),
       rem=st.floats(0.0, 0.999))
def test_grids_match_the_reference(phase, a, e, i, angles, epoch, bstar, j2,
                                   sign, step_s, chunks, rem):
    # the first query ends on grid point _ORDER - 1 + phase, so the next
    # extension starts its first block on a grid index of each residue
    # modulo _ORDER; the chunks after it end anywhere in a block, and the
    # last query lands between grid points, on a remainder step
    el = KeplerianElements(a=a, e=min(e, 1.0 - (R_EARTH + 120.0) / a), i=i,
                           raan=angles[0], argp=angles[1], M=angles[2],
                           epoch=Epoch(epoch))
    ends = [_ORDER - 1 + phase]
    for n in chunks:
        ends.append(ends[-1] + n)
    times = [epoch + sign * k * step_s for k in ends]
    times.append(epoch + sign * (ends[-1] + rem) * step_s)
    want = stepped(REFERENCE, el, bstar, step_s, j2, times)
    for name, loops in LOOP_SETS.items():
        assert stepped(loops, el, bstar, step_s, j2, times) == want, name


_TAIL = KeplerianElements(a=R_EARTH + 500.0, e=0.01, i=1.0, raan=0.5,
                          argp=1.5, M=2.5, epoch=Epoch(0.0))


@pytest.mark.parametrize("n", range(1, 2 * _ORDER + 2))
@pytest.mark.parametrize("phase", range(_ORDER))
def test_every_start_phase_and_extension_length(phase, n):
    # a grid held to point _ORDER - 1 + phase, so on every start phase
    # modulo _ORDER, then extended by n steps: a tail of every length
    # after no, one or two whole blocks, so the last block stops before
    # each of its steps
    start = _ORDER - 1 + phase
    for sign in (1.0, -1.0):
        times = [sign * start * 30.0, sign * (start + n) * 30.0]
        want = stepped(REFERENCE, _TAIL, 2e-5, 30.0, J2_EARTH, times)
        for name, loops in LOOP_SETS.items():
            assert stepped(loops, _TAIL, 2e-5, 30.0, J2_EARTH, times) == \
                want, name


_LOW_BSTAR, _LOW_DECAY, _LOW_MESSAGE, _ = _DECAY_PINS[0]


@pytest.mark.parametrize("j", range(_ORDER))
def test_decay_at_every_block_step(j):
    # _LOW's grid at 30 s decays at grid point _LOW_DECAY; pre-extended to
    # grid point _LOW_DECAY - j - 1, the next extension's first block
    # starts on the point after it and reaches the decay at its step j
    start = _LOW_DECAY - j
    assert start - 1 >= _ORDER
    times = [(start - 1) * 30.0, 86400.0, 86400.0]
    want = stepped(REFERENCE, _LOW, _LOW_BSTAR, 30.0, J2_EARTH, times)
    assert want[0][1] == want[0][2] == _LOW_MESSAGE
    assert len(want[1][0]) == 8 * 6 * _LOW_DECAY
    for name, loops in LOOP_SETS.items():
        assert stepped(loops, _LOW, _LOW_BSTAR, 30.0, J2_EARTH, times) == \
            want, name


@pytest.mark.parametrize("state,kj", [
    ((0.0, 0.0, 0.0, 1.0, 0.0, 0.0), 0.0),
    ((1e-70, 0.0, 0.0, 0.0, 0.0, 0.0), astro._j2_coeff(J2_EARTH))],
    ids=["gravity", "j2"])
def test_zero_divisor_raises_as_the_reference(state, kj):
    # r2 * r is 0 at the origin, and r2 * r2 * r underflows to 0 at
    # 1e-70 km: Python's division raises, and the C loops test for it,
    # in a step and in the back values a multistep extension evaluates
    for rk4, abm in (REFERENCE, *LOOP_SETS.values()):
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            rk4(state, 1.0, 1, 0.0, kj, 0.0, 0)
        points = array("d", state * _ORDER)
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            abm(points, 1.0, 1, 0.0, kj, 0.0)
        assert len(points) == 6 * _ORDER


def test_malformed_buffers_raise_value_error():
    # the C kernels write through raw addresses, so the wrappers both
    # renderings share check each buffer's type and length: a short state
    # or grid, a grid of floats (the C would write doubles past its end,
    # the Python would round each new point to a float) and a list
    kj = astro._j2_coeff(J2_EARTH)
    state = astro._anchor(_LOW)
    for rk4, abm in (REFERENCE, *LOOP_SETS.values()):
        with pytest.raises(ValueError):
            rk4(state[:5], 1.0, 1, 0.0, kj, 0.0, 0)
        with pytest.raises(ValueError):
            abm(array("d", state), 1.0, 1, 0.0, kj, 0.0)
    grids = (array("f", state * _ORDER), list(state * _ORDER))
    for name, (_, abm) in LOOP_SETS.items():
        for grid in grids:
            with pytest.raises(ValueError):
                abm(grid, 1.0, 1, 0.0, kj, 0.0)
            assert len(grid) == 6 * _ORDER, name


def _bound():
    """The Python rendering of the screen's remainder bound, as a function
    of the grid point, h, rem = |h| and bstar that returns the prediction
    px, py, pz, err, low and valid."""
    namespace = {"sqrt": _SQRT, "fabs": math.fabs,
                 **{name: getattr(astro, name) for name in astro._C_CONSTANTS}}
    exec("\n".join(["def bound(x, y, z, vx, vy, vz, h, rem, bstar):",
                     *astro._python(astro._remainder_bound(), 1),
                     "    return px, py, pz, err, low, valid"]), namespace)
    return namespace["bound"]


BOUND = _bound()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(radius=st.floats(astro.FLOOR_R, R_EARTH + 2000.0),
       lat=st.floats(-0.5 * math.pi, 0.5 * math.pi),
       lon=st.floats(0.0, 2.0 * math.pi),
       speed=st.floats(0.0, 20.0),
       chord=st.booleans(),
       cos_angle=st.floats(-1.0, 1.0),
       turn=st.floats(0.0, 2.0 * math.pi),
       rem=st.floats(0.0, 90.0),
       bstar=st.just(0.0) | st.floats(1e-6, 1e-4),
       sign=st.sampled_from((1.0, -1.0)))
def test_remainder_step_stays_within_the_screen_bound(
        radius, lat, lon, speed, chord, cos_angle, turn, rem, bstar, sign):
    # one RK4 step of h = +-rem from a state above the decay altitude,
    # stepped by the reference loop, against the bound the visibility
    # screen decides on (the mask_screen kernel's _remainder_bound
    # statements): wherever the bound is valid, the step lands within err
    # of x + h*v and no stage radius, nor the result's, falls below low.
    # The speed goes past escape, and a chord state's velocity makes the
    # straight line from x to x + h*v end as high as it starts, where its
    # midpoint x + h/2*v dips lowest below both ends: above about 16 km/s,
    # by more than err
    h = sign * rem
    up = (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon),
          math.sin(lat))
    east = (-math.sin(lon), math.cos(lon), 0.0)
    north = (-math.sin(lat) * math.cos(lon), -math.sin(lat) * math.sin(lon),
             math.cos(lat))
    if chord:
        cos_angle = max(-1.0, min(1.0, -h * speed / (2.0 * radius)))
    side = math.sqrt(1.0 - cos_angle * cos_angle)
    v = [speed * (cos_angle * u + side * (math.cos(turn) * e
                                          + math.sin(turn) * n))
         for u, e, n in zip(up, east, north)]
    state = (*(radius * u for u in up), *v)
    px, py, pz, err, low, valid = BOUND(*state, h, rem, bstar)
    if not valid:
        return      # the screen sends such a time down the exact path
    radii = []

    def sqrt(value):
        radii.append(_SQRT(value))
        return radii[-1]

    with pytest.MonkeyPatch.context() as mp:
        # the reference loop takes each stage's radius, and the result's,
        # with this module's math.sqrt
        mp.setitem(globals(), "math", SimpleNamespace(sqrt=sqrt))
        x, y, z, *_ = _rk4_steps(state, h, 1, bstar,
                                 astro._j2_coeff(J2_EARTH), 0.0, -1)
    # 1 um covers the rounding of the step and of the bound
    assert _SQRT((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2) <= err + 1e-9
    assert len(radii) == 5
    assert min(radii) >= low - 1e-9
