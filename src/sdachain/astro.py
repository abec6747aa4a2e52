"""Time, frames, Keplerian machinery, and the reference orbit propagator.

Everything downstream (sensor synthesis, orbit determination, validation)
builds on the primitives here: epochs on a uniform leap-second-free
timescale, ECI state vectors, classical element sets, and a fixed-step
propagator with two-body + J2 + exponential-atmosphere drag forces: an
order-10 Adams-Bashforth-Moulton grid (started by RK4) and one RK4 step
from the grid to each requested time.  Both stepping loops, the orbit
fit's reduced-model Jacobian and residuals, and the visibility pass's
screen are written once, as template statements that render as C, built
once and cached when the host's C compiler reproduces the Python
renderings' bits, and as Python otherwise.

Conventions:
  * distances in km, velocities in km/s, angles in radians, time in
    seconds since the J2000 epoch (2000-01-01T12:00:00).
  * ECI is the inertial frame of the J2000 epoch; ECEF rotates with a
    linear GMST model (no precession/nutation/polar motion).
  * the Earth is treated as a sphere of radius R_EARTH for site
    geometry, so the local zenith is exactly radial.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta

from .errors import SdaError

# Geophysical constants (WGS-84 / EGM96 values).  Immutable for a run;
# constants_dict() lists them with the drag and decay settings.
MU_EARTH = 398600.4418        # km^3/s^2
J2_EARTH = 1.08262668e-3      # oblateness coefficient, dimensionless
R_EARTH = 6378.137            # km, equatorial radius
EARTH_ROT = 7.2921159e-5      # rad/s, sidereal rotation rate
GMST_J2000 = 4.894961212823   # rad, Greenwich mean sidereal angle at J2000

# Exponential atmosphere used by the drag force (simulation-defined proxy).
DRAG_RHO0 = 1e-4              # kg/km^3 at the reference altitude
DRAG_H0 = 400.0               # km, reference altitude
DRAG_SCALE_H = 60.0           # km, scale height

DECAY_ALTITUDE = 100.0        # km, integration aborts below this
MIN_STEP_S = 1.0
MAX_STEP_S = 90.0
STEP_S = 90.0                 # the grid step of every chain propagation
MAX_SPAN_S = 30 * 86400.0     # propagation span limit

PI = math.pi
TWO_PI = 2.0 * math.pi

_J2000_DATETIME = datetime(2000, 1, 1, 12, 0, 0)


def constants_dict() -> dict:
    """Constants and force-model settings, as report.json records them.

    The grid step STEP_S is a force-model constant like J2_EARTH: every
    validator propagates on the same grid.
    """
    return {
        "mu_km3_s2": MU_EARTH,
        "j2": J2_EARTH,
        "re_km": R_EARTH,
        "earth_rot_rad_s": EARTH_ROT,
        "gmst_j2000_rad": GMST_J2000,
        "drag_rho0_kg_km3": DRAG_RHO0,
        "drag_h0_km": DRAG_H0,
        "drag_scale_height_km": DRAG_SCALE_H,
        "decay_altitude_km": DECAY_ALTITUDE,
        "step_s": STEP_S,
    }


class AstroError(SdaError):
    pass


class KeplerConvergenceError(AstroError):
    """Kepler-equation Newton solve failed to converge."""


class UnsupportedRegimeError(AstroError):
    """State is hyperbolic/parabolic/rectilinear; only bound ellipses are handled."""


class DecayError(AstroError):
    """Trajectory dropped below the decay altitude during integration."""


class PropagationLimitError(AstroError, ValueError):
    """Step size or propagation span outside the propagator's limits.

    Also a ValueError, so callers that catch ValueError for bad input
    (refine_elements' start point and line-search trials, the chain
    decoders, the simulated sensors) still catch it.
    """


def wrap_two_pi(angle: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    return a if a < TWO_PI else 0.0


@dataclass(frozen=True, order=True)
class Epoch:
    """Seconds since J2000 on a uniform timescale (no leap seconds)."""

    t: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("epoch must be finite")

    def iso(self) -> str:
        """ISO-8601 text with microsecond resolution (the canonical form)."""
        dt = _J2000_DATETIME + timedelta(seconds=self.t)
        return dt.isoformat(timespec="microseconds")

    @classmethod
    def from_iso(cls, text: str) -> "Epoch":
        """Parse iso's form. The timescale has no zones: an offset raises."""
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is not None:
            raise ValueError("a UTC offset is not allowed")
        return cls((dt - _J2000_DATETIME).total_seconds())

    def quantized(self) -> "Epoch":
        """Round to the microsecond grid the ISO text form can represent."""
        return Epoch(round(self.t * 1e6) / 1e6)


@dataclass(frozen=True)
class StateVector:
    """ECI position (km) and velocity (km/s) at an epoch."""

    epoch: Epoch
    r: tuple
    v: tuple

    def __post_init__(self):
        if len(self.r) != 3 or len(self.v) != 3:
            raise ValueError("r and v must be 3-vectors")
        if not all(math.isfinite(c) for c in (*self.r, *self.v)):
            raise ValueError("state components must be finite")


@dataclass(frozen=True)
class KeplerianElements:
    """Osculating elements of a bound elliptic orbit at an epoch.

    Angles are radians; raan/argp/M are normalized to [0, 2*pi) on
    construction.  This element set is the simulator's TLE analogue.
    """

    a: float       # semi-major axis, km
    e: float       # eccentricity
    i: float       # inclination, rad
    raan: float    # right ascension of ascending node, rad
    argp: float    # argument of perigee, rad
    M: float       # mean anomaly at epoch, rad
    epoch: Epoch

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.a, self.e, self.i, self.raan, self.argp, self.M)):
            raise ValueError("elements must be finite")
        # mean_motion cubes a, which 1e-300 underflows and 1e300 overflows;
        # no Earth orbit lies outside this range
        if not 1.0 <= self.a <= 1e9:
            raise ValueError(f"semi-major axis must be in [1, 1e9] km, "
                             f"got {self.a}")
        if not 0.0 <= self.e < 1.0:
            raise ValueError(f"eccentricity must be in [0, 1), got {self.e}")
        if not 0.0 <= self.i <= math.pi:
            raise ValueError(f"inclination must be in [0, pi], got {self.i}")
        object.__setattr__(self, "raan", wrap_two_pi(self.raan))
        object.__setattr__(self, "argp", wrap_two_pi(self.argp))
        object.__setattr__(self, "M", wrap_two_pi(self.M))

    def mean_motion(self) -> float:
        return math.sqrt(MU_EARTH / self.a**3)

    def key(self) -> tuple:
        """The element values as a hashable tuple, epoch last."""
        return (self.a, self.e, self.i, self.raan, self.argp, self.M, self.epoch.t)


@dataclass(frozen=True)
class OrbitRecord:
    """Catalog entry: elements plus a ballistic coefficient (drag proxy)."""

    object_id: str
    elements: KeplerianElements
    bstar: float = 0.0    # 1/km
    source: str = "cataloged"    # cataloged | mined | calibration

    def __post_init__(self):
        if not self.object_id:
            raise ValueError("object_id must be nonempty")
        if self.source not in ("cataloged", "mined", "calibration"):
            raise ValueError(f"unknown source {self.source!r}")
        if not math.isfinite(self.bstar):
            raise ValueError("bstar must be finite")


@dataclass(frozen=True)
class GroundSite:
    """Sensor location: geodetic latitude/longitude (rad) and altitude (km)."""

    site_id: str
    lat: float
    lon: float
    alt: float = 0.0

    def __post_init__(self):
        if not self.site_id:
            raise ValueError("site_id must be nonempty")
        if not all(math.isfinite(x) for x in (self.lat, self.lon, self.alt)):
            raise ValueError("site coordinates must be finite")
        if abs(self.lat) > math.pi / 2:
            raise ValueError(f"latitude out of range: {self.lat}")
        if self.alt < 0.0:
            raise ValueError(f"altitude must be nonnegative: {self.alt}")


# --- small 3-vector helpers (tuples keep the hot paths allocation-light) ---

def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def unit(a) -> tuple:
    n = norm(a)
    return (a[0] / n, a[1] / n, a[2] / n)


# --- Kepler machinery ---

def solve_kepler(M: float, e: float) -> float:
    """Solve M = E - e*sin(E) for E by Newton iteration, to a step below
    1e-14 rad in at most 50 iterations."""
    E = M if e < 0.8 else math.pi
    for _ in range(50):
        f = E - e * math.sin(E) - M
        dE = f / (1.0 - e * math.cos(E))
        E -= dE
        if abs(dE) < 1e-14:
            return E
    raise KeplerConvergenceError(
        f"Kepler solve did not converge in 50 iterations (M={M!r}, e={e!r})"
    )


def kepler_to_state(el: KeplerianElements, t: Epoch) -> StateVector:
    """Unperturbed two-body state at t for the orbit defined by el."""
    dt = t.t - el.epoch.t
    M = wrap_two_pi(el.M + el.mean_motion() * dt)
    try:
        E = solve_kepler(M, el.e)
    except KeplerConvergenceError as exc:
        raise KeplerConvergenceError(f"{exc}; elements={el!r}") from exc

    cosE, sinE = math.cos(E), math.sin(E)
    one_m_e2 = 1.0 - el.e * el.e
    r_mag = el.a * (1.0 - el.e * cosE)
    # Perifocal (PQW) coordinates.
    xp = el.a * (cosE - el.e)
    yp = el.a * math.sqrt(one_m_e2) * sinE
    coeff = math.sqrt(MU_EARTH * el.a) / r_mag
    vxp = -coeff * sinE
    vyp = coeff * math.sqrt(one_m_e2) * cosE

    cO, sO = math.cos(el.raan), math.sin(el.raan)
    co, so = math.cos(el.argp), math.sin(el.argp)
    ci, si = math.cos(el.i), math.sin(el.i)
    # Rz(-raan) Rx(-i) Rz(-argp) rotation, rows applied to (xp, yp).
    r11 = cO * co - sO * so * ci
    r12 = -cO * so - sO * co * ci
    r21 = sO * co + cO * so * ci
    r22 = -sO * so + cO * co * ci
    r31 = so * si
    r32 = co * si

    r = (r11 * xp + r12 * yp, r21 * xp + r22 * yp, r31 * xp + r32 * yp)
    v = (r11 * vxp + r12 * vyp, r21 * vxp + r22 * vyp, r31 * vxp + r32 * vyp)
    return StateVector(epoch=t, r=r, v=v)


def state_to_kepler(s: StateVector) -> KeplerianElements:
    """Osculating elements from an ECI state; inverse of kepler_to_state."""
    r_vec, v_vec = s.r, s.v
    r = norm(r_vec)
    v2 = dot(v_vec, v_vec)
    h_vec = cross(r_vec, v_vec)
    h = norm(h_vec)
    if h < 1e-9:
        raise UnsupportedRegimeError("rectilinear state (|r x v| ~ 0)")

    energy = 0.5 * v2 - MU_EARTH / r
    rv = dot(r_vec, v_vec)
    e_vec = (
        ((v2 - MU_EARTH / r) * r_vec[0] - rv * v_vec[0]) / MU_EARTH,
        ((v2 - MU_EARTH / r) * r_vec[1] - rv * v_vec[1]) / MU_EARTH,
        ((v2 - MU_EARTH / r) * r_vec[2] - rv * v_vec[2]) / MU_EARTH,
    )
    e = norm(e_vec)
    if e >= 1.0 or energy >= 0.0:
        raise UnsupportedRegimeError(f"non-elliptic state (e={e:.6f})")
    a = -MU_EARTH / (2.0 * energy)

    i = math.acos(max(-1.0, min(1.0, h_vec[2] / h)))
    n_vec = (-h_vec[1], h_vec[0], 0.0)    # node vector = z x h
    n = norm(n_vec)

    equatorial = n < 1e-12 * h
    circular = e < 1e-12

    if equatorial:
        raan = 0.0
        node_ref = (1.0, 0.0, 0.0)
    else:
        raan = wrap_two_pi(math.atan2(n_vec[1], n_vec[0]))
        node_ref = (n_vec[0] / n, n_vec[1] / n, 0.0)

    if circular:
        argp = 0.0
        # True anomaly measured from the node reference direction.
        cos_nu = max(-1.0, min(1.0, dot(node_ref, r_vec) / r))
        nu = math.acos(cos_nu)
        if dot(cross(node_ref, r_vec), h_vec) < 0.0:
            nu = TWO_PI - nu
    else:
        e_hat = (e_vec[0] / e, e_vec[1] / e, e_vec[2] / e)
        cos_w = max(-1.0, min(1.0, dot(node_ref, e_hat)))
        argp = math.acos(cos_w)
        if dot(cross(node_ref, e_vec), h_vec) < 0.0:
            argp = TWO_PI - argp
        cos_nu = max(-1.0, min(1.0, dot(e_hat, r_vec) / r))
        nu = math.acos(cos_nu)
        if rv < 0.0:
            nu = TWO_PI - nu

    # Eccentric and mean anomaly from the true anomaly.
    E = math.atan2(math.sqrt(1.0 - e * e) * math.sin(nu), e + math.cos(nu))
    M = wrap_two_pi(E - e * math.sin(E))
    return KeplerianElements(a=a, e=e, i=i, raan=wrap_two_pi(raan),
                             argp=wrap_two_pi(argp), M=M, epoch=s.epoch)


# --- numerical propagation: two-body + J2 + exponential drag ---
#
# States are advanced along an absolute step grid anchored at the element
# epoch (grid point k sits at epoch + k*step), with one partial RK4 step from
# the last grid point to the target.  Propagating to t2 therefore passes
# through exactly the same intermediate states as propagating to any t1
# between the anchor and t2, so one grid serves every later query of the
# same orbit without changing results.
#
# Grid points 1 to _ORDER - 1 are the start-up: each is three RK4 steps of
# step/3 from the one before.  Every later point is one step of a fixed-step
# Adams-Bashforth-Moulton method of order _ORDER in PECE mode (Montenbruck &
# Gill, Satellite Orbits, 2000, section 4.2): predict with the
# Adams-Bashforth formula over the derivatives (velocity, acceleration) at
# the last _ORDER grid points, evaluate the force at the prediction, correct
# with the Adams-Moulton formula, and evaluate the force at the corrected
# state, which becomes the newest back value.  That is two force
# evaluations per step, where RK4 makes four.
#
# A _Grid holds one orbit's grid for one (elements, bstar, step, j2): the
# anchor state is computed and altitude-checked once, when the grid is built,
# and the forward and backward grids are flat array('d') buffers, six doubles
# (x, y, z, vx, vy, vz) per grid point, point k at offset 6*k.  A grid is
# its points and nothing more: each multistep extension evaluates the back
# values at the last _ORDER points it holds, with the force statements that
# evaluate them after each step, so a grid extended in any chunking holds
# the same bits.  A decay leaves the points before it and no mark of
# itself: a later query past it steps again from the last point held,
# reaches the same state and raises the same DecayError text, on this grid
# as on a new one.  Each grid is kept on its KeplerianElements instance, in a
# dict keyed by (bstar, step, j2), so it lives exactly as long as its
# elements do; elements built anew, even with equal values, start with no
# grid.
#
# The kernels.  Each of the six is one template definition (_KERNELS):
# rk4_steps and abm_steps step the grids (rk4_steps serves only the
# start-up and the remainder step to a time between grid points),
# fit_positions, fit_residuals and fit_jacobian are the orbit fit's reduced
# model (iod.refine_elements' Jacobian and line-search residuals), and
# mask_screen is times_above_mask's screen of a pass's samples.  A
# template is a list of statements in the syntax Python and C share:
#   * "name = expr" and "name += expr", name a local or a buffer slot such
#     as p[6 * k + 2], over +, -, *, / and calls, which both languages
#     evaluate in the same order, one IEEE 754 rounding per operation;
#   * ("if", cond, body[, orelse]), taken when cond != 0.0 (Python's truth
#     test, -0.0 and NaN included);
#   * ("for", name, start, stop, step, body), name over range(start, stop,
#     step), an integer like the kernel's listed integer locals;
#   * ("until", cond, limit, body, error), body run until cond holds after
#     it, at most limit times, then error returned;
#   * ("require", conds, error), error returned unless every cond holds;
#   * ("divisor", expr), a denominator that must not be zero;
#   * ("return", expr), the kernel's status.
# The calls are sqrt, exp, sin, cos, asin, atan2, fmod, fabs and isfinite,
# the libm functions math calls; pow(x, y), CPython's x ** y for the
# positive bases here (no overflow within the KeplerianElements domain);
# min and max of two floats, as Python's builtins order them (NaN
# included); mod(v, w) and floordiv(v, w), CPython's float v % w and
# v // w; to_long(v), int(v) of a float; and kernels defined before.
# _force is the force model: gravity, then J2 (when kj != 0), then drag
# (when bstar != 0), in every evaluation; its order fixes the bits of every
# propagated state, which tests/test_astro.py pins, and
# tests/test_stepping.py holds the handwritten loops both renderings of the
# stepping kernels must match bit for bit.  The reduced model's templates
# are _secular_setup and _secular_point, one pass's closed-form two-body
# plus J2-secular position at each record epoch, with solve_kepler's Newton
# loop (_kepler) and wrap_two_pi (_wrap) inline, and _observation, one
# record's residual terms: azel_from's or radec_from's angles and the
# wrapped first-angle difference.
#
# One contract serves both renderings.  A kernel takes scalars and
# array('d') buffers, writes its results into buffers and returns a status
# (_STATUS): 0; a decay, with its altitude and step written out; a zero
# divisor; a value outside the domain (a failed require); a Kepler solve
# that does not converge (a failed until); or -1 - k for a Jacobian column
# k that neither difference gives.  _bind wraps either rendering's kernels:
# it checks the type and length of every buffer, appends the room a
# multistep extension writes and cuts what a failure leaves unwritten, and
# turns each status into its exception.
#
# What stays language-specific is the two renderers and the C prelude.
# _python makes each kernel a function, all compiled by one exec
# (_python_kernels), that catches the ZeroDivisionError and ValueError
# Python raises where C tests a divisor or carries a NaN on; _c makes each
# a C function after the prelude (_c_source).  The C is built with
# _CFLAGS, used only when its kernels reproduce the Python rendering's
# bits (_passes_check) and cached (_library_path): docs/kernels.md gives
# each flag's reason and what the check covers.  NATIVE_LIBRARY names the
# library in use; it is None when there is no cc, the build fails, the
# bits differ or the library will not load.
#
# The multistep kernel runs in blocks of _ORDER steps, unrolled, that
# rename the back values instead of shifting them: at step j of a block,
# back value i of each family (dx, dy, dz, ax, ay, az) lives in slot
# (i - j) mod _ORDER, and the step's new value takes the slot of the
# oldest, so each value is back in its own slot when the block ends.  The
# back-value passes are one such block that steps nothing: at its step j
# it loads point k0 - i, i = _ORDER - 1 - j, whose values take slot i, and
# leaves x..vz holding point k0.  Every block returns before its first step
# past the last, so one block shape serves any n.  Each step's altitude
# check reuses the radius that its next force evaluation needs, and each
# new point is written into the room the wrapper appended.


def _j2_coeff(j2: float) -> float:
    """-1.5 * j2 * mu * Re^2, the J2 acceleration's numerator (0 when j2 is)."""
    return -1.5 * j2 * MU_EARTH * R_EARTH * R_EARTH


def _decay_error(alt: float, t: float) -> DecayError:
    return DecayError(
        f"altitude {alt:.1f} km below {DECAY_ALTITUDE:.0f} km at t={t:.1f}")


_ORDER = 10     # back values of the multistep method, and its order
# Adams-Bashforth weights of the derivatives at grid points n, n-1, ...,
# n-9 for the step n -> n+1, and Adams-Moulton weights of those at n+1,
# n, ..., n-8: the integrals over [0, 1] of the Lagrange basis polynomials
# on those points, in units of the step, rounded to the nearest double
_AB = (4.1717988040123455, -14.46692970127866, 36.64195877425044,
       -62.646298500881834, 74.17932071208112, -61.28364225088183,
       34.80740520282187, -12.994284611992946, 2.87764701829806,
       -0.2869754464285714)
_AM = (0.2869754464285714, 1.3020443397266315, -1.5530346119929452,
       2.2049052028218696, -2.3814547508818342, 1.8615082120811288,
       -1.0187985008818343, 0.3703516313932981, -0.08038952270723104,
       0.00789255401234568)


_FAMILIES = ("dx", "dy", "dz", "ax", "ay", "az")    # the back values' names
_STATE = ("x", "y", "z", "vx", "vy", "vz")
_PREDICTED = ("px", "py", "pz", "pvx", "pvy", "pvz")
# the status a kernel returns for each failure; a Jacobian column k that
# neither difference gives is -1 - k
_STATUS = {"DecayError": 1, "ZeroDivisionError": 2, "ValueError": 3,
           "KeplerConvergenceError": 4}


def _force(acc, pos, vel) -> list:
    """Template statements of one force evaluation: they set the three
    names acc to the acceleration at position pos and velocity vel (three
    names each), given r2 and r, pos's squared norm and norm."""
    (ax, ay, az), (x, y, z), (vx, vy, vz) = acc, pos, vel
    return [("divisor", "r2 * r"),
            "c = nmu / (r2 * r)",
            f"{ax} = c * {x}",
            f"{ay} = c * {y}",
            f"{az} = c * {z}",
            ("if", "kj", [("divisor", "r2 * r2 * r"),
                          "kr = kj / (r2 * r2 * r)",
                          f"f = 5.0 * {z} * {z} / r2",
                          "g = 1.0 - f",
                          f"{ax} += kr * {x} * g",
                          f"{ay} += kr * {y} * g",
                          f"{az} += kr * {z} * (3.0 - f)"]),
            ("if", "bstar", ["rho = DRAG_RHO0 * exp(-((r - R_EARTH) - DRAG_H0)"
                             " / DRAG_SCALE_H)",
                             f"rvx = {vx} + EARTH_ROT * {y}",
                             f"rvy = {vy} - EARTH_ROT * {x}",
                             f"vr = sqrt(rvx * rvx + rvy * rvy + {vz} * {vz})",
                             "d = -bstar * rho * vr",
                             f"{ax} += d * rvx",
                             f"{ay} += d * rvy",
                             f"{az} += d * {vz}"])]


def _radius(x, y, z) -> list:
    return [f"r2 = {x} * {x} + {y} * {y} + {z} * {z}", "r = sqrt(r2)"]


def _slots(buf: str, base: str, count: int) -> list:
    """buf's slots base, base + 1, ... (0, 1, ... when base is empty)."""
    return [f"{buf}[{base} + {i}]" if base and i else f"{buf}[{base or i}]"
            for i in range(count)]


def _load(names, buf: str, base: str = "") -> list:
    """Template statements that set names from buf's slots."""
    return [f"{v} = {s}" for v, s in zip(names, _slots(buf, base, len(names)))]


def _store(names, buf: str, base: str = "") -> list:
    """Template statements that write names to buf's slots."""
    return [f"{s} = {v}" for v, s in zip(names, _slots(buf, base, len(names)))]


def _decayed(out: str) -> tuple:
    """The altitude check after step k: on a decay its altitude and k go
    to out[0] and out[1], and the kernel returns."""
    return ("if", "r - R_EARTH < DECAY_ALTITUDE",
            [f"{out}[0] = r - R_EARTH", f"{out}[1] = k",
             ("return", _STATUS["DecayError"])])


def _rk4_step() -> list:
    """Template of one RK4 step of h (h2 = h/2, h6 = h/6) from the state
    x..vz, whose r2 and r are taken, ending with the new state's."""
    def stage(i):
        """The state at RK4 stage i (1 to 4) and its derivative."""
        state = _STATE if i == 1 else tuple(f"{s}{i}" for s in _STATE)
        return state, state[3:] + (f"ax{i}", f"ay{i}", f"az{i}")

    body = []
    for i, w in ((1, ""), (2, "h2"), (3, "h2"), (4, "h")):
        state, derivative = stage(i)
        if w:
            body += [f"{s} = {s0} + {w} * {d}" for s, s0, d
                     in zip(state, _STATE, stage(i - 1)[1])]
            body += _radius(*state[:3])
        body += _force(derivative[3:], state[:3], state[3:])
    body += [f"{s} += h6 * ({d1} + 2.0 * ({d2} + {d3}) + {d4})"
             for s, d1, d2, d3, d4
             in zip(_STATE, *(stage(i)[1] for i in (1, 2, 3, 4)))]
    return body + _radius(*_STATE[:3])


def _rk4_kernel() -> list:
    """rk4_steps: steps k0 + 1 to k0 + n, each RK4 of h, from the state s,
    which they leave in s; a decay writes to s."""
    return ["nmu = -MU_EARTH",
            *_load(_STATE, "s"),
            *_radius(*_STATE[:3]),
            "h2 = 0.5 * h",
            "h6 = h / 6.0",
            ("for", "k", "k0 + 1", "k0 + n + 1", 1,
             [*_rk4_step(), _decayed("s")]),
            *_store(_STATE, "s"),
            ("return", 0)]


def _abm_step(slot) -> list:
    """Template of one multistep step (weights b0..b9 and c0..c9, times h)
    from the state x..vz, back value i of family d being slot(d, i), 0 the
    newest: predict, evaluate, correct, and take the new state's r2, r."""
    lines = []
    for p, s, d in zip(_PREDICTED, _STATE, _FAMILIES):
        terms = " + ".join(f"b{i} * {slot(d, i)}" for i in range(_ORDER))
        lines.append(f"{p} = {s} + ({terms})")
    lines += _radius(*_PREDICTED[:3])
    lines += _force(("qx", "qy", "qz"), _PREDICTED[:3], _PREDICTED[3:])
    for s, new, d in zip(_STATE, _PREDICTED[3:] + ("qx", "qy", "qz"),
                         _FAMILIES):
        terms = " + ".join(f"c{i + 1} * {slot(d, i)}"
                           for i in range(_ORDER - 1))
        lines.append(f"{s} += (c0 * {new} + {terms})")
    return lines + _radius(*_STATE[:3])


def _newest(j: int) -> list:
    """Template statements that evaluate the newest back values at the
    state x..vz into the slots of the oldest at step j of a block."""
    s = (_ORDER - 1 - j) % _ORDER
    return [*_force((f"ax{s}", f"ay{s}", f"az{s}"), _STATE[:3], _STATE[3:]),
            f"dx{s} = vx",
            f"dy{s} = vy",
            f"dz{s} = vz"]


def _abm_kernel() -> list:
    """abm_steps: multistep steps k0 + 1 to k0 + n of h from grid point k0
    of p, whose points each step writes after the altitude check and the
    newest back values; a decay writes to out, and any failure sets out[1]
    to its step k (k0 + 1 in the back-value passes)."""
    body = ["nmu = -MU_EARTH",
            *(f"{w}{i} = h * {v!r}" for w, weights in (("b", _AB), ("c", _AM))
              for i, v in enumerate(weights)),
            "k = k0 + 1",
            "last = k0 + n"]
    for j in range(_ORDER):
        i = _ORDER - 1 - j      # point k0 - i, whose back values take slot i
        body += [f"q = 6 * (k0 - {i})" if i else "q = 6 * k0",
                 *_load(_STATE, "p", "q"), *_radius(*_STATE[:3]),
                 *_newest(j)]
    block = []
    for j in range(_ORDER):
        if j:
            block += [f"k = kb + {j}", ("if", "k > last", [("return", 0)])]
        else:
            block.append("k = kb")
        block += [*_abm_step(lambda d, i: f"{d}{(i - j) % _ORDER}"),
                  _decayed("out"), *_newest(j), "q = 6 * k",
                  *_store(_STATE, "p", "q")]
    return body + [("for", "kb", "k0 + 1", "last + 1", _ORDER, block),
                   ("return", 0)]


# --- the orbit fit's reduced model, as template statements ---


def _wrap(out: str, angle: str) -> list:
    """Template statements of out = wrap_two_pi(angle)."""
    return [f"{out} = fmod({angle}, TWO_PI)",
            ("if", f"{out} < 0.0", [f"{out} += TWO_PI"]),
            ("if", f"{out} < TWO_PI", [], [f"{out} = 0.0"])]


def _kepler() -> list:
    """Template statements of E = solve_kepler(m, e)."""
    return ["E = PI",
            ("if", "e < 0.8", ["E = m"]),
            ("until", "fabs(dE) < 1e-14", 50,
             ["f = E - e * sin(E) - m",
              "den = 1.0 - e * cos(E)",
              ("divisor", "den"),
              "dE = f / den",
              "E -= dE"],
             "KeplerConvergenceError")]


def _secular_setup() -> list:
    """Template statements of what one reduced-model pass computes once
    from its elements a, e, i, raan, argp, M and j2: the checks and
    wraps of the KeplerianElements they make, the mean motion n and the
    J2 secular rates of raan, argp and M (Vallado, eq. 9-41)."""
    return [("require", ("1.0 <= a", "a <= 1e9", "0.0 <= e", "e < 1.0",
                         "0.0 <= i", "i <= PI", "isfinite(raan)",
                         "isfinite(argp)", "isfinite(M)"), "ValueError"),
            *_wrap("raan0", "raan"), *_wrap("argp0", "argp"),
            *_wrap("m0", "M"),
            "n = sqrt(MU_EARTH / pow(a, 3.0))",
            "eta = sqrt(1.0 - e * e)",
            "a_eta = a * eta",
            "k = 1.5 * j2 * n * pow(R_EARTH / (a * eta * eta), 2.0)",
            "s2 = pow(sin(i), 2.0)",
            "raan_dot = -k * cos(i)",
            "argp_dot = k * (2.0 - 2.5 * s2)",
            "m_dot = k * eta * (1.0 - 1.5 * s2)",    # beyond n
            "ci = cos(i)",
            "si = sin(i)"]


def _secular_point() -> list:
    """Template statements of the reduced model's ECI position px, py, pz
    at time t, t0 being the elements' epoch: kepler_to_state's on the
    drifted elements, operation for operation."""
    return ["dt = t - t0",
            "raan_t = raan0 + raan_dot * dt",
            "argp_t = argp0 + argp_dot * dt",
            "m = m0 + m_dot * dt",
            ("require", ("isfinite(raan_t)", "isfinite(argp_t)",
                         "isfinite(m)"), "ValueError"),
            *_wrap("m", "m"), *_wrap("m", "m + n * dt"),
            *_kepler(),
            "cosE = cos(E)",
            "sinE = sin(E)",
            "xp = a * (cosE - e)",
            "yp = a_eta * sinE",
            *_wrap("raan_t", "raan_t"), *_wrap("argp_t", "argp_t"),
            "cO = cos(raan_t)",
            "sO = sin(raan_t)",
            "co = cos(argp_t)",
            "so = sin(argp_t)",
            "r11 = cO * co - sO * so * ci",
            "r12 = -cO * so - sO * co * ci",
            "r21 = sO * co + cO * so * ci",
            "r22 = -sO * so + cO * co * ci",
            "px = r11 * xp + r12 * yp",
            "py = r21 * xp + r22 * yp",
            "pz = so * si * xp + co * si * yp"]


def _positions_kernel() -> list:
    """fit_positions: the reduced model's ECI positions, from elements x
    (a, e, i, raan, argp, M) at epoch t0, at the count times, written to
    p, three doubles per time."""
    return [*_load(("a", "e", "i", "raan", "argp", "M"), "x"),
            *_secular_setup(),
            ("for", "r", "0", "count", 1,
             ["t = times[r]", *_secular_point(), "q = 3 * r",
              *_store(("px", "py", "pz"), "p", "q")]),
            ("return", 0)]


# a fit record's fields, in their order in the packed array('d'): its
# angles, the cosine of its second angle, its range (0.0 when it has
# none) and 1.0 when it has one, its site's ECI position and (east,
# north, up) basis at its epoch, and 1.0 for RADEC angles
_FIT_FIELDS = ("a1", "a2", "cos2", "range_km", "ranged", "sx", "sy", "sz",
               "ex", "ey", "ez", "nx", "ny", "nz", "ux", "uy", "uz", "radec")


def _fit_record(angle1: float, angle2: float, range_km, geometry) -> tuple:
    """The _FIT_FIELDS of a record with those angles and range (or None),
    given tdm.site_geometry at its epoch."""
    rs, basis, radec = geometry
    return (angle1, angle2, math.cos(angle2),
            0.0 if range_km is None else range_km,
            float(range_km is not None), *rs, *(c for v in basis for c in v),
            float(radec))


def _observation() -> list:
    """Template statements of one record's residual terms at the predicted
    ECI position px, py, pz: t1 and t2, its wrapped first-angle and its
    second-angle differences, and t3, its relative range difference,
    when it has a range; observe_from's angles, operation for operation."""
    return ["rx = px - sx",
            "ry = py - sy",
            "rz = pz - sz",
            ("if", "radec",
             ["rng = sqrt(rx * rx + ry * ry + rz * rz)",
              *_wrap("p1", "atan2(ry, rx)"),
              ("divisor", "rng"),
              "p2 = asin(max(-1.0, min(1.0, rz / rng)))"],
             ["ee = rx * ex + ry * ey + rz * ez",
              "nn = rx * nx + ry * ny + rz * nz",
              "uu = rx * ux + ry * uy + rz * uz",
              "rng = sqrt(ee * ee + nn * nn + uu * uu)",
              *_wrap("p1", "atan2(ee, nn)"),
              ("divisor", "rng"),
              "p2 = asin(max(-1.0, min(1.0, uu / rng)))"]),
            "t1 = (mod(a1 - p1 + PI, TWO_PI) - PI) * cos2",
            "t2 = a2 - p2",
            ("if", "ranged",
             ["rho = sqrt(rx * rx + ry * ry + rz * rz)",
              ("divisor", "range_km"),
              "t3 = (range_km - rho) / range_km"])]


def _residuals_kernel() -> list:
    """fit_residuals: the residual terms of the count _FIT_FIELDS records
    f at the positions p, written to out: angle terms first, two per
    record, then one range term per ranged record."""
    return ["j = 2 * count",
            ("for", "r", "0", "count", 1,
             [f"o = {len(_FIT_FIELDS)} * r", *_load(_FIT_FIELDS, "f", "o"),
              "q = 3 * r", *_load(("px", "py", "pz"), "p", "q"),
              *_observation(),
              "out[2 * r] = t1",
              "out[2 * r + 1] = t2",
              ("if", "ranged", ["out[j] = t3", "j += 1"])]),
            ("return", 0)]


def _model(status: str, x: str, out: str) -> list:
    """Template statements of one reduced-model pass at the elements x:
    status 0 with its residual terms in out, or the pass's failure."""
    return [f"{status} = sdachain_fit_positions({x}, t0, j2, times, count, p)",
            ("if", f"{status} == 0",
             [f"{status} = sdachain_fit_residuals(f, p, count, {out})"])]


def _jacobian_kernel() -> list:
    """fit_jacobian: d(residual terms)/dx of the reduced model, terms rows
    of six, written to jac row-major.  Central differences at steps,
    one-sided where one side's pass fails (an element past its domain, a
    Kepler solve that does not converge) and the pass at x does not; a
    zero divisor ends the kernel."""
    def column(expr: str) -> tuple:
        return ("for", "r", "0", "terms", 1, [f"jac[6 * r + k] = {expr}"])

    lost = ("return", "-1 - k")
    divided = ("return", _STATUS["ZeroDivisionError"])
    return ["sb = -1",
            ("for", "k", "0", "6", 1,
             ["h = steps[k]",
              ("for", "c", "0", "6", 1, ["xp[c] = x[c]", "xm[c] = x[c]"]),
              "xp[k] += h",
              "xm[k] -= h",
              *_model("sp", "xp", "rp"),
              ("if", "sp == 2", [divided]),
              *_model("sm", "xm", "rm"),
              ("if", "sm == 2", [divided]),
              ("if", "sp + sm",
               [("if", "sb < 0",
                 [*_model("sb", "x", "base"), ("if", "sb == 2", [divided])]),
                ("if", "sb", [lost]),
                ("if", "sp", [("if", "sm", [lost]),
                              column("(rm[r] - base[r]) / h")],
                 [column("(base[r] - rp[r]) / h")])],
               [column("(rm[r] - rp[r]) / (2.0 * h)")])]),
            ("return", 0)]


# --- the visibility screen, as template statements ---

HORIZON_MARGIN_KM = 1e-3    # covers rounding in the screen's test
SPEED_SLACK = 1.0   # km/s a remainder step may add to the grid point's speed
FLOOR_R = R_EARTH + DECAY_ALTITUDE      # km, the decay radius
# gravity plus J2 bounded at the decay altitude: 9.53e-3 km/s^2, so a
# remainder step of up to MAX_STEP_S gains at most 0.86 km/s from them
A_GRAV_FLOOR = (MU_EARTH / FLOOR_R ** 2
                + 2.0 * abs(_j2_coeff(J2_EARTH)) / FLOOR_R ** 4)
# the drag model's density at the decay altitude, its highest above it
RHO_FLOOR = DRAG_RHO0 * math.exp(-(DECAY_ALTITUDE - DRAG_H0) / DRAG_SCALE_H)


def _remainder_bound() -> list:
    """Template statements that bound one RK4 step of h seconds (rem =
    |h|, drag coefficient bstar) from the grid point x..vz: valid is 1.0
    when its position lies within err of px, py, pz = x + h*v and low
    bounds the radius of each of its stages and of its result.

    RK4 moves the position to x + h*v + h**2/6*(a1 + a2 + a3), a1..a3 the
    accelerations at its first three stages, so when each is at most
    a_max the result lies within err = rem**2/2 * a_max of p.  The stages
    are at x, x + h/2*v, within rem**2/4 * a_max of x + h/2*v and within
    err of p, so low = min(|x|, |x + h/2*v|, |p|) - err.  a_max bounds
    gravity and J2 at the decay altitude (A_GRAV_FLOOR) and drag at its
    density there and the largest speed relative to the air a stage can
    have, given that a stage velocity gains at most rem*a_max <=
    SPEED_SLACK over |v| and a stage position moves at most rem*(|v| +
    SPEED_SLACK) from x.  Those premises are what valid asks: rem*a_max
    <= SPEED_SLACK and low stays HORIZON_MARGIN_KM above the decay
    radius, which also leaves the step's altitude check unable to fire
    (without drag, MAX_STEP_S * A_GRAV_FLOOR stays below SPEED_SLACK).  A
    grid point that is not finite makes a_max NaN or infinite, so valid
    is 0.0 for it.
    """
    return [*(f"p{c} = {c} + h * v{c}" for c in "xyz"),
            *(f"m{c} = {c} + 0.5 * h * v{c}" for c in "xyz"),
            "r = sqrt(x * x + y * y + z * z)",
            "w = sqrt(vx * vx + vy * vy + vz * vz) + SPEED_SLACK",
            "vr = w + EARTH_ROT * (r + rem * w)",
            "a_max = A_GRAV_FLOOR + fabs(bstar) * RHO_FLOOR * vr * vr",
            "err = 0.5 * rem * rem * a_max",
            "low = min(min(r, sqrt(mx * mx + my * my + mz * mz)),"
            " sqrt(px * px + py * py + pz * pz)) - err",
            "valid = 0.0",
            ("if", "rem * a_max <= SPEED_SLACK",
             [("if", "low - HORIZON_MARGIN_KM > FLOOR_R", ["valid = 1.0"])])]


def _screen_kernel() -> list:
    """mask_screen: the count times of a pass screened in order, from the
    site at lon, lat, alt at a mask of sine s, on the grid of anchor epoch
    t0 whose buffers fwd and bwd hold nfwd and nbwd points, up to the
    first time whose grid point is not held.  out[0] is how many were
    screened, and out[2:out[1]] holds, for each not skipped, its index
    and 1.0 when it is accepted, else 0.0.

    Each time t is screened on the grid point its state is stepped from,
    with n_full and the signed remainder h computed as _Grid.point
    computes them, so when the bound is valid its state lies within err
    of p = x + h*v (_remainder_bound).  With up the site's zenith at t,
    rho = p - (R_EARTH + alt) * up, u = rho . up and eps = err +
    HORIZON_MARGIN_KM, the state's line of sight rho' has rho' . up
    within err of u and |rho'| within err of |rho|.  Its elevation,
    asin(rho' . up / |rho'|), is then at most the mask when u + eps <= s
    * (|rho| - eps), and t is skipped, and above it when u - eps > s *
    (|rho| + eps), and t is accepted.  Every other time is kept for the
    exact test.  The 1 m margin covers the rounding of this test and of
    topocentric_angles, whose libm cos and sin the kernel calls too.
    """
    stop = ["out[0] = k", "out[1] = j", ("return", 0)]
    return ["cp = cos(lat)", "up_z = sin(lat)", "radius = R_EARTH + alt",
            "j = 2",
            ("for", "k", "0", "count", 1,
             ["t = times[k]", "dt = t - t0", "adt = fabs(dt)",
              "nf = floordiv(adt, STEP_S)", "rem = adt - nf * STEP_S",
              "i = to_long(nf)", "q = 6 * i",
              ("if", "dt >= 0.0",
               ["h = rem", ("if", "i >= nfwd", stop),
                *_load(_STATE, "fwd", "q")],
               ["h = -rem", ("if", "i >= nbwd", stop),
                *_load(_STATE, "bwd", "q")]),
              *_remainder_bound(),
              "kept = 1.0", "accepted = 0.0",
              ("if", "valid",
               ["lam = lon + GMST_J2000 + EARTH_ROT * t",
                "up_x = cp * cos(lam)", "up_y = cp * sin(lam)",
                *(f"r{c} = p{c} - radius * up_{c}" for c in "xyz"),
                "u = rx * up_x + ry * up_y + rz * up_z",
                "rng = sqrt(rx * rx + ry * ry + rz * rz)",
                "eps = err + HORIZON_MARGIN_KM",
                ("if", "u + eps <= s * (rng - eps)", ["kept = 0.0"],
                 [("if", "u - eps > s * (rng + eps)", ["accepted = 1.0"])])]),
              ("if", "kept", ["out[j] = k", "out[j + 1] = accepted",
                              "j += 2"])]),
            "out[0] = count", "out[1] = j", ("return", 0)]


# each kernel: its name, its parameters as C declares them, its integer
# locals (loop names are integers too), its template, and the statements
# it runs on a failure it cannot return from the template, such as a zero
# divisor
_KERNELS = (
    ("rk4_steps", "double *s, double h, long n, double bstar, double kj, "
     "long k0", "", _rk4_kernel, []),
    ("abm_steps", "double *p, double *out, double h, long n, double bstar, "
     "double kj, long k0", "k last q", _abm_kernel, ["out[1] = k"]),
    ("fit_positions", "double *x, double t0, double j2, double *times, "
     "long count, double *p", "q", _positions_kernel, []),
    ("fit_residuals", "double *f, double *p, long count, double *out",
     "j o q", _residuals_kernel, []),
    ("fit_jacobian", "double *x, double *steps, double t0, double j2, "
     "double *times, double *f, long count, long terms, double *jac, "
     "double *xp, double *xm, double *p, double *rp, double *rm, "
     "double *base", "sb sp sm", _jacobian_kernel, []),
    ("mask_screen", "double *fwd, long nfwd, double *bwd, long nbwd, "
     "double *times, long count, double t0, double bstar, double lon, "
     "double lat, double alt, double s, double *out", "i j q",
     _screen_kernel, []))


def _names(params: str) -> list:
    """The parameter names of a C parameter list."""
    return [p.split()[-1].lstrip("*") for p in params.split(", ")]


def _python(template, depth: int = 0) -> list:
    """Python source lines of template statements, indented depth levels;
    a divisor needs no test, since Python's division makes it."""
    pad, lines = "    " * depth, []
    for s in template:
        if isinstance(s, str):
            lines.append(pad + s)
        elif s[0] == "if":
            lines += [f"{pad}if {s[1]}:",
                      *(_python(s[2], depth + 1) or [pad + "    pass"])]
            if len(s) > 3:
                lines += [f"{pad}else:", *_python(s[3], depth + 1)]
        elif s[0] == "for":
            _, name, start, stop, step, body = s
            bounds = f"{start}, {stop}" + (f", {step}" if step != 1 else "")
            lines += [f"{pad}for {name} in range({bounds}):",
                      *_python(body, depth + 1)]
        elif s[0] == "require":
            lines += [f"{pad}if not ({' and '.join(s[1])}):",
                      f"{pad}    return {_STATUS[s[2]]}"]
        elif s[0] == "until":
            lines += [f"{pad}for _ in range({s[2]}):",
                      *_python(s[3], depth + 1),
                      f"{pad}    if {s[1]}:", f"{pad}        break",
                      f"{pad}else:", f"{pad}    return {_STATUS[s[4]]}"]
        elif s[0] == "return":
            lines.append(f"{pad}return {s[1]}")
    return lines


def _c(template, depth: int = 0) -> list:
    """C source lines of template statements, indented depth levels."""
    pad, lines = "    " * depth, []
    for s in template:
        if isinstance(s, str):
            lines.append(pad + s + ";")
        elif s[0] == "if":
            lines += [f"{pad}if (({s[1]}) != 0.0) {{", *_c(s[2], depth + 1)]
            if len(s) > 3:
                lines += [pad + "} else {", *_c(s[3], depth + 1)]
            lines.append(pad + "}")
        elif s[0] == "for":
            _, name, start, stop, step, body = s
            lines += [f"{pad}for ({name} = {start}; {name} < {stop}; "
                      f"{name} += {step}) {{", *_c(body, depth + 1),
                      pad + "}"]
        elif s[0] == "divisor":
            lines.append(f"{pad}if ({s[1]} == 0.0) goto divided;")
        elif s[0] == "require":
            held = " && ".join(f"({c})" for c in s[1])
            lines.append(f"{pad}if (!({held})) return {_STATUS[s[2]]};")
        elif s[0] == "until":
            lines += [f"{pad}for (it = 0; it < {s[2]}; it++) {{",
                      *_c(s[3], depth + 1),
                      f"{pad}    if ({s[1]}) break;", pad + "}",
                      f"{pad}if (it == {s[2]}) return {_STATUS[s[4]]};"]
        else:
            lines.append(f"{pad}return {s[1]};")
    return lines


def _walk(template):
    """Every statement of template, those nested in others included."""
    for s in template:
        yield s
        if not isinstance(s, str):
            for part in s[1:]:
                if isinstance(part, list):
                    yield from _walk(part)


def _python_source() -> str:
    """The Python rendering: one function per kernel, each catching the
    failures Python raises where C tests or carries on."""
    lines = []
    for name, params, _, template, on_failure in _KERNELS:
        lines += [f"def sdachain_{name}({', '.join(_names(params))}):",
                  "    try:", *_python(template(), 2)]
        for error in ("ZeroDivisionError", "ValueError"):
            lines += [f"    except {error}:", *_python(on_failure, 2),
                      f"        return {_STATUS[error]}"]
    return "\n".join(lines)


# the names the templates read, each a C constant of the same value
_C_CONSTANTS = ("MU_EARTH", "R_EARTH", "EARTH_ROT", "GMST_J2000",
                "DRAG_RHO0", "DRAG_H0", "DRAG_SCALE_H", "DECAY_ALTITUDE",
                "STEP_S", "PI", "TWO_PI", "HORIZON_MARGIN_KM", "SPEED_SLACK",
                "FLOOR_R", "A_GRAV_FLOOR", "RHO_FLOOR")
# the C prelude: mod and floordiv are CPython's float v % w and v // w (w
# nonzero: fmod, its sign fix and the quotient snapped to an integer),
# to_long is int(v) in a long's range, min and max Python's builtins
_C_PRELUDE = """\
static double mod(double v, double w)
{
    double m = fmod(v, w);
    if (m != 0.0) {
        if ((w < 0.0) != (m < 0.0))
            m += w;
    } else {
        m = copysign(0.0, w);
    }
    return m;
}
static double floordiv(double v, double w)
{
    double m = fmod(v, w), d = (v - m) / w, f;
    if (m != 0.0 && (w < 0.0) != (m < 0.0))
        d -= 1.0;
    if (d == 0.0)
        return copysign(0.0, v / w);
    f = floor(d);
    return d - f > 0.5 ? f + 1.0 : f;
}
static long to_long(double v) { return (long) v; }
static double min(double a, double b) { return b < a ? b : a; }
static double max(double a, double b) { return b > a ? b : a; }"""
_CFLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fno-builtin-exp",
           "-fno-builtin-sin", "-fno-builtin-cos", "-fno-builtin-asin",
           "-fno-builtin-atan2", "-fno-builtin-fmod", "-fno-builtin-pow",
           "-fPIC", "-shared")


def _c_source() -> str:
    """The C rendering: the prelude, then one function per kernel, its
    locals declared long (the integers) or double (every other name its
    template assigns)."""
    lines = ["#include <math.h>",
             *(f"static const double {name} = {globals()[name]!r};"
               for name in _C_CONSTANTS), _C_PRELUDE]
    for name, params, ints, template, on_failure in _KERNELS:
        body = template()
        statements = list(_walk(body + on_failure))
        nested = [s for s in statements if not isinstance(s, str)]
        longs = dict.fromkeys(
            [*ints.split(), *(s[1] for s in nested if s[0] == "for"),
             *("it" for s in nested if s[0] == "until")])
        local = set(longs).union(_names(params))
        doubles = dict.fromkeys(
            n for n in (s.split()[0] for s in statements if isinstance(s, str))
            if "[" not in n and n not in local)
        lines += [f"int sdachain_{name}({params})", "{",
                  *(f"    {t} {', '.join(d)};" for t, d
                    in (("long", longs), ("double", doubles)) if d),
                  *_c(body, 1)]
        if any(s[0] == "divisor" for s in nested):
            lines += ["divided:", *_c(on_failure, 1),
                      f"    return {_STATUS['ZeroDivisionError']};"]
        lines.append("}")
    return "\n".join(lines) + "\n"


def _failure(status: int, out=None, t0: float = 0.0,
             h: float = 0.0) -> Exception:
    """The exception a kernel's status stands for: a decay at step
    out[1], at altitude out[0], stepping h from t0, or a _STATUS error."""
    if status == _STATUS["DecayError"]:
        return _decay_error(out[0], t0 + int(out[1]) * h)
    if status == _STATUS["ZeroDivisionError"]:
        return ZeroDivisionError("float division by zero")
    if status == _STATUS["ValueError"]:
        return ValueError("elements outside the KeplerianElements domain")
    return KeplerConvergenceError(
        "Kepler solve did not converge in 50 iterations")


def _buffer(buf, size: int):
    """buf, checked to be an array('d') of size doubles: what a Python
    kernel takes."""
    if getattr(buf, "typecode", None) != "d" or len(buf) != size:
        raise ValueError(f"expected an array('d') of {size} doubles")
    return buf


def _address(buf, size: int) -> int:
    """The address of buf, checked as _buffer checks it: what a C kernel
    takes."""
    return _buffer(buf, size).buffer_info()[0]


def _zeros(size: int) -> array:
    return array("d", bytes(8 * size))


def _bind(kernels, address) -> tuple:
    """The wrappers (_rk4_steps, _abm_steps, _fit_positions,
    _fit_residuals, _fit_jacobian, _mask_screen) of kernels, one
    rendering's in _KERNELS order, which take each buffer as address(buf,
    size) passes it, after checking its type and length.  Each wrapper
    keeps a reference to every buffer it passes until the kernel returns;
    a C kernel is called through ctypes.PyDLL, so the interpreter lock
    stays held and no other thread can resize a buffer the C writes."""
    rk4, abm, positions, residuals, jacobian, screen = kernels
    stride, ranged = len(_FIT_FIELDS), _FIT_FIELDS.index("ranged")

    def _rk4_steps(state, h, n, bstar, kj, t0, k0):
        """n RK4 steps of h seconds from state; returns the last state.

        kj is _j2_coeff(j2).  Step k, for k0 < k <= k0 + n, lands at
        t0 + k*h, the time a DecayError names when that step's state is
        below DECAY_ALTITUDE.
        """
        s = array("d", state)
        failed = rk4(address(s, 6), h, n, bstar, kj, k0)
        if failed:
            raise _failure(failed, s, t0, h)
        return tuple(s)

    def _abm_steps(points, h, n, bstar, kj, t0):
        """n multistep steps of h seconds, appended to the grid points.

        points is an array('d') grid holding at least _ORDER points; step
        k, for k0 < k <= k0 + n with k0 the index of its last point, lands
        at t0 + k*h, the time a DecayError names when that step's state is
        below DECAY_ALTITUDE; on a DecayError only the states before it
        are appended.  Each call first evaluates the back values (velocity
        and acceleration) at the last _ORDER points held and keeps them in
        locals only, so what it appends depends on those points, not on
        earlier calls.
        """
        k0 = len(points) // 6 - 1
        if len(points) % 6 or k0 < _ORDER - 1:
            raise ValueError(f"a multistep extension needs at least {_ORDER}"
                             f" grid points")
        address(points, 6 * k0 + 6)     # its type, before room is appended
        points.frombytes(bytes(48 * n))
        out = _zeros(2)
        failed = abm(address(points, 6 * (k0 + 1 + n)), address(out, 2), h,
                     n, bstar, kj, k0)
        if failed:
            del points[6 * int(out[1]):]
            raise _failure(failed, out, t0, h)

    def terms(fields) -> int:
        """The residual terms of the packed records: two per record and
        one per record whose ranged flag is not 0.0, as the kernels test
        it."""
        n = len(fields) // stride
        return 3 * n - fields[ranged::stride].count(0.0)

    def _fit_positions(x, t0, j2, times):
        """The reduced model's ECI positions at the epochs times, from the
        elements x (six floats) at epoch t0, three doubles per epoch."""
        n, xs = len(times), array("d", x)
        p = _zeros(3 * n)
        failed = positions(address(xs, 6), t0, j2, address(times, n), n,
                           address(p, 3 * n))
        if failed:
            raise _failure(failed)
        return p

    def _fit_residuals(fields, p):
        """The residual terms of the records packed in fields (their
        _FIT_FIELDS) at the ECI positions p, three doubles per record."""
        n = len(fields) // stride
        out = _zeros(terms(fields))
        failed = residuals(address(fields, stride * n), address(p, 3 * n), n,
                           address(out, len(out)))
        if failed:
            raise _failure(failed)
        return out

    def _fit_jacobian(x, steps, t0, j2, times, fields):
        """(jac, None): d(predicted)/dx of the reduced model at epoch t0,
        from elements x (six floats), at the records packed in times
        (their epochs) and fields (their _FIT_FIELDS), row-major in an
        array('d'), one row per residual term and six columns.  Or (None,
        k), k the first column that neither difference can give."""
        n, m = len(times), terms(fields)
        xs, hs, jac, xp, xm = (array("d", x), array("d", steps),
                               _zeros(6 * m), _zeros(6), _zeros(6))
        p, rp, rm, base = _zeros(3 * n), _zeros(m), _zeros(m), _zeros(m)
        failed = jacobian(address(xs, 6), address(hs, 6), t0, j2,
                          address(times, n), address(fields, stride * n), n,
                          m, address(jac, 6 * m), address(xp, 6),
                          address(xm, 6), address(p, 3 * n), address(rp, m),
                          address(rm, m), address(base, m))
        if failed < 0:
            return None, -1 - failed
        if failed:
            raise _failure(failed)
        return jac, None

    def _mask_screen(forward, backward, times, t0, bstar, site, s):
        """(m, out[2:out[1]]) of mask_screen (_screen_kernel) on the
        array('d') times, grid buffers forward and backward, and site."""
        n, out = len(times), _zeros(2 + 2 * len(times))
        failed = screen(address(forward, len(forward)), len(forward) // 6,
                        address(backward, len(backward)), len(backward) // 6,
                        address(times, n), n, t0, bstar, site.lon, site.lat,
                        site.alt, s, address(out, 2 + 2 * n))
        if failed:
            raise _failure(failed, out)
        return int(out[0]), out[2:int(out[1])]

    return (_rk4_steps, _abm_steps, _fit_positions, _fit_residuals,
            _fit_jacobian, _mask_screen)


@functools.cache
def _python_kernels() -> tuple:
    """_bind's wrappers of the Python rendering, compiled by one exec with
    the _C_CONSTANTS and the libm calls for globals."""
    namespace = {name: getattr(math, name) for name in (
        "sqrt", "exp", "sin", "cos", "asin", "atan2", "fmod", "fabs",
        "isfinite")}
    namespace.update({name: globals()[name] for name in _C_CONSTANTS},
                     mod=float.__mod__, floordiv=float.__floordiv__,
                     to_long=int)
    exec(compile(_python_source(), "<astro kernels>", "exec"), namespace)
    return _bind([namespace[f"sdachain_{k[0]}"] for k in _KERNELS], _buffer)


def _c_kernels(lib) -> tuple:
    """_bind's wrappers of the C kernels of lib, a ctypes.PyDLL."""
    types = {"double": ctypes.c_double, "long": ctypes.c_long}
    kernels = []
    for name, params, *_ in _KERNELS:
        kernel = getattr(lib, f"sdachain_{name}")
        kernel.argtypes = [ctypes.c_void_p if "*" in p else types[p.split()[0]]
                           for p in params.split(", ")]
        kernel.restype = ctypes.c_int
        kernels.append(kernel)
    return _bind(kernels, _address)


# the grids a native build must step as the Python loops do, J2 on, each
# a state and a bstar: a drag-on orbit 300 km up that decays 134 steps
# forward, and a drag-off circular orbit at 7 000 km, inclined 1 rad, that
# stays bound through all 3 450 multistep steps each way, which a J2 term
# that rounds apart only now and then needs to show (450 steps did not)
_CHECK_SPEED = math.sqrt(MU_EARTH / 7000.0)
_CHECK_GRIDS = (((6678.137, 0.0, 0.0, 0.0, 5.45, 5.45), 5e-5),
                ((7000.0, 0.0, 0.0, 0.0, _CHECK_SPEED * math.cos(1.0),
                  _CHECK_SPEED * math.sin(1.0)), 0.0))
_CHECK_CHUNKS = (1, 9, 40, 400, 3000)   # the multistep calls on each grid


def _grid_bits(rk4, abm) -> list:
    """The bytes the stepping loops rk4 and abm make of each check grid
    both ways: its start-up, multistep chunks of _CHECK_CHUNKS steps,
    each followed by a remainder step, down to the repr of the
    first DecayError, ArithmeticError or ValueError a step raises, so
    that loops which raise where the others do not fail the check."""
    kj = _j2_coeff(J2_EARTH)
    out = []
    for state, bstar in _CHECK_GRIDS:
        for h in (STEP_S, -STEP_S):
            points = array("d", state)
            try:
                for k in range(_ORDER - 1):
                    points.extend(rk4(points[-6:], h / 3.0, 3, bstar, kj,
                                      0.0, 3 * k))
                for n in _CHECK_CHUNKS:
                    abm(points, h, n, bstar, kj, 0.0)
                    out.append(array("d", rk4(points[-6:], 0.4 * h, 1, bstar,
                                              kj, 0.0, -1)))
            except (DecayError, ArithmeticError, ValueError) as exc:
                out.append(repr(exc))
            out.append(points)
    return [x if isinstance(x, str) else x.tobytes() for x in out]


# the records a native build must fit as the Python passes do, at 60 s
# spacing from two sites: four AZEL with a range, four without, then two
# RADEC, the first with a range; (angle1, angle2) make first-angle
# differences of either sign
_CHECK_SITES = (GroundSite("CHECK-A", 0.3, 1.0, 0.2),
                GroundSite("CHECK-B", -0.6, 2.4))
_CHECK_RECORDS = tuple((60.0 * k, 0.37 * k + 0.1, 0.05 * k - 0.2,
                        1000.0 + 100.0 * k if k in (0, 1, 2, 3, 8) else None,
                        k >= 8) for k in range(10))
# and the elements (a, e, i, raan, argp, M) and epoch of each fit: one
# with central differences only; e = 0 and i = pi, whose e and i columns
# are one-sided, since one side leaves the domain; e within 1e-10 of 1,
# whose e column is one-sided and whose M - 1e-5 side's Kepler solve does
# not converge at the first record; and a = 1 km from an epoch 1.7e308 s
# earlier, whose drift is not finite on any side, so no column is given
_CHECK_FITS = (((7000.0, 0.01, 0.9, 1.0, 2.0, 3.0), 0.0),
               ((7100.0, 0.0, 0.02, 0.5, 0.0, 1.0), 0.0),
               ((7200.0, 0.05, PI, 2.0, 1.0, 0.5), 0.0),
               ((7300.0, 1.0 - 1e-10, 1.2, 0.1, 0.2, 1e-5 + 1e-12), 0.0),
               ((1.0, 0.1, 0.5, 1.0, 2.0, 3.0), -1.7e308))
_CHECK_STEPS = (1e-1, 1e-5, 1e-5, 1e-5, 1e-5, 1e-5)


def _check_records() -> tuple:
    """(times, fields) of _CHECK_RECORDS, as a fit packs them."""
    times, fields = array("d"), array("d")
    for k, (t, angle1, angle2, range_km, radec) in enumerate(_CHECK_RECORDS):
        site = _CHECK_SITES[k % len(_CHECK_SITES)]
        times.append(t)
        fields.extend(_fit_record(angle1, angle2, range_km,
                                  (*site_frame(site, Epoch(t)), radec)))
    return times, fields


def _fit_bits(positions, residuals, jacobian) -> list:
    """The bytes the fit kernels make of the check records: the positions
    and the Jacobian of each _CHECK_FITS fit, then the Jacobian of the
    first with the first record's range 0.0, and the residuals at the
    first fit's positions, then with the first position at its site.  A
    failed column gives its index, and an exception its repr, so that
    kernels which raise where the others do not fail the check."""
    times, fields = _check_records()
    zero_range = array("d", fields)
    zero_range[_FIT_FIELDS.index("range_km")] = 0.0
    first = positions(_CHECK_FITS[0][0], 0.0, J2_EARTH, times)
    sited = array("d", first)
    site = _FIT_FIELDS.index("sx")
    sited[:3] = fields[site:site + 3]
    calls = []
    for x, t0 in _CHECK_FITS:
        calls += [(positions, x, t0, J2_EARTH, times),
                  (jacobian, x, _CHECK_STEPS, t0, J2_EARTH, times, fields)]
    calls += [(jacobian, _CHECK_FITS[0][0], _CHECK_STEPS, 0.0, J2_EARTH,
               times, zero_range),
              (residuals, fields, first), (residuals, fields, sited)]
    out = []
    for kernel, *args in calls:
        try:
            got = kernel(*args)
        except (ArithmeticError, ValueError, KeplerConvergenceError) as exc:
            out.append(repr(exc))
            continue
        if kernel is jacobian:
            got = got[1] if got[0] is None else got[0]
        out.append(got if isinstance(got, int) else got.tobytes())
    return out


def _screen_bits(screen) -> list:
    """The bytes the screen makes of the check passes: grid points of an
    orbit that sinks from 6 800 km to below the decay radius, 30 forward
    and 12 backward, one each way not finite, screened every 30 s (every
    third time on a grid point) to past the last point held, from a site
    that sees the orbit both ways and from one that never does, at masks
    0 and 10 degrees, with drag and without."""
    forward, backward = array("d"), array("d")
    ci, si = math.cos(1.0), math.sin(1.0)
    for k in range(30):
        for grid, a in ((forward, 0.1 * k), (backward, -0.1 * k)):
            c, s, r = math.cos(a), math.sin(a), 6800.0 - 12.0 * k
            grid.extend((r * c, r * s * ci, r * s * si, -7.5 * s,
                         7.5 * c * ci, 7.5 * c * si))
    forward[6 * 7 + 4], backward[6 * 3] = math.nan, math.inf
    del backward[6 * 12:]
    return [(m, kept.tobytes()) for m, kept in (
        screen(forward, backward, array("d", range(0, 3000 * w, 30 * w)),
               0.0, bstar, site, math.sin(mask))
        for w in (1, -1)
        for site in (GroundSite("CHECK-C", 0.0, 1.39), _CHECK_SITES[0])
        for mask in (0.0, math.radians(10.0)) for bstar in (0.0, 1e-3))]


def _passes_check(kernels) -> bool:
    """Whether the kernels (_bind's wrappers) make the bits of the Python
    rendering's: _grid_bits of the stepping kernels, _fit_bits of the fit
    kernels and _screen_bits of the screen."""
    python = _python_kernels()
    return (_grid_bits(*kernels[:2]) == _grid_bits(*python[:2])
            and _fit_bits(*kernels[2:5]) == _fit_bits(*python[2:5])
            and _screen_bits(kernels[5]) == _screen_bits(python[5]))


def _library_path() -> str:
    """Where the library is cached: under the SHA-256 of the flags and of
    this module's source text, which holds the templates, both
    renderings, the checks and their inputs, so that a change to any of
    them builds and checks it again."""
    with open(__file__, "rb") as f:
        text = f.read()
    key = hashlib.sha256("\0".join(_CFLAGS).encode() + b"\0" + text)
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "__pycache__", f"_stepping.{key.hexdigest()}.so")


def _native_kernels():
    """(path, *_bind's wrappers) of the C kernels, loaded from the cache or
    built into it, or None when this host cannot build or load them."""
    path = _library_path()
    try:
        with open(path, "rb") as f:
            data = f.read()
        if data[-32:] == hashlib.sha256(data[:-32]).digest():
            return (path, *_c_kernels(ctypes.PyDLL(path)))
    except (OSError, AttributeError):
        pass
    return _build(path)


def _build(path: str):
    """Build _c_source into a library, and cache it at path, followed by
    its SHA-256, if its kernels pass _passes_check, removing the libraries
    of other sources; returns what _native_kernels does."""
    import glob         # here, since a cache hit needs none of them
    import shutil
    import subprocess
    import tempfile
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as work:
            c_file = os.path.join(work, "stepping.c")
            lib_file = os.path.join(work, "stepping.so")
            with open(c_file, "w", encoding="ascii") as f:
                f.write(_c_source())
            subprocess.run([cc, *_CFLAGS, "-o", lib_file, c_file, "-lm"],
                           check=True, capture_output=True, timeout=300)
            with open(lib_file, "rb") as f:
                digest = hashlib.sha256(f.read()).digest()
            with open(lib_file, "ab") as f:
                f.write(digest)
            kernels = _c_kernels(ctypes.PyDLL(lib_file))
            if not _passes_check(kernels):
                return None
            os.replace(lib_file, path)
    except (OSError, AttributeError, ArithmeticError, ValueError, AstroError,
            subprocess.SubprocessError):    # a check that raises fails too
        return None
    for stale in glob.glob(os.path.join(os.path.dirname(path),
                                        "_stepping.*.so")):
        if stale != path:
            try:
                os.remove(stale)
            except OSError:
                pass
    return (path, *kernels)


def _check_limits(el: KeplerianElements, t: float, step_s: float) -> None:
    if not MIN_STEP_S <= step_s <= MAX_STEP_S:
        raise PropagationLimitError(
            f"step_s must be in [{MIN_STEP_S}, {MAX_STEP_S}], got {step_s}")
    dt = t - el.epoch.t
    if not abs(dt) <= MAX_SPAN_S:      # NaN too
        raise PropagationLimitError(
            f"span {dt / 86400.0:.1f} days exceeds {MAX_SPAN_S / 86400.0:.0f}-day limit")


def _anchor(el: KeplerianElements) -> tuple:
    """Altitude-checked 6-tuple state at the element epoch."""
    sv = kepler_to_state(el, el.epoch)
    alt = norm(sv.r) - R_EARTH
    if alt < DECAY_ALTITUDE:
        raise _decay_error(alt, el.epoch.t)
    return (*sv.r, *sv.v)


class _Grid:
    """One orbit's step grid: anchor, and forward and backward array('d')
    grids."""

    __slots__ = ("t0", "step_s", "bstar", "kj", "forward", "backward")

    def __init__(self, el: KeplerianElements, bstar: float, step_s: float,
                 j2: float):
        anchor = _anchor(el)
        self.t0 = el.epoch.t
        self.step_s = step_s
        self.bstar = bstar
        self.kj = _j2_coeff(j2)
        self.forward = array("d", anchor)     # point k at epoch + k*step
        self.backward = array("d", anchor)    # point k at epoch - k*step

    def __deepcopy__(self, memo):
        # a grid is a function of its key and elements, and each extension
        # only appends what any copy would compute, so copies share it
        memo[id(self)] = self
        return self

    def point(self, t: float) -> tuple:
        """(points, i, h): the last grid point from the anchor toward t is
        points[i:i + 6], and the state at t is that point stepped by h
        seconds (h is 0.0 when t is on the grid).  Extends the grid to
        that point and no further."""
        dt = t - self.t0
        step_s = self.step_s
        n_full = int(abs(dt) // step_s)
        rem = abs(dt) - n_full * step_s
        sign = 1.0 if dt >= 0.0 else -1.0
        grid = self.forward if dt >= 0.0 else self.backward
        if len(grid) // 6 <= n_full:
            self._extend(grid, sign * step_s, n_full)
        return grid, 6 * n_full, sign * rem

    def _extend(self, grid, h: float, n_full: int) -> None:
        """Step grid to point n_full: RK4 at h/3 up to point _ORDER - 1,
        the multistep loop beyond."""
        for k in range(len(grid) // 6, min(n_full, _ORDER - 1) + 1):
            grid.extend(_rk4_steps(grid[-6:], h / 3.0, 3, self.bstar, self.kj,
                                   self.t0, 3 * k - 3))
        if n_full >= _ORDER:
            _abm_steps(grid, h, n_full + 1 - len(grid) // 6, self.bstar,
                       self.kj, self.t0)

    def finish(self, state, h: float, t: float) -> tuple:
        """A grid point's state stepped by h to t, altitude-checked."""
        if h:
            # one step, k = 0, which lands at t + 0*h = t
            return _rk4_steps(state, h, 1, self.bstar, self.kj, t, -1)
        return tuple(state)

    def state_at(self, t: float) -> tuple:
        """6-tuple state at t, extending the grid as far as t needs."""
        points, i, h = self.point(t)
        return self.finish(points[i:i + 6], h, t)


_GRIDS = "_grids"   # the name of each KeplerianElements' dict of grids


def _grid(el: KeplerianElements, bstar: float, step_s: float,
          j2: float) -> _Grid:
    """el's grid for (bstar, step_s, j2), built on first use and kept on el."""
    grids = el.__dict__.setdefault(_GRIDS, {})
    key = (bstar, step_s, j2)
    grid = grids.get(key)
    if grid is None:
        grid = grids[key] = _Grid(el, bstar, step_s, j2)
    return grid


def clear_propagation_cache():
    """Does nothing: each grid lives and dies with its elements, so no
    process-wide cache is left to clear.  bench/worker.py still calls it
    before each phase."""


def propagate_j2(el: KeplerianElements, bstar: float, t: Epoch,
                 step_s: float = STEP_S, *, j2: float = J2_EARTH) -> StateVector:
    """Numerically propagated state at t: two-body + J2 + drag, on el's
    multistep grid plus one RK4 step to t.

    The force model is the chain's reference propagator; j2 is exposed as
    a test hook to recover the pure two-body limit.  Reads and extends
    el's grid for (bstar, step_s, j2), built with its anchor on first
    use; the result is the same bits whether the grid was new or not.
    Raises PropagationLimitError (also a ValueError) for a step or span
    outside the limits, DecayError when the orbit decays before t.
    """
    _check_limits(el, t.t, step_s)
    state = _grid(el, bstar, step_s, j2).state_at(t.t)
    return StateVector(epoch=t, r=state[:3], v=state[3:])


def propagate_many(el: KeplerianElements, bstar: float, epochs,
                   step_s: float = STEP_S, *, j2: float = J2_EARTH):
    """Yield propagate_j2's state at each epoch, in the given order.

    One grid, el's own, serves the whole pass.  Each epoch raises the
    error propagate_j2 would raise for it, when it is reached; the states
    yielded before it are unaffected.
    """
    grid = None
    for t in epochs:
        _check_limits(el, t.t, step_s)
        if grid is None:
            grid = _grid(el, bstar, step_s, j2)
        state = grid.state_at(t.t)
        yield StateVector(epoch=t, r=state[:3], v=state[3:])


def times_above_mask(el: KeplerianElements, bstar: float, site: GroundSite,
                     times, mask: float) -> list:
    """The times (seconds) of times, in order, at which propagate_j2's
    state has topocentric_angles elevation above mask (radians, in
    [0, pi/2): anything else is a ValueError), up to the first time whose
    state decays; a time outside the limits before any decay raises
    propagate_j2's PropagationLimitError.

    The pass first extends el's grid as far as the times before the first
    one outside the limits need, with one _Grid.point call (so one
    multistep call) per direction.  A decay one way leaves the other way
    extended, and the first time whose grid point decays ends the list.
    One mask_screen call (_screen_kernel) then skips each leading time
    whose grid point is held and whose elevation is provably at or below
    mask, and accepts each provably above it; every other time takes the
    exact path: its remainder step, a StateVector and topocentric_angles,
    and only that step can decay, which ends the list.  The grid keeps
    the bits a loop over propagate_many leaves, but may reach farther.
    """
    if not 0.0 <= mask < 0.5 * math.pi:
        raise ValueError(f"elevation mask must be in [0, pi/2), got {mask}")
    times, t0 = list(times), el.epoch.t
    n = next((k for k, t in enumerate(times)
              if not abs(t - t0) <= MAX_SPAN_S), len(times))  # NaN too
    visible, m = [], 0
    if n:
        try:
            grid = _grid(el, bstar, STEP_S, J2_EARTH)
        except DecayError:
            return visible      # the anchor decays, so the first time does
        for t, ahead in ((max(times[:n]), True), (min(times[:n]), False)):
            # to the farthest time each way; a decay one way must not stop
            # the other way's extension
            if (t - t0 >= 0.0) == ahead:
                try:
                    grid.point(t)
                except DecayError:
                    pass
        m, kept = _mask_screen(grid.forward, grid.backward,
                               array("d", times[:n]), t0, bstar, site,
                               math.sin(mask))
        for k, accepted in zip(kept[::2], kept[1::2]):
            t = times[int(k)]
            if not accepted:
                try:
                    state = grid.state_at(t)    # its grid point is held
                except DecayError:
                    return visible
                sv = StateVector(epoch=Epoch(t), r=state[:3], v=state[3:])
                accepted = topocentric_angles(sv, site)[1] > mask
            if accepted:
                visible.append(t)
    if m == n < len(times):
        _check_limits(el, times[n], STEP_S)     # times[n] is off the span
    return visible


# --- observation geometry ---

def gmst(epoch: Epoch) -> float:
    """Greenwich mean sidereal angle, linear model."""
    return wrap_two_pi(GMST_J2000 + EARTH_ROT * epoch.t)


def site_eci(site: GroundSite, epoch: Epoch) -> tuple:
    """ECI position of a ground site (spherical Earth)."""
    radius = R_EARTH + site.alt
    lam = site.lon + gmst(epoch)
    cphi = math.cos(site.lat)
    return (
        radius * cphi * math.cos(lam),
        radius * cphi * math.sin(lam),
        radius * math.sin(site.lat),
    )


def site_frame(site: GroundSite, epoch: Epoch) -> tuple:
    """(ECI position, (east, north, up) unit vectors) of a site at an
    epoch, from one gmst and one sin/cos of each site angle.

    The position has site_eci's bits.
    """
    lam = site.lon + gmst(epoch)
    sl, cl = math.sin(lam), math.cos(lam)
    sp, cp = math.sin(site.lat), math.cos(site.lat)
    radius = R_EARTH + site.alt
    rs = (radius * cp * cl, radius * cp * sl, radius * sp)
    return rs, ((-sl, cl, 0.0), (-sp * cl, -sp * sl, cp),
                (cp * cl, cp * sl, sp))


def topocentric_angles(s: StateVector, site: GroundSite) -> tuple:
    """(azimuth, elevation, slant range) of a state as seen from a site.

    Azimuth is clockwise from north in [0, 2*pi); elevation in
    [-pi/2, pi/2]; range in km.
    """
    return azel_from(s.r, *site_frame(site, s.epoch))


def azel_from(r, rs, basis) -> tuple:
    """topocentric_angles of an ECI position r, from the site's ECI
    position rs and (east, north, up) basis at r's epoch."""
    rho = (r[0] - rs[0], r[1] - rs[1], r[2] - rs[2])
    east, north, up = basis
    e = dot(rho, east)
    n = dot(rho, north)
    u = dot(rho, up)
    rng = math.sqrt(e * e + n * n + u * u)
    az = wrap_two_pi(math.atan2(e, n))
    el = math.asin(max(-1.0, min(1.0, u / rng)))
    return az, el, rng


def radec_from(r, rs) -> tuple:
    """(right ascension, declination, slant range) of the line of sight
    from a site at ECI position rs to an ECI position r."""
    rho = (r[0] - rs[0], r[1] - rs[1], r[2] - rs[2])
    rng = norm(rho)
    ra = wrap_two_pi(math.atan2(rho[1], rho[0]))
    dec = math.asin(max(-1.0, min(1.0, rho[2] / rng)))
    return ra, dec, rng


def angles_to_unit_vector(az: float, el: float, basis) -> tuple:
    """ECI line-of-sight unit vector for an az/el observation, given the
    site's (east, north, up) basis from site_frame at its epoch."""
    ce = math.cos(el)
    u_enu = (ce * math.sin(az), ce * math.cos(az), math.sin(el))
    east, north, up = basis
    return (
        u_enu[0] * east[0] + u_enu[1] * north[0] + u_enu[2] * up[0],
        u_enu[0] * east[1] + u_enu[1] * north[1] + u_enu[2] * up[1],
        u_enu[0] * east[2] + u_enu[1] * north[2] + u_enu[2] * up[2],
    )


def radec_to_unit_vector(ra: float, dec: float) -> tuple:
    """ECI line-of-sight unit vector for an RA/DEC observation."""
    cd = math.cos(dec)
    return (cd * math.cos(ra), cd * math.sin(ra), math.sin(dec))


def angular_separation(az1: float, el1: float, az2: float, el2: float) -> float:
    """Great-circle separation of two directions, haversine form.

    Stable for very small separations; result in [0, pi].  Works for
    az/el and ra/dec pairs alike.
    """
    sde = math.sin(0.5 * (el2 - el1))
    sda = math.sin(0.5 * (az2 - az1))
    h = sde * sde + math.cos(el1) * math.cos(el2) * sda * sda
    return 2.0 * math.asin(min(1.0, math.sqrt(h)))


# --- the kernels in use, built or loaded once every template, rendering
# and check input above is defined ---

# NATIVE_LIBRARY is the cached library whose kernels are in use, or None
# when the Python rendering's are
(NATIVE_LIBRARY, _rk4_steps, _abm_steps, _fit_positions, _fit_residuals,
 _fit_jacobian, _mask_screen) = _native_kernels() or (None, *_python_kernels())
