"""Time, frames, Keplerian machinery, and the reference orbit propagator.

Everything downstream (sensor synthesis, orbit determination, validation)
builds on the primitives here: epochs on a uniform leap-second-free
timescale, ECI state vectors, classical element sets, and a fixed-step
propagator with two-body + J2 + exponential-atmosphere drag forces: an
order-10 Adams-Bashforth-Moulton grid (started by RK4) and one RK4 step
from the grid to each requested time.

Conventions:
  * distances in km, velocities in km/s, angles in radians, time in
    seconds since the J2000 epoch (2000-01-01T12:00:00).
  * ECI is the inertial frame of the J2000 epoch; ECEF rotates with a
    linear GMST model (no precession/nutation/polar motion).
  * the Earth is treated as a sphere of radius R_EARTH for site
    geometry, so the local zenith is exactly radial.
"""

from __future__ import annotations

import math
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

    def period(self) -> float:
        return TWO_PI / self.mean_motion()

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

def solve_kepler(M: float, e: float, tol: float = 1e-14, max_iter: int = 50) -> float:
    """Solve M = E - e*sin(E) for E by Newton iteration."""
    E = M if e < 0.8 else math.pi
    for _ in range(max_iter):
        f = E - e * math.sin(E) - M
        dE = f / (1.0 - e * math.cos(E))
        E -= dE
        if abs(dE) < tol:
            return E
    raise KeplerConvergenceError(
        f"Kepler solve did not converge in {max_iter} iterations (M={M!r}, e={e!r})"
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
# (x, y, z, vx, vy, vz) per grid point, point k at offset 6*k.  Next to each
# it keeps the back values at its last _ORDER points, so a grid extended in
# any chunking holds the same bits; the first multistep extension evaluates
# them at the start-up points with the multistep loop's own force
# expression.  Each grid is kept on its KeplerianElements instance, in a dict
# keyed by (bstar, step, j2), so it lives exactly as long as its elements do;
# elements built anew, even with equal values, start with no grid.
#
# _abm_steps and _rk4_steps are the two stepping loops, each fused over local
# floats and summing gravity, then J2 (when kj != 0), then drag (when
# bstar != 0) in every force evaluation: the order fixes the bits of every
# propagated state, which tests/test_astro.py pins.  _rk4_steps serves only
# the start-up and the remainder step to a time between grid points (a call
# with n = 1).  Each step's altitude check reuses the radius that its next
# force evaluation needs, and a multistep extension's new points reach the
# grid in bulk appends of at most _APPEND_STEPS points, so even a first
# extension across the whole span buffers only that many.


def _drag(x, y, vx, vy, vz, r, bstar):
    rho = DRAG_RHO0 * math.exp(-((r - R_EARTH) - DRAG_H0) / DRAG_SCALE_H)
    rvx = vx + EARTH_ROT * y
    rvy = vy - EARTH_ROT * x
    vr = math.sqrt(rvx * rvx + rvy * rvy + vz * vz)
    d = -bstar * rho * vr
    return d * rvx, d * rvy, d * vz


def _j2_coeff(j2: float) -> float:
    """-1.5 * j2 * mu * Re^2, the J2 acceleration's numerator (0 when j2 is)."""
    return -1.5 * j2 * MU_EARTH * R_EARTH * R_EARTH


def _decay_error(alt: float, t: float) -> DecayError:
    return DecayError(
        f"altitude {alt:.1f} km below {DECAY_ALTITUDE:.0f} km at t={t:.1f}")


_APPEND_STEPS = 256     # grid points buffered between bulk appends


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


def _abm_steps(points, back, h, n, bstar, kj, t0):
    """n multistep steps of h seconds, appended to the grid points.

    points is an array('d') grid holding at least _ORDER points; step k,
    for k0 < k <= k0 + n with k0 the index of its last point, lands at
    t0 + k*h, the time a DecayError names when that step's state is below
    DECAY_ALTITUDE; on a DecayError only the states before it are
    appended.  back is the list of the back values at the grid's last
    _ORDER points, dx0..dx9 (velocity x, newest first), then dy, dz, ax,
    ay and az alike; the loop leaves it matching the last point appended.
    When back is empty, the loop first evaluates it at the last _ORDER
    points held, in passes that step nothing.
    """
    (b0, b1, b2, b3, b4, b5, b6, b7, b8, b9) = [h * b for b in _AB]
    (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9) = [h * c for c in _AM]
    k0 = len(points) // 6 - 1
    first = k0 + 1
    if not back:
        first -= _ORDER
        back.extend([0.0] * (6 * _ORDER))
    (dx0, dx1, dx2, dx3, dx4, dx5, dx6, dx7, dx8, dx9,
     dy0, dy1, dy2, dy3, dy4, dy5, dy6, dy7, dy8, dy9,
     dz0, dz1, dz2, dz3, dz4, dz5, dz6, dz7, dz8, dz9,
     ax0, ax1, ax2, ax3, ax4, ax5, ax6, ax7, ax8, ax9,
     ay0, ay1, ay2, ay3, ay4, ay5, ay6, ay7, ay8, ay9,
     az0, az1, az2, az3, az4, az5, az6, az7, az8, az9) = back
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
        back[:] = (dx0, dx1, dx2, dx3, dx4, dx5, dx6, dx7, dx8, dx9,
                   dy0, dy1, dy2, dy3, dy4, dy5, dy6, dy7, dy8, dy9,
                   dz0, dz1, dz2, dz3, dz4, dz5, dz6, dz7, dz8, dz9,
                   ax0, ax1, ax2, ax3, ax4, ax5, ax6, ax7, ax8, ax9,
                   ay0, ay1, ay2, ay3, ay4, ay5, ay6, ay7, ay8, ay9,
                   az0, az1, az2, az3, az4, az5, az6, az7, az8, az9)


def _check_limits(el: KeplerianElements, t: float, step_s: float) -> None:
    if not MIN_STEP_S <= step_s <= MAX_STEP_S:
        raise PropagationLimitError(
            f"step_s must be in [{MIN_STEP_S}, {MAX_STEP_S}], got {step_s}")
    dt = t - el.epoch.t
    if abs(dt) > MAX_SPAN_S:
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
    """One orbit's step grid: anchor, forward and backward array('d') grids,
    and the multistep back values at each one's end."""

    __slots__ = ("t0", "step_s", "bstar", "kj", "forward", "backward",
                 "back_fwd", "back_bwd", "decay_fwd", "decay_bwd")

    def __init__(self, el: KeplerianElements, bstar: float, step_s: float,
                 j2: float):
        anchor = _anchor(el)
        self.t0 = el.epoch.t
        self.step_s = step_s
        self.bstar = bstar
        self.kj = _j2_coeff(j2)
        self.forward = array("d", anchor)     # point k at epoch + k*step
        self.backward = array("d", anchor)    # point k at epoch - k*step
        self.back_fwd = []                    # empty until a multistep step
        self.back_bwd = []
        self.decay_fwd = None                 # grid index at which decay was hit
        self.decay_bwd = None

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
        decay_at = self.decay_fwd if dt >= 0.0 else self.decay_bwd
        if decay_at is not None and n_full >= decay_at:
            raise DecayError(
                f"altitude below {DECAY_ALTITUDE:.0f} km at grid step {decay_at} "
                f"(t={self.t0 + sign * decay_at * step_s:.1f})"
            )
        if len(grid) // 6 <= n_full:
            try:
                self._extend(grid, self.back_fwd if dt >= 0.0 else self.back_bwd,
                             sign * step_s, n_full)
            except DecayError:
                if dt >= 0.0:
                    self.decay_fwd = len(grid) // 6
                else:
                    self.decay_bwd = len(grid) // 6
                raise
        return grid, 6 * n_full, sign * rem

    def _extend(self, grid, back, h: float, n_full: int) -> None:
        """Step grid, whose back values are back, to point n_full: RK4 at
        h/3 up to point _ORDER - 1, the multistep loop beyond."""
        for k in range(len(grid) // 6, min(n_full, _ORDER - 1) + 1):
            grid.extend(_rk4_steps(grid[-6:], h / 3.0, 3, self.bstar, self.kj,
                                   self.t0, 3 * k - 3))
        if n_full >= _ORDER:
            _abm_steps(grid, back, h, n_full + 1 - len(grid) // 6, self.bstar,
                       self.kj, self.t0)

    def mark(self) -> tuple:
        """What undo needs to bring the grid back to its state now."""
        return (len(self.forward), len(self.backward), list(self.back_fwd),
                list(self.back_bwd), self.decay_fwd, self.decay_bwd)

    def undo(self, mark: tuple) -> None:
        """Drop the points appended since mark and restore the back values
        and decay indices held then."""
        n_fwd, n_bwd, back_fwd, back_bwd, self.decay_fwd, self.decay_bwd = mark
        del self.forward[n_fwd:]
        del self.backward[n_bwd:]
        self.back_fwd[:] = back_fwd
        self.back_bwd[:] = back_bwd

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


_HORIZON_MARGIN_KM = 1e-3   # covers rounding in the screen and in topocentric_angles
_SPEED_SLACK = 1.0          # km/s a remainder step may add to the grid point's speed
_FLOOR_R = R_EARTH + DECAY_ALTITUDE
# gravity plus J2 bounded at the decay altitude: 9.53e-3 km/s^2, so a
# remainder step of up to MAX_STEP_S gains at most 0.86 km/s from them
_A_GRAV_FLOOR = (MU_EARTH / _FLOOR_R ** 2
                 + 2.0 * abs(_j2_coeff(J2_EARTH)) / _FLOOR_R ** 4)


def _steps_of(dt, step_s: float) -> tuple:
    """_Grid.point's n_full and rem for each offset dt from the anchor, a
    float64 numpy array: the same float operations, element by element."""
    adt = abs(dt)
    n_full = adt // step_s
    return n_full.astype(int), adt - n_full * step_s


def _reach(grid: _Grid, times, dt) -> None:
    """Extend grid as far as times need, with one point call per direction:
    to the time farthest from the anchor each way (dt, a numpy array, holds
    each time's offset from the anchor)."""
    j = int(dt.argmax())
    if dt[j] >= 0.0:
        grid.point(times[j])
    j = int(dt.argmin())
    if dt[j] < 0.0:
        grid.point(times[j])


def _screen(np, grid: _Grid, site: GroundSite, bstar: float, t, dt) -> tuple:
    """(m, exact): the leading m times of the numpy array t (offsets dt
    from the anchor) whose grid points grid holds, and the indices of
    those that the horizon screen cannot skip, in order."""
    n_full, rem = _steps_of(dt, grid.step_s)
    fwd = dt >= 0.0
    held = n_full < np.where(fwd, len(grid.forward) // 6,
                             len(grid.backward) // 6)
    m = len(t) if held.all() else int(held.argmin())
    n_full, rem, fwd, t = n_full[:m], rem[:m], fwd[:m], t[:m]
    rows = np.empty((m, 6))
    for way, points in ((fwd, grid.forward), (~fwd, grid.backward)):
        # the view into points dies with this statement, so the grid can
        # grow again
        rows[way] = np.frombuffer(points).reshape(-1, 6)[n_full[way]]
    x, y, z, vx, vy, vz = rows.T
    drag = abs(bstar) * DRAG_RHO0 * math.exp(
        -(DECAY_ALTITUDE - DRAG_H0) / DRAG_SCALE_H)
    with np.errstate(all="ignore"):
        r = np.sqrt(x * x + y * y + z * z)
        v = np.sqrt(vx * vx + vy * vy + vz * vz)
        w = v + _SPEED_SLACK
        vr = w + EARTH_ROT * (r + rem * w)
        a_max = _A_GRAV_FLOOR + drag * vr * vr
        reach = rem * (v + 0.5 * rem * a_max) + _HORIZON_MARGIN_KM
        lam = site.lon + GMST_J2000 + EARTH_ROT * np.where(fwd, t - rem,
                                                             t + rem)
        up_r = (math.cos(site.lat) * (x * np.cos(lam) + y * np.sin(lam))
                + math.sin(site.lat) * z)
        skip = ((rem * a_max <= _SPEED_SLACK) & (r - reach > _FLOOR_R)
                & (up_r + reach + EARTH_ROT * rem * r < R_EARTH + site.alt))
    return m, np.flatnonzero(~skip).tolist()


def propagate_above_horizon(el: KeplerianElements, bstar: float,
                            site: GroundSite, times, step_s: float = STEP_S):
    """Yield propagate_j2's state at each time (seconds) of times, in order,
    skipping times at which the orbit is provably below site's horizon.

    A skipped time's state, as propagate_j2 would return it, has
    topocentric_angles elevation <= 0, so a caller that keeps states
    above a non-negative elevation mask gets exactly the states it would
    get from propagate_many.

    The pass first extends el's grid as far as its times need, with one
    _Grid.point call per direction, so each direction takes one multistep
    call.  Times from the first one outside the limits on are left out:
    the per-time loop raises at it, as propagate_many does.  If the
    extension decays, it is undone (points, back values and decay index),
    and the loop reaches the decay at the same time and with the same
    first or repeat message as propagate_many.

    The leading times whose grid points the grid then holds are screened
    as one numpy array, gathered through a view of the grid's buffers that
    is dropped before the grid can grow again.  Each time is screened on
    the grid point its state is stepped from: the grid point at
    t_g = t -/+ rem, with n_full and rem (0 <= rem < step_s) computed as
    _Grid.point computes them (_steps_of), position r_g and speed v_g, is
    stepped by one RK4 step of rem seconds (the multistep loop makes only
    grid points), which moves the position by at most
    rem*v_g + rem**2/2 * a_max, with a_max bounding gravity, J2 and drag at
    every stage above the decay altitude.  The site's zenith turns by at
    most EARTH_ROT*rem, and site_eci is (R_EARTH + alt) times the zenith,
    so the time is skipped only when

        r_g . up(t_g) + rem*v_g + rem**2/2 * a_max + |r_g|*EARTH_ROT*rem
            + _HORIZON_MARGIN_KM < R_EARTH + alt,

    which puts the object below the site's horizontal plane at t.  The
    1 m margin covers the rounding of this test, of topocentric_angles
    and of numpy's cos and sin, which may differ from math's by a few
    ulps: about 1e-11 km on positions near 7 000 km.  A time is screened
    only when every RK4 stage stays at least _HORIZON_MARGIN_KM above the
    decay altitude and gains at most _SPEED_SLACK km/s, which is what
    makes a_max a bound and leaves the remainder step's altitude check
    unable to fire (without drag, MAX_STEP_S * a_max stays below
    _SPEED_SLACK).  Non-finite states make every test false.

    Every time not skipped, screened or not, takes the one exact path:
    its grid point, the remainder step and a StateVector.  When a
    remainder step decays, the grid is first brought back to what the
    times up to it reach.  So for a pass run until it ends or raises, the
    limits, the grid points left on el's grid and each error are those of
    propagate_many, at the same time.  A pass closed early may leave the
    grid longer, which changes no state: any chunking holds the same bits.
    """
    times = list(times)
    grid = mark = None
    m, exact = 0, []
    if times and MIN_STEP_S <= step_s <= MAX_STEP_S:
        # numpy only here, so importing the propagator does not load it
        import numpy as np
        t = np.array(times, dtype=np.float64)
        dt = t - el.epoch.t
        out = ~(np.abs(dt) <= MAX_SPAN_S)      # NaN too, which point refuses
        n = int(out.argmax()) if out.any() else len(times)
        if n:
            grid = _grid(el, bstar, step_s, J2_EARTH)
            mark = grid.mark()
            try:
                _reach(grid, times, dt[:n])
            except DecayError:
                grid.undo(mark)
                mark = None
            m, exact = _screen(np, grid, site, bstar, t[:n], dt[:n])
    exact.extend(range(m, len(times)))
    for k in exact:
        t = times[k]
        if k >= m:
            _check_limits(el, t, step_s)
            if grid is None:
                grid = _grid(el, bstar, step_s, J2_EARTH)
        points, i, h = grid.point(t)
        try:
            state = grid.finish(points[i:i + 6], h, t)
        except DecayError:
            if mark is not None:
                # the grid as the times up to this one extend it
                grid.undo(mark)
                _reach(grid, times, dt[:k + 1])
            raise
        yield StateVector(epoch=Epoch(t), r=state[:3], v=state[3:])


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
