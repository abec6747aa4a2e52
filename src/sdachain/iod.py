"""Initial orbit determination and batch least-squares refinement.

Validators turn staked observation messages into orbits with three tools:

  * iod_gibbs — three range-bearing observations to a velocity at the
    middle epoch via the Gibbs construction (Vallado, "Fundamentals of
    Astrodynamics and Applications", Alg. 54).
  * iod_gauss — three angles-only observations via the classical Gauss
    method (Vallado Alg. 52): 8th-degree range polynomial, then exact
    f/g iteration on the slant ranges.
  * refine_elements — Gauss-Newton differential correction of an element
    set against any number of messages, with its Jacobian taken from a
    reduced model (two-body motion plus the J2 secular rates, in closed
    form).

The IOD methods are two-body constructions and report two-body residuals;
refinement evaluates residuals with the full reference force model so its
RMS is directly comparable to the validation thresholds. Only its partials
come from the reduced model, which needs no integration. Each record's
fields and site geometry are packed once per fit and serve every residual
evaluation. A fit stops when the step its SVD predicts would lower the
cost by at most a relative REFINE_PRED_TOL, so an iteration's
integrations are its line-search trials: at most REFINE_MAX_HALVINGS + 1.

The reduced model's positions pass, the residual terms and the
Jacobian's difference rule are each one of astro's template kernels,
defined once and rendered as C and as Python, behind one set of
wrappers. Where astro.NATIVE_LIBRARY is loaded they run in C: one call
per Jacobian, which makes all its passes and differences, and one per
line-search trial, which turns the propagated positions into residuals.
Elsewhere the Python rendering of the same definitions runs, with the
same bits.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .astro import (
    DecayError,
    Epoch,
    GroundSite,
    J2_EARTH,
    KeplerConvergenceError,
    KeplerianElements,
    MU_EARTH,
    R_EARTH,
    StateVector,
    UnsupportedRegimeError,
    _fit_jacobian,
    _fit_record,
    _fit_residuals,
    cross,
    dot,
    kepler_to_state,
    norm,
    propagate_many,
    state_to_kepler,
    unit,
)
from .errors import SdaError
from .tdm import (
    Tdm,
    line_of_sight,
    observed_position,
    separation_rms,
    site_geometry,
)

MIN_ALTITUDE_KM = 100.0
MAX_ALTITUDE_KM = 100000.0
GAUSS_MIN_SEP_S = 30.0
GAUSS_MAX_SEP_S = 1200.0
GAUSS_MAX_ITER = 50
GAUSS_RHO_TOL_KM = 1e-10
GIBBS_COPLANARITY_DEG = 3.0
GIBBS_MIN_SEP_DEG = 1.0
GAUSS_MIN_LOS_SEP_DEG = 0.5
REFINE_MIN_RECORDS = 6
REFINE_MAX_ITER = 25
REFINE_MAX_HALVINGS = 4
# Stop when the Gauss-Newton step predicts at most this relative cost
# reduction: ||U^T r||^2 <= REFINE_PRED_TOL * ||r||^2.
REFINE_PRED_TOL = 1e-6

_ELEMENT_NAMES = ("a", "e", "i", "raan", "argp", "M")
# Difference steps for the reduced-model partials: km for a, radians or
# dimensionless for the rest.
_MODEL_STEPS = (1e-1, 1e-5, 1e-5, 1e-5, 1e-5, 1e-5)


class IodError(SdaError):
    pass


class IodGeometryError(IodError):
    """Observation geometry outside the method's validity region."""


class IodNoSolutionError(IodError):
    """No physically admissible orbit fits the observations."""


class IodConvergenceError(IodError):
    """Iterative range refinement failed to converge."""


class IodDivergenceError(IodError):
    """Differential correction cost increased repeatedly."""


class IodRankError(IodError):
    """Observations do not constrain every element; names the weak one."""

    def __init__(self, weak: str, detail: str):
        super().__init__(f"normal equations singular: {detail} (weakest direction: {weak})")
        self.weak = weak


@dataclass(frozen=True)
class IodSolution:
    """An orbit estimate plus the angular RMS it achieves on its inputs."""

    elements: KeplerianElements
    rms_residual: float    # rad
    method: str            # gibbs | gauss | refined
    n_obs: int

    def __post_init__(self):
        if self.rms_residual < 0.0 or not math.isfinite(self.rms_residual):
            raise ValueError("rms_residual must be finite and nonnegative")
        if self.method not in ("gibbs", "gauss", "refined"):
            raise ValueError(f"unknown method {self.method!r}")


def _two_body_rms(el: KeplerianElements, entries) -> float:
    """separation_rms of two-body states over (record, geometry) entries."""
    return separation_rms(entries, (kepler_to_state(el, rec.epoch)
                                    for rec, _ in entries))


def _sorted_triple(obs, site: GroundSite, mode: str) -> list:
    """The three records by epoch, each with its site geometry."""
    if len(obs) != 3:
        raise IodGeometryError(f"need exactly 3 observations, got {len(obs)}")
    return [(rec, site_geometry(site, rec.epoch, mode))
            for rec in sorted(obs, key=lambda r: r.epoch.t)]


def iod_gibbs(obs, site: GroundSite, mode: str = "AZEL") -> IodSolution:
    """Orbit from three range-bearing observations (Gibbs construction).

    Positions must be pairwise separated by at least 1 degree as seen from
    the geocenter and coplanar within 3 degrees; closely spaced arcs are
    the Herrick-Gibbs regime, which is out of scope here.
    """
    triple = _sorted_triple(obs, site, mode)
    for rec, _ in triple:
        if rec.range_km is None:
            raise IodGeometryError("Gibbs needs slant ranges on all three observations")

    r1, r2, r3 = (observed_position(rec, geometry) for rec, geometry in triple)
    o2 = triple[1][0]
    m1, m2, m3 = norm(r1), norm(r2), norm(r3)

    # Pairwise geocentric separation.
    for (va, vb) in ((r1, r2), (r2, r3), (r1, r3)):
        cosang = max(-1.0, min(1.0, dot(va, vb) / (norm(va) * norm(vb))))
        if math.degrees(math.acos(cosang)) < GIBBS_MIN_SEP_DEG:
            raise IodGeometryError(
                f"positions separated by less than {GIBBS_MIN_SEP_DEG} deg; "
                "use a Herrick-Gibbs style method for short arcs")

    # Coplanarity: r2 should lie in the plane of r1 x r3.
    n13 = unit(cross(r1, r3))
    alpha = abs(90.0 - math.degrees(math.acos(max(-1.0, min(1.0, dot(n13, unit(r2)))))))
    if alpha > GIBBS_COPLANARITY_DEG:
        raise IodGeometryError(f"observations non-coplanar by {alpha:.2f} deg")

    nv = tuple(m1 * c23 + m2 * c31 + m3 * c12 for c23, c31, c12
               in zip(cross(r2, r3), cross(r3, r1), cross(r1, r2)))
    dv = tuple(a + b + c for a, b, c in zip(cross(r1, r2), cross(r2, r3), cross(r3, r1)))
    sv = tuple(r1[k] * (m2 - m3) + r2[k] * (m3 - m1) + r3[k] * (m1 - m2) for k in range(3))
    nm, dm = norm(nv), norm(dv)
    if nm < 1e-9 or dm < 1e-9:
        raise IodGeometryError("degenerate Gibbs geometry (collinear positions)")
    coeff = math.sqrt(MU_EARTH / (nm * dm))
    b = cross(dv, r2)
    v2 = tuple(coeff * (b[k] / m2 + sv[k]) for k in range(3))

    try:
        el = state_to_kepler(StateVector(epoch=o2.epoch, r=r2, v=v2))
    except UnsupportedRegimeError as exc:
        raise IodNoSolutionError(f"Gibbs produced a non-elliptic state: {exc}") from exc
    return IodSolution(elements=el, rms_residual=_two_body_rms(el, triple),
                       method="gibbs", n_obs=3)


def _exact_fg(r2, v2, dt: float):
    """Exact two-body f and g for a time offset from the (r2, v2) state."""
    anchor = Epoch(0.0)
    el = state_to_kepler(StateVector(epoch=anchor, r=r2, v=v2))
    sv = kepler_to_state(el, Epoch(dt))
    h_vec = cross(r2, v2)
    h = norm(h_vec)
    h_hat = (h_vec[0] / h, h_vec[1] / h, h_vec[2] / h)
    f = dot(cross(sv.r, v2), h_hat) / h
    g = dot(cross(r2, sv.r), h_hat) / h
    return f, g


def iod_gauss(obs, site: GroundSite, mode: str = "AZEL") -> IodSolution:
    """Orbit from three angles-only observations (classical Gauss method).

    Builds the 8th-degree polynomial in the middle geocentric distance,
    keeps roots with altitude in [100, 100000] km, and polishes each with
    an exact f/g iteration on the slant ranges; if several roots survive,
    the one with the smallest angular RMS wins. Ranges on the input
    records, if any, are ignored.
    """
    triple = _sorted_triple(obs, site, mode)
    (o1, _), (o2, _), (o3, _) = triple
    t1, t2, t3 = o1.epoch.t, o2.epoch.t, o3.epoch.t
    for (ta, tb, names) in ((t1, t2, "1-2"), (t2, t3, "2-3"), (t1, t3, "1-3")):
        sep = tb - ta
        if not GAUSS_MIN_SEP_S <= sep <= GAUSS_MAX_SEP_S:
            raise IodGeometryError(
                f"epoch separation {names} of {sep:.1f} s outside "
                f"[{GAUSS_MIN_SEP_S:.0f}, {GAUSS_MAX_SEP_S:.0f}] s")

    los = [line_of_sight(rec, geometry) for rec, geometry in triple]
    for (ua, ub, names) in ((los[0], los[1], "1-2"), (los[1], los[2], "2-3"),
                            (los[0], los[2], "1-3")):
        ang = math.degrees(math.acos(max(-1.0, min(1.0, dot(ua, ub)))))
        if ang < GAUSS_MIN_LOS_SEP_DEG:
            raise IodGeometryError(
                f"lines of sight {names} separated by {ang:.3f} deg "
                f"(< {GAUSS_MIN_LOS_SEP_DEG} deg)")

    rsite = [geometry[0] for _, geometry in triple]
    tau1 = t1 - t2
    tau3 = t3 - t2
    tau = t3 - t1
    a1 = tau3 / tau
    a3 = -tau1 / tau
    a1u = tau3 * (tau * tau - tau3 * tau3) / (6.0 * tau)
    a3u = -tau1 * (tau * tau - tau1 * tau1) / (6.0 * tau)

    lmat = np.array(los).T                       # columns are LOS vectors
    rmat = np.array(rsite).T                     # columns are site vectors
    try:
        mmat = np.linalg.solve(lmat, rmat)
    except np.linalg.LinAlgError as exc:
        raise IodGeometryError(f"lines of sight are coplanar-degenerate: {exc}") from exc

    d1 = mmat[1, 0] * a1 - mmat[1, 1] + mmat[1, 2] * a3
    d2 = mmat[1, 0] * a1u + mmat[1, 2] * a3u
    cc = dot(los[1], rsite[1])
    r2s = dot(rsite[1], rsite[1])
    poly = [1.0, 0.0, -(d1 * d1 + 2.0 * cc * d1 + r2s), 0.0, 0.0,
            -2.0 * MU_EARTH * (cc * d2 + d1 * d2), 0.0, 0.0,
            -(MU_EARTH ** 2) * d2 * d2]
    roots = np.roots(poly)
    admissible = sorted(
        float(r.real) for r in roots
        if abs(r.imag) < 1e-6 * max(1.0, abs(r.real))
        and MIN_ALTITUDE_KM <= r.real - R_EARTH <= MAX_ALTITUDE_KM)
    if not admissible:
        raise IodNoSolutionError(
            "no admissible root of the range polynomial (all candidates outside "
            f"altitude [{MIN_ALTITUDE_KM:.0f}, {MAX_ALTITUDE_KM:.0f}] km)")

    def solve_for_root(r2m: float):
        u = MU_EARTH / r2m ** 3
        c1 = a1 + a1u * u
        c3 = a3 + a3u * u
        cvec = np.array([c1, -1.0, c3])
        rhs = -mmat @ cvec
        rho = np.array([rhs[0] / c1, -rhs[1], rhs[2] / c3])
        rvecs = [tuple(rsite[i][k] + rho_i * los[i][k] for k in range(3))
                 for i, rho_i in enumerate(rho.tolist())]
        # Series f/g seed, then exact f/g until the slant ranges settle.
        # Tolerance is relative to the slant-range scale; the exact f/g
        # evaluation has a ~1e-12 relative noise floor of its own.
        f1 = 1.0 - 0.5 * u * tau1 * tau1
        f3 = 1.0 - 0.5 * u * tau3 * tau3
        g1 = tau1 - u * tau1 ** 3 / 6.0
        g3 = tau3 - u * tau3 ** 3 / 6.0
        prev_delta = math.inf
        stalled = 0
        for _ in range(GAUSS_MAX_ITER):
            den = f1 * g3 - f3 * g1
            if abs(den) < 1e-14:
                raise IodConvergenceError("f/g system became singular")
            v2 = tuple((-f3 * rvecs[0][k] + f1 * rvecs[2][k]) / den for k in range(3))
            f1, g1 = _exact_fg(rvecs[1], v2, tau1)
            f3, g3 = _exact_fg(rvecs[1], v2, tau3)
            den = f1 * g3 - f3 * g1
            c1 = g3 / den
            c3 = -g1 / den
            cvec = np.array([c1, -1.0, c3])
            rhs = -mmat @ cvec
            rho_new = np.array([rhs[0] / c1, -rhs[1], rhs[2] / c3])
            rvecs = [tuple(rsite[i][k] + rho_i * los[i][k] for k in range(3))
                     for i, rho_i in enumerate(rho_new.tolist())]
            delta = float(np.max(np.abs(rho_new - rho)))
            rho = rho_new
            if delta < GAUSS_RHO_TOL_KM * max(1.0, float(np.max(np.abs(rho)))):
                break
            stalled = stalled + 1 if delta >= prev_delta else 0
            if stalled >= 3 and delta < 1e-6:
                break    # oscillating at the f/g noise floor
            prev_delta = delta
        else:
            raise IodConvergenceError(
                f"slant ranges did not settle in {GAUSS_MAX_ITER} iterations")
        den = f1 * g3 - f3 * g1
        v2 = tuple((-f3 * rvecs[0][k] + f1 * rvecs[2][k]) / den for k in range(3))
        return state_to_kepler(StateVector(epoch=o2.epoch, r=rvecs[1], v=v2))

    best = None
    failures = []
    for r2m in admissible:
        try:
            el = solve_for_root(r2m)
        except (IodError, UnsupportedRegimeError, KeplerConvergenceError) as exc:
            failures.append(f"root {r2m:.1f} km: {exc}")
            continue
        rms = _two_body_rms(el, triple)
        if best is None or rms < best[0]:
            best = (rms, el)
    if best is None:
        raise IodNoSolutionError("every admissible root failed: " + "; ".join(failures))
    return IodSolution(elements=best[1], rms_residual=best[0], method="gauss", n_obs=3)


def iod_from_tdm(tdm: Tdm, site: GroundSite) -> IodSolution:
    """Run the appropriate IOD on a message: Gibbs with ranges, else Gauss.

    Uses the first, middle, and last records of the message.
    """
    recs = tdm.records
    triple = (recs[0], recs[len(recs) // 2], recs[-1])
    if tdm.meta.has_range:
        return iod_gibbs(triple, site, tdm.meta.mode)
    return iod_gauss(triple, site, tdm.meta.mode)


def _collect_records(tdms: list, sites: dict):
    entries = []
    for tdm in tdms:
        site = sites.get(tdm.meta.site_id)
        if site is None:
            raise IodError(f"unknown site {tdm.meta.site_id!r}")
        for rec in tdm.records:
            entries.append((rec, site, tdm.meta.mode))
    return entries


def _make_elements(x, epoch: Epoch) -> KeplerianElements:
    """Elements of the fit vector x, as Python floats, as decoded ones are."""
    return KeplerianElements(*map(float, x), epoch=epoch)


def _fit_records(entries) -> tuple:
    """What every residual evaluation of one fit reuses, packed once:
    (times, fields), array('d')s of each record's epoch and of its
    astro._FIT_FIELDS (its angles, the cosine of its second angle, its
    range and its site geometry)."""
    times, fields = array("d"), array("d")
    for rec, site, mode in entries:
        times.append(rec.epoch.t)
        fields.extend(_fit_record(rec.angle1, rec.angle2, rec.range_km,
                                  site_geometry(site, rec.epoch, mode)))
    return times, fields


def _residuals(records, positions) -> np.ndarray:
    """Observed minus predicted, from one predicted ECI position per record.

    Angle terms first (2 per record), then one relative range term per
    ranged record; the reported RMS uses only the angle block.
    """
    p = array("d")
    for r in positions:
        p.extend(r)
    return np.array(_fit_residuals(records[1], p))


def _model_jacobian(x, epoch: Epoch, records, n_terms: int,
                    j2: float) -> np.ndarray:
    """d(predicted)/dx of the reduced model at the record epochs.

    Central differences at _MODEL_STEPS, one-sided where one side leaves
    the element domain (e or i past a bound) or its Kepler solve does not
    converge. The model is smooth and free of integration noise, so these
    steps keep the partials' rounding far below the rank threshold (steps
    of 1e-7 on the equatorial rank test raised the singular-value ratio
    from about 1e-12 to 1.7e-10, above it). All 12 passes (13 with the
    base point of a one-sided column) are one call of astro's fit kernel,
    in C where astro.NATIVE_LIBRARY is loaded.
    """
    jac, failed = _fit_jacobian([float(v) for v in x], _MODEL_STEPS,
                                epoch.t, j2, *records)
    if jac is None:
        raise IodError(
            f"cannot differentiate with respect to {_ELEMENT_NAMES[failed]}")
    return np.frombuffer(jac).reshape(n_terms, 6)


def refine_elements(initial: KeplerianElements, tdms: list, sites: dict, *,
                    j2: float = J2_EARTH) -> IodSolution:
    """Gauss-Newton differential correction of elements against messages.

    Minimizes summed squared residuals over (a, e, i, raan, argp, M).
    Residuals are the wrapped angle differences, plus one relative range
    term per record that carries a range (this is what pins the
    semi-major axis on short arcs, where angles alone leave it nearly
    unobservable), all evaluated on the reference propagator without
    drag. The Jacobian comes from a reduced model instead: two-body
    motion plus the J2 secular rates, in closed form at each record
    epoch (_model_jacobian), so an iteration integrates the arc only for
    its line-search trials. Partials may come from a simpler force model
    than the residuals (Montenbruck & Gill, "Satellite Orbits", 2000,
    ch. 7); the fit still converges to the reference-propagator
    minimum. Each record's fields, site position and ENU basis are packed
    once per fit (_fit_records), and the trial residuals and the Jacobian
    both reuse them. With astro's C kernels loaded, each Jacobian is one
    C call for all its passes, and each trial's residuals one more, after
    its propagation; without them the same template runs as Python.

    Each iteration first tests convergence on the SVD it already has:
    with J = U S V^T, the full step's linear model lowers the cost
    ||r||^2 by ||U^T r||^2, and the fit stops, before any trial, when
    that is at most REFINE_PRED_TOL (1e-6) of the cost (Dennis &
    Schnabel 1983, section 7.2; Nocedal & Wright 2006, section 10.3). A
    start that is already converged is returned after one integration.
    Otherwise candidate steps are halved until the cost decreases
    (REFINE_MAX_HALVINGS, 4, halvings max), so the returned RMS never
    exceeds the initial RMS. A fully rejected iteration before any
    progress raises a divergence error; after progress it means the
    numerical floor was reached. A singular normal system raises a rank
    error naming the weakest element direction. The reported
    rms_residual is always angular-only.
    """
    entries = _collect_records(tdms, sites)
    n = len(entries)
    if n < REFINE_MIN_RECORDS:
        raise IodError(f"need at least {REFINE_MIN_RECORDS} records, got {n}")

    n_terms = 2 * n + sum(1 for rec, _, _ in entries if rec.range_km is not None)
    epochs = [rec.epoch for rec, _, _ in entries]
    records = _fit_records(entries)

    def try_cost(x):
        # Every trial x is a new elements instance used once, so its grid
        # dies with it.
        try:
            states = propagate_many(_make_elements(x, initial.epoch), 0.0,
                                    epochs, j2=j2)
            r = _residuals(records, (sv.r for sv in states))
        except (ValueError, DecayError, KeplerConvergenceError, UnsupportedRegimeError):
            return None, math.inf
        return r, float(r @ r)

    x = np.array([initial.a, initial.e, initial.i, initial.raan, initial.argp, initial.M])
    res, cost = try_cost(x)
    if res is None:
        raise IodError("initial elements cannot be evaluated against the records")

    # Monotone acceptance means the cost can only fall; "divergence" is the
    # inability to find any descent step before progress has been made
    # (initial guess outside the convergence basin). Once progress exists,
    # a fully rejected iteration signals the numerical floor: converged.
    progressed = False
    for _ in range(REFINE_MAX_ITER):
        jac = _model_jacobian(x, initial.epoch, records, n_terms, j2)
        u_svd, sig, vh = np.linalg.svd(jac, full_matrices=False)
        if sig[0] <= 0.0 or sig[-1] / sig[0] < 1e-10:
            weak = _ELEMENT_NAMES[int(np.argmax(np.abs(vh[-1])))]
            raise IodRankError(weak, f"singular values {sig[0]:.3e} .. {sig[-1]:.3e}")
        u_res = u_svd.T @ res
        # The full step's linear model lowers the cost by ||U^T r||^2.
        if float(u_res @ u_res) <= REFINE_PRED_TOL * cost:
            break
        step = vh.T @ (u_res / sig)

        accepted = False
        scale = 1.0
        for _ in range(REFINE_MAX_HALVINGS + 1):
            cand = x + scale * step
            rc, cand_cost = try_cost(cand)
            if cand_cost < cost:
                x, res, cost = cand, rc, cand_cost
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            if progressed:
                break
            raise IodDivergenceError(
                "no descent step from the initial elements after "
                f"{REFINE_MAX_HALVINGS} halvings (guess outside convergence basin)")
        progressed = True

    ang_cost = float(res[:2 * n] @ res[:2 * n]) if n_terms > 2 * n else cost
    return IodSolution(elements=_make_elements(x, initial.epoch),
                       rms_residual=math.sqrt(ang_cost / n),
                       method="refined", n_obs=n)
