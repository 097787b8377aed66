"""Physical-variable radial aggregation-diffusion solver and blowup-rate fits.

Solves the radial form of

    d rho/dt = div( grad rho + rho grad invLap rho ) - mu rho^2,

i.e. ``(1/r^2) d_r [ r^2 ( d_r rho + rho u ) ] - mu rho^2`` with the partial-
mass drift ``u(r) = r^{-2} \\int_0^r rho s^2 ds``, using a finite-volume flux
form (mass-conservative up to the damping sink) over the exact shell volumes of
``radial.flux_laplacian``, with a minmod-limited face reconstruction, on a
sinh-graded grid (``radial.sinh_grid``) whose spacing is finest at the origin,
where the blowup concentrates.  The mass inside each face is the running FV
mass sum, the quantity the scheme conserves.  Time steps are IMEX ARS(2,2,2):
diffusion implicit, transport and damping explicit.  Blowup runs
start from a rescaled, cut-off copy of the self-similar profile and fit the
amplitude and length-scale exponents against the estimated blowup time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    IllConditionedFit,
    NoBlowupDetected,
    NonFiniteField,
    SnapshotMismatch,
)
from .profile import RadialProfile
from .radial import (
    DELTA,
    SINH_STRETCH,
    SymmetricTridiagonal,
    ars222_step,
    chi_bump,
    flux_laplacian,
    l2_norm,
    sinh_grid,
)


@dataclass(frozen=True)
class PhysState:
    """Initial data of the physical solver on a sinh-graded grid [0, R_phys]."""

    grid: np.ndarray
    rho: np.ndarray


def _fv_mass(rho: np.ndarray, vol: np.ndarray) -> float:
    """Discretely conserved mass ``4 pi sum_i vol_i rho_i`` over the FV cell volumes ``vol``.

    The transport flux form and the FV Laplacian both telescope to the (zero)
    exterior flux over these volumes, so this sum is conserved to roundoff.
    """
    return float(4.0 * math.pi * np.dot(vol, rho))


#: records lie on the time lattice t = k * _RECORD_SPACING * h^2, h the origin spacing
_RECORD_SPACING = 2.5


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``minmod(a, b)`` as ``max(min(a, b), 0) + min(max(a, b), 0)``, of which at most one
    term is nonzero."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, 0.0, out=hi)
    lo += hi
    return lo


def _phys_rhs(rho: np.ndarray, vol: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Transport and damping, the explicit part of the operator, over the FV cell
    volumes ``vol``; the inward drift is upwinded from the outer cell.

    Returns the operator and the face masses it used: the FV mass inside each face,
    ``sum_{k<=i} vol_k rho_k`` at face ``i+1/2``, the running sum of ``_fv_mass``.
    """
    # drift velocity u = m / r^2 >= 0 at faces (the advective flux is -rho*u, inward)
    m_face = vol[:-1] * rho[:-1]
    m_face.cumsum(out=m_face)

    # limited upwind reconstruction from the outer cell (flow direction -r); the
    # outermost face has no outer slope, so it takes the outer cell's value
    d = rho[1:] - rho[:-1]
    slope = _minmod(d[:-1], d[1:])
    slope *= 0.5
    F = d  # the face values, then the fluxes, overwrite the differences
    np.subtract(rho[1:-1], slope, out=F[:-1])
    F[-1] = rho[-1]

    # r_f^2 rho_f u_f = rho_f m_f; the divergence over the cell volumes
    # telescopes, so transport conserves the discrete mass sum exactly.  The
    # origin ball's surface-to-volume factor agrees with the pointwise limit
    # div(rho u) -> rho(0)^2 to O(h^2); the outer cell has no exterior flux.
    F *= m_face
    out = np.empty_like(rho)
    out[0] = F[0]
    np.subtract(F[1:], F[:-1], out=out[1:-1])
    out[-1] = -F[-1]
    out /= vol
    if mu:  # at mu = 0 the damping is +0, and out - (+0) is out
        damping = mu * rho
        damping *= rho
        out -= damping
    return out, m_face


def _imex_step(
    rho: np.ndarray, k0: np.ndarray, lap: SymmetricTridiagonal, mu: float, dt: float
) -> tuple[np.ndarray, float]:
    """One ARS(2,2,2) step: diffusion implicit, transport and damping explicit.

    ``k0`` is ``_phys_rhs(rho)`` and ``lap`` the FV Laplacian, whose weights are the
    cell volumes.  Returns the new density and the mass the damping removed, which
    is the explicit weights applied to ``-mu rho^2`` on the FV volumes, so the
    discrete mass identity holds to round-off.
    """
    vol = lap.weight
    new, u1 = ars222_step(rho, k0, lambda v: _phys_rhs(v, vol, mu)[0], lap, 1.0, dt)
    if not mu:
        return new, 0.0
    sink = -mu * 4.0 * math.pi * dt * float(
        np.dot(vol, DELTA * rho * rho + (1.0 - DELTA) * u1 * u1)
    )
    return new, sink


def _stable_dt(m_face: np.ndarray, sup: float, vol: np.ndarray, mu: float) -> tuple[float, str]:
    """CFL number 0.25 on the smaller of the advective bound ``min vol/m`` and the reaction
    bound ``0.5/((1-mu) sup)``, and its name (``"advective"`` on a tie).  ``m_face`` are the
    face masses of ``_phys_rhs``; the flux through each face empties its outer (upwind)
    cell at the rate ``m_face/vol``."""
    advective = 1.0 / (float((m_face / vol[1:]).max()) + 1e-300)
    reaction = 0.5 / ((1.0 - mu) * sup + 1e-300)
    if advective <= reaction:
        return 0.25 * advective, "advective"
    return 0.25 * reaction, "reaction"


def build_initial(profile: RadialProfile, lam0: float, n: int = 8192) -> PhysState:
    """Rescaled cut-off profile data ``rho0 = lam0^{-2} (chi_R2 Q)(r / lam0^{2 beta})``.

    ``R2`` is the radius where Q drops below 1e-4 of its center value; the
    domain extends to ``1.1 * 2 R2`` in self-similar units.  The grid is
    ``sinh_grid`` of resolution ``n`` with stretch scale ``3 lam0^{2 beta}``: the
    origin spacing of ``linspace`` with ``n`` nodes, on 1044 nodes at n=8192 and
    mu=0.  DomainError for a negative ``lam0``, when ``lam0^2``, ``lam0^{2 beta}`` or the
    peak ``Q0/lam0^2`` leaves float64 (0 or not finite), or when Q never drops below 1e-4 Q0.
    """
    if lam0 < 0.0:
        raise DomainError(f"lam0 = {lam0:.6g} is negative")
    beta = profile.params.beta
    try:
        amp, L = lam0**2, lam0 ** (2.0 * beta)
    except OverflowError as exc:
        raise DomainError(f"lam0 = {lam0:.6g}: lam0^2 overflows float64") from exc
    if not (0.0 < amp < math.inf and 0.0 < L < math.inf):
        raise DomainError(
            f"lam0 = {lam0:.6g}: lam0^2 = {amp:.3g} or lam0^(2 beta) = {L:.3g} "
            "underflows to 0 or is not finite in float64"
        )
    q0 = profile.params.q0
    if not q0 / amp < math.inf:
        raise DomainError(f"lam0 = {lam0:.6g}: the initial peak Q0/lam0^2 overflows float64")
    idx = np.searchsorted(-profile.q_vals, -1e-4 * q0)
    if idx == len(profile.grid):
        raise DomainError(f"profile does not decay below 1e-4 Q0 by r = {profile.r_max:.6g}")
    R2 = float(profile.grid[idx])
    R_phys = 1.1 * 2.0 * R2 * L
    grid = sinh_grid(R_phys, n, SINH_STRETCH * L)
    y = np.minimum(grid / L, profile.r_max)
    cut = chi_bump(y / R2)
    rho = profile.q(y) * cut / amp
    return PhysState(grid=grid, rho=rho)


def _half_max_radius(rho: np.ndarray, grid: np.ndarray) -> float:
    sup = rho[0]
    below = rho < 0.5 * sup
    k = below.argmax()  # the first node below half of rho(0), or 0 when there is none
    if not below[k]:
        return float(grid[-1])
    # linear interpolation between the straddling nodes
    r0, r1 = grid[k - 1], grid[k]
    v0, v1 = rho[k - 1], rho[k]
    return float(r0 + (0.5 * sup - v0) * (r1 - r0) / (v1 - v0))


def _loglog_fit(x: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ``log v`` against ``x``, and the fit's R^2."""
    y = np.log(v)
    slope, icpt = np.polyfit(x, y, 1)
    r2 = 1.0 - np.sum((y - (slope * x + icpt)) ** 2) / np.sum((y - y.mean()) ** 2)
    return float(slope), float(r2)


@dataclass(frozen=True)
class BlowupFit:
    """Blowup-time estimate, fitted scaling exponents, the mass change over the run:
    ``(M_end - M_0)/M_0``, and that less the accumulated damping sink over ``M_0``,
    and why the run stopped: ``"threshold"`` when the sup-norm reached 1e4 times its
    initial value, ``"resolution"`` when the half-maximum radius fell under 8 origin
    cells."""

    T_est: float
    p_amp: float
    p_len: float
    fit_window: tuple[float, float]
    r2_amp: float
    r2_len: float
    mass_change_rel: float
    mass_identity_err: float
    stop_reason: str


def run_phys(
    profile: RadialProfile,
    lam0: float,
    mu: float | None = None,
    n: int = 8192,
    max_steps: int = 2_000_000,
) -> tuple[dict, BlowupFit]:
    """Integrate to the stopping threshold and fit the blowup exponents.

    ARS(2,2,2) steps (``_imex_step``) treat diffusion implicitly, so each step is
    the advective bound ``min vol/m`` on the face masses or the reaction bound, at
    CFL number 0.25 (``_stable_dt``).  Records lie on the time lattice
    ``t = k * 2.5 h^2``, ``h`` the origin spacing of the grid ``build_initial`` makes
    at resolution ``n``: each lattice time a step passes is recorded from the state
    interpolated linearly between the step's two ends, with that step's ``dt``, so the
    FV mass of a record is that of its two ends interpolated too.  The run stops when
    the sup-norm of a stepped state reaches 1e4 times its initial value or its
    half-maximum radius falls under 8 origin cells.  The final state is recorded
    once: off the lattice it is appended with the last step's ``dt``.
    NoBlowupDetected is raised, with ``stop`` naming the stop, when the sup-norm
    halves (``"decay"``), past ``t = 20 lam0^2`` without tenfold growth
    (``"no_growth"``), when the step budget runs out (``"budget"``), and when the
    resolution stop comes before tenfold growth (``"resolution"``); IllConditionedFit
    when fewer than 10 records lie in the fit window.  ``mu`` defaults to the
    profile's own damping; passing a different value probes off-profile data (e.g.
    the global-existence regime, where the sup-norm decays).
    Returns the recorded time series, with the step count as ``steps``, as
    ``dt_limits`` the steps whose ``_stable_dt`` bound was advective or reaction
    (these sum to ``steps``), as ``dt_range`` the least and largest step in units of
    ``h^2``, and the fit.  The series' ``fit_report`` says what the fit rests on: the
    window's span in decades of ``T_est - t``, the sup-norm growth and half-maximum
    radius shrink over it, the records and how many of them lie past ``T_est``, and
    the first and last local blowup-time estimates ``t + (1/sup)/s``.
    """
    if mu is None:
        mu = profile.params.mu
    state = build_initial(profile, lam0, n=n)
    grid, rho = state.grid, state.rho
    h = grid[1] - grid[0]
    lap = flux_laplacian(grid)
    vol = lap.weight
    t = 0.0
    t_rec = _RECORD_SPACING * h * h
    k_rec = 1  # the next lattice time is k_rec * t_rec
    sup0 = sup = float(rho.max())
    hm = _half_max_radius(rho, grid)
    # (t, sup_norm, mass, half_max_radius, dt) of each recorded state, the initial one first
    records = [(t, sup, _fv_mass(rho, vol), hm, 0.0)]
    sink_accum = 0.0
    dt_limits = {"advective": 0, "reaction": 0}
    dt_min, dt_max = math.inf, 0.0
    for steps in range(max_steps):
        if sup >= 1.0e4 * sup0:
            stop_reason = "threshold"
            break
        if hm < 8.0 * h:
            stop_reason = "resolution"
            break
        # nominal blowup time is ~lam0^2; well past it with no growth means
        # diffusion/damping won (the global-existence regime)
        if sup < 0.5 * sup0 or (t > 20.0 * lam0**2 and sup < 10.0 * sup0):
            raise NoBlowupDetected(
                f"sup-norm at {sup / sup0:.3g}x initial after t = {t:.3g}",
                stop="decay" if sup < 0.5 * sup0 else "no_growth",
            )
        k0, m_face = _phys_rhs(rho, vol, mu)
        dt, limit = _stable_dt(m_face, sup, vol, mu)
        dt_limits[limit] += 1
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        new, sink = _imex_step(rho, k0, lap, mu, dt)
        if not np.isfinite(new).all():
            raise NonFiniteField("non-finite density")
        # discrete mass identity, accumulated: mass(t) - mass(0) = sum of sinks
        sink_accum += sink
        # each lattice time in (t, t + dt] is recorded from the state interpolated linearly
        # between the step's two ends
        while (t_k := k_rec * t_rec) <= t + dt:
            u = rho + (t_k - t) / dt * (new - rho)
            records.append((t_k, float(u.max()), _fv_mass(u, vol), _half_max_radius(u, grid), dt))
            k_rec += 1
        rho, t = new, t + dt
        sup, hm = float(rho.max()), _half_max_radius(rho, grid)
    else:
        raise NoBlowupDetected(f"step budget exhausted; sup grew {sup / sup0:.3g}x",
                               stop="budget")
    if records[-1][0] != t:
        records.append((t, sup, _fv_mass(rho, vol), hm, dt))
    if sup < 10.0 * sup0:
        raise NoBlowupDetected(
            f"half-max radius under 8 origin cells at {sup / sup0:.3g}x growth; "
            "the fit needs 10x",
            stop="resolution",
        )
    ts, sups, masses, hms, dts = map(np.array, zip(*records))

    # Local Type-I slope s(t) = -d(1/sup)/dt is constant on the self-similar
    # window; the late stretch bends as truncated-tail corrections advect in.
    # Fit T and the exponents on the window where s stays within 5% of its
    # early reference value (the criterion's "resolved window").
    inv = 1.0 / sups
    sl = -(inv[2:] - inv[:-2]) / (ts[2:] - ts[:-2])  # slope at samples 1..n-2
    k0 = max(1, len(ts) // 10)
    s_ref = float(np.median(sl[k0 - 1 : k0 - 1 + max(5, len(sl) // 4)]))
    good = np.abs(sl / s_ref - 1.0) < 0.05
    hi = k0 - 1
    while hi < len(sl) and good[hi]:
        hi += 1
    win, kept = slice(k0, hi + 1), hi + 1 - k0
    if kept < 10:
        raise IllConditionedFit(f"{kept} records pass the 5% window test; the fit needs 10")
    T_loc = ts[1:-1] + inv[1:-1] / sl
    T_est = float(np.median(T_loc[k0 - 1 : hi]))
    if T_est <= ts[hi]:
        T_est = float(ts[hi] * (1.0 + 1e-6))

    x = np.log(T_est - ts[win])
    p_amp, r2_amp = _loglog_fit(x, sups[win])
    p_len, r2_len = _loglog_fit(x, hms[win])

    fit = BlowupFit(
        T_est=T_est,
        p_amp=p_amp,
        p_len=p_len,
        fit_window=(float(ts[k0]), float(ts[hi])),
        r2_amp=r2_amp,
        r2_len=r2_len,
        mass_change_rel=float((masses[-1] - masses[0]) / masses[0]),
        mass_identity_err=float(abs((masses[-1] - masses[0]) - sink_accum) / masses[0]),
        stop_reason=stop_reason,
    )
    fit_report = {
        "window_decades": float(np.log10((T_est - ts[k0]) / (T_est - ts[hi]))),
        "sup_ratio": float(sups[hi] / sups[k0]),
        "radius_ratio": float(hms[k0] / hms[hi]),
        "records": len(ts),
        "records_past_T_est": int(np.count_nonzero(ts > T_est)),
        "T_local_first": float(T_loc[0]),
        "T_local_last": float(T_loc[-1]),
    }
    series = {"t": ts, "sup_norm": sups, "mass": masses, "half_max_radius": hms,
              "dt": dts, "grid": grid, "steps": steps, "dt_limits": dt_limits,
              "dt_range": [float(dt_min / (h * h)), float(dt_max / (h * h))],
              "fit_report": fit_report}
    return series, fit


def pde_residual(
    snap_a: tuple[float, np.ndarray, np.ndarray],
    snap_b: tuple[float, np.ndarray, np.ndarray],
    mu: float,
) -> float:
    """Discrete L2 residual of the PDE between two snapshots (t, grid, rho).

    Midpoint-in-time: ``(rho_b - rho_a)/dt - RHS((rho_a+rho_b)/2)``, where
    RHS is the full operator: transport and damping plus the FV Laplacian.
    """
    ta, ga, ra = snap_a
    tb, gb, rb = snap_b
    if ga.shape != gb.shape or not np.allclose(ga, gb) or tb <= ta:
        raise SnapshotMismatch("snapshots not on a shared grid with tb > ta")
    mid = 0.5 * (ra + rb)
    lap = flux_laplacian(ga)
    op = _phys_rhs(mid, lap.weight, mu)[0] + lap.apply(mid)
    return l2_norm((rb - ra) / (tb - ta) - op, ga)
