"""Physical-variable radial aggregation-diffusion solver and blowup-rate fits.

Solves the radial form of

    d rho/dt = div( grad rho + rho grad invLap rho ) - mu rho^2,

i.e. ``(1/r^2) d_r [ r^2 ( d_r rho + rho u ) ] - mu rho^2`` with the partial-
mass drift ``u(r) = r^{-2} \\int_0^r rho s^2 ds``, using a finite-volume flux
form (mass-conservative up to the damping sink) with a minmod-limited face
reconstruction, on a sinh-graded grid (``radial.sinh_grid``) whose spacing is
finest at the origin, where the blowup concentrates.  Time steps are IMEX
ARS(2,2,2): diffusion implicit, transport and damping explicit.  Blowup runs
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
    cumulative_simpson_uniform,
    l2_norm,
    sinh_grid,
)


@dataclass(frozen=True)
class PhysState:
    """One time slice of the physical solver on a sinh-graded grid [0, R_phys]."""

    t: float
    grid: np.ndarray
    rho: np.ndarray
    mass: float
    sup_norm: float


def _cell_volumes(grid: np.ndarray) -> np.ndarray:
    """The FV cell volumes over 4 pi: ``r_i^2 D_i`` for i >= 1, and ``r_1^3/24`` at the origin.

    The faces sit midway between nodes.  ``D_i`` is the cell's width from face to face,
    ``(r_{i+1} - r_{i-1})/2``, and the last cell is symmetric about its node, ``D =
    r_{N-1} - r_{N-2}``; on the sinh grid ``D_i = r_1 J_i``.  The origin cell is the ball
    inside the first face, r < r_1/2.
    """
    vol = np.gradient(grid)
    vol *= grid * grid
    vol[0] = grid[1] ** 3 / 24.0
    return vol


def _fv_mass(rho: np.ndarray, grid: np.ndarray) -> float:
    """Discretely conserved mass ``4 pi sum_i vol_i rho_i`` over ``_cell_volumes``.

    The transport flux form and the FV Laplacian both telescope to the (zero)
    exterior flux over these volumes, so this sum is conserved to roundoff.
    """
    return float(4.0 * math.pi * np.dot(_cell_volumes(grid), rho))


#: records lie on the time lattice t = k * _RECORD_SPACING * h^2, h the origin spacing
_RECORD_SPACING = 2.5


@dataclass(frozen=True, eq=False)
class _PhysGrid:
    """The grid-only arrays of one run, built once, for any increasing grid from 0.

    ``h`` is the origin spacing ``r_1``.  ``vol`` holds the cell volumes over 4 pi,
    the weights of ``_fv_mass`` (``_cell_volumes``); ``r2d`` is ``r^2 D``, ``vol``
    with a 0 at the origin: the partial mass is integrated in the node index i, and
    ``dm/di = rho r^2 D``.  ``lap`` is the
    finite-volume Laplacian ``vol^{-1} K``: ``K`` sums the diffusive face fluxes
    ``r_f^2 (rho_{i+1} - rho_i) / (r_{i+1} - r_i)``, with no flux through the origin
    or past the outer face, so it is symmetric with zero row sums, and its implicit
    solves are positive definite.
    """

    grid: np.ndarray
    h: float
    r2d: np.ndarray
    vol: np.ndarray
    lap: SymmetricTridiagonal

    @classmethod
    def make(cls, grid: np.ndarray) -> "_PhysGrid":
        vol = _cell_volumes(grid)
        r2d = vol.copy()
        r2d[0] = 0.0
        r_face = grid[:-1] + grid[1:]
        r_face *= 0.5
        c = r_face * r_face / np.diff(grid)
        diag = np.zeros_like(grid)
        diag[:-1] -= c
        diag[1:] -= c
        return cls(grid, grid[1] - grid[0], r2d, vol, SymmetricTridiagonal(c, diag, vol))


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``minmod(a, b)`` as ``max(min(a, b), 0) + min(max(a, b), 0)``, of which at most one
    term is nonzero."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, 0.0, out=hi)
    lo += hi
    return lo


def _phys_rhs(rho: np.ndarray, pg: _PhysGrid, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Transport and damping, the explicit part of the operator; the inward
    drift is upwinded from the outer cell.

    Returns the operator and the partial mass ``\\int_0^r rho s^2 ds`` it used.
    """
    # drift velocity u = m / r^2 >= 0 at faces (the advective flux is -rho*u, inward);
    # m is integrated in the node index i, where dm/di = rho r^2 D
    g = rho * pg.r2d
    m = cumulative_simpson_uniform(g, 1.0)
    # face mass to cubic accuracy: midpoint = average - (1/8) d^2m/di^2 with dm/di = g
    m_face = m[:-1] + m[1:]
    m_face *= 0.5
    dg = g[1:] - g[:-1]
    dg *= 0.125
    m_face -= dg

    # limited upwind reconstruction from the outer cell (flow direction -r); the
    # outermost face has no outer slope, so it takes the outer cell's value
    d = rho[1:] - rho[:-1]
    slope = _minmod(d[:-1], d[1:])
    slope *= 0.5
    rho_face = np.empty_like(d)
    np.subtract(rho[1:-1], slope, out=rho_face[:-1])
    rho_face[-1] = rho[-1]

    # r_f^2 rho_f u_f = rho_f m_f; the divergence over the cell volumes
    # telescopes, so transport conserves the discrete mass sum exactly.  The
    # origin ball's surface-to-volume factor agrees with the pointwise limit
    # div(rho u) -> rho(0)^2 to O(h^2); the outer cell has no exterior flux.
    F = rho_face * m_face
    out = np.empty_like(rho)
    out[0] = F[0]
    np.subtract(F[1:], F[:-1], out=out[1:-1])
    out[-1] = -F[-1]
    out /= pg.vol
    if mu:  # at mu = 0 the damping is +0, and out - (+0) is out
        damping = mu * rho
        damping *= rho
        out -= damping
    return out, m


def _imex_step(
    rho: np.ndarray, k0: np.ndarray, pg: _PhysGrid, mu: float, dt: float
) -> tuple[np.ndarray, float]:
    """One ARS(2,2,2) step: diffusion implicit, transport and damping explicit.

    ``k0`` is ``_phys_rhs(rho)``.  Returns the new density and the mass the
    damping removed, which is the explicit weights applied to ``-mu rho^2`` on
    the FV volumes, so the discrete mass identity holds to round-off.
    """
    new, u1 = ars222_step(rho, k0, lambda v: _phys_rhs(v, pg, mu)[0], pg.lap, 1.0, dt)
    if not mu:
        return new, 0.0
    sink = -mu * 4.0 * math.pi * dt * float(
        np.dot(pg.vol, DELTA * rho * rho + (1.0 - DELTA) * u1 * u1)
    )
    return new, sink


def _stable_dt(m: np.ndarray, sup: float, pg: _PhysGrid, mu: float) -> float:
    """CFL number 0.25 on the advective bound ``min D/u`` over the nodes and the
    reaction bound ``0.5/((1-mu) sup)``; ``m`` is the partial mass of ``_phys_rhs``."""
    rate = float(np.max(m[1:] / pg.r2d[1:])) + 1e-300
    return 0.25 * min(1.0 / rate, 0.5 / ((1.0 - mu) * sup + 1e-300))


def build_initial(profile: RadialProfile, lam0: float, n: int = 8192) -> PhysState:
    """Rescaled cut-off profile data ``rho0 = lam0^{-2} (chi_R2 Q)(r / lam0^{2 beta})``.

    ``R2`` is the radius where Q drops below 1e-4 of its center value; the
    domain extends to ``1.1 * 2 R2`` in self-similar units.  The grid is
    ``sinh_grid`` of resolution ``n`` with stretch scale ``3 lam0^{2 beta}``: the
    origin spacing of ``linspace`` with ``n`` nodes, on 1044 nodes at n=8192 and
    mu=0.  DomainError when ``lam0^2`` or ``lam0^{2 beta}`` underflows to 0
    or overflows in float64, or when Q never drops below 1e-4 Q0.
    """
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
    idx = np.searchsorted(-profile.q_vals, -1e-4 * q0)
    if idx == len(profile.grid):
        raise DomainError(f"profile does not decay below 1e-4 Q0 by r = {profile.r_max:.6g}")
    R2 = float(profile.grid[idx])
    R_phys = 1.1 * 2.0 * R2 * L
    grid = sinh_grid(R_phys, n, SINH_STRETCH * L)
    y = np.minimum(grid / L, profile.r_max)
    cut = chi_bump(y / R2)
    rho = profile.q(y) * cut / amp
    return PhysState(
        t=0.0, grid=grid, rho=rho, mass=_fv_mass(rho, grid), sup_norm=float(np.max(rho))
    )


def _half_max_radius(rho: np.ndarray, grid: np.ndarray) -> float:
    sup = rho[0]
    below = np.nonzero(rho < 0.5 * sup)[0]
    if len(below) == 0:
        return float(grid[-1])
    k = below[0]
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
    lam0: float = 0.2,
    mu: float | None = None,
    n: int = 8192,
    max_steps: int = 2_000_000,
) -> tuple[dict, BlowupFit]:
    """Integrate to the stopping threshold and fit the blowup exponents.

    ARS(2,2,2) steps (``_imex_step``) treat diffusion implicitly, so ``dt`` is
    set by the advective and reaction bounds at CFL number 0.25 and clipped
    so that records land on the time lattice ``t = k * 2.5 h^2``, ``h`` the
    origin spacing of the grid ``build_initial`` makes at resolution ``n``.  The
    run stops when the sup-norm reaches 1e4 times its initial value or the
    half-maximum radius falls under 8 origin cells, and records that final
    state too; each record's ``dt`` is the step the bounds allowed there.
    NoBlowupDetected is raised past ``t = 20 lam0^2`` without tenfold growth,
    and IllConditionedFit when fewer than 10 records lie in the fit window.
    ``mu`` defaults to the profile's own damping; passing a different value
    probes off-profile data (e.g. the global-existence regime, which raises
    NoBlowupDetected once the sup-norm stalls within the step budget).
    Returns the recorded time series, with the step count as ``steps``, and the fit.
    """
    if mu is None:
        mu = profile.params.mu
    state = build_initial(profile, lam0, n=n)
    pg = _PhysGrid.make(state.grid)
    grid, h = pg.grid, pg.h
    rho = state.rho
    t = 0.0
    t_rec = _RECORD_SPACING * h * h
    k_rec = 1
    sup0 = state.sup_norm
    series = {"t": [], "sup_norm": [], "mass": [], "half_max_radius": [], "dt": []}
    mass0 = state.mass
    sink_accum = 0.0

    def record(dt):
        series["t"].append(t)
        series["sup_norm"].append(float(np.max(rho)))
        series["mass"].append(_fv_mass(rho, grid))
        series["half_max_radius"].append(_half_max_radius(rho, grid))
        series["dt"].append(dt)

    record(0.0)
    for steps in range(max_steps):
        sup = float(np.max(rho))
        if sup >= 1.0e4 * sup0:
            stop_reason = "threshold"
            break
        hm = _half_max_radius(rho, grid)
        if hm < 8.0 * h:
            stop_reason = "resolution"
            break
        # nominal blowup time is ~lam0^2; well past it with no growth means
        # diffusion/damping won (the global-existence regime)
        if sup < 0.5 * sup0 or (t > 20.0 * lam0**2 and sup < 10.0 * sup0):
            raise NoBlowupDetected(
                f"sup-norm at {sup / sup0:.3g}x initial after t = {t:.3g}"
            )
        k0, m = _phys_rhs(rho, pg, mu)
        dt_stable = _stable_dt(m, sup, pg, mu)
        t_next = k_rec * t_rec
        on_lattice = dt_stable >= t_next - t
        dt = t_next - t if on_lattice else dt_stable
        new, sink = _imex_step(rho, k0, pg, mu, dt)
        if not np.all(np.isfinite(new)):
            raise NonFiniteField("non-finite density")
        # discrete mass identity, accumulated: mass(t) - mass(0) = sum of sinks
        sink_accum += sink
        rho = new
        if on_lattice:
            t = t_next
            k_rec += 1
            record(dt_stable)
        else:
            t += dt
    else:
        raise NoBlowupDetected(f"step budget exhausted; sup grew {sup / sup0:.3g}x")
    record(series["dt"][-1])

    ts = np.array(series["t"])
    sups = np.array(series["sup_norm"])
    if sups[-1] < 10.0 * sup0:
        raise NoBlowupDetected(f"sup-norm plateaued at {sups[-1] / sup0:.3g}x initial")

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
    sel = np.zeros(len(ts), dtype=bool)
    sel[k0 : hi + 1] = True
    kept = np.count_nonzero(sel)
    if kept < 10:
        raise IllConditionedFit(f"{kept} records pass the 5% window test; the fit needs 10")
    T_loc = ts[1:-1] + inv[1:-1] / sl
    T_est = float(np.median(T_loc[k0 - 1 : hi]))
    if T_est <= ts[sel][-1]:
        T_est = float(ts[sel][-1] * (1.0 + 1e-6))

    x = np.log(T_est - ts[sel])
    p_amp, r2_amp = _loglog_fit(x, sups[sel])
    p_len, r2_len = _loglog_fit(x, np.array(series["half_max_radius"])[sel])

    masses = np.array(series["mass"])
    change = float((masses[-1] - masses[0]) / masses[0])
    mass_id_err = abs((masses[-1] - mass0) - sink_accum) / mass0
    fit = BlowupFit(
        T_est=T_est,
        p_amp=p_amp,
        p_len=p_len,
        fit_window=(float(ts[sel][0]), float(ts[sel][-1])),
        r2_amp=r2_amp,
        r2_len=r2_len,
        mass_change_rel=change,
        mass_identity_err=float(mass_id_err),
        stop_reason=stop_reason,
    )
    for key in series:
        series[key] = np.array(series[key])
    series["rho_final"] = rho
    series["grid"] = grid
    series["steps"] = steps
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
    pg = _PhysGrid.make(ga)
    op = _phys_rhs(mid, pg, mu)[0] + pg.lap.apply(mid)
    return l2_norm((rb - ra) / (tb - ta) - op, ga)


def check_scaling_invariance(
    snap_a: tuple[float, np.ndarray, np.ndarray],
    snap_b: tuple[float, np.ndarray, np.ndarray],
    lam: float,
    mu: float,
) -> float:
    """PDE residual of the rescaled pair ``(lam^2 t, lam r, rho/lam^2)``.

    The equation is invariant under this map, so the residual stays at the
    discretization level O(h^2); lam=1 reproduces the unrescaled residual
    exactly.
    """
    if lam <= 0:
        raise DomainError("lam must be positive")

    def remap(snap):
        t, g, r = snap
        return (lam * lam * t, lam * g, r / (lam * lam))

    return pde_residual(remap(snap_a), remap(snap_b), mu)
