"""Renormalized radial flow, modulation-mode extraction, and linear-rate fits.

After the self-similar change of variables with ``lambda(tau) = lambda0
exp(-tau/2)``, the density ``Psi(tau, y)`` obeys

    d Psi/d tau = lambda^{2-4 beta} Lap Psi - Psi - beta y.grad Psi
                  + grad Psi . grad invLap Psi + (1-mu) Psi^2,

whose radial form uses the partial-mass average ``f(r) = r^{-3} int_0^r Psi
s^2 ds``.  The profile ``Q`` is a fixed point up to the vanishing diffusive
forcing; perturbation modes ``c_j r^{2j}`` near the origin grow at the linear
rates ``(j0-j)/j0``.

The flow lives on a sinh-mapped grid ``r = a sinh(xi/a)`` (``radial.sinh_grid``)
with ``xi`` uniform on ``[0, a asinh(50/a)]`` (Budd, Huang & Russell, SIAM J.
Sci. Comput. 17, 1996, for stretched meshes in blowup problems).  It is nearly
uniform on the mode-fit window ``r <= 1/2`` and logarithmic beyond ``r ~ a``,
so the advective CFL no longer scales with the domain radius.  Every stencil is the
uniform one in ``xi``, carried back to ``r`` by the metric ``J = dr/dxi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CFLViolation,
    DomainError,
    ForcingDominates,
    IllConditionedFit,
    NonFiniteField,
)
from .profile import ProfileParams, RadialProfile
from .radial import (
    SINH_STRETCH,
    Tridiagonal,
    ars222_step,
    chi_bump,
    cumulative_simpson_uniform,
    l2_norm,
    sinh_grid,
)

#: modes are fitted on ``r <= _FIT_RADIUS``, inside the plateau of the seed cutoff
_FIT_RADIUS = 0.5

#: tau spacing of the records kept by run_renorm
_RECORD_DTAU = 0.05

#: outer radius of the renorm domain
_R_DOM = 50.0

#: xi at the outer edge r = _R_DOM
_XI_MAX = SINH_STRETCH * math.asinh(_R_DOM / SINH_STRETCH)

#: fraction of the advective bound that run_renorm steps at
_CFL_SAFETY = 0.4

#: largest fraction of the advective bound step_renorm accepts: the explicit
#: half of ARS(2,2,2) has amplification 1 + z + z^2/2, and on the symbol of the
#: second-order upwind stencil it stays in the unit disc up to CFL 1/2, where
#: the sawtooth mode's 1 - 4 nu + 8 nu^2 reaches 1
_CFL_LIMIT = 0.5


def _grid(n: int) -> np.ndarray:
    """The mapped grid of resolution ``n``: its origin spacing is that of ``linspace(0,
    50, n)``, ``50/(n-1)``, or less, up to a relative 5e-5 at n >= 1024, on about ``n/4.7``
    nodes."""
    return sinh_grid(_R_DOM, n, SINH_STRETCH)


def fit_nodes(n: int) -> int:
    """Nodes in the mode-fit window ``r <= 1/2`` of the grid ``make_state`` builds
    at resolution ``n``: 6, 11, 21, 41, 82 at n = 512, 1024, ..., 8192."""
    return int(np.count_nonzero(_grid(n) <= _FIT_RADIUS))


@dataclass(frozen=True, eq=False)
class _RenormGrid:
    """The grid-only arrays of ``_rhs``, built once per resolution.

    ``h`` is the uniform ``xi`` spacing; the metric ``J = dr/dxi = sqrt(1 +
    (r/a)^2)`` turns the ``xi`` stencils into ``r`` derivatives.  ``lap`` is
    the radial Laplacian: ``6 (psi_1 - psi_0)/r_1^2`` at the origin, the
    second and central ``xi`` differences weighted by ``1/(J h)^2`` and
    ``(2/(r J) - J'/J^3)/(2h)`` inside, and at the last node the linear
    outflow ghost ``2 psi_{N-1} - psi_{N-2}``, which keeps the matrix
    tridiagonal.
    """

    grid: np.ndarray
    h: float
    r3: np.ndarray  # grid[1:]**3
    r_j: np.ndarray  # r/J: the drift velocity r (beta - f) in xi units is r_j (beta - f)
    r2j: np.ndarray  # r^2 J, the Simpson weight of the partial mass in xi
    lap: Tridiagonal

    @classmethod
    def make(cls, n: int) -> "_RenormGrid":
        grid = _grid(n)
        h = _XI_MAX / (len(grid) - 1)
        jac = np.sqrt(1.0 + (grid / SINH_STRETCH) ** 2)
        r, j = grid[1:], jac[1:]
        lap2 = 1.0 / (j * h) ** 2
        # J' = dJ/dxi = r/a^2
        lap1 = (2.0 / (r * j) - r / (SINH_STRETCH**2 * j**3)) / (2.0 * h)
        c0 = 6.0 / grid[1] ** 2
        lower = lap2 - lap1
        lower[-1] = -2.0 * lap1[-1]
        diag = np.concatenate(([-c0], -2.0 * lap2[:-1], [2.0 * lap1[-1]]))
        upper = np.concatenate(([c0], (lap2 + lap1)[:-1]))
        return cls(grid, h, r**3, grid / jac, grid * grid * jac,
                   Tridiagonal(lower, diag, upper))


@dataclass(frozen=True)
class RenormState:
    """One time slice of the renormalized flow on the sinh-mapped radial grid.

    ``ops`` holds the grid ``make_state`` built from its resolution, and
    ``replace()`` carries it to the next slice.
    """

    tau: float
    lam0: float
    ops: _RenormGrid = field(repr=False, compare=False)
    psi: np.ndarray

    @property
    def grid(self) -> np.ndarray:
        return self.ops.grid

    @property
    def lam(self) -> float:
        return self.lam0 * math.exp(-self.tau / 2.0)

    @property
    def h(self) -> float:
        """The uniform ``xi`` spacing of the grid: the ``h`` that ``dt_policy``
        takes and that ``step_renorm``'s stability guard uses."""
        return self.ops.h


def _upwind(psi, h):
    """``d psi/d xi``: second-order upwind for outgoing flow, central at node 1, 0 at the origin."""
    dpsi = np.empty_like(psi)
    dpsi[0] = 0.0
    dpsi[1] = (psi[2] - psi[0]) / (2.0 * h)
    upwind = dpsi[2:]
    np.multiply(psi[2:], 3.0, out=upwind)
    upwind -= 4.0 * psi[1:-1]
    upwind += psi[:-2]
    upwind /= 2.0 * h
    return dpsi


def _rhs(psi, ops, params, out):
    """Add the explicit operator (drift, nonlocal, reaction, damping) into ``out``; return it.

    None of it depends on lambda.  The velocity in xi is ``a = (r/J)(beta -
    f)`` with ``f <= max psi/3``, so the flow is outgoing wherever ``psi <
    3 beta = Q0 + 3/(2 j0)``, and the upwind stencil assumes it: incoming flow
    raises CFLViolation.
    """
    m = cumulative_simpson_uniform(psi * ops.r2j, ops.h)
    a = np.empty_like(psi)
    a[0] = psi[0] / 3.0
    np.divide(m[1:], ops.r3, out=a[1:])
    np.subtract(params.beta, a, out=a)
    a *= ops.r_j
    if (a[2:] < 0.0).any():
        raise CFLViolation("incoming flow (f > beta): the upwind stencil needs outgoing flow")
    dpsi = _upwind(psi, ops.h)
    dpsi *= a
    out -= dpsi
    # the -Psi damping is part of the linear rescaling
    out -= psi
    react = (1.0 - params.mu) * psi
    react *= psi
    out += react
    return out


def _residual_norm(psi, ops, lam, params):
    """Radial L2 norm of the full right-hand side, diffusion ``lambda^{2-4beta} Lap`` included."""
    diffusion = lam ** (2.0 - 4.0 * params.beta) * ops.lap.apply(psi)
    return l2_norm(_rhs(psi, ops, params, diffusion), ops.grid)


def dt_policy(h, lam, params, r_dom, safety: float = _CFL_SAFETY) -> float:
    """``safety`` times the advective CFL bound on the mapped grid.

    ``h`` is the xi spacing.  The drift speed in xi is ``beta r/J``, largest at
    ``r_dom`` where ``r/J = r_dom/sqrt(1 + (r_dom/a)^2)``.  Diffusion is
    implicit, so ``lam`` does not enter.
    """
    return safety * h * math.sqrt(1.0 + (r_dom / SINH_STRETCH) ** 2) / (params.beta * r_dom)


def make_state(
    profile: RadialProfile,
    lam0: float,
    n: int = 4096,
    perturbation=None,
) -> RenormState:
    """Initial slice Psi(0) = Q (+ optional perturbation callable) on [0, 50].

    The grid is the sinh-mapped one: ``n`` sets the resolution, so the origin
    spacing is at most ``50/(n-1)`` as on ``linspace(0, 50, n)``, and the
    grid has about ``n/4.7`` nodes (217 at n=1024, 863 at n=4096).
    """
    ops = _RenormGrid.make(n)
    psi = profile.q(ops.grid)
    if perturbation is not None:
        psi = psi + perturbation(ops.grid)
    return RenormState(tau=0.0, lam0=lam0, ops=ops, psi=psi)


def step_renorm(
    state: RenormState,
    profile: RadialProfile,
    params: ProfileParams,
    dt: float,
) -> RenormState:
    """One ARS(2,2,2) step (``radial.ars222_step``): diffusion implicit with its
    coefficient ``lambda^{2-4beta}`` at mid-step, the only place lambda enters;
    the ``_rhs`` operator explicit.  Raises CFLViolation for a ``dt`` above
    ``_CFL_LIMIT`` of the advective bound and for incoming flow."""
    ops, psi = state.ops, state.psi
    if dt > dt_policy(ops.h, state.lam, params, ops.grid[-1], safety=_CFL_LIMIT):
        raise CFLViolation(f"dt={dt:.3g} exceeds the stability bound")

    F = lambda p: _rhs(p, ops, params, np.zeros_like(p))
    dif = (state.lam0 * math.exp(-(state.tau + 0.5 * dt) / 2.0)) ** (2.0 - 4.0 * params.beta)
    new, _ = ars222_step(psi, F(psi), F, ops.lap, dif, dt)
    if not np.all(np.isfinite(new)):
        raise NonFiniteField("non-finite value in evolved field")
    return replace(state, tau=state.tau + dt, psi=new)


def extract_modes(
    state: RenormState,
    profile: RadialProfile,
    q_ref: np.ndarray | None = None,
) -> np.ndarray:
    """Least-squares coefficients ``c_0 .. c_{j0+2}`` of ``Psi - Q`` against
    ``{r^{2j}}`` on ``r <= 1/2``, with ``j0`` from the profile's parameters.

    Columns are scaled by ``(1/2)^{2j}`` before conditioning is checked; the
    fit window sits inside the region where the mode cutoff is 1.  A window
    with no more nodes than the ``j0 + 3`` unknowns raises IllConditionedFit:
    its minimum-norm solution is not a fit.
    """
    Kfit = profile.params.j0 + 2
    grid = state.grid
    sel = grid <= _FIT_RADIUS
    r = grid[sel]
    if len(r) <= Kfit:
        raise IllConditionedFit(f"{len(r)} nodes in the fit window for {Kfit + 1} modes")
    if q_ref is None:
        q_ref = profile.q(grid)
    eps = state.psi[sel] - q_ref[sel]
    x = (r / _FIT_RADIUS) ** 2
    M = np.vander(x, Kfit + 1, increasing=True)
    cond = np.linalg.cond(M)
    if cond > 1e12:
        raise IllConditionedFit(f"Vandermonde condition number {cond:.3g}")
    coef, *_ = np.linalg.lstsq(M, eps, rcond=None)
    return coef / _FIT_RADIUS ** (2 * np.arange(Kfit + 1))


def run_renorm(
    profile: RadialProfile,
    params: ProfileParams,
    lam0: float,
    tau_end: float,
    n: int = 4096,
    perturbation=None,
) -> dict:
    """Evolve to ``tau_end`` recording (tau, lambda, sup|eps|, modes, residual).

    Records every 0.05 in tau; the modes are ``extract_modes``' ``c_0 ..
    c_{j0+2}``, and the residual is that of the full flow, diffusion included.
    ``steps`` counts the ARS(2,2,2) steps, each ``_CFL_SAFETY`` of the
    advective bound unless clipped to a record time.
    """
    state = make_state(profile, lam0, n=n, perturbation=perturbation)
    dt_adv = dt_policy(state.h, lam0, params, state.grid[-1])
    q_ref = profile.q(state.grid)
    taus, lams, eps_sup, residuals, coefs = [], [], [], [], []

    def record(st):
        taus.append(st.tau)
        lams.append(st.lam)
        eps_sup.append(float(np.max(np.abs(st.psi - q_ref))))
        residuals.append(_residual_norm(st.psi, st.ops, st.lam, params))
        coefs.append(extract_modes(st, profile, q_ref=q_ref))

    record(state)
    next_rec = _RECORD_DTAU
    steps = 0
    while state.tau < tau_end - 1e-12:
        dt = min(dt_adv, tau_end - state.tau, next_rec - state.tau + 1e-15)
        state = step_renorm(state, profile, params, dt)
        steps += 1
        if state.tau >= next_rec - 1e-12:
            record(state)
            next_rec = round(next_rec / _RECORD_DTAU + 1) * _RECORD_DTAU
    return {
        "steps": steps,
        "tau": np.array(taus),
        "lam": np.array(lams),
        "eps_sup": np.array(eps_sup),
        "residual": np.array(residuals),
        "c": np.array(coefs),
        "state": state,
    }


@dataclass(frozen=True)
class RateFit:
    """Fitted modal growth rate (and forcing diagnostics) for one seeded mode."""

    j: int
    rate: float
    expected: float
    forcing_ratio: float
    tau: np.ndarray
    dc: np.ndarray


def _seeded_difference(profile, params, lam0, tau_end, n, baseline, perturbation):
    """The seeded run, and its modes minus those of the unseeded ``baseline``
    run (made here when not given)."""
    if baseline is None:
        baseline = run_renorm(profile, params, lam0, tau_end, n=n)
    seeded = run_renorm(profile, params, lam0, tau_end, n=n, perturbation=perturbation)
    return seeded, seeded["c"] - baseline["c"]


def measure_rates(
    params: ProfileParams,
    profile: RadialProfile,
    j: int,
    amplitude: float = 1e-4,
    tau_end: float = 2.0,
    lam0: float = 1e-3,
    n: int = 4096,
    baseline: dict | None = None,
) -> RateFit:
    """Fit the growth rate of a seeded near-origin mode ``amplitude chi r^{2j}``.

    The unseeded flow drifts by O(lam0^{2-4beta}) under diffusive forcing, so
    the rate is fitted on the difference between a seeded and an identically
    stepped baseline run; this cancels the static forcing to leading order.
    Returns the log-linear slope of |delta c_j| over the full window.
    """
    if j > params.j0:
        raise DomainError("seed mode must satisfy j <= j0")
    if amplitude > 1e-3 * params.q0:
        raise DomainError("amplitude too large for the linear regime")
    pert = lambda r: amplitude * chi_bump(r) * r ** (2 * j)
    seeded, dc = _seeded_difference(profile, params, lam0, tau_end, n, baseline, pert)
    tau = seeded["tau"]
    dcj = dc[:, j]
    if np.any(dcj == 0.0):
        raise ForcingDominates("seeded mode vanished; amplitude below drift noise")
    rate = float(np.polyfit(tau, np.log(np.abs(dcj)), 1)[0])

    # forcing diagnostic on the differenced field: lam^{2-4b} [Lap delta]_j
    # against the modal derivative
    lam_pow = seeded["lam"] ** (2.0 - 4.0 * params.beta)
    forcing = lam_pow * (2 * j + 2) * (2 * j + 3) * np.abs(dc[:, j + 1])
    dcdt = np.abs(np.gradient(dcj, tau))
    ratio = float(np.max(forcing / np.maximum(dcdt, 1e-300)))
    if np.all(forcing > 0.1 * dcdt):
        raise ForcingDominates("diffusive forcing exceeds modal derivative throughout")

    expected = (params.j0 - j) / params.j0
    return RateFit(j=j, rate=rate, expected=expected, forcing_ratio=ratio, tau=tau, dc=dcj)


def measure_coupling(
    params: ProfileParams,
    profile: RadialProfile,
    tau_end: float = 2.0,
    lam0: float = 1e-3,
    n: int = 4096,
    baseline: dict | None = None,
) -> float:
    """Slope of ``d(delta c_{j0})/d tau`` against ``delta c_0`` for a seeded
    constant mode ``1e-4 chi``; the linear prediction is ``-(2 j0/3 + 2(1-mu))``."""
    pert = lambda r: 1e-4 * chi_bump(r)
    seeded, dc = _seeded_difference(profile, params, lam0, tau_end, n, baseline, pert)
    dc0 = dc[:, 0]
    ddt = np.gradient(dc[:, params.j0], seeded["tau"])
    return float(np.dot(ddt, dc0) / np.dot(dc0, dc0))


def sigma_coupling(params: ProfileParams) -> float:
    """Linear coupling constant from the constant mode into mode j0."""
    return -(2.0 * params.j0 / 3.0 + 2.0 * (1.0 - params.mu))
