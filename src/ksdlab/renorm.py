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
so the advective CFL no longer scales with the domain radius.  The drift and the
partial mass use the uniform stencils in ``xi``, carried back to ``r`` by the metric
``J = dr/dxi``; diffusion is ``radial.flux_laplacian``, the finite-volume Laplacian
``phys`` uses.
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
    SymmetricTridiagonal,
    ars222_step,
    chi_bump,
    cumulative_simpson_uniform,
    flux_laplacian,
    l2_norm,
    sinh_grid,
)

#: modes are fitted on ``r <= _FIT_RADIUS``, inside the plateau of the seed cutoff
_FIT_RADIUS = 0.5

#: tau spacing of the records kept by run_renorm
_RECORD_DTAU = 0.05

#: records run_renorm evaluates per pass after its last step, which bounds the
#: evaluation's memory whatever tau_end is
_EVAL_BLOCK = 64

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


def quick_resolution(j0: int) -> int:
    """The quick ``renorm`` resolution: the least power of two >= 1024 whose grid has as
    many nodes in the fit window as the ``j0 + 3`` modes ``extract_modes`` fits there."""
    n = 1024
    while fit_nodes(n) < j0 + 3:
        n *= 2
    return n


@dataclass(frozen=True, eq=False)
class _RenormGrid:
    """The grid-only arrays of ``_rhs``, built once per resolution.

    ``h`` is the uniform ``xi`` spacing; the metric ``J = dr/dxi = sqrt(1 +
    (r/a)^2)`` turns the ``xi`` stencils into ``r`` derivatives.  ``lap`` is
    the radial Laplacian ``radial.flux_laplacian``, with no diffusive flux past
    the outer face.
    """

    grid: np.ndarray
    h: float
    r3: np.ndarray  # grid[1:]**3
    r_j: np.ndarray  # r/J: the drift velocity r (beta - f) in xi units is r_j (beta - f)
    r2j: np.ndarray  # r^2 J, the Simpson weight of the partial mass in xi
    lap: SymmetricTridiagonal

    @classmethod
    def make(cls, n: int) -> "_RenormGrid":
        grid = _grid(n)
        jac = np.sqrt(1.0 + (grid / SINH_STRETCH) ** 2)
        return cls(grid, _XI_MAX / (len(grid) - 1), grid[1:] ** 3, grid / jac,
                   grid * grid * jac, flux_laplacian(grid))


@dataclass(frozen=True)
class RenormState:
    """One time slice of the renormalized flow on the sinh-mapped radial grid.

    ``ops`` holds the grid ``make_state`` built from its resolution, and
    ``replace()`` carries it to the next slice.  ``psi`` is a field, or rows of them.
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
    """``d psi/d xi`` of each row: second-order upwind for outgoing flow, central at node 1,
    0 at the origin."""
    dpsi = np.empty_like(psi)
    dpsi[..., 0] = 0.0
    dpsi[..., 1] = (psi[..., 2] - psi[..., 0]) / (2.0 * h)
    upwind = dpsi[..., 2:]
    np.multiply(psi[..., 2:], 3.0, out=upwind)
    upwind -= 4.0 * psi[..., 1:-1]
    upwind += psi[..., :-2]
    upwind /= 2.0 * h
    return dpsi


def _rhs(psi, ops, params, out):
    """Add the explicit operator (drift, nonlocal, reaction, damping) into ``out``; return it.

    Each row of ``psi`` is a field; none of it depends on lambda.  The velocity in
    xi is ``a = (r/J)(beta - f)`` with ``f <= max psi/3``, so the flow is outgoing
    wherever ``psi < 3 beta = Q0 + 3/(2 j0)``, and the upwind stencil assumes it:
    incoming flow in any row raises CFLViolation.
    """
    # the velocity is built in the partial-mass array: f = m / r^3, and psi(0)/3 at 0
    a = cumulative_simpson_uniform(psi * ops.r2j, ops.h)
    a[..., 0] = psi[..., 0] / 3.0
    np.divide(a[..., 1:], ops.r3, out=a[..., 1:])
    np.subtract(params.beta, a, out=a)
    a *= ops.r_j
    # not a.min() < 0: a NaN would hide a negative speed
    if (a[..., 2:] < 0.0).any():
        raise CFLViolation("incoming flow (f > beta): the upwind stencil needs outgoing flow")
    dpsi = _upwind(psi, ops.h)
    dpsi *= a
    out -= dpsi
    # the -Psi damping is part of the linear rescaling; the reaction reuses dpsi
    out -= psi
    react = np.multiply(psi, 1.0 - params.mu, out=dpsi)
    react *= psi
    out += react
    return out


def _residual_norm(psi, ops, lam, params):
    """Radial L2 norm of each row's right-hand side, diffusion ``lambda^{2-4beta} Lap`` included.

    ``lam`` is one float for every row, or one per record when ``psi`` stacks the records
    of a run on its first axis.  Each ``lambda^{2-4beta}`` is a Python float, as for a
    single slice, so each record's norm has the bits of its own call.
    """
    dif = [x ** (2.0 - 4.0 * params.beta) for x in np.atleast_1d(lam).tolist()]
    diffusion = np.reshape(dif, (-1,) + (1,) * (psi.ndim - 1)) * ops.lap.apply(psi)
    return l2_norm(_rhs(psi, ops, params, diffusion), ops.grid)


def dt_policy(h, lam, params, r_dom, safety: float = _CFL_SAFETY) -> float:
    """``safety`` times the advective CFL bound on the mapped grid.

    ``h`` is the xi spacing.  The drift speed in xi is ``beta r/J``, largest at
    ``r_dom`` where ``r/J = r_dom/sqrt(1 + (r_dom/a)^2)``.  Diffusion is
    implicit, so ``lam`` does not enter.
    """
    return safety * h * math.sqrt(1.0 + (r_dom / SINH_STRETCH) ** 2) / (params.beta * r_dom)


def make_state(profile: RadialProfile, lam0: float, n: int = 4096) -> RenormState:
    """Initial slice Psi(0) = Q on [0, 50].

    The grid is the sinh-mapped one: ``n`` sets the resolution, so the origin spacing is
    at most ``50/(n-1)`` as on ``linspace(0, 50, n)``, and the grid has about ``n/4.7``
    nodes (217 at n=1024, 863 at n=4096).  DomainError for a negative or non-finite
    ``lam0``; ``lam0 = 0`` is the flow without diffusion.
    """
    if not 0.0 <= lam0 < math.inf:
        raise DomainError(f"lam0 = {lam0:.6g} must be finite and >= 0")
    ops = _RenormGrid.make(n)
    return RenormState(tau=0.0, lam0=lam0, ops=ops, psi=profile.q(ops.grid))


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

    F = lambda p: _rhs(p, ops, params, np.zeros(p.shape))
    dif = (state.lam0 * math.exp(-(state.tau + 0.5 * dt) / 2.0)) ** (2.0 - 4.0 * params.beta)
    new, _ = ars222_step(psi, F(psi), F, ops.lap, dif, dt)
    if not np.isfinite(new).all():
        raise NonFiniteField("non-finite value in evolved field")
    return RenormState(state.tau + dt, state.lam0, ops, new)


def _fit_basis(grid: np.ndarray, j0: int):
    """The grid-only part of ``extract_modes``' fit of ``c_0 .. c_{j0+2}``: the window mask
    ``r <= 1/2``, the Vandermonde matrix in ``(r/(1/2))^2`` and the column scale
    ``(1/2)^{2j}``.  Raises IllConditionedFit for a window with fewer nodes than the
    ``j0 + 3`` unknowns, whose minimum-norm solution is not a fit, and for a condition
    number above 1e12."""
    kfit = j0 + 2
    sel = grid <= _FIT_RADIUS
    r = grid[sel]
    if len(r) <= kfit:
        raise IllConditionedFit(f"{len(r)} nodes in the fit window for {kfit + 1} modes")
    M = np.vander((r / _FIT_RADIUS) ** 2, kfit + 1, increasing=True)
    cond = np.linalg.cond(M)
    if cond > 1e12:
        raise IllConditionedFit(f"Vandermonde condition number {cond:.3g}")
    return sel, M, _FIT_RADIUS ** (2 * np.arange(kfit + 1))


def extract_modes(
    state: RenormState,
    profile: RadialProfile,
    q_ref: np.ndarray | None = None,
) -> np.ndarray:
    """Least-squares coefficients ``c_0 .. c_{j0+2}`` of ``Psi - Q`` against
    ``{r^{2j}}`` on ``r <= 1/2`` for each row, with ``j0`` from the profile's parameters.

    Columns are scaled by ``(1/2)^{2j}`` before conditioning is checked; the fit
    window sits inside the region where the mode cutoff is 1.  ``_fit_basis`` raises
    IllConditionedFit for a window the fit cannot be made on.
    """
    sel, M, scale = _fit_basis(state.grid, profile.params.j0)
    if q_ref is None:
        q_ref = profile.q(state.grid)
    eps = state.psi[..., sel] - q_ref[sel]
    # one lstsq per row: a multi-column one, or a pinv, rounds the modes differently
    coef = [np.linalg.lstsq(M, e, rcond=None)[0] for e in eps.reshape(-1, len(M))]
    return np.reshape(coef, eps.shape[:-1] + scale.shape) / scale


def run_renorm(
    profile: RadialProfile,
    lam0: float,
    tau_end: float,
    n: int = 4096,
    perturbation=None,
) -> dict:
    """Evolve to ``tau_end`` recording (tau, lambda, sup|eps|, modes, residual).

    mu, j0 and beta are ``profile.params``'.  Records every 0.05 in tau; the modes are
    ``extract_modes``' ``c_0 .. c_{j0+2}``, the residual that of the full flow, diffusion
    included.  The initial data is ``Q``, sampled once, plus ``perturbation(grid)``: ``k``
    rows of it make ``k`` rows of one flow, and ``eps_sup``, ``residual`` and ``c`` are
    per row.  ``steps`` counts the ARS(2,2,2) steps, each ``_CFL_SAFETY`` of the advective
    bound unless clipped to a record time.

    The loop keeps each record's ``(tau, lambda, psi)``; after the last step the records
    are stacked and evaluated along the record axis, ``_EVAL_BLOCK`` records per pass,
    each with the bits of its own evaluation.  A fit window ``extract_modes`` would
    refuse stops the run before the first step.
    """
    params = profile.params
    state = make_state(profile, lam0, n=n)
    q_ref = state.psi
    if perturbation is not None:
        state = replace(state, psi=q_ref + perturbation(state.grid))
    _fit_basis(state.grid, params.j0)
    dt_adv = dt_policy(state.h, lam0, params, state.grid[-1])
    records = [(state.tau, state.lam, state.psi)]
    next_rec = _RECORD_DTAU
    steps = 0
    while state.tau < tau_end - 1e-12:
        dt = min(dt_adv, tau_end - state.tau, next_rec - state.tau + 1e-15)
        state = step_renorm(state, profile, params, dt)
        steps += 1
        if state.tau >= next_rec - 1e-12:
            records.append((state.tau, state.lam, state.psi))
            next_rec = round(next_rec / _RECORD_DTAU + 1) * _RECORD_DTAU
    taus, lams, psis = zip(*records)
    eps_sup, residual, c = [], [], []
    for b in range(0, len(records), _EVAL_BLOCK):
        block = slice(b, b + _EVAL_BLOCK)
        psi = np.stack(psis[block])
        eps_sup.append(np.abs(psi - q_ref).max(axis=-1))
        residual.append(_residual_norm(psi, state.ops, lams[block], params))
        c.append(extract_modes(replace(state, psi=psi), profile, q_ref=q_ref))
    return {"steps": steps, "tau": np.array(taus), "lam": np.array(lams),
            "eps_sup": np.concatenate(eps_sup), "residual": np.concatenate(residual),
            "c": np.concatenate(c), "state": state}


@dataclass(frozen=True)
class RateFit:
    """Fitted modal growth rate for one seeded mode."""

    rate: float


def _seeded_difference(profile, lam0, tau_end, n, perturbation):
    """One flow with the rows ``(Q, Q + perturbation)``, and the seeded row's modes
    minus the unseeded row's."""
    flow = run_renorm(profile, lam0, tau_end, n=n,
                      perturbation=lambda r: np.stack((np.zeros_like(r), perturbation(r))))
    return flow, flow["c"][:, 1] - flow["c"][:, 0]


def measure_rates(
    params: ProfileParams,
    profile: RadialProfile,
    j: int,
    amplitude: float = 1e-4,
    tau_end: float = 2.0,
    lam0: float = 1e-3,
    n: int = 4096,
) -> RateFit:
    """Fit the growth rate of a seeded near-origin mode ``amplitude chi r^{2j}``.

    The unseeded flow drifts by O(lam0^{2-4beta}) under diffusive forcing, so
    the rate is fitted on the difference between the seeded and the unseeded
    row of one flow; this cancels the static forcing to leading order.
    Returns the log-linear slope of |delta c_j| over the full window.  ``params`` must be
    ``profile.params``, which the flow steps.
    """
    if params != profile.params:
        raise DomainError(f"params {params} differ from profile.params {profile.params}")
    if not 0 <= j <= params.j0:
        raise DomainError("seed mode must satisfy 0 <= j <= j0")
    if amplitude > 1e-3 * params.q0:
        raise DomainError("amplitude too large for the linear regime")
    pert = lambda r: amplitude * chi_bump(r) * r ** (2 * j)
    flow, dc = _seeded_difference(profile, lam0, tau_end, n, pert)
    tau = flow["tau"]
    dcj = dc[:, j]
    if np.any(dcj == 0.0):
        raise ForcingDominates("seeded mode vanished; amplitude below drift noise")
    rate = float(np.polyfit(tau, np.log(np.abs(dcj)), 1)[0])

    # forcing check on the differenced field: lam^{2-4b} [Lap delta]_j
    # against the modal derivative
    lam_pow = flow["lam"] ** (2.0 - 4.0 * params.beta)
    forcing = lam_pow * (2 * j + 2) * (2 * j + 3) * np.abs(dc[:, j + 1])
    dcdt = np.abs(np.gradient(dcj, tau))
    if np.all(forcing > 0.1 * dcdt):
        raise ForcingDominates("diffusive forcing exceeds modal derivative throughout")

    return RateFit(rate=rate)


def measure_coupling(
    profile: RadialProfile,
    tau_end: float = 2.0,
    lam0: float = 1e-3,
    n: int = 4096,
) -> float:
    """Slope of ``d(delta c_{j0})/d tau`` against ``delta c_0`` for a seeded constant mode
    ``1e-4 chi``; the linear prediction, from ``profile.params``, is ``-(2 j0/3 + 2(1-mu))``."""
    pert = lambda r: 1e-4 * chi_bump(r)
    flow, dc = _seeded_difference(profile, lam0, tau_end, n, pert)
    dc0 = dc[:, 0]
    ddt = np.gradient(dc[:, profile.params.j0], flow["tau"])
    return float(np.dot(ddt, dc0) / np.dot(dc0, dc0))


def sigma_coupling(params: ProfileParams) -> float:
    """Linear coupling constant from the constant mode into mode j0."""
    return -(2.0 * params.j0 / 3.0 + 2.0 * (1.0 - params.mu))
