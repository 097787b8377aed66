"""Self-similar profile construction for aggregation-diffusion blowup.

The radial profile ``Q`` solves, with ``f(r) = r^{-3} \\int_0^r Q s^2 ds``,

    Q + beta*r*Q' = r*f*Q' + (1-mu)*Q^2,
    f' = (Q - 3 f)/r,

starting at the stagnation point ``P0 = (Q0, f0) = (1/(1-mu), 1/(3(1-mu)))``.
The solution is seeded by an even Taylor series at the origin (the leading
correction enters at order ``r^{2 j0}``) and continued outward by Taylor steps
in ``s = ln r``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from operator import mul

import numpy as np

from .errors import (
    DomainError,
    NoConvergence,
    OutOfRange,
    RegionExitScenario1,
    RegionExitScenario2,
    StepSizeUnderflow,
)
from .radial import horner

#: cap on the lattice terms (nonzero coefficients Q_{k j0}) the recurrence is grown to:
#: |Q_{k j0}| grows about 2.3x per term at every j0 tried (0 <= mu <= 0.32), so 256 terms
#: stay near 1e92 where 1024 would overflow float64
SERIES_MAX_TERMS = 256

#: significant decimal digits of the coefficient recurrence
SERIES_DIGITS = 50


def compute_admissibility(mu: float) -> tuple[float, int]:
    """Return ``(J, j0_min)``: the admissibility threshold and least integer above it.

    ``J = 3(1-mu)/(1-3mu) + 1``; a vanishing order ``j0 >= J`` guarantees the
    similarity exponent ``beta = 1/(3(1-mu)) + 1/(2 j0)`` stays below 1/2.
    """
    if not (0.0 <= mu < 1.0 / 3.0):
        raise DomainError(f"mu={mu} outside [0, 1/3)")
    J = 3.0 * (1.0 - mu) / (1.0 - 3.0 * mu) + 1.0
    # guard against float noise pushing an exactly-integer J up by one
    j0_min = math.ceil(J - 1e-9)
    return J, j0_min


@dataclass(frozen=True)
class ProfileParams:
    """Parameter tuple (mu, j0, q_j0) fixing one profile problem.

    The similarity exponent ``beta = 1/(3(1-mu)) + 1/(2 j0)`` is derived from it; it and
    ``q0``, ``f0`` are computed on first read and kept, since the time loops read them
    every step.
    ``q_j0`` is the leading Taylor coefficient of ``Q - Q0`` (negative for the
    decreasing profile; 0 is accepted and yields the constant solution).
    """

    mu: float
    j0: int
    q_j0: float = -1.0

    def __post_init__(self):
        J, j0_min = compute_admissibility(self.mu)
        if self.j0 < max(2, j0_min):
            raise DomainError(f"j0={self.j0} below admissibility threshold J={J}")
        if not (self.f0 < self.beta < 0.5):
            raise DomainError(f"beta={self.beta} outside ({self.f0}, 1/2)")
        if self.q_j0 > 0:
            raise DomainError(f"q_j0={self.q_j0} must be <= 0")

    @functools.cached_property
    def q0(self) -> float:
        """Profile value at the origin, ``Q0 = 1/(1-mu)``."""
        return 1.0 / (1.0 - self.mu)

    @functools.cached_property
    def f0(self) -> float:
        """Averaged-mass value at the origin, ``f0 = Q0/3``."""
        return 1.0 / (3.0 * (1.0 - self.mu))

    @functools.cached_property
    def beta(self) -> float:
        """Similarity exponent ``1/(3(1-mu)) + 1/(2 j0)``."""
        return self.f0 + 1.0 / (2.0 * self.j0)

    @classmethod
    def make(cls, mu: float, j0: int, q_j0: float = -1.0) -> "ProfileParams":
        """Build params for (mu, j0, q_j0); ``beta`` is derived from (mu, j0)."""
        return cls(mu=mu, j0=j0, q_j0=q_j0)


def series_recurrence(mu: float, beta: float, n: int, j0: int, q_j0: float = -1.0,
                      prefix: list | None = None):
    """Run the Taylor recurrence at SERIES_DIGITS decimal digits; return a Decimal Q_j list.

    For ``1 <= j != j0`` the coefficient is forced:

        Q_j = j0 S_j / (j - j0),
        S_j = sum_{i=1}^{j-1} (2i/(2(j-i)+3) + (1-mu)) Q_i Q_{j-i},

    using ``beta - f0 = 1/(2 j0)``; DomainError when ``beta`` is off
    ``ProfileParams(mu, j0).beta`` by more than 1e-12.
    At the resonant index ``j == j0`` the denominator vanishes and ``q_j0`` is
    injected as the free datum.  Below ``j0`` every ``S_j`` is 0, and by
    induction so is every ``Q_j`` with ``j0`` not dividing ``j``: a product
    ``Q_i Q_{j-i}`` of two lattice terms lies on the lattice.  So only
    ``j = 2 j0, 3 j0, ...`` are computed, summing ``i = j0, 2 j0, ..., j - j0``;
    the other entries stay exactly 0.  The sum is split so that it divides
    nowhere, ``S_j = sum (2i Q_i) (Q_{j-i}/(2(j-i)+3)) + (1-mu) sum Q_i Q_{j-i}``,
    with ``2i Q_i`` and ``Q_i/(2i+3)`` formed once per lattice index.
    ``prefix``, an earlier return for the same ``(mu, j0, q_j0)`` and a smaller ``n``, is
    extended: its lattice terms are kept and only the later ones formed, with the bits
    of a fresh run.
    """
    expected = ProfileParams(mu, j0, q_j0).beta
    if abs(beta - expected) > 1e-12:
        raise DomainError(f"beta={beta} != 1/(3(1-mu)) + 1/(2 j0) = {expected}")
    prefix = prefix or []
    Q = prefix + [Decimal(0)] * (n + 1 - len(prefix))
    with localcontext() as ctx:
        ctx.prec = SERIES_DIGITS
        one_m_mu = 1 - Decimal(mu)
        Q[0] = 1 / one_m_mu
        # Q_i, 2i Q_i and Q_i/(2i+3) at i = k j0, by lattice index k (0 unused); the
        # prefix's two products are formed again, at O(1) each
        q = [None] + Q[j0:len(prefix):j0]
        a = [None] + [2 * k * j0 * qk for k, qk in enumerate(q[1:], 1)]
        b = [None] + [qk / (2 * k * j0 + 3) for k, qk in enumerate(q[1:], 1)]
        for k in range(len(q), n // j0 + 1):
            if k == 1:
                qk = Decimal(q_j0)
            else:
                # at j = k j0, j0 S_j / (j - j0) is S_j / (k - 1); Q_i Q_{k-i} is formed
                # for i <= k/2 and mirrored, the middle term once, and summed in order of i
                half = list(map(mul, q[1:k // 2 + 1], q[k - 1:(k - 1) // 2:-1]))
                qk = (sum(map(mul, a[1:k], b[k - 1:0:-1]))
                      + one_m_mu * sum(half + half[::-1][1 - k % 2:])) / (k - 1)
            Q[k * j0] = qk
            q.append(qk)
            a.append(2 * k * j0 * qk)
            b.append(qk / (2 * k * j0 + 3))
    return Q


@dataclass(frozen=True)
class PowerSeries:
    """Even Taylor coefficients of (Q, f) at the origin, with fitted growth estimates.

    ``Q(r) = sum_j q_coeffs[j] r^{2j}``; ``f_coeffs[j] = q_coeffs[j]/(2j+3)``.  The nonzero
    coefficients sit every ``stride`` indices, the last at the truncation order.
    ``radius_estimate`` is a geometric-ratio fit of the convergence radius.
    ``bound_K`` and ``bound_alpha`` fit ``|Q_j| <= bound_K^(j-bound_alpha)/j^2``
    over the stored ``j >= 1`` only, so they say nothing of the omitted ones.
    ``lattice_terms`` is how many lattice terms the recurrence ran to for the fit.
    """

    q_coeffs: np.ndarray
    f_coeffs: np.ndarray
    radius_estimate: float
    bound_K: float
    bound_alpha: float
    stride: int
    lattice_terms: int

    def remainder_estimate(self, r: float) -> float:
        """Geometric estimate of the truncation remainder |sum_{j>N} Q_j r^{2j}|."""
        t = (r / self.radius_estimate) ** 2
        if t >= 1.0:
            return np.inf
        # the first omitted term sits `stride` slots past the last stored one
        u = t**self.stride
        n = len(self.q_coeffs) - 1
        lead = abs(self.q_coeffs[n]) * r ** (2 * n)
        return lead * u / (1.0 - u)


def _growth_fit(q: np.ndarray) -> tuple[float, float]:
    """Smallest K (at alpha=1) with |Q_j| <= K^(j-alpha)/j^2 over stored j>=1."""
    alpha = 1.0
    K = 1.0
    for j in range(1, len(q)):
        if q[j] == 0.0:
            continue
        val = (j * j * abs(q[j])) ** (1.0 / (j - alpha)) if j > alpha else np.inf
        K = max(K, val)
    return float(K * (1.0 + 1e-12)), alpha


def build_series(params: ProfileParams, tol: float) -> PowerSeries:
    """Construct the origin Taylor series to the remainder estimate ``tol``.

    The recurrence runs at SERIES_DIGITS decimal digits to 16 lattice terms ``Q_{k j0}``,
    then extends them to twice as many, and so on, each run rounded to float64.  On each
    run the convergence radius is fitted to the last half of the lattice terms, and the
    stored truncation N is the shortest prefix whose geometric remainder estimate at the
    planned handoff radius (80% of that radius) is below ``tol``.  Growth stops once such an N
    exists and the doubling moved the radius by less than 5e-3 relative; past
    SERIES_MAX_TERMS it raises NoConvergence.  At tol=1e-12 it stops at 32 terms at every
    (mu, j0) tried, though the fit still drifts there: at mu=0 it gives 0.9042, 0.9018,
    0.9008 and 0.9000 at 15, 30, 50 and 100 terms.  That drift moves only the planned
    handoff; ``solve_profile`` checks the remainder estimate at its own handoff radius and
    the sampled residual against ``tol``.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    # the recurrence keeps every coefficient up to its order, lattice or not: SERIES_MAX_TERMS
    # lattice terms are 256 j0 dense ones, so j0 <= 4096 caps them at 2^20 (about 0.1 GB of
    # Decimals), where the default j0 of 2,000,002 at mu = 0.333333 would ask for 5e8
    if params.j0 * SERIES_MAX_TERMS > 2**20:
        raise DomainError(f"j0={params.j0} above {2**20 // SERIES_MAX_TERMS}: the series "
                          f"would hold {params.j0 * SERIES_MAX_TERMS} coefficients")
    stride = params.j0
    terms, prev, Q = 16, None, None
    while True:
        Q = series_recurrence(params.mu, params.beta, terms * stride, j0=params.j0,
                              q_j0=params.q_j0, prefix=Q)
        q = np.zeros(len(Q))
        q[::stride] = [float(c) for c in Q[::stride]]

        nz = np.nonzero(q[1:])[0] + 1
        if len(nz) >= 4:
            # geometric-ratio fit of log|Q_j| over the last half of nonzero indices
            js = nz[len(nz) // 2:]
            slope = np.polyfit(js, np.log(np.abs(q[js])), 1)[0]
            growth = math.exp(slope)
            radius = 1.0 / math.sqrt(growth)
        else:
            radius = 1.0

        # truncate on the sparsity stride: nonzero coefficients sit at multiples of
        # j0, so the remainder after keeping q[n] starts at index n + j0
        r_h_plan = 0.8 * radius
        u = (r_h_plan / radius) ** (2 * stride)
        n_trunc = None
        for n in range(2 * stride, len(q) - stride, stride):
            lead = abs(q[n + stride]) * r_h_plan ** (2 * (n + stride))
            if lead / (1.0 - u) < tol:
                n_trunc = n
                break
        settled = prev is not None and abs(radius - prev) < 5e-3 * radius
        if n_trunc is not None and settled:
            break
        if terms >= SERIES_MAX_TERMS:
            raise NoConvergence(
                f"series remainder not below tol={tol} within {terms} lattice terms"
                if n_trunc is None else
                f"fitted radius moved {prev:.6g} -> {radius:.6g} at {terms} lattice terms"
            )
        terms, prev = 2 * terms, radius

    qk = q[: n_trunc + 1].copy()
    fk = qk / (2 * np.arange(n_trunc + 1) + 3)
    K, alpha = _growth_fit(qk)
    return PowerSeries(
        q_coeffs=qk,
        f_coeffs=fk,
        radius_estimate=radius,
        bound_K=K,
        bound_alpha=alpha,
        stride=stride,
        lattice_terms=terms,
    )


def _series_values(series: PowerSeries, r: np.ndarray):
    """``(Q, f, dQ/dr)`` of the series at ``r``, by one Horner pass in ``r^2`` over the three
    series stacked as rows, ``dQ/dr = r sum_j 2(j+1) Q_{j+1} r^{2j}`` padded with a top zero.

    A power whose three coefficients are all zero gets the multiply but not the add, so the
    lattice-sparse series cost about half the adds.  Adding a zero changes only the sign of
    a zero, and the constant term, which is always added, settles that sign as the full
    pass does: Q and f end on their nonzero Q_0 and f_0, dQ/dr on ``+0``.  So each row keeps
    the bits of ``radial.horner`` on its own coefficients (and of ``polyval``).
    """
    n = len(series.q_coeffs)
    rows = np.zeros((n, 3, 1))
    rows[:, 0, 0] = series.q_coeffs
    rows[:, 1, 0] = series.f_coeffs
    rows[:-1, 2, 0] = 2 * np.arange(1, n) * series.q_coeffs[1:]
    live = rows.any(axis=(1, 2))
    live[0] = True
    x = np.square(r)
    out = np.zeros((3, len(r)))
    for c, nonzero in zip(rows[::-1], live[::-1]):
        out *= x
        if nonzero:
            out += c
    out[2] *= r
    return out


def _evaluate(r, params: ProfileParams, series: PowerSeries, r_h: float, sol, r_max: float,
              deriv: bool = False):
    """``(Q, f, dQ/dr)`` at ``r`` in ``[0, r_max]``: the series on ``r <= r_h``, the
    continuation ``sol`` (or the constant ``(Q0, f0)`` when it is None) outside,
    with ``dQ/dr`` from the ODE right-hand side there.  Scalars in, scalars out.
    With ``deriv`` a fourth item follows: the continuation's own ``(dQ/ds, df/ds)`` at
    the points outside ``r_h``, from the same evaluation, or None when ``sol`` is."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > r_max * (1 + 1e-12)):
        raise OutOfRange(f"radius outside [0, {r_max}]")
    rs = np.atleast_1d(r)
    q, f, dq = np.empty_like(rs), np.empty_like(rs), np.empty_like(rs)
    inner = rs <= r_h
    ri = rs[inner]
    if ri.size:
        q[inner], f[inner], dq[inner] = _series_values(series, ri)
    outer = ~inner
    tail = None
    if np.any(outer):
        ro = rs[outer]
        if sol is None:
            q[outer], f[outer] = params.q0, params.f0
        else:
            q[outer], f[outer], *tail = sol(np.log(ro), deriv=deriv)
        qo, fo = q[outer], f[outer]
        dq[outer] = ((1.0 - params.mu) * qo * qo - qo) / ((params.beta - fo) * ro)
    if r.ndim == 0:
        return q[0], f[0], dq[0]
    return (q, f, dq, tail) if deriv else (q, f, dq)


@dataclass(frozen=True)
class RadialProfile:
    """The profile: its spectral representation, sampled on a graded grid (node
    r=0, then 64 log nodes/decade).

    Inside ``handoff_radius`` Q and f are the Taylor ``series``; outside they
    are ``sol``, the ``TaylorTail`` in ``s = ln r`` (None for the constant
    profile).  ``q`` and ``sample`` evaluate that representation on
    ``[0, r_max]``; ``(q_vals, f_vals, dq_vals)`` is ``sample(grid)``.
    """

    params: ProfileParams
    series: PowerSeries
    sol: object
    grid: np.ndarray
    q_vals: np.ndarray
    f_vals: np.ndarray
    dq_vals: np.ndarray
    handoff_radius: float
    tail_exponent: float
    residual_max: float

    @property
    def r_max(self) -> float:
        return float(self.grid[-1])

    def q(self, r):
        return self.sample(r)[0]

    def sample(self, r):
        """``(Q, f, dQ/dr)`` at ``r``: ``dQ/dr`` is the series derivative inside
        ``handoff_radius`` and the ODE right-hand side outside."""
        return _evaluate(r, self.params, self.series, self.handoff_radius, self.sol, self.r_max)


#: order of the Taylor continuation past the handoff radius
TAYLOR_ORDER = 24


@dataclass(frozen=True, eq=False)
class TaylorTail:
    """The continuation past the handoff radius, one Taylor polynomial in ``s = ln r`` per
    step: ``coeffs[c, k, i]`` is the ``k``-th coefficient of component ``c`` (Q, then f) in
    powers of ``s - knots[i]`` on step ``i``.  Called on ``s`` it gives ``(Q, f)``, and with
    ``deriv`` also their ``s``-derivatives, from the same gathered polynomials.
    ``remainder`` is the largest per-step truncation estimate."""

    knots: np.ndarray
    coeffs: np.ndarray
    remainder: float

    def __call__(self, s, deriv: bool = False):
        i = np.clip(np.searchsorted(self.knots, s, side="right") - 1, 0, len(self.knots) - 1)
        c, h = self.coeffs[:, :, i], s - self.knots[i]
        values = horner(c[0], h), horner(c[1], h)
        if not deriv:
            return values
        d = np.arange(1, c.shape[1])[:, None] * c[:, 1:]
        return values + (horner(d[0], h), horner(d[1], h))


def _continue(mu: float, beta: float, s_lo: float, s_hi: float, q_h: float, f_h: float):
    """Taylor continuation from ``(Q, f) = (q_h, f_h)`` at ``s_lo`` to ``s_hi`` of
    ``dQ/ds = ((1-mu) Q^2 - Q)/(beta - f)``, ``df/ds = Q - 3 f``.

    Each step runs the recurrence to TAYLOR_ORDER by Cauchy products, ``P = dQ/ds``
    solving ``P (beta - f) = (1-mu) Q^2 - Q`` term by term, and takes ``e^{-2}`` times
    the least radius the last two coefficients give relative to each component's value
    (Jorba & Zou, Experimental Math. 14, 2005), clipped at ``s_hi``.  After each step
    ``f < Q/3`` raises RegionExitScenario1 and ``Q <= 0`` RegionExitScenario2; ``beta - f``
    below 5% of its start, or a step below 1e-9, raises StepSizeUnderflow.
    """
    p = TAYLOR_ORDER
    knots, coeffs, remainder = [], [], 0.0
    s, q_s, f_s = s_lo, q_h, f_h
    while s < s_hi:
        if beta - f_s < 0.05 * (beta - f_h):
            raise StepSizeUnderflow(f"beta - f collapsed at r={math.exp(s):.4g}")
        q, f, dq = [q_s], [f_s], []
        for k in range(p):
            # both Cauchy sums add left to right from 0.0: builtin sum compensates
            # floats since Python 3.12, which would change the bits with the interpreter
            qq = dqf = 0.0
            for x in map(mul, q, reversed(q)):
                qq += x
            for x in map(mul, dq, f[k:0:-1]):
                dqf += x
            dq.append(((1.0 - mu) * qq - q[k] + dqf) / (beta - f_s))
            q.append(dq[k] / (k + 1))
            f.append((q[k] - 3.0 * f[k]) / (k + 1))
        radii = [[(abs(c[0]) / abs(c[j])) ** (1.0 / j) if c[j] else math.inf
                  for j in (p - 1, p)] for c in (q, f)]
        h = math.exp(-2.0) * min(map(min, radii))
        if not h > 1e-9:
            raise StepSizeUnderflow(f"Taylor step {h:.3g} at r={math.exp(s):.4g}")
        h = min(h, s_hi - s)
        # geometric estimate of the omitted terms: |c_0| u^(p+1)/(1 - u), u = h/radius_p
        for c, (_, r_p) in zip((q, f), radii):
            remainder = max(remainder, abs(c[0]) * (h / r_p) ** (p + 1) / (1.0 - h / r_p))
        knots.append(s)
        coeffs.append((q, f))
        s = s_hi if h == s_hi - s else s + h
        q_s = f_s = 0.0  # Horner in h on floats: the multiply and add of radial.horner
        for a, b in zip(reversed(q), reversed(f)):
            q_s, f_s = q_s * h + a, f_s * h + b
        if f_s - q_s / 3.0 < 0.0:
            raise RegionExitScenario1(f"trajectory crossed f = Q/3 at r={math.exp(s):.4g}")
        if q_s <= 0.0:
            raise RegionExitScenario2(f"Q crossed 0 at r={math.exp(s):.4g}")
    return TaylorTail(np.array(knots), np.transpose(coeffs, (1, 2, 0)), remainder)


def make_grid(r_max: float) -> np.ndarray:
    """Graded radial grid: node at 0, then 64 log-spaced nodes per decade, 0.05 to r_max."""
    n_dec = math.log10(r_max / 0.05)
    n = int(round(n_dec * 64))
    rs = 0.05 * 10 ** (np.arange(n + 1) / 64)
    rs[-1] = r_max
    return np.concatenate(([0.0], rs))


def solve_profile(
    params: ProfileParams,
    series: PowerSeries,
    r_max: float = 1.0e4,
    tol: float = 1.0e-10,
) -> RadialProfile:
    """Continue the series solution to ``r_max`` and sample it on the graded grid.

    The handoff radius is the largest scanned radius where the series remainder
    estimate is below ``tol`` and ``beta - f`` retains at least half its origin
    value (keeps the ODE right-hand side well conditioned).  ``_continue`` takes
    it on in ``s = ln r``.  ``residual_max``, which must stay within ``10*tol``, is
    the largest of the series residual inside, the polynomials' defect against
    the ODE outside, and the continuation's truncation estimate.
    """
    if r_max < 1.0e3:
        raise DomainError("r_max must be >= 1e3")
    mu, beta = params.mu, params.beta

    # --- handoff radius ---
    # horner on 0-d values: one point through the stacked _series_values costs about 4x as much
    scan = np.linspace(0.95 * series.radius_estimate, 0.05, 400)
    r_h = next((float(r) for r in scan if series.remainder_estimate(r) < tol
                and (beta - horner(series.f_coeffs, r * r)) > 0.5 * (beta - params.f0)), None)
    if r_h is None:
        raise NoConvergence("no handoff radius brings the series remainder estimate below tol")

    constant = params.q_j0 == 0.0
    x_h = r_h * r_h
    sol = None if constant else _continue(mu, beta, math.log(r_h), math.log(r_max),
                                          float(horner(series.q_coeffs, x_h)),
                                          float(horner(series.f_coeffs, x_h)))

    grid = make_grid(r_max)
    q_vals, f_vals, dq_vals, tail = _evaluate(grid, params, series, r_h, sol, r_max,
                                              deriv=True)

    # --- residuals: the series on the inner grid, the polynomials' defect outside ---
    inner = (grid > 0) & (grid <= r_h)
    outer = grid > r_h
    ri = grid[inner]
    dq_i = dq_vals[inner]
    res_i = (
        q_vals[inner]
        + beta * ri * dq_i
        - ri * f_vals[inner] * dq_i
        - (1.0 - mu) * q_vals[inner] ** 2
    )
    residual = float(np.max(np.abs(res_i))) if len(ri) else 0.0
    if tail:
        dqds, dfds = tail
        qo, fo = q_vals[outer], f_vals[outer]
        res_q = qo + (beta - fo) * dqds - (1.0 - mu) * qo * qo
        res_f = dfds - (qo - 3.0 * fo)
        residual = max(residual, float(np.max(np.abs(res_q))), float(np.max(np.abs(res_f))),
                       sol.remainder)

    if residual > 10.0 * tol:
        raise NoConvergence(f"sampled residual {residual:.3g} exceeds 10*tol")

    tail_exp = 0.0
    if not constant:
        pos = grid > 0
        if np.any(q_vals <= 0) or np.any(f_vals <= 0):
            raise RegionExitScenario2("sampled profile not positive")
        # near r=0 the margin is O(r^{2 j0}) against f = O(1), so allow the
        # cancellation roundoff of the subtraction
        margin = f_vals[pos] - q_vals[pos] / 3.0
        if np.any(margin < -1e-13 * f_vals[pos]):
            raise RegionExitScenario1("sampled profile left the trapping region")
        # tail exponent over the last decade
        tail = grid >= r_max / 10.0
        tail_exp = float(np.polyfit(np.log(grid[tail]), np.log(q_vals[tail]), 1)[0])

    return RadialProfile(
        params=params,
        series=series,
        sol=sol,
        grid=grid,
        q_vals=q_vals,
        f_vals=f_vals,
        dq_vals=dq_vals,
        handoff_radius=r_h,
        tail_exponent=tail_exp,
        residual_max=residual,
    )


def classify_beta(mu: float, beta: float) -> tuple[str, int | None]:
    """Phase-portrait classification of a candidate similarity exponent.

    Returns ``(label, j0)`` with label in {"Trivial", "Nontrivial", "Degenerate"}.
    Below or at ``f0`` (to 1e-9) the stagnation point sits above/on the critical
    line and only the constant solution exists; above it a nontrivial branch
    requires the resonance ``beta - f0 = 1/(2 j0)`` with integer ``j0 >= 2`` and
    ``beta < 1/2``.
    """
    if not (0.0 < beta < 0.5):
        raise DomainError(f"beta={beta} outside (0, 1/2)")
    f0 = 1.0 / (3.0 * (1.0 - mu))
    gap = beta - f0
    if gap <= 1e-9:
        return "Trivial", None
    j0_real = 1.0 / (2.0 * gap)
    j0 = int(round(j0_real))
    if abs(j0_real - j0) < 1e-6 * j0_real:
        _, j0_min = compute_admissibility(mu)
        if j0 >= max(2, j0_min):
            return "Nontrivial", j0
        return "Degenerate", j0
    return "Trivial", None
