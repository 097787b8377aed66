"""Linearized operator around the profile, singular weights, and coercivity probes.

The linearization of the renormalized flow at the profile ``Q`` acts on radial
perturbations ``g`` as

    L g = -(g + beta*r*g') + r*f_Q*g' + (dQ/dr)*(1/r^2) \\int_0^r g s^2 ds
          + 2(1-mu)*Q*g,

and is probed in the weighted space ``L^2_w`` with ``w(r) = r^{-A} + B``.  All
quadrature runs on a uniform grid in ``u = ln r`` so the ``r^{-A}`` singularity
is resolved; test functions carry enough vanishing at the origin to stay
integrable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergentIntegrand,
    DomainError,
    GridMismatch,
    NoConvergence,
    OrderUnsupported,
)
from .profile import ProfileParams, RadialProfile
from .radial import cumulative_simpson_uniform, horner


# ---------------------------------------------------------------------------
# analytic test functions: polynomial * gaussian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyGauss:
    """Radial function ``P(r) * exp(-r^2/s^2)`` with polynomial ``P``.

    Closed under differentiation, multiplication by powers of r, and dilation,
    which gives exact derivatives for all probe quantities.  ``coeffs[k]`` is
    the coefficient of ``r^k``.
    """

    coeffs: np.ndarray
    s: float

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return horner(self.coeffs, r) * np.exp(-(r * r) / (self.s * self.s))

    @property
    def vanish_order(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[0]) if len(nz) else 0

    def deriv(self) -> "PolyGauss":
        c = self.coeffs
        dc = np.polynomial.polynomial.polyder(c)
        shifted = np.concatenate(([0.0], c)) * (-2.0 / self.s**2)
        n = max(len(dc), len(shifted))
        out = np.zeros(n)
        out[: len(dc)] += dc
        out[: len(shifted)] += shifted
        return PolyGauss(out, self.s)

    def times_r(self, k: int = 1) -> "PolyGauss":
        return PolyGauss(np.concatenate((np.zeros(k), self.coeffs)), self.s)

    def div_r(self, k: int = 1) -> "PolyGauss":
        if np.any(self.coeffs[:k] != 0.0):
            raise DomainError("polynomial part not divisible by r^k")
        return PolyGauss(self.coeffs[k:].copy(), self.s)

    def __add__(self, other: "PolyGauss") -> "PolyGauss":
        if other.s != self.s:
            raise DomainError("mismatched gaussian scales")
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return PolyGauss(out, self.s)

    def scale(self, a: float) -> "PolyGauss":
        return PolyGauss(a * self.coeffs, self.s)

    def laplacian(self) -> "PolyGauss":
        """Radial 3D Laplacian g'' + (2/r) g' (exact; needs smooth even input)."""
        d = self.deriv()
        return d.deriv() + d.div_r().scale(2.0)

    def dilate(self, lam: float, beta: float) -> "PolyGauss":
        """Return ``lam * g(lam^beta r)``."""
        k = np.arange(len(self.coeffs), dtype=float)
        return PolyGauss(lam * self.coeffs * lam ** (beta * k), self.s * lam ** (-beta))

    def dilation_generator(self, beta: float) -> "PolyGauss":
        """Return ``g + beta * r * g'`` (derivative of dilate at lam=1)."""
        return self + self.deriv().times_r().scale(beta)


@dataclass(frozen=True)
class TestFunction:
    """Probe function ``r^p * P(r) * exp(-r^2/s^2)`` with even polynomial P.

    ``poly_coeffs[k]`` multiplies ``r^{2k}``; ``p`` must make ``g`` integrable
    against ``r^{-A+2} dr`` near the origin (p >= (A-1)/2 rounded up to even).
    """

    p: int
    s: float
    poly_coeffs: np.ndarray
    seed_label: str = ""

    def to_polygauss(self) -> PolyGauss:
        c = np.zeros(self.p + 2 * len(self.poly_coeffs) - 1)
        c[self.p :: 2] = self.poly_coeffs
        return PolyGauss(c, self.s)


def min_vanish_order(A: int) -> int:
    """Least even p with r^{2p} integrable against r^{-A+2} dr near 0."""
    p = math.ceil((A - 1) / 2)
    return p + (p % 2)


def _probe_suite(p0: int, count: int, seed: int) -> list[TestFunction]:
    """Seeded probe suite: vanishing orders alternate p0, p0+2; scales cycle 0.5..4."""
    rng = np.random.default_rng(seed)
    scales = (0.5, 1.0, 2.0, 4.0)
    suite = []
    for i in range(count):
        p = p0 if i % 2 == 0 else p0 + 2
        s = scales[i % len(scales)]
        coeffs = rng.uniform(-1.0, 1.0, size=7)  # even degrees 0..12
        suite.append(TestFunction(p=p, s=s, poly_coeffs=coeffs, seed_label=f"{seed}:{i}"))
    return suite


def make_test_suite(A: int, count: int = 50, seed: int = 12345) -> list[TestFunction]:
    """Reproducible randomized probe suite spanning near-origin and tail scales."""
    return _probe_suite(min_vanish_order(A), count, seed)


# ---------------------------------------------------------------------------
# quadrature backbone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialQuad:
    """Composite-Simpson quadrature on a uniform grid in u = ln r.

    ``integrate(F, power)`` approximates ``\\int_0^\\infty F(r) r^power dr``;
    node count must be 1 mod 4 so the half-resolution estimate reuses nodes.
    """

    u: np.ndarray
    r: np.ndarray = field(default=None, compare=False)

    @classmethod
    def make(cls, u_min: float = -30.0, u_max: float = math.log(100.0), n: int = 8001) -> "RadialQuad":
        if n % 4 != 1:
            raise DomainError("node count must be 1 mod 4")
        u = np.linspace(u_min, u_max, n)
        return cls(u=u, r=np.exp(u))

    def _simpson_weights(self, m: int, h: float) -> np.ndarray:
        w = np.ones(m)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)

    def integrate(self, F: np.ndarray, power: int = 2, coarse: bool = False):
        """Quadrature of ``F(r) r^power dr`` = ``F e^{(power+1)u} du``."""
        return _WeightedL2(self, 0, 0.0, power).integrate(F, coarse)

    def cumulative(self, F: np.ndarray, power: int = 2) -> np.ndarray:
        """Cumulative ``\\int_0^{r_i} F s^power ds`` (below-grid part negligible
        for integrands vanishing at the origin)."""
        return _WeightedL2(self, 0, 0.0, power).cumulative(F)


@dataclass(frozen=True)
class SampledRadial:
    """Radial function sampled on a RadialQuad grid."""

    r: np.ndarray
    vals: np.ndarray
    vanish_order: int


# ---------------------------------------------------------------------------
# weight parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightParams:
    """Singular weight ``w = r^{-A} + B`` with admissibility certificates.

    ``cert_wholenorm`` and ``cert_tailnorm`` store ``||r^{-1/2} dQ/dr||_{L^2}``
    over all radii and over ``r >= R1``.
    """

    A: int
    B: float
    R1: float
    cert_tailnorm: float
    cert_wholenorm: float
    q_origin: float = 1.0
    q_at_R1: float = 0.0
    mu: float = 0.0

    def invariant_checks(self, j0: int) -> dict[str, bool]:
        """The four admissibility conditions, evaluated from stored certificates."""
        c1 = 1.0 + (-self.A + 3.0) / (4.0 * j0) <= -1.0
        c2 = math.sqrt(1.0 / (4.0 * math.pi * (self.A + 3.0))) * self.cert_wholenorm <= 1.0 / 100.0
        c3 = 1.5 * self.q_at_R1 <= 1.0 / 1000.0 and self.cert_tailnorm <= 1.0 / 5000.0
        with np.errstate(over="ignore"):  # R1^A is inf, and c4 fails, at large A
            r1a = float(np.float_power(self.R1, self.A))
        c4 = (
            (1.5 - 2.0 * self.mu) * self.B * r1a * self.q_origin
            + 50.0 * self.B * r1a * self.cert_wholenorm**2
            <= 1.0 / 100.0
        )
        return {
            "exponent_gap": c1,
            "wholenorm_smallness": c2,
            "tail_smallness": c3,
            "flat_part_smallness": c4,
        }


def _dq_weighted_norm(profile: RadialProfile, r_lo: float = 0.0) -> float:
    """``||r^{-1/2} dQ/dr||_{L^2(r >= r_lo)}`` by Simpson in u = ln r."""
    u_lo = -30.0 if r_lo <= 0.0 else math.log(r_lo)
    n = 4001
    q = RadialQuad.make(u_min=u_lo, u_max=math.log(profile.r_max), n=n)
    dq = profile.sample(q.r)[2]
    return math.sqrt(4.0 * math.pi * q.integrate(dq * dq, power=1))


def select_weight(
    profile: RadialProfile,
    j0: int,
    A: int | None = None,
) -> WeightParams:
    """Choose weight parameters per the admissibility conditions.

    ``A`` must be a multiple of 4 with ``A >= 8 j0 + 3``; the default is the
    least such exponent, ``8 j0 + 4``.  The whole-norm certificate is computed
    and stored, not enforced: ``invariant_checks`` reports it.  ``R1`` is the
    smallest profile grid radius passing both tail conditions; ``B`` is the
    largest power of ten passing the flat-part condition.
    """
    if profile.tail_exponent >= -2.0:
        raise DomainError("profile tail too fat for the weighted estimates")
    least_A = 8 * j0 + 4  # the least multiple of 4 with A >= 8 j0 + 3
    if A is None:
        A = least_A
    elif A % 4 or A < least_A:
        raise DomainError("A must be a multiple of 4 with A >= 8 j0 + 3")
    wholenorm = _dq_weighted_norm(profile)

    # R1: smallest profile grid radius passing (3/2) Q <= 1/1000 and the
    # tail-norm bound.  The tail norms at every node come from one reverse
    # cumulative Simpson integral of dQ^2 r^2 du in the node index, in which
    # the grid is built uniform (its last interval is clamped short in u = ln r).
    grid = profile.grid[1:]
    q_vals = profile.q_vals[1:]
    y = profile.dq_vals[1:] ** 2 * grid**2 * np.gradient(np.log(grid))
    tail_sq = cumulative_simpson_uniform(y[::-1], 1.0)[::-1]
    passing = np.flatnonzero(
        (1.5 * q_vals <= 1e-3) & (np.sqrt(4.0 * math.pi * tail_sq) <= 1.0 / 5000.0)
    )
    if not len(passing):
        raise DomainError("no radius passes the tail conditions")
    i1 = passing[0]
    R1 = float(grid[i1])
    tailnorm = _dq_weighted_norm(profile, r_lo=R1)

    # B: largest 10^{-k} passing the flat-part smallness condition
    mu = profile.params.mu
    q0 = profile.params.q0
    coef = (1.5 - 2.0 * mu) * q0 + 50.0 * wholenorm**2
    log10_bound = -2.0 - A * math.log10(R1) - math.log10(coef)
    k = max(1, math.ceil(-log10_bound))
    B = 10.0 ** (-k)

    return WeightParams(
        A=A,
        B=B,
        R1=R1,
        cert_tailnorm=tailnorm,
        cert_wholenorm=wholenorm,
        q_origin=q0,
        q_at_R1=float(q_vals[i1]),
        mu=mu,
    )


# ---------------------------------------------------------------------------
# the weighted-L^2 core and the linearized operator
# ---------------------------------------------------------------------------


def _sample(x: PolyGauss | SampledRadial, quad: RadialQuad) -> tuple[np.ndarray, int]:
    """Grid values and vanishing order of an analytic or sampled radial function."""
    if isinstance(x, PolyGauss):
        return x(quad.r), x.vanish_order
    if x.r.shape != quad.r.shape or not np.allclose(x.r, quad.r):
        raise GridMismatch("sampled function not on the quadrature grid")
    return x.vals, x.vanish_order


def _sample_slope(x: PolyGauss | SampledRadial, quad: RadialQuad):
    """``(values, d/dr, vanishing order)``: analytic slope, or ``d/du / r`` for samples."""
    vals, p = _sample(x, quad)
    if isinstance(x, PolyGauss):
        return vals, x.deriv()(quad.r), p
    return vals, np.gradient(vals, quad.u) / quad.r, p


class _WeightedL2:
    """The pairing ``\\int a b (r^{-A} + B) r^power dr`` on one RadialQuad.

    Built once per ``(quad, A, B, power)``, it holds the arrays every pairing
    on the grid reuses: the split-weight factor ``r^{-A/2}`` (formed on first
    use; only the guarded ``singular`` and ``grams`` read it), ``r^{power+1}``
    on the fine and the coarse (every other) nodes, and both Simpson weight
    vectors.  It pairs grid samples with their vanishing orders, so a function
    is sampled once however many pairings it enters.  ``A = B = 0`` (weight
    1) is the plain quadrature behind ``RadialQuad.integrate``.
    """

    def __init__(self, quad: RadialQuad, A: int, B: float, power: int):
        u, r = quad.u, quad.r
        self.quad, self.A, self.B, self.power = quad, A, B, power
        self.rp = r ** (power + 1)
        self.rp_coarse = r[::2] ** (power + 1)
        self.w = quad._simpson_weights(len(u), u[1] - u[0])
        self.w_coarse = quad._simpson_weights(len(u[::2]), u[2] - u[0])

    @functools.cached_property
    def half(self) -> np.ndarray:
        return np.float_power(self.quad.r, -self.A / 2.0)

    def integrate(self, F: np.ndarray, coarse: bool = False) -> float:
        """``\\int F r^power dr`` by Simpson in u on the fine or the coarse nodes."""
        if coarse:
            return float(np.dot(self.w_coarse, F[::2] * self.rp_coarse))
        return float(np.dot(self.w, F * self.rp))

    def cumulative(self, F: np.ndarray) -> np.ndarray:
        """Cumulative ``\\int_0^{r_i} F s^power ds`` (below-grid part negligible
        for integrands vanishing at the origin)."""
        integrand = F * self.rp
        h = self.quad.u[1] - self.quad.u[0]
        return cumulative_simpson_uniform(integrand, h) + integrand[0] / (self.power + 1.0)

    def singular(self, av: np.ndarray, pa: int, bv: np.ndarray, pb: int) -> np.ndarray:
        """``a b r^{-A}`` on the grid.

        The singular factor is split evenly between the two inputs so neither
        partial product under/overflows.  Raises DivergentIntegrand unless the
        combined vanishing order makes ``r^{pa+pb-A+power}`` integrable at 0.
        """
        self._guard(pa, pb)
        half = self.half
        return (av * half) * (bv * half)

    def _guard(self, pa: int, pb: int) -> None:
        if not pa + pb + self.power > self.A - 1:
            raise DivergentIntegrand(
                f"vanishing order {pa}+{pb} with r^{self.power} dr not above A-1={self.A - 1}"
            )

    def grams(self, X: np.ndarray, px: int, Y: np.ndarray, py: int) -> np.ndarray:
        """``\\int x_i y_j r^{-A} r^power dr`` and ``\\int x_i y_j r^power dr`` over the rows of
        ``X`` and ``Y`` (vanishing orders ``px``, ``py``; guarded and split as in ``singular``),
        shape ``(2, 2, len(X), len(Y))``: (fine, coarse) nodes, then (singular, flat)."""
        self._guard(px, py)
        out = np.empty((2, 2, len(X), len(Y)))
        levels = ((1, self.w, self.rp), (2, self.w_coarse, self.rp_coarse))
        for level, (step, w, rp) in enumerate(levels):
            x, y = X[:, ::step] * (w * rp), Y[:, ::step]
            out[level, 1] = x @ y.T
            x *= self.half[::step]
            out[level, 0] = x @ (y * self.half[::step]).T
        return out

    def integrand(self, av: np.ndarray, pa: int, bv: np.ndarray, pb: int) -> np.ndarray:
        """``a b (r^{-A} + B)`` on the grid, under the guard of ``singular``."""
        return self.singular(av, pa, bv, pb) + self.B * av * bv

    def pair(self, av: np.ndarray, pa: int, bv: np.ndarray, pb: int) -> float:
        """``\\int a b (r^{-A} + B) r^power dr`` on the fine nodes.

        Panel halving estimates the quadrature error and raises NoConvergence
        above 1e-8 relative.
        """
        F = self.integrand(av, pa, bv, pb)
        return _halving_checked(self.integrate(F), self.integrate(F, coarse=True))

    def inner(self, av: np.ndarray, pa: int, bv: np.ndarray, pb: int) -> float:
        """``4 pi \\int a b (r^{-A} + B) r^power dr``, the radial 3D inner product."""
        return 4.0 * math.pi * self.pair(av, pa, bv, pb)


def _halving_checked(fine, coarse):
    """``fine``, after the panel-halving check against the ``coarse`` quadrature (scalars or
    arrays): raises NoConvergence where the error estimate exceeds 1e-8 relative."""
    err = np.abs(fine - coarse) / 15.0
    if np.any(err > 1e-8 * np.abs(fine) + 1e-300):
        raise NoConvergence(f"quadrature error estimate {np.nanmax(err):.3g} too large")
    return fine


def _family_rows(p: int, s: float, K: int, quad: RadialQuad, L_vals) -> np.ndarray:
    """The rows ``phi_k = r^{p+2k} e^{-r^2/s^2}``, ``k < K``, each the last times ``r^2``,
    then the rows ``L_vals(phi_k, phi_k')``, each over the slope ``phi_k ((p+2k)/r - 2r/s^2)``."""
    r = quad.r
    r2 = r * r
    rows = np.empty((2 * K, len(r)))
    rows[0] = r**p * np.exp(-r2 / (s * s))
    for k in range(1, K):
        np.multiply(rows[k - 1], r2, out=rows[k])
    phi, L_rows = rows[:K], rows[K:]
    np.multiply(phi, (p + 2.0 * np.arange(K))[:, None] / r - (2.0 / (s * s)) * r, out=L_rows)
    for row, slope in zip(phi, L_rows):
        slope[:] = L_vals(row, slope)
    return rows


def _probe_quotients(suite: list[TestFunction], core: _WeightedL2, L_vals, Bs, bound: float):
    """Yield, for each flat part ``B`` in ``Bs``, the Rayleigh quotient ``(Lg, g)_w / (g, g)_w``
    under ``w = r^{-A} + B`` of every suite member, with its ``_rayleigh_quotient`` flag.

    ``L`` is linear, so a member ``g = sum_k a_k phi_k`` of the family ``(p, s, K)`` with
    rows ``phi_k = r^{p+2k} e^{-r^2/s^2}`` has ``(Lg, g)_w = a^T M a`` and ``(g, g)_w =
    a^T G a``, ``M`` and ``G`` from ``core.grams``.  Each family's rows are built once,
    whatever the number of ``B``; each quadratic form passes ``pair``'s panel-halving check.
    """
    families: dict[tuple[int, float, int], list[int]] = {}
    for idx, tf in enumerate(suite):
        families.setdefault((tf.p, tf.s, len(tf.poly_coeffs)), []).append(idx)
    forms = np.empty((2, 2, 2, len(suite)))  # (den, num), (fine, coarse), (singular, flat)
    for (p, s, K), members in families.items():
        a = np.array([suite[i].poly_coeffs for i in members])
        rows = _family_rows(p, s, K, core.quad, L_vals)
        grams = core.grams(rows, p, rows[:K], p).reshape(2, 2, 2, K, K)  # phi: G, L phi: M
        forms[..., members] = np.einsum("lwfij,ni,nj->flwn", grams, a, a)
    for B in Bs:
        den, num = (_halving_checked(*(f[:, 0] + B * f[:, 1])).tolist() for f in forms)
        yield [_rayleigh_quotient(n, d, bound) for n, d in zip(num, den)]


def _rayleigh_quotient(num: float, den: float, bound: float) -> tuple[float, bool]:
    """``num / den`` and whether it is flagged.

    Only a finite quotient at or below ``bound`` passes: an overflowing
    weight gives NaN, which must not pass.
    """
    quot = num / den
    return quot, not (math.isfinite(quot) and quot <= bound)


def _operator_coeffs(params: ProfileParams, r, Q, fq, dQ):
    """Grid coefficients of ``L``: ``beta r``, ``r f_Q``, ``dQ/dr``, ``2(1-mu) Q``, ``r^2``."""
    return params.beta * r, r * fq, dQ, 2.0 * (1.0 - params.mu) * Q, r * r


def _L_vals(core: _WeightedL2, coeffs, gv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """``L g`` on the grid from the samples of ``g`` and ``g'``; ``core.power`` is 2."""
    beta_r, r_fq, dQ, q2, r2 = coeffs
    J = core.cumulative(gv) / r2  # (1/r^2) int_0^r g s^2 ds
    return -(gv + beta_r * dg) + r_fq * dg + dQ * J + q2 * gv


def apply_L(
    profile: RadialProfile,
    params: ProfileParams,
    g: PolyGauss | SampledRadial,
    quad: RadialQuad,
) -> SampledRadial:
    """Sample ``L g`` on the quadrature grid.

    For PolyGauss input the advective derivative is analytic; sampled input
    falls back to finite differences in u.  The nonlocal term uses cumulative
    Simpson prefix sums of ``g s^2``.
    """
    gv, dg, p = _sample_slope(g, quad)
    coeffs = _operator_coeffs(params, quad.r, *profile.sample(quad.r))
    vals = _L_vals(_WeightedL2(quad, 0, 0.0, 2), coeffs, gv, dg)
    return SampledRadial(r=quad.r, vals=vals, vanish_order=p)


def weighted_inner(
    g: PolyGauss | SampledRadial,
    h: PolyGauss | SampledRadial,
    w: WeightParams,
    quad: RadialQuad,
) -> float:
    """``(g, h)_{L^2_w} = 4 pi \\int g h (r^{-A} + B) r^2 dr``.

    Panel halving estimates the quadrature error and raises NoConvergence
    above 1e-8 relative.
    """
    gv, pg = _sample(g, quad)
    hv, ph = _sample(h, quad)
    return _WeightedL2(quad, w.A, w.B, 2).inner(gv, pg, hv, ph)


def coercivity_probe(
    profile: RadialProfile,
    params: ProfileParams,
    w: WeightParams,
    suite: list[TestFunction],
    quad: RadialQuad | None = None,
) -> list[dict]:
    """Rayleigh quotients ``(Lg, g)_w / ||g||_w^2`` over the suite.

    Flags any quotient above the coercivity bound -1/8 + 1e-3, and any
    non-finite one (an overflowing weight gives NaN, which must not pass).
    Results are order-stable by suite index.  The quotients come from the
    Gram matrices of each ``(p, s)`` family (``_probe_quotients``).
    """
    if quad is None:
        quad = RadialQuad.make()
    pmin = min_vanish_order(w.A)
    for idx, tf in enumerate(suite):
        if tf.p < pmin:
            raise DivergentIntegrand(f"suite member {idx} has p={tf.p} < {pmin}")
    core = _WeightedL2(quad, w.A, w.B, 2)
    L = functools.partial(_L_vals, core, _operator_coeffs(params, quad.r, *profile.sample(quad.r)))
    [quotients] = _probe_quotients(suite, core, L, (w.B,), -0.125 + 1e-3)
    return [
        {"index": idx, "seed_label": tf.seed_label, "p": tf.p, "s": tf.s,
         "quotient": quot, "flagged": flagged}
        for idx, (tf, (quot, flagged)) in enumerate(zip(suite, quotients))
    ]


def nonlocal_ibp_routes(
    profile: RadialProfile,
    w: WeightParams,
    g: PolyGauss,
    quad: RadialQuad | None = None,
) -> tuple[float, float]:
    """Two quadrature routes to ``(r f_Q g', g)_w`` (the aggregation drift term).

    Route 1 integrates directly; route 2 uses the integration-by-parts identity

        \\int (r f_Q g') g w dy = -1/2 \\int Q g^2 w dy
                                 + (A/2) \\int g^2 f_Q r^{-A} dy,

    valid because ``(f_Q r^3)' = Q r^2`` and the B-part of the boundary terms
    vanishes for decaying g.
    """
    if quad is None:
        quad = RadialQuad.make()
    core = _WeightedL2(quad, w.A, w.B, 2)
    Q, fq, _ = profile.sample(quad.r)
    gv, dg, p = _sample_slope(g, quad)
    # r f_Q g' vanishes to the order p of g
    route1 = 4.0 * math.pi * core.integrate(core.integrand(quad.r * fq * dg, p, gv, p))
    route2 = 4.0 * math.pi * (
        -0.5 * core.integrate(core.integrand(Q * gv, p, gv, p))
        + 0.5 * w.A * core.integrate(fq * core.singular(gv, p, gv, p))
    )
    return route1, route2


def quadratic_form_split(
    profile: RadialProfile,
    params: ProfileParams,
    w: WeightParams,
    g: PolyGauss,
    quad: RadialQuad | None = None,
) -> dict[str, float]:
    """Three-term decomposition of ``(Lg, g)_w``.

    ``I_SI`` collects the singular-weight local terms (after integrating the
    advective and drift terms by parts), ``I_LO`` the flat-weight local terms,
    ``I_NLO`` the remaining nonlocal term; their sum matches the direct
    evaluation ``(Lg, g)_w``.
    """
    if quad is None:
        quad = RadialQuad.make()
    mu, beta = params.mu, params.beta
    core = _WeightedL2(quad, w.A, w.B, 2)
    Q, fq, dQ = profile.sample(quad.r)
    r = quad.r
    gv, dg, p = _sample_slope(g, quad)
    g2s = core.singular(gv, p, gv, p)  # g^2 r^{-A}
    g2 = gv * gv

    def I(vals):
        return 4.0 * math.pi * core.integrate(vals)

    I_SI = (
        (-1.0 + beta * (3.0 - w.A) / 2.0) * I(g2s)
        + 0.5 * w.A * I(fq * g2s)
        + (1.5 - 2.0 * mu) * I(Q * g2s)
    )
    I_LO = w.B * ((-1.0 + 1.5 * beta) * I(g2) + (1.5 - 2.0 * mu) * I(Q * g2))
    J = core.cumulative(gv) / (r * r)
    I_NLO = I(dQ * core.integrand(J, p + 1, gv, p))  # J vanishes to order p + 1
    Lv = _L_vals(core, _operator_coeffs(params, r, Q, fq, dQ), gv, dg)
    direct = core.inner(Lv, p, gv, p)
    return {"I_SI": I_SI, "I_LO": I_LO, "I_NLO": I_NLO, "direct": direct}


# ---------------------------------------------------------------------------
# low-order Sobolev probe
# ---------------------------------------------------------------------------


def _sobolev_inner_analytic(a: PolyGauss, b: PolyGauss, m: int, quad: RadialQuad) -> float:
    """Homogeneous H^m inner product of analytic radial functions."""
    if m == 0:
        va, vb = a(quad.r), b(quad.r)
    elif m == 1:
        va, vb = a.deriv()(quad.r), b.deriv()(quad.r)
    elif m == 2:
        va, vb = a.laplacian()(quad.r), b.laplacian()(quad.r)
    else:
        raise OrderUnsupported(f"m={m} not in {{0,1,2}}")
    return 4.0 * math.pi * quad.integrate(va * vb, power=2)


def _du_matrix(vals: np.ndarray, u: np.ndarray, order: int) -> np.ndarray:
    """4th-order finite difference d^order/du^order on a uniform grid."""
    h = u[1] - u[0]
    n = len(vals)
    if order == 1:
        c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    else:
        c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    out = np.empty(n)
    out[2:-2] = sum(c[j] * vals[j : n - 4 + j] for j in range(5))
    out[:2], out[-2:] = out[2], out[-3]  # crude edge copy; integrands vanish there
    return out


def sobolev_probe_low_order(
    profile: RadialProfile,
    params: ProfileParams,
    g: PolyGauss,
    m: int,
    quad: RadialQuad | None = None,
) -> dict[str, float]:
    """``(Lg, g)`` in homogeneous H^m for m in {0, 1, 2}, with a scaling check.

    The drift part obeys the dilation identity

        -(D^m (g + beta y.grad g), D^m g) = -(1 + beta (2m-3)/2) ||g||_{H^m}^2,

    verified here both by direct quadrature and by finite-differencing the
    norm of the dilated family ``lam g(lam^beta y)`` in lam.
    """
    if m not in (0, 1, 2):
        raise OrderUnsupported(f"m={m} not in {{0,1,2}}")
    if quad is None:
        quad = RadialQuad.make()
    beta = params.beta

    norm2 = _sobolev_inner_analytic(g, g, m, quad)
    gen = g.dilation_generator(beta)
    direct = -_sobolev_inner_analytic(gen, g, m, quad)
    coefficient = -(1.0 + beta * (2.0 * m - 3.0) / 2.0)
    predicted = coefficient * norm2

    dlam = 1e-5
    plus = _sobolev_inner_analytic(g.dilate(1.0 + dlam, beta), g.dilate(1.0 + dlam, beta), m, quad)
    minus = _sobolev_inner_analytic(g.dilate(1.0 - dlam, beta), g.dilate(1.0 - dlam, beta), m, quad)
    dilation_route = -0.5 * (plus - minus) / (2.0 * dlam)

    # full (Lg, g)_{H^m} with the operator sampled on the grid
    Lg = apply_L(profile, params, g, quad)
    r, u = quad.r, quad.u
    if m == 0:
        va, vb = Lg.vals, g(r)
    elif m == 1:
        va = _du_matrix(Lg.vals, u, 1) / r
        vb = g.deriv()(r)
    else:
        d1 = _du_matrix(Lg.vals, u, 1)
        d2 = _du_matrix(Lg.vals, u, 2)
        va = (d2 + d1) / (r * r)
        vb = g.laplacian()(r)
    value = 4.0 * math.pi * quad.integrate(va * vb, power=2)

    return {
        "value": value,
        "drift_direct": direct,
        "drift_predicted": predicted,
        "drift_dilation": dilation_route,
        "coefficient": coefficient,
        "norm2": norm2,
    }
