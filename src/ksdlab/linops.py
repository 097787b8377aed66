"""Linearized operator around the profile, singular weights, and coercivity probes.

The linearization of the renormalized flow at the profile ``Q`` acts on radial
perturbations ``g`` as

    L g = -(g + beta*r*g') + r*f_Q*g' + (dQ/dr)*(1/r^2) \\int_0^r g s^2 ds
          + 2(1-mu)*Q*g,

and is probed in the weighted space ``L^2_w`` with ``w(r) = r^{-A} + B``.  All
quadrature runs on a uniform grid in ``u = ln r`` so the ``r^{-A}`` singularity
is resolved; test functions carry enough vanishing at the origin to stay
integrable.  The partial mass ``\\int_0^r g s^2 ds`` of an analytic probe is taken in
closed form, from the lower incomplete gamma function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegrand, DomainError, GridMismatch, NoConvergence
from .profile import ProfileParams, RadialProfile
from .radial import cumulative_simpson_uniform, horner, lower_gamma_ladder


# ---------------------------------------------------------------------------
# analytic test functions: polynomial * gaussian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyGauss:
    """Radial function ``P(r) * exp(-r^2/s^2)`` with polynomial ``P``.

    Closed under differentiation, which gives exact slopes for the probe
    quantities.  ``coeffs[k]`` is the coefficient of ``r^k``.
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

    def partial_mass(self, r: np.ndarray) -> np.ndarray:
        """``\\int_0^r g(t) t^2 dt`` in closed form: the even and the odd powers of ``P`` each
        take one ladder of ``gauss_partial_masses``."""
        out = np.zeros(len(r))
        for j in (self.vanish_order, self.vanish_order + 1):
            c = self.coeffs[j::2]
            if c.any():
                out += c @ gauss_partial_masses(j + 2, self.s, len(c), r)
        return out


def gauss_partial_masses(m: int, s: float, K: int, r: np.ndarray) -> np.ndarray:
    """``\\int_0^r t^{m+2k} e^{-t^2/s^2} dt`` for ``k < K``, shape ``(K, len(r))``: with
    ``c = (m + 2k + 1)/2``, ``s^{2c} gamma(c, r^2/s^2) / 2``, from one incomplete gamma ladder."""
    out = lower_gamma_ladder((m + 1) / 2.0, (r / s) ** 2, K)
    out *= (0.5 * s ** (m + 1.0 + 2.0 * np.arange(K)))[:, None]
    return out


@dataclass(frozen=True)
class TestFunction:
    """Probe function ``r^p * P(r) * exp(-r^2/s^2)`` with even polynomial P.

    ``poly_coeffs[k]`` multiplies ``r^{2k}``; ``p`` must make ``g^2`` integrable
    against ``r^{-A+2} dr`` near the origin, ``2p + 2 > A - 1``; the least such
    even ``p`` is ``min_vanish_order(A)``.
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
    """Least even p with r^{2p} integrable against r^{-A+2} dr near 0: ``2p + 2 > A - 1``."""
    return _WeightedL2.least_order(A, 2)


def _probe_suite(p0: int, count: int, seed: int) -> list[TestFunction]:
    """Seeded probe suite: p alternates p0, p0+2 in step with s cycling 0.5, 1, 2, 4, so the
    members form the four ``(p, s)`` families (p0, 0.5), (p0+2, 1), (p0, 2), (p0+2, 4)."""
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
    """Trapezoid rule on a uniform grid in u = ln r, where ``\\int_0^\\infty F(r) r^power dr``
    is ``\\int F e^{(power+1)u} du``.

    On integrands smooth in ``u`` that decay at both ends of the grid the rule converges
    geometrically (Trefethen & Weideman, SIAM Review 56, 2014): the error on every other
    node is about the square root of the error on all of them, so the difference of the
    two levels bounds the fine one's error.  The node count must be 1 mod 4, so that the
    coarse level ends on the last node and has an odd count too.
    """

    u: np.ndarray

    @classmethod
    def make(cls, u_min: float = -30.0, u_max: float = math.log(100.0), n: int = 1001) -> "RadialQuad":
        if n % 4 != 1:
            raise DomainError("node count must be 1 mod 4")
        return cls(u=np.linspace(u_min, u_max, n))

    @functools.cached_property
    def r(self) -> np.ndarray:
        """The radii ``e^u``, formed on first read."""
        return np.exp(self.u)

    def weights(self, step: int = 1) -> np.ndarray:
        """Trapezoid weights in ``u`` on every ``step``-th node: ``\\int F(r) r^power dr`` is
        ``weights() @ (F r^{power+1})``.  The spacing comes from the end points: ``u[1] - u[0]``
        loses ``log2(|u[0]|/h)`` bits to cancellation (6e-12 relative at 64001 nodes)."""
        u = self.u
        w = np.full(len(u[::step]), step * (u[-1] - u[0]) / (len(u) - 1))
        w[[0, -1]] *= 0.5
        return w


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
    """Singular weight ``w = r^{-A} + B`` with the estimates its admissibility is read from.

    ``cert_wholenorm`` and ``cert_tailnorm`` are float Simpson quadratures of
    ``||r^{-1/2} dQ/dr||_{L^2}`` over all radii and over ``r >= R1``: estimates, not bounds.
    """

    A: int
    B: float
    R1: float
    cert_tailnorm: float
    cert_wholenorm: float
    q_at_R1: float = 0.0
    mu: float = 0.0

    def invariant_checks(self, j0: int) -> dict[str, bool]:
        """The four admissibility conditions, evaluated at face value from the stored estimates."""
        c1 = 1.0 + (-self.A + 3.0) / (4.0 * j0) <= -1.0
        c2 = math.sqrt(1.0 / (4.0 * math.pi * (self.A + 3.0))) * self.cert_wholenorm <= 1.0 / 100.0
        c3 = 1.5 * self.q_at_R1 <= 1.0 / 1000.0 and self.cert_tailnorm <= 1.0 / 5000.0
        c4 = self.B <= 0.0 or math.log10(self.B) <= _log10_flat_bound(
            self.A, self.R1, self.mu, self.cert_wholenorm)
        return {
            "exponent_gap": c1,
            "wholenorm_smallness": c2,
            "tail_smallness": c3,
            "flat_part_smallness": c4,
        }


def _log10_flat_bound(A: int, R1: float, mu: float, wholenorm: float) -> float:
    """log10 of the largest ``B`` passing the flat-part smallness condition
    ``B R1^A ((3/2 - 2 mu) Q0 + 50 wholenorm^2) <= 1/100``, ``Q0 = 1/(1 - mu)``: in log10,
    since ``R1^A`` overflows at large ``A``."""
    coef = (1.5 - 2.0 * mu) * (1.0 / (1.0 - mu)) + 50.0 * wholenorm**2
    return -2.0 - A * math.log10(R1) - math.log10(coef)


def _dq_weighted_norm(profile: RadialProfile, r_lo: float = 0.0) -> float:
    """``||r^{-1/2} dQ/dr||_{L^2(r >= r_lo)}`` by Simpson in u = ln r on 4001 nodes: the
    integrand does not vanish at ``r_lo > 0``, where the trapezoid rule is second order only."""
    u_lo = -30.0 if r_lo <= 0.0 else math.log(r_lo)
    q = RadialQuad.make(u_min=u_lo, u_max=math.log(profile.r_max), n=4001)
    dq = profile.sample(q.r)[2]
    total = cumulative_simpson_uniform(dq * dq * q.r**2, q.u[1] - q.u[0])[-1]
    return math.sqrt(4.0 * math.pi * total)


def select_weight(
    profile: RadialProfile,
    j0: int,
    A: int | None = None,
) -> WeightParams:
    """Choose weight parameters per the admissibility conditions.

    ``A`` must be a multiple of 4 with ``A >= 8 j0 + 3``; the default is the
    least such exponent, ``8 j0 + 4``.  The whole-norm estimate is computed
    and stored, not enforced: ``invariant_checks`` reports it.  ``R1`` is the
    smallest profile grid radius passing both tail conditions; ``B`` is the
    largest power of ten passing the flat-part condition, and a DomainError where
    that power underflows to 0.  ``j0`` must be ``profile.params.j0``.
    """
    if j0 != profile.params.j0:
        raise DomainError(f"j0={j0} differs from profile.params.j0={profile.params.j0}")
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
    k = max(1, math.ceil(-_log10_flat_bound(A, R1, mu, wholenorm)))
    B = 10.0 ** (-k)
    if B == 0.0:
        raise DomainError(f"flat part B = 1e-{k} underflows to 0 at A={A}, R1={R1:.4g}")

    return WeightParams(
        A=A,
        B=B,
        R1=R1,
        cert_tailnorm=tailnorm,
        cert_wholenorm=wholenorm,
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

    Built once per ``(quad, A, power)``, on ``RadialQuad.make()`` when ``quad`` is None, it
    holds the arrays every pairing on the grid reuses: the split-weight factor ``r^{-A/2}``
    (formed on first use; only the guarded ``grams`` reads it), ``r^{power+1}`` on the fine
    and the coarse (every other) nodes, and both trapezoid weight vectors.  Every
    weighted product is a block of ``grams``.  It pairs grid samples with their
    vanishing orders, so a function is sampled once however many pairings it
    enters.
    """

    def __init__(self, quad: RadialQuad | None, A: int, power: int):
        if quad is None:
            quad = RadialQuad.make()
        r = quad.r
        self.quad, self.A, self.power = quad, A, power
        self.rp = r ** (power + 1)
        self.rp_coarse = r[::2] ** (power + 1)
        self.w = quad.weights()
        self.w_coarse = quad.weights(2)

    @functools.cached_property
    def half(self) -> np.ndarray:
        return np.float_power(self.quad.r, -self.A / 2.0)

    def _guard(self, pa: int, pb: int) -> None:
        if not pa + pb + self.power > self.A - 1:
            raise DivergentIntegrand(
                f"vanishing order {pa}+{pb} with r^{self.power} dr not above A-1={self.A - 1}"
            )

    @staticmethod
    def least_order(A: int, power: int) -> int:
        """Least even vanishing order ``p`` that ``_guard`` admits for a function paired with
        itself: ``2p + power > A - 1``."""
        p = (A - 1 - power) // 2 + 1
        return p + p % 2

    def grams(self, X: np.ndarray, px: int, Y: np.ndarray, py: int) -> np.ndarray:
        """``\\int x_i y_j r^{-A} r^power dr`` and ``\\int x_i y_j r^power dr`` over the rows of
        ``X`` and ``Y``, shape ``(2, 2, len(X), len(Y))``: (fine, coarse) nodes, then (singular,
        flat).  The factor ``r^{-A}`` is split evenly between the two sides so neither partial
        product under/overflows.  Raises DivergentIntegrand unless the vanishing orders ``px``,
        ``py`` make ``r^{px+py-A+power}`` integrable at 0."""
        self._guard(px, py)
        out = np.empty((2, 2, len(X), len(Y)))
        levels = ((1, self.w, self.rp), (2, self.w_coarse, self.rp_coarse))
        for level, (step, w, rp) in enumerate(levels):
            x, y = X[:, ::step] * (w * rp), Y[:, ::step]
            out[level, 1] = x @ y.T
            x *= self.half[::step]
            out[level, 0] = x @ (y * self.half[::step]).T
        return out

    def pair(self, av: np.ndarray, pa: int, bv: np.ndarray, pb: int, B: float) -> float:
        """``\\int a b (r^{-A} + B) r^power dr`` on the fine nodes, the one-row block of ``grams``.

        Panel halving estimates the quadrature error and raises NoConvergence
        above 1e-8 relative.
        """
        g = self.grams(av[None], pa, bv[None], pb)[..., 0, 0]  # (fine, coarse), (singular, flat)
        return float(_halving_checked(*(g[:, 0] + B * g[:, 1])))


def _halving_checked(fine, coarse):
    """``fine``, after the panel-halving check against the ``coarse`` quadrature (scalars or
    arrays): raises NoConvergence where the error estimate ``|fine - coarse|``, the coarse
    level's error and so a bound on the fine one's, exceeds 1e-8 relative."""
    err = np.abs(fine - coarse)
    if np.any(err > 1e-8 * np.abs(fine) + 1e-300):
        raise NoConvergence(f"quadrature error estimate {np.nanmax(err):.3g} too large")
    return fine


def _family_rows(p: int, s: float, K: int, quad: RadialQuad, L_family) -> np.ndarray:
    """The rows ``phi_k = r^{p+2k} e^{-r^2/s^2}``, ``k < K``, each the last times ``r^2``,
    then the rows ``L_family(p, s, phi, phi')`` from the slopes ``phi_k ((p+2k)/r - 2r/s^2)``."""
    r = quad.r
    r2 = r * r
    rows = np.empty((2 * K, len(r)))
    rows[0] = r**p * np.exp(-r2 / (s * s))
    for k in range(1, K):
        np.multiply(rows[k - 1], r2, out=rows[k])
    phi, L_rows = rows[:K], rows[K:]
    np.multiply(phi, (p + 2.0 * np.arange(K))[:, None] / r - (2.0 / (s * s)) * r, out=L_rows)
    L_rows[:] = L_family(p, s, phi, L_rows)
    return rows


def _probe(suite: list[TestFunction], core: _WeightedL2, L_family, Bs, bound: float):
    """``(B, records, all_pass)`` for the first flat part ``B`` in ``Bs`` under which every
    Rayleigh quotient ``(Lg, g)_w / (g, g)_w`` of the suite, ``w = r^{-A} + B``, passes, or for
    the last ``B`` when none does.

    A record holds the suite index, seed label, ``p``, ``s``, the quotient and whether it is
    flagged.  Only a finite quotient at or below ``bound`` passes: an overflowing weight gives
    NaN, which must not pass.  ``L`` is linear, so a member ``g = sum_k a_k phi_k`` of the
    family ``(p, s, K)`` with rows ``phi_k = r^{p+2k} e^{-r^2/s^2}`` has ``(Lg, g)_w = a^T M a``
    and ``(g, g)_w = a^T G a``, ``M`` and ``G`` from ``core.grams``.  ``L_family(p, s, phi,
    phi')`` gives the rows ``L phi_k``.  Each family's rows are built once, whatever the
    number of ``B``; each quadratic form passes ``pair``'s panel-halving check.
    """
    families: dict[tuple[int, float, int], list[int]] = {}
    for idx, tf in enumerate(suite):
        families.setdefault((tf.p, tf.s, len(tf.poly_coeffs)), []).append(idx)
    forms = np.empty((2, 2, 2, len(suite)))  # (den, num), (fine, coarse), (singular, flat)
    for (p, s, K), members in families.items():
        a = np.array([suite[i].poly_coeffs for i in members])
        rows = _family_rows(p, s, K, core.quad, L_family)
        grams = core.grams(rows, p, rows[:K], p).reshape(2, 2, 2, K, K)  # phi: G, L phi: M
        forms[..., members] = np.einsum("lwfij,ni,nj->flwn", grams, a, a)
    for B in Bs:
        den, num = (_halving_checked(*(f[:, 0] + B * f[:, 1])).tolist() for f in forms)
        quotients = [n / d for n, d in zip(num, den)]
        records = [
            {"index": idx, "seed_label": tf.seed_label, "p": tf.p, "s": tf.s,
             "quotient": q, "flagged": not (math.isfinite(q) and q <= bound)}
            for idx, (tf, q) in enumerate(zip(suite, quotients))
        ]
        all_pass = not any(r["flagged"] for r in records)
        if all_pass:
            break
    return B, records, all_pass


def _operator_coeffs(params: ProfileParams, r, Q, fq, dQ):
    """Grid coefficients of ``L``: ``beta r``, ``r f_Q``, ``dQ/dr``, ``2(1-mu) Q``, ``r^2``."""
    return params.beta * r, r * fq, dQ, 2.0 * (1.0 - params.mu) * Q, r * r


def _L_vals(coeffs, gv: np.ndarray, dg: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """``L g`` on the grid from the samples of ``g``, ``g'`` and the partial mass
    ``\\int_0^r g s^2 ds``, for each row of a stack as for one function."""
    beta_r, r_fq, dQ, q2, r2 = coeffs
    J = mass / r2  # (1/r^2) int_0^r g s^2 ds
    return -(gv + beta_r * dg) + r_fq * dg + dQ * J + q2 * gv


def _L_family(coeffs, r: np.ndarray, p: int, s: float, phi: np.ndarray, dphi: np.ndarray):
    """``L phi_k`` for the family rows ``phi_k = r^{p+2k} e^{-r^2/s^2}``, their partial masses
    in closed form."""
    return _L_vals(coeffs, phi, dphi, gauss_partial_masses(p + 2, s, len(phi), r))


def apply_L(
    profile: RadialProfile,
    params: ProfileParams,
    g: PolyGauss,
    quad: RadialQuad,
) -> SampledRadial:
    """Sample ``L g`` on the quadrature grid, with the analytic slope of ``g`` and the
    closed-form partial mass of the nonlocal term.  ``params`` must be ``profile.params``."""
    if params != profile.params:
        raise DomainError(f"params {params} differ from profile.params {profile.params}")
    gv, dg, p = _sample_slope(g, quad)
    coeffs = _operator_coeffs(params, quad.r, *profile.sample(quad.r))
    vals = _L_vals(coeffs, gv, dg, g.partial_mass(quad.r))
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
    return 4.0 * math.pi * _WeightedL2(quad, w.A, 2).pair(gv, pg, hv, ph, w.B)


def coercivity_probe(
    profile: RadialProfile,
    w: WeightParams,
    suite: list[TestFunction],
    quad: RadialQuad | None = None,
) -> list[dict]:
    """Rayleigh quotients ``(Lg, g)_w / ||g||_w^2`` over the suite.

    ``L`` takes mu and beta from ``profile.params``, the weight ``r^{-A} + B`` takes A and B
    from ``w``.  Flags any quotient above the coercivity bound -1/8 + 1e-3, and any
    non-finite one (an overflowing weight gives NaN, which must not pass).  Results are
    order-stable by suite index; they come from each ``(p, s)`` family's Gram matrices.
    """
    core = _WeightedL2(quad, w.A, 2)
    r = core.quad.r
    L = functools.partial(_L_family, _operator_coeffs(profile.params, r, *profile.sample(r)), r)
    return _probe(suite, core, L, (w.B,), -0.125 + 1e-3)[1]
