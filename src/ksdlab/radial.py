"""Radial kernels shared by the time loops, the operator probes and the profile: uniform-grid
quadrature, the lower incomplete gamma function the probes' partial masses take, the
sinh-mapped grid both time loops run on, Horner evaluation, the cutoff bump,
the one finite-volume Laplacian and its tridiagonal type, and the one IMEX time step both
time loops take.  The field kernels act along the last axis, on each row of a stack as on
one field."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite

#: ARS(2,2,2) weights (Ascher, Ruuth & Spiteri 1997): the implicit stage weight
#: gamma, and the explicit weight delta the second stage gives the first
GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
DELTA = 1.0 - 1.0 / (2.0 * GAMMA)


@functools.cache
def _lapack():
    """``scipy.linalg.lapack``, imported on the first solve: it is most of a process's start-up."""
    from scipy.linalg import lapack

    return lapack


def cumulative_simpson_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` on a uniform grid of spacing ``h``, from 0.

    Uses the sub-interval rule of ``scipy.integrate.cumulative_simpson``:
    ``h/12 (5 y_i + 8 y_{i+1} - y_{i+2})`` on even intervals, the mirrored rule
    on odd intervals and on the last one, so the two agree to round-off.
    Needs at least 3 nodes.  A graded grid is integrated in the uniform coordinate
    it is built on: ``y dx/dk`` in that coordinate ``k``.
    """
    y = np.asarray(y, dtype=float)
    y5, y1, o2 = 1.25 * y, 0.25 * y, 2.0 * y[..., 1:-1:2]  # 2 y on the odd nodes only
    sub = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    even, odd = sub[..., :-1:2], sub[..., 1::2]
    np.add(y5[..., :-2:2], o2, out=even)
    even -= y1[..., 2::2]
    np.add(y5[..., 2::2], o2, out=odd)
    odd -= y1[..., :-2:2]
    if y.shape[-1] % 2 == 0:  # an odd number of intervals: the last one is mirrored
        sub[..., -1] = y5[..., -1] + 2.0 * y[..., -2] - y1[..., -3]
    sub *= h / 3.0
    out = np.zeros(y.shape)
    sub.cumsum(axis=-1, out=out[..., 1:])
    return out


def lower_gamma_ladder(a: float, x, K: int) -> np.ndarray:
    """``gamma(a + k, x)`` for ``k < K``, shape ``(K,) + x.shape``: the lower incomplete gamma
    function ``int_0^x t^{a+k-1} e^{-t} dt``, for ``a > 0``, ``x >= 0`` and a top order
    ``b = a + K - 1`` up to 120 (at ``b = 130`` the series' ``x^b`` overflows).

    One evaluation at the top order: ``Gamma(b)`` where ``x >= b + 40 + 9 sqrt(b)`` (there
    ``Gamma(b, x)/Gamma(b)`` is below 1e-17 for every ``b`` up to 170), else the all-positive series
    ``x^b e^{-x} sum_k x^k / (b)_{k+1}`` (DLMF 8.7.1), summed until the last term is under
    2^-54 of the sum.  The lower orders step down with the stable recurrence
    ``gamma(c, x) = (gamma(c + 1, x) + x^c e^{-x}) / c``, which divides each error by ``c``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    top = a + K - 1
    out = np.empty((K, flat.size))
    out[...] = np.array([math.gamma(a + k) for k in range(K)])[:, None]
    idx = np.flatnonzero(flat < top + 40.0 + 9.0 * math.sqrt(top))
    idx = idx[np.argsort(flat[idx], kind="stable")]
    xs = flat[idx]
    # the series on ascending x, a block of terms at a time, each block a running product
    # of the ratios x/(b + k): a larger x needs more terms, so the nodes still summing are
    # a suffix, and the blocks lengthen as it shortens
    term = np.full(len(xs), 1.0 / top)
    total = term.copy()
    i = k = 0
    while i < len(xs):
        xv = xs[i:]
        block = min(256, max(8, 4096 // len(xv)))
        terms = xv / (top + np.arange(k + 1, k + block + 1))[:, None]
        terms[0] *= term[i:]
        np.cumprod(terms, axis=0, out=terms)
        total[i:] += terms.sum(axis=0)
        term[i:] = terms[-1]
        k += block
        done = terms[-1] <= 2.0**-54 * total[i:]
        i += len(xv) if done.all() else int(done.argmin())
    # x^c e^{-x} for c = a, ..., b, each the last times x, then gamma(c, x) over it in place
    g = np.empty((K, len(xs)))
    g[0] = xs**a * np.exp(-xs)
    for k in range(1, K):
        np.multiply(g[k - 1], xs, out=g[k])
    g[K - 1] *= total
    for k in range(K - 2, -1, -1):
        g[k] += g[k + 1]
        g[k] /= a + k
    out[:, idx] = g
    return out.reshape((K,) + x.shape)


def horner(coeffs, x):
    """``sum_k coeffs[k] x^k`` in place in one array: per coefficient, zeros included, the
    multiply and add of ``polyval``, so the bits (signed zeros too) match it."""
    x = np.asarray(x, dtype=float)
    # [()] turns 0-d input into float64 scalars: in-place 0-d updates are 20x slower
    x, out = x[()], np.zeros_like(x)[()]
    for c in coeffs[::-1]:
        out *= x
        out += c
    return out


def chi_bump(r):
    """C^2 polynomial bump: 1 on r<=1, 0 on r>=2, quintic smoothstep between."""
    r = np.asarray(r, dtype=float)
    t = np.clip(r - 1.0, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


#: stretch scale a of both time loops' sinh grids in self-similar units: the spacing grows by
#: J = sqrt(1 + (r/a)^2), 1.2 at r = 2, where the seed and the drift need near-origin spacing
#: (a = 1, with J = 2.2 at r = 2, took renorm's advection-only error from 8.7e-4 to 1.5e-3)
SINH_STRETCH = 3.0


def sinh_grid(r_max: float, n: int, a: float) -> np.ndarray:
    """The sinh-mapped grid of resolution ``n`` on ``[0, r_max]``, stretch scale ``a``.

    ``r = a sinh(xi/a)`` on ``ceil(xi_max (n-1)/r_max) + 1`` uniform ``xi`` in ``[0, xi_max]``,
    ``xi_max = a asinh(r_max/a)``, with the last node pinned to ``r_max``.  The ``xi`` step is
    at most ``h = r_max/(n-1)``, the spacing of ``linspace(0, r_max, n)``, so the origin
    spacing is at most ``a sinh(h/a)``: ``h`` up to a relative ``(h/a)^2/6``.  The spacing
    grows by ``J = dr/dxi = sqrt(1 + (r/a)^2)``, so past ``r ~ a`` the nodes are logarithmic
    (Budd, Huang & Russell, SIAM J. Sci. Comput. 17, 1996, for stretched meshes in blowup
    problems).
    """
    xi_max = a * math.asinh(r_max / a)
    nodes = math.ceil(xi_max * (n - 1) / r_max) + 1
    grid = a * np.sinh(np.linspace(0.0, xi_max, nodes) / a)
    grid[-1] = r_max
    return grid


def l2_norm(v: np.ndarray, grid: np.ndarray) -> float | np.ndarray:
    """Radial L2 norm ``sqrt(4 pi int v^2 r^2 dr)`` of each row, trapezoid rule on ``grid``."""
    return np.sqrt(4.0 * math.pi * np.trapezoid(v * v * grid * grid, grid))


@dataclass(frozen=True, eq=False)
class SymmetricTridiagonal:
    """The operator ``L = W^{-1} S``: ``S`` symmetric tridiagonal by its bands, ``diag`` with
    one entry per node and ``off`` with one fewer (``off[i]`` couples nodes ``i`` and
    ``i+1``), and ``W`` the positive diagonal ``weight``."""

    off: np.ndarray
    diag: np.ndarray
    weight: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[..., :-1] += self.off * u[..., 1:]
        out[..., 1:] += self.off * u[..., :-1]
        out /= self.weight
        return out

    def solver(self, c: float):
        """``b -> (I - c L)^{-1} b``, solved as ``(W - c S) x = W b`` on one LDL^T
        factorization (LAPACK ``pttrf``, no pivoting).

        For ``c >= 0``, ``W - c S`` is strictly diagonally dominant with a positive diagonal,
        hence positive definite, when ``off >= 0`` and each row of ``S`` sums to at most
        zero, as the rows of a flux-form Laplacian do.  A factorization that meets a
        non-positive pivot raises NotPositiveDefinite.
        """
        lapack = _lapack()
        d, e, info = lapack.dpttrf(self.weight - c * self.diag, -c * self.off,
                                   overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise NotPositiveDefinite(f"pttrf info {info}: W - c S is not positive definite "
                                      f"at c = {c:.6g}")
        # pttrs solves for columns: each row of b is one
        return lambda b: lapack.dpttrs(d, e, (self.weight * b).T, overwrite_b=1)[0].T


def flux_laplacian(grid: np.ndarray) -> SymmetricTridiagonal:
    """The finite-volume radial Laplacian ``W^{-1} K`` on any increasing grid from 0.

    Faces sit midway between nodes.  ``K`` sums the face fluxes ``r_f^2 (u_{i+1} - u_i) /
    (r_{i+1} - r_i)``, with no flux through the origin or past the outer face, so it is
    symmetric with zero row sums.  ``W`` holds the exact shell volumes over 4 pi,
    ``(r_{i+1/2}^3 - r_{i-1/2}^3)/3``: the ball inside the first face at the origin, and the
    last cell symmetric about its node.  The flux of ``r^2`` through a face is ``2 r_f^3``,
    so the operator is exact on 1 and ``r^2`` at every node but the last, which has no
    outer flux.
    """
    r_face = grid[:-1] + grid[1:]
    r_face *= 0.5
    off = r_face * r_face / np.diff(grid)
    diag = np.zeros_like(grid)
    diag[:-1] -= off
    diag[1:] -= off
    # (b^3 - a^3)/3 as (b - a)(a^2 + ab + b^2)/3, free of cancellation in thin outer shells
    a = np.concatenate(([0.0], r_face))
    b = np.append(r_face, 2.0 * grid[-1] - r_face[-1])
    vol = (b - a) * (a * a + a * b + b * b) / 3.0
    return SymmetricTridiagonal(off, diag, vol)


def ars222_step(u, k0, explicit, L: SymmetricTridiagonal, d: float, dt: float):
    """One ARS(2,2,2) step of ``u' = explicit(u) + d L u``: ``d L`` implicit, the rest explicit.

    ``k0`` is ``explicit(u)``; ``explicit`` returns a fresh array, which the second
    stage's right side ``u + dt (delta k0 + (1 - delta) k1 + (1 - gamma) d L u1)`` is
    built in, to the bits of that expression.  Both stages solve with one factorization
    of ``I - gamma dt d L``; the scheme is stiffly accurate, so the second stage is the
    new state.  Returns it and the first stage ``u1``.
    """
    solve = L.solver(GAMMA * dt * d)
    u1 = solve(u + (GAMMA * dt) * k0)
    k1 = explicit(u1)
    k1 *= 1.0 - DELTA
    k1 += DELTA * k0
    rhs = L.apply(u1)
    rhs *= (1.0 - GAMMA) * d
    rhs += k1
    rhs *= dt
    rhs += u
    return solve(rhs), u1
