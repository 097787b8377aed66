"""Radial kernels shared by the time loops, the operator probes and the profile: uniform-grid
quadrature, the sinh-mapped grid both time loops run on, Horner evaluation, the cutoff bump,
the two tridiagonal operator types, and the one IMEX time step both time loops take."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, SingularOperator

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
    n = len(y)
    e0, o, e2 = y[:-2:2], y[1:-1:2], y[2::2]
    sub = np.empty(n - 1)
    sub[:-1:2] = 1.25 * e0 + 2.0 * o - 0.25 * e2
    sub[1::2] = 1.25 * e2 + 2.0 * o - 0.25 * e0
    sub[-1] = 1.25 * y[-1] + 2.0 * y[-2] - 0.25 * y[-3]
    out = np.zeros(n)
    np.cumsum(sub * (h / 3.0), out=out[1:])
    return out


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


def l2_norm(v: np.ndarray, grid: np.ndarray) -> float:
    """Radial L2 norm ``sqrt(4 pi int v^2 r^2 dr)`` by the trapezoid rule on ``grid``."""
    return math.sqrt(4.0 * math.pi * np.trapezoid(v * v * grid * grid, grid))


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """A general tridiagonal operator ``L`` by its bands: ``diag`` has one entry per node,
    ``lower`` and ``upper`` one fewer (``lower[i]`` couples node ``i+1`` to ``i``).  It serves
    operators that no diagonal scaling makes symmetric, such as one with a negative
    ``lower[i] upper[i]``; ``SymmetricTridiagonal`` solves the symmetrizable ones."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[:-1] += self.upper * u[1:]
        out[1:] += self.lower * u[:-1]
        return out

    def solver(self, c: float):
        """``b -> (I - c L)^{-1} b`` on one LU factorization (LAPACK ``gttrf``, pivoting).
        A factorization that meets an exactly zero pivot raises SingularOperator."""
        lapack = _lapack()
        *lu, info = lapack.dgttrf(-c * self.lower, 1.0 - c * self.diag, -c * self.upper)
        if info != 0:
            raise SingularOperator(f"gttrf info {info}: I - c L is singular at c = {c:.6g}")
        return lambda b: lapack.dgttrs(*lu, b)[0]


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
        out[:-1] += self.off * u[1:]
        out[1:] += self.off * u[:-1]
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
        return lambda b: lapack.dpttrs(d, e, self.weight * b, overwrite_b=1)[0]


def ars222_step(u, k0, explicit, L: Tridiagonal | SymmetricTridiagonal, d: float, dt: float):
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
