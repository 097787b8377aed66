"""The uniform-grid cumulative Simpson kernel against scipy and exact polynomials, the
lower incomplete gamma ladder against mpmath, the sinh-mapped grid, the finite-volume
Laplacian both time loops build, Horner evaluation against numpy's polyval, and the
ARS(2,2,2) step against a matrix exponential.  The kernels act along the last axis: each
row of a stack gets the bits of its own 1-D call."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from numpy.polynomial.polynomial import polyval
from scipy.linalg import expm

from ksdlab import phys, renorm
from ksdlab.errors import NotPositiveDefinite
from ksdlab.heat import HeatParams, make_heat_suite
from ksdlab.linops import RadialQuad, make_test_suite
from ksdlab.radial import (
    SymmetricTridiagonal,
    ars222_step,
    cumulative_simpson_uniform,
    flux_laplacian,
    horner,
    l2_norm,
    lower_gamma_ladder,
    sinh_grid,
)


def _rows_match(kernel, rows):
    """``kernel`` on a stack equals, row for row and bit for bit, ``kernel`` on each row."""
    stacked = kernel(rows)
    assert stacked.shape[0] == len(rows)
    return all(np.array_equal(got, kernel(row)) for got, row in zip(stacked, rows))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=4097),
    h=st.floats(min_value=1e-4, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matches_scipy(n, h, seed):
    y = np.random.default_rng(seed).normal(size=n)
    got = cumulative_simpson_uniform(y, h)
    want = cumulative_simpson(y, dx=h, initial=0.0)
    # mixed-sign data can cancel a prefix sum to ~0, where only an absolute
    # round-off scale of the integral is meaningful
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * h * np.sum(np.abs(y)))


def test_quadratic_exact():
    for n in (3, 4, 513, 1024):
        x = np.linspace(0.0, 2.0, n)
        got = cumulative_simpson_uniform(x * x, x[1] - x[0])
        np.testing.assert_allclose(got, x**3 / 3.0, rtol=0.0, atol=1e-13)
        # rows (1, x, x^2) of one stack
        rows = np.stack([np.ones_like(x), x, x * x])
        assert _rows_match(lambda y: cumulative_simpson_uniform(y, x[1] - x[0]), rows)


def _simpson_terms(y, h):
    """The kernel's sub-interval sums written one temporary per term, as it once was."""
    e0, o, e2 = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2]
    sub = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    sub[..., :-1:2] = 1.25 * e0 + 2.0 * o - 0.25 * e2
    sub[..., 1::2] = 1.25 * e2 + 2.0 * o - 0.25 * e0
    sub[..., -1] = 1.25 * y[..., -1] + 2.0 * y[..., -2] - 0.25 * y[..., -3]
    out = np.zeros(y.shape)
    np.cumsum(sub * (h / 3.0), axis=-1, out=out[..., 1:])
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 217, 218])
def test_simpson_bits_odd_and_even_length(n):
    # an even node count leaves a last interval of its own; rows of either parity,
    # signed zeros among them, keep the bits of their 1-D calls and of the term form
    rows = np.random.default_rng(n).normal(size=(3, n))
    rows[2] = -0.0
    got = cumulative_simpson_uniform(rows, 0.37)
    bits = lambda a: a.view(np.int64)
    assert np.array_equal(bits(got), bits(_simpson_terms(rows, 0.37)))
    assert all(np.array_equal(bits(g), bits(cumulative_simpson_uniform(row, 0.37)))
               for g, row in zip(got, rows))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=16, max_value=20000),
    r_max=st.floats(min_value=1e-6, max_value=1e6),
    ratio=st.floats(min_value=1e-3, max_value=1.0),
)
def test_sinh_grid(n, r_max, ratio):
    # 0 to r_max, uniform in xi = a asinh(r/a) up to the pinned last node, and
    # the origin spacing within a sinh(h/a) of linspace's h
    a = ratio * r_max
    grid = sinh_grid(r_max, n, a)
    xi_max = a * np.arcsinh(r_max / a)
    assert len(grid) == math.ceil(xi_max * (n - 1) / r_max) + 1
    assert grid[0] == 0.0 and grid[-1] == r_max and np.all(np.diff(grid) > 0.0)
    xi = a * np.arcsinh(grid / a)
    np.testing.assert_allclose(np.diff(xi), xi_max / (len(grid) - 1), rtol=1e-8)
    h = r_max / (n - 1)
    assert grid[1] <= a * math.sinh(h / a) * (1.0 + 1e-12)


@pytest.mark.parametrize("loop, n", [("renorm", 512), ("renorm", 1024), ("phys", 8192)])
def test_flux_laplacian_exact_on_1_and_r2(mu0_profile, loop, n, monkeypatch):
    # renorm's Laplacian is radial.flux_laplacian of its grid, and run_phys builds the
    # same, once, on build_initial's graded grid; over the exact shell
    # volumes it gives 0 on 1 at every node, and 6 on r^2 at every node, the origin
    # included, but the last, whose zero outer flux r^2 does not meet (r^2 D volumes
    # are off by O(1) at the first nodes).  Each residual is held to 1e-12 of |L| |u|,
    # the round-off scale of applying L in float64
    if loop == "renorm":
        lap = renorm.make_state(mu0_profile, 1e-24, n=n).ops.lap
        grid = renorm._grid(n)
    else:
        built = []
        monkeypatch.setattr(phys, "flux_laplacian",
                            lambda g: built.append((g, flux_laplacian(g))) or built[-1][1])
        phys.run_phys(mu0_profile, lam0=1e-8, n=n)
        [(built_grid, lap)] = built
        grid = phys.build_initial(mu0_profile, 1e-8, n=n).grid
        assert np.array_equal(built_grid, grid)
    want = flux_laplacian(grid)
    for band in ("off", "diag", "weight"):
        assert np.array_equal(getattr(lap, band), getattr(want, band))
    size = SymmetricTridiagonal(lap.off, np.abs(lap.diag), lap.weight)
    for u, exact, nodes in ((np.ones_like(grid), 0.0, slice(None)),
                            (grid * grid, 6.0, slice(None, -1))):
        err = np.abs(lap.apply(u) - exact)[nodes]
        assert np.all(err <= 1e-12 * size.apply(u)[nodes])
    assert _rows_match(lap.apply, np.stack([np.ones_like(grid), grid * grid, np.exp(-grid)]))


class _General:
    """A general tridiagonal operator by its bands, applied and solved as a dense matrix."""

    def __init__(self, lower, diag, upper):
        self.dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)

    def apply(self, u):
        return self.dense @ u

    def solver(self, c):
        return lambda b: np.linalg.solve(np.eye(len(b)) - c * self.dense, b)


def _general(rng, n):
    """A general tridiagonal operator and its dense matrix."""
    L = _General(
        rng.uniform(0.5, 1.0, n - 1), -rng.uniform(2.0, 3.0, n), rng.uniform(0.5, 1.0, n - 1)
    )
    return L, L.dense


def _symmetric(rng, n):
    """A ``SymmetricTridiagonal`` with rows summing to at most zero, and its dense matrix."""
    L = SymmetricTridiagonal(
        rng.uniform(0.5, 1.0, n - 1), -rng.uniform(2.0, 3.0, n), rng.uniform(0.5, 2.0, n)
    )
    return L, (np.diag(L.diag) + np.diag(L.off, -1) + np.diag(L.off, 1)) / L.weight[:, None]


@pytest.mark.parametrize("make", [_general, _symmetric],
                         ids=["general", "SymmetricTridiagonal"])
def test_ars222_second_order(make):
    # u' = A u + d L u on 5 nodes, against the matrix exponential: halving dt
    # divides the global error by 4
    rng = np.random.default_rng(3)
    n, d, t_end = 5, 0.7, 1.0
    L, dense = make(rng, n)
    A = 0.3 * rng.normal(size=(n, n))
    u0 = rng.normal(size=n)
    full = A + d * dense
    exact = expm(t_end * full) @ u0
    explicit = lambda u: A @ u
    errs = []
    for steps in (20, 40, 80):
        dt, u = t_end / steps, u0
        for _ in range(steps):
            u, _ = ars222_step(u, explicit(u), explicit, L, d, dt)
        errs.append(np.max(np.abs(u - exact)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


@pytest.mark.parametrize("n", [16, 1024, 8192])
def test_row_axis(n):
    # a (3, N) stack of mixed-sign rows on a sinh grid: the solve and the norm give
    # each row the bits of its 1-D call
    grid = sinh_grid(50.0, n, 3.0)
    rows = np.random.default_rng(n).normal(size=(3, len(grid)))
    solve = flux_laplacian(grid).solver(0.37)
    assert _rows_match(solve, rows)
    assert _rows_match(lambda y: l2_norm(y, grid), rows)
    # the solve reads its right side without writing to it
    kept = rows.copy()
    solve(rows)
    assert np.array_equal(rows, kept)


def test_symmetric_solve_refuses_indefinite():
    # W - c S has diagonal (0, -1, 0) at c = -1: the first pivot is not positive
    L = SymmetricTridiagonal(np.ones(2), np.array([-1.0, -2.0, -1.0]), np.ones(3))
    with pytest.raises(NotPositiveDefinite, match="info 1"):
        L.solver(-1.0)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_horner_bits_match_polyval():
    # compared as integers, so that +0 and -0 differ
    r = RadialQuad.make().r
    suites = [tf.to_polygauss() for tf in make_test_suite(36)]
    suites += [tf.to_polygauss() for tf in make_heat_suite(HeatParams(m=2))]
    for g in suites:
        for c in (g.coeffs, g.deriv().coeffs):
            assert np.array_equal(_bits(horner(c, r)), _bits(polyval(r, c)))
    # a zero constant term at x = +-0, where the sign of the zero result shows
    c = np.array([0.0, -2.0, 0.0, 3.0])
    x = np.array([0.0, -0.0, 1e-300, -1.5])
    assert np.array_equal(_bits(horner(c, x)), _bits(polyval(x, c)))
    for xs in x:
        got = horner(c, xs)
        assert np.ndim(got) == 0 and _bits(got) == _bits(polyval(xs, c))


@pytest.mark.parametrize("a", [0.5, 1.0] + [a + d for a in range(8, 57, 8) for d in (0.5, 1.0)])
def test_lower_gamma_ladder_matches_mpmath(a):
    # ladders of 8 orders from each start cover the half-integer and integer orders up to
    # 64, on x from 1e-26 to 1e4 and on both sides of the top order's switch to Gamma(b);
    # where gamma underflows the ladder must give 0 or a subnormal
    K = 8
    b = a + K - 1
    edge = b + 40.0 + 9.0 * math.sqrt(b)
    x = np.concatenate((np.logspace(-26.0, 4.0, 61), [b, edge * (1 - 1e-12), edge]))
    got = lower_gamma_ladder(a, x, K)
    assert got.shape == (K, len(x))
    with mpmath.workdps(40):
        for k in range(K):
            ref = [float(mpmath.gammainc(a + k, 0, mpmath.mpf(xi))) for xi in x]
            assert got[k] == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_lower_gamma_ladder_shape_and_order():
    # any shape and order of x, zero included: the ladder sorts its series nodes
    x = np.array([[30.0, 0.0, 1e-3], [2.5, 500.0, 7.0]])
    got = lower_gamma_ladder(2.5, x, 3)
    assert got.shape == (3, 2, 3)
    flat = lower_gamma_ladder(2.5, x.ravel()[::-1], 3)[:, ::-1].reshape(3, 2, 3)
    assert np.array_equal(got, flat)
    assert np.all(got[:, 0, 1] == 0.0)
