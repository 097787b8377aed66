"""The uniform-grid cumulative Simpson kernel against scipy and exact polynomials, the
sinh-mapped grid, Horner evaluation against numpy's polyval, and the ARS(2,2,2) step on
both tridiagonal operator types against a matrix exponential."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from numpy.polynomial.polynomial import polyval
from scipy.linalg import expm

from ksdlab.errors import NotPositiveDefinite, SingularOperator
from ksdlab.heat import HeatParams, make_heat_suite
from ksdlab.linops import RadialQuad, make_test_suite
from ksdlab.radial import (
    SymmetricTridiagonal,
    Tridiagonal,
    ars222_step,
    cumulative_simpson_uniform,
    horner,
    sinh_grid,
)


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


def _general(rng, n):
    """A ``Tridiagonal`` and its dense matrix."""
    L = Tridiagonal(
        rng.uniform(0.5, 1.0, n - 1), -rng.uniform(2.0, 3.0, n), rng.uniform(0.5, 1.0, n - 1)
    )
    return L, np.diag(L.diag) + np.diag(L.lower, -1) + np.diag(L.upper, 1)


def _symmetric(rng, n):
    """A ``SymmetricTridiagonal`` with rows summing to at most zero, and its dense matrix."""
    L = SymmetricTridiagonal(
        rng.uniform(0.5, 1.0, n - 1), -rng.uniform(2.0, 3.0, n), rng.uniform(0.5, 2.0, n)
    )
    return L, (np.diag(L.diag) + np.diag(L.off, -1) + np.diag(L.off, 1)) / L.weight[:, None]


@pytest.mark.parametrize("make", [_general, _symmetric],
                         ids=["Tridiagonal", "SymmetricTridiagonal"])
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


def test_symmetric_solve_refuses_indefinite():
    # W - c S has diagonal (0, -1, 0) at c = -1: the first pivot is not positive
    L = SymmetricTridiagonal(np.ones(2), np.array([-1.0, -2.0, -1.0]), np.ones(3))
    with pytest.raises(NotPositiveDefinite, match="info 1"):
        L.solver(-1.0)


def test_general_solve_refuses_singular():
    # I - c L vanishes at L = I, c = 1: gttrf reports the zero pivot instead
    # of solving into [nan nan inf]
    L = Tridiagonal(np.zeros(2), np.ones(3), np.zeros(2))
    with pytest.raises(SingularOperator, match="info 1"):
        L.solver(1.0)(np.ones(3))


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
