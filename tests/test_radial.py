"""Uniform-grid cumulative Simpson kernel against scipy and exact polynomials."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

from ksdlab.radial import cumulative_simpson_uniform


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

