"""Profile construction: recurrence oracle, series certificates, Taylor continuation."""

import math
import time
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

from ksdlab import profile as profile_mod
from ksdlab.errors import (
    DomainError,
    NoConvergence,
    OutOfRange,
    RegionExitScenario1,
    RegionExitScenario2,
    StepSizeUnderflow,
)
from ksdlab.linops import RadialQuad
from ksdlab.profile import (
    SERIES_MAX_TERMS,
    ProfileParams,
    build_series,
    classify_beta,
    compute_admissibility,
    make_grid,
    series_recurrence,
    solve_profile,
)
from ksdlab.radial import horner


#: working precision (decimal digits) of the ``mp.mpf`` operator oracle
SERIES_DPS = 40


def rational_recurrence(mu: Fraction, j0: int, q_j0: Fraction, n: int) -> list[Fraction]:
    """Independent exact-arithmetic oracle for the Taylor coefficients."""
    q0 = 1 / (1 - mu)
    Q = [q0] + [Fraction(0)] * n
    for j in range(1, n + 1):
        if j == j0:
            Q[j] = q_j0
            continue
        den = 2 * j * (Fraction(1, 2 * j0) - Fraction(1, 2 * j))
        S = sum(
            (Fraction(2 * i, 2 * (j - i) + 3) + (1 - mu)) * Q[i] * Q[j - i]
            for i in range(1, j)
        )
        Q[j] = S / den
    return Q



def operator_recurrence(mu: float, j0: int, q_j0: float, n: int) -> list:
    """The lattice recurrence written with ``mp.mpf`` operators at SERIES_DPS."""
    with mp.workdps(SERIES_DPS):
        one_m_mu = mp.mpf(1) - mp.mpf(mu)
        Q = [1 / one_m_mu] + [mp.mpf(0)] * n
        Q[j0] = mp.mpf(q_j0)
        for j in range(2 * j0, n + 1, j0):
            S = mp.mpf(0)
            for i in range(j0, j, j0):
                S += (mp.mpf(2 * i) / (2 * (j - i) + 3) + one_m_mu) * Q[i] * Q[j - i]
            Q[j] = S / (2 * j * (mp.mpf(1) / (2 * j0) - mp.mpf(1) / (2 * j)))
        return Q


def partial_mass(profile, r: float) -> float:
    """Mass of the ball of radius r, ``4 pi \\int_0^r Q s^2 ds``, by scipy's cumulative
    Simpson on the profile grid and a local Simpson correction on ``[g_k, r]``:
    a quadrature route independent of ``4 pi r^3 f(r)``."""
    if r < 0 or r > profile.r_max * (1 + 1e-12):
        raise OutOfRange(f"r={r} outside [0, {profile.r_max}]")
    if r == 0.0:
        return 0.0
    g = profile.grid
    integrand = profile.q_vals * g * g
    cum = cumulative_simpson(y=integrand, x=g, initial=0.0)
    k = int(np.searchsorted(g, r, side="right")) - 1
    val = cum[k]
    if r > g[k]:
        m = 0.5 * (g[k] + r)
        fa = integrand[k]
        fm = profile.q(m) * m * m
        fb = profile.q(r) * r * r
        val += (r - g[k]) / 6.0 * (fa + 4.0 * fm + fb)
    return float(4.0 * math.pi * val)


class TestAdmissibility:
    def test_mu0_threshold(self):
        J, j0 = compute_admissibility(0.0)
        assert J == pytest.approx(4.0, abs=1e-12)
        assert j0 == 4

    def test_mu_one_fifth(self):
        J, j0 = compute_admissibility(0.2)
        assert J == pytest.approx(7.0, abs=1e-12)
        assert j0 == 7

    def test_mu_quarter(self):
        J, j0 = compute_admissibility(0.25)
        assert J == pytest.approx(10.0, abs=1e-12)
        assert j0 == 10

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            compute_admissibility(1.0 / 3.0)
        with pytest.raises(DomainError):
            compute_admissibility(-0.1)


class TestParams:
    def test_beta_derived(self):
        p = ProfileParams.make(0.0, 4)
        assert p.beta == pytest.approx(11.0 / 24.0, abs=1e-15)
        assert p.q0 == 1.0
        assert p.f0 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_derived_values_kept(self):
        # q0, f0 and beta are computed on first read and kept, with the bits of their
        # formulas; replace() builds a new instance that computes its own
        p = ProfileParams.make(0.2, 7)
        f0 = 1.0 / (3.0 * 0.8)
        assert (p.q0, p.f0, p.beta) == (1.0 / 0.8, f0, f0 + 1.0 / 14.0)
        assert [vars(p)[k] for k in ("q0", "f0", "beta")] == [p.q0, p.f0, p.beta]
        q = replace(p, mu=0.0, j0=4)
        assert (q.q0, q.beta) == (1.0, 1.0 / 3.0 + 1.0 / 8.0)

    def test_positive_seed_rejected(self):
        with pytest.raises(DomainError):
            ProfileParams.make(0.0, 4, q_j0=0.5)

    def test_inadmissible_j0(self):
        with pytest.raises(DomainError):
            ProfileParams.make(0.0, 3)


class TestRecurrence:
    @given(
        mu=st.floats(min_value=0.0, max_value=0.3),
        extra=st.integers(min_value=0, max_value=3),
    )
    @example(mu=0.0, extra=0)
    @settings(max_examples=15, deadline=None)
    def test_against_rational_oracle(self, mu, extra):
        # the oracle runs every index j, the recurrence only the lattice j0 N
        j0 = compute_admissibility(mu)[1] + extra
        n = 10 * j0 + j0 // 2
        p = ProfileParams.make(mu, j0)
        Qmp = series_recurrence(p.mu, p.beta, n, j0=j0, q_j0=-1.0)
        Qfr = rational_recurrence(Fraction(mu), j0, Fraction(-1), n)
        for j in range(n + 1):
            assert float(Qmp[j]) == pytest.approx(float(Qfr[j]), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize(
        "mu, j0", [(0.0, 4), (0.1, 5), (0.2, 7), (0.25, 10), (0.3, 22), (0.32, 52)]
    )
    def test_floats_match_operator_form(self, mu, j0):
        # build_series consumes the float64 roundings, so those must not move, to the
        # length it grows the recurrence to
        p = ProfileParams.make(mu, j0)
        n = build_series(p, 1e-12).lattice_terms * j0
        got = series_recurrence(p.mu, p.beta, n, j0=j0, q_j0=-1.0)
        ref = operator_recurrence(mu, j0, -1.0, n)
        assert [float(q) for q in got] == [float(q) for q in ref]

    @given(
        mu=st.floats(min_value=0.0, max_value=0.3),
        extra=st.integers(min_value=0, max_value=3),
    )
    @example(mu=0.0, extra=0)
    @settings(max_examples=10, deadline=None)
    def test_precision_against_rational_oracle(self, mu, extra):
        # the full-precision values, not only their float64 roundings
        j0 = compute_admissibility(mu)[1] + extra
        n = 10 * j0 + j0 // 2
        p = ProfileParams.make(mu, j0)
        got = series_recurrence(p.mu, p.beta, n, j0=j0, q_j0=-1.0)
        exact = rational_recurrence(Fraction(mu), j0, Fraction(-1), n)
        for q, e in zip(got, exact, strict=True):
            err = abs(Fraction(q) - e)
            assert err <= Fraction(1, 10**45) * abs(e)

    def test_q8_value(self):
        Qmp = series_recurrence(0.0, 11.0 / 24.0, 8, j0=4, q_j0=-1.0)
        assert float(Qmp[8]) == pytest.approx(19.0 / 11.0, abs=1e-12)

    def test_sparsity_to_200(self):
        Qmp = series_recurrence(0.0, 11.0 / 24.0, 200, j0=4, q_j0=-1.0)
        for j in range(1, 201):
            if j % 4:
                assert Qmp[j] == 0

    def test_inconsistent_beta_rejected(self):
        # beta must equal 1/(3(1-mu)) + 1/(2 j0); 1/3 + 1/10 belongs to j0=5
        with pytest.raises(DomainError):
            series_recurrence(0.0, 1.0 / 3.0 + 0.1, 10, j0=4)

    @given(
        j0=st.integers(min_value=4, max_value=9),
        qj=st.floats(min_value=-3.0, max_value=-0.1),
    )
    @settings(max_examples=10, deadline=None)
    def test_sparsity_property(self, j0, qj):
        Q = series_recurrence(0.0, 1.0 / 3.0 + 1.0 / (2 * j0), 4 * j0, j0=j0, q_j0=qj)
        for j in range(1, 4 * j0 + 1):
            if j % j0:
                assert Q[j] == 0
        assert Q[2 * j0] != 0


class TestSeries:
    def test_growth_estimate(self, mu0_series):
        K, alpha = mu0_series.bound_K, mu0_series.bound_alpha
        q = mu0_series.q_coeffs
        for j in range(1, len(q)):
            if q[j] != 0.0:
                assert abs(q[j]) <= K ** (j - alpha) / (j * j) * (1 + 1e-12)

    def test_remainder_estimate_monotone(self, mu0_series):
        r1 = mu0_series.remainder_estimate(0.3)
        r2 = mu0_series.remainder_estimate(0.6)
        assert 0 <= r1 < r2

    def test_f_coeffs_relation(self, mu0_series):
        q, f = mu0_series.q_coeffs, mu0_series.f_coeffs
        for j in range(len(q)):
            assert f[j] == pytest.approx(q[j] / (2 * j + 3), rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("mu, j0, order", [
        (0.0, 4, 56), (0.1, 5, 55), (0.2, 7, 56), (0.25, 10, 50), (0.3, 22, 44), (0.32, 52, 104),
    ])
    def test_grown_to_its_certificate(self, mu, j0, order):
        # the run to 16 lattice terms fits a radius, the run to 32 moves it by under 5e-3
        # and passes the truncation test at 0.8x that radius; the radius is the fit over
        # the last 16 lattice terms, at least 15 of them at j0=52 too (7 at N=400)
        p = ProfileParams.make(mu, j0)
        series = build_series(p, 1e-12)
        assert (series.lattice_terms, len(series.q_coeffs) - 1) == (32, order)
        q = np.array([float(c) for c in series_recurrence(p.mu, p.beta, 32 * j0, j0=j0)])
        nz = np.flatnonzero(q[1:]) + 1
        js = nz[len(nz) // 2:]
        assert np.array_equal(js, np.arange(17, 33) * j0)
        slope = np.polyfit(js, np.log(np.abs(q[js])), 1)[0]
        assert series.radius_estimate == 1.0 / math.sqrt(math.exp(slope))
        r_plan, m = 0.8 * series.radius_estimate, order + j0
        assert abs(q[m]) * r_plan ** (2 * m) / (1.0 - 0.8 ** (2 * j0)) < 1e-12

    def test_recurrence_work_bounded(self, monkeypatch):
        # the two series a certify run builds, at mu=0 and mu=0.2: each runs the recurrence
        # to 16 lattice terms and then extends those to 32, never to the 400 orders of a
        # fixed length
        calls = []
        rec = profile_mod.series_recurrence
        monkeypatch.setattr(profile_mod, "series_recurrence",
                            lambda *a, **k: calls.append((a[2], len(k["prefix"] or [])))
                            or rec(*a, **k))
        for mu, j0 in ((0.0, 4), (0.2, 7)):
            calls.clear()
            build_series(ProfileParams.make(mu, j0), 1e-12)
            assert calls == [(16 * j0, 0), (32 * j0, 16 * j0 + 1)]

    @pytest.mark.parametrize("mu, j0", [(0.0, 4), (0.2, 7)])
    def test_extended_prefix_is_a_fresh_run(self, mu, j0):
        # a run extended from a shorter one, once and twice, holds the digits and exponent
        # of every coefficient of a fresh run to the same length
        p = ProfileParams.make(mu, j0)

        def run(terms, prefix=None):
            return series_recurrence(p.mu, p.beta, terms * j0, j0=j0, q_j0=-1.0, prefix=prefix)

        once = run(32, run(16))
        for got, want in ((once, run(32)), (run(64, once), run(64))):
            assert len(got) == len(want)
            assert [q.as_tuple() for q in got] == [q.as_tuple() for q in want]

    def test_length_cap_raises(self):
        # at mu=0 the remainder estimate falls about 0.17x per lattice term, to near 1e-198
        # at the 256-term cap: tol=1e-200 is out of reach, tol=1e-100 stops at 128 terms
        p = ProfileParams.make(0.0, 4)
        assert build_series(p, 1e-100).lattice_terms == 128
        with pytest.raises(NoConvergence, match=f"within {SERIES_MAX_TERMS} lattice terms"):
            build_series(p, 1e-200)

    def test_coefficients_finite_at_the_cap(self):
        # |Q_{k j0}| grows about 2.3x per lattice term; at j0=52 the largest of the 256
        # terms is near 1e92, so each rounds to a finite float64
        p = ProfileParams.make(0.32, 52)
        q = [float(c) for c in series_recurrence(p.mu, p.beta, SERIES_MAX_TERMS * 52, j0=52)]
        assert all(map(math.isfinite, q))
        assert 1e80 < abs(q[-1]) < 1e100

    def test_dense_length_bounded(self, monkeypatch):
        # 256 lattice terms hold 256 j0 dense coefficients, so a j0 above 4096 is refused
        # before the first recurrence runs; j0=52, the least admissible at mu=0.32, builds
        calls = []
        rec = profile_mod.series_recurrence
        monkeypatch.setattr(profile_mod, "series_recurrence",
                            lambda *a, **k: calls.append(a[2]) or rec(*a, **k))
        with pytest.raises(DomainError, match="j0=4097 above 4096"):
            build_series(ProfileParams(0.0, 4097), 1e-12)
        assert calls == []
        assert build_series(ProfileParams(0.32, 52), 1e-12).lattice_terms == 32

    def test_phase_slope_at_origin(self, mu0_series):
        # df/dQ along the separatrix leaving P0 is f_{j0}/Q_{j0} = 1/(2 j0 + 3)
        j0 = 4
        assert mu0_series.f_coeffs[j0] / mu0_series.q_coeffs[j0] == pytest.approx(
            1.0 / 11.0, abs=1e-15
        )


class TestSolve:
    def test_origin_values(self, mu0_profile):
        assert mu0_profile.q_vals[0] == pytest.approx(1.0, abs=1e-12)
        assert mu0_profile.f_vals[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_monotone_positive(self, mu0_profile):
        q, f = mu0_profile.q_vals, mu0_profile.f_vals
        assert np.all(q > 0) and np.all(f > 0)
        assert np.all(np.diff(q) < 0)
        assert np.all(np.diff(f) < 0)

    def test_region_membership(self, mu0_profile, mu0_params):
        pos = mu0_profile.grid > 0
        f, q = mu0_profile.f_vals[pos], mu0_profile.q_vals[pos]
        assert np.all(f - q / 3.0 > -1e-13 * f)
        assert np.all(f < mu0_params.beta)

    def test_residual(self, mu0_profile):
        assert mu0_profile.residual_max < 1e-8

    def test_tail_exponent(self, mu0_profile):
        assert mu0_profile.tail_exponent == pytest.approx(-24.0 / 11.0, rel=5e-3)

    def test_runtime_budget(self, mu0_params):
        t0 = time.perf_counter()
        series = build_series(mu0_params, 1e-12)
        solve_profile(mu0_params, series, 1.0e4, 1e-10)
        assert time.perf_counter() - t0 < 5.0

    def test_partial_mass_consistency(self, mu0_profile):
        for r in (0.5, 2.0, 10.0, 100.0):
            m = partial_mass(mu0_profile, r)
            pred = 4.0 * math.pi * r**3 * float(mu0_profile.sample(r)[1])
            assert m == pytest.approx(pred, rel=1e-5)

    def test_constant_branch(self):
        p = ProfileParams.make(0.0, 4, q_j0=0.0)
        series = build_series(p, 1e-12)
        prof = solve_profile(p, series, 1.0e4, 1e-10)
        assert np.allclose(prof.q_vals, 1.0)
        assert np.allclose(prof.f_vals, 1.0 / 3.0)
        assert prof.tail_exponent == 0.0

    def test_no_handoff_radius(self, mu0_params, mu0_series):
        # the remainder estimate at the smallest scanned radius, 0.05, is about 3e-152
        with pytest.raises(NoConvergence, match="no handoff radius brings the series"):
            solve_profile(mu0_params, mu0_series, 1.0e4, 1e-160)

    def test_residual_above_tol(self, mu0_params, mu0_series):
        # a handoff radius exists at 1e-20, but the float residual of the sampled
        # profile is round-off, far above 10*tol
        with pytest.raises(NoConvergence, match=r"sampled residual .* exceeds 10\*tol"):
            solve_profile(mu0_params, mu0_series, 1.0e4, 1e-20)

    def test_mu02_profile(self):
        p = ProfileParams.make(0.2, 7)
        prof = solve_profile(p, build_series(p, 1e-12), 1.0e4, 1e-8)
        assert prof.q_vals[0] == pytest.approx(1.25, abs=1e-12)
        # Q - Q0 ~ r^14 sits below one ulp of Q0 at the smallest radii, so the
        # sampled values can only tie there; strictness is checkable beyond
        assert np.all(np.diff(prof.q_vals) <= 0)
        assert np.all(np.diff(prof.q_vals[prof.grid >= 0.2]) < 0)

    @pytest.mark.parametrize("mu", [0.28, 0.3, 0.32])
    def test_near_critical_mu_profile(self, mu):
        # j0 = 15, 22 and 52: the residual check's FD step follows the 1/(2 j0) scale
        # of Q in ln r, so the accurate ODE solution is not falsely rejected
        p = ProfileParams.make(mu, compute_admissibility(mu)[1])
        tol = 1e-10
        prof = solve_profile(p, build_series(p, 1e-12), 1.0e4, tol)
        assert prof.residual_max <= 10.0 * tol
        assert prof.tail_exponent == pytest.approx(-1.0 / p.beta, rel=0.01)

    @pytest.mark.parametrize("mu", [0.0, 0.2, 0.3])
    def test_tail_against_doubled_order(self, mu, monkeypatch):
        # the order-24 continuation against an order-48 one, on the whole grid
        p = ProfileParams.make(mu, compute_admissibility(mu)[1])
        series = build_series(p, 1e-12)
        prof = solve_profile(p, series, 1.0e4, 1e-10)
        monkeypatch.setattr(profile_mod, "TAYLOR_ORDER", 2 * profile_mod.TAYLOR_ORDER)
        ref = solve_profile(p, series, 1.0e4, 1e-10)
        for got, want in ((prof.q_vals, ref.q_vals), (prof.f_vals, ref.f_vals)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert prof.sol.remainder < 1e-20

    def test_continuation_exits(self, mu0_params):
        beta = mu0_params.beta
        # f < Q/3: started outside the trapping region
        with pytest.raises(RegionExitScenario1, match="f = Q/3"):
            profile_mod._continue(0.0, beta, 0.0, 9.0, 1.0, 0.3)
        # Q < 0 and rising towards Q = 0 (dQ/ds = Q (Q - 1)/(beta - f) > 0 there)
        with pytest.raises(RegionExitScenario2, match="Q crossed 0"):
            profile_mod._continue(0.0, beta, 0.0, 9.0, -0.01, 0.3)

    def test_continuation_step_collapse(self, mu0_params):
        beta = mu0_params.beta
        # Q = 2 > 3 f, so df/ds = Q - 3 f > 0 carries f to beta, where dQ/ds =
        # Q (Q - 1)/(beta - f) has its pole: the first Taylor step is below 1e-11
        with pytest.raises(StepSizeUnderflow, match="Taylor step"):
            profile_mod._continue(0.0, beta, 0.0, 9.0, 2.0, beta - 1e-10)
        # started past the pole, beta - f is already below 5% of its start
        with pytest.raises(StepSizeUnderflow, match="collapsed"):
            profile_mod._continue(0.0, beta, 0.0, 9.0, 1.6, beta + 0.01)

    def test_range_guard(self, mu0_profile):
        with pytest.raises(OutOfRange):
            mu0_profile.q(2.0e4)
        with pytest.raises(OutOfRange):
            mu0_profile.q(-1.0)
        with pytest.raises(OutOfRange):
            mu0_profile.sample(np.array([0.0, 1.0, 2.0e4]))

    @pytest.mark.parametrize("q_j0", [-1.0, 0.0])
    def test_samples_are_the_evaluation(self, q_j0):
        # the stored samples are the profile's own evaluation of its grid, bit
        # for bit, on the ODE branch and on the constant one (no dense output)
        p = ProfileParams.make(0.0, 4, q_j0=q_j0)
        prof = solve_profile(p, build_series(p, 1e-12), 1.0e4, 1e-10)
        assert (prof.sol is None) == (q_j0 == 0.0)
        assert prof.params == p
        for stored, fresh in zip((prof.q_vals, prof.f_vals, prof.dq_vals), prof.sample(prof.grid)):
            assert np.array_equal(stored.view(np.int64), fresh.view(np.int64))
        r = float(prof.grid[100])
        assert (prof.q(r), prof.sample(r)[1]) == (prof.q_vals[100], prof.f_vals[100])

    @pytest.mark.parametrize("mu,j0", [(0.0, 4), (0.2, 7), (0.25, 10)])
    def test_stacked_series_matches_per_series_horner(self, mu, j0):
        # the one zero-skipping pass over (Q, f, dQ/dr) against a full Horner pass per
        # series, every coefficient added, on the profile grid, on the 4001-node grid of
        # _dq_weighted_norm and at r = 0 and subnormal r, where dQ/dr must be +0.0
        p = ProfileParams.make(mu, j0)
        series = build_series(p, 1e-12)
        prof = solve_profile(p, series, 1.0e4, 1e-10)
        dq_coeffs = 2 * np.arange(1, len(series.q_coeffs)) * series.q_coeffs[1:]
        quad = RadialQuad.make(u_min=-30.0, u_max=math.log(prof.r_max), n=4001)
        tiny = np.array([0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-160])
        for r in (prof.grid, quad.r, tiny):
            r = r[r <= prof.handoff_radius]
            x = np.square(r)
            want = (horner(series.q_coeffs, x), horner(series.f_coeffs, x),
                    horner(dq_coeffs, x) * r)
            for got, ref in zip(prof.sample(r), want):
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        dq_tiny = prof.sample(tiny)[2]
        assert np.all(dq_tiny.view(np.int64) == 0)  # +0.0, not -0.0

    @pytest.mark.parametrize("mu", [0.0, 0.2])
    def test_continuation_sums_left_to_right(self, mu):
        # every step's coefficients against the recurrence written with explicit
        # left-to-right adds from 0.0, bit for bit: the bits must not depend on how the
        # interpreter's builtin sum adds floats
        p = ProfileParams.make(mu, compute_admissibility(mu)[1])
        series = build_series(p, 1e-12)
        prof = solve_profile(p, series, 1.0e4, 1e-10)
        r_h = prof.handoff_radius
        coeffs = prof.sol.coeffs
        assert coeffs[0, 0, 0] == float(horner(series.q_coeffs, r_h * r_h))
        assert coeffs[1, 0, 0] == float(horner(series.f_coeffs, r_h * r_h))
        for i in range(coeffs.shape[2]):
            q, f, dq = [float(coeffs[0, 0, i])], [float(coeffs[1, 0, i])], []
            for k in range(profile_mod.TAYLOR_ORDER):
                qq = 0.0
                for a, b in zip(q, reversed(q)):
                    qq += a * b
                dqf = 0.0
                for a, b in zip(dq, f[k:0:-1]):
                    dqf += a * b
                dq.append(((1.0 - mu) * qq - q[k] + dqf) / (p.beta - f[0]))
                q.append(dq[k] / (k + 1))
                f.append((q[k] - 3.0 * f[k]) / (k + 1))
            assert np.array_equal(coeffs[:, :, i].view(np.int64),
                                  np.array([q, f]).view(np.int64))


class TestGridAndClassify:
    def test_grid_structure(self):
        g = make_grid(1.0e4)
        assert g[0] == 0.0
        assert g[1] == pytest.approx(0.05)
        assert g[-1] == 1.0e4
        ratios = g[2:] / g[1:-1]
        assert np.allclose(ratios[:-1], 10 ** (1 / 64.0), rtol=1e-9)

    def test_classify_cases(self):
        assert classify_beta(0.0, 0.30) == ("Trivial", None)
        assert classify_beta(0.0, 1.0 / 3.0) == ("Trivial", None)
        assert classify_beta(0.0, 11.0 / 24.0) == ("Nontrivial", 4)

    def test_classify_degenerate(self):
        # mu=1/15 has threshold J=4.5, so the j0=4 resonance is below it while
        # its similarity exponent still sits inside (f0, 1/2)
        mu = 1.0 / 15.0
        beta = 1.0 / (3.0 * (1.0 - mu)) + 1.0 / 8.0
        assert classify_beta(mu, beta) == ("Degenerate", 4)

    def test_classify_domain(self):
        with pytest.raises(DomainError):
            classify_beta(0.0, 0.6)
