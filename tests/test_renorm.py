"""Renormalized flow: fixed point, exact subchecks, modal rates and coupling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

import ksdlab.renorm as renorm
from ksdlab.errors import CFLViolation, DomainError, IllConditionedFit
from ksdlab.radial import ars222_step, chi_bump, cumulative_simpson_uniform
from ksdlab.renorm import (
    _residual_norm,
    _upwind,
    dt_policy,
    extract_modes,
    fit_nodes,
    make_state,
    measure_coupling,
    measure_rates,
    run_renorm,
    sigma_coupling,
    step_renorm,
)


class TestBump:
    def test_plateaus(self):
        r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        assert np.allclose(chi_bump(r), [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_monotone_transition(self):
        r = np.linspace(1.0, 2.0, 101)
        v = chi_bump(r)
        assert np.all(np.diff(v) <= 0)
        # C^1 at the endpoints: one-sided slopes vanish
        eps = 1e-6
        assert abs(chi_bump(1.0 + eps) - 1.0) < 1e-11
        assert abs(chi_bump(2.0 - eps)) < 1e-11


class TestMappedGrid:
    def test_fit_window_keeps_uniform_count(self):
        # r <= 1/2 holds as many nodes as linspace(0, 50, n) does
        ns = (512, 1024, 2048, 4096, 8192)
        counts = [fit_nodes(n) for n in ns]
        assert counts == [6, 11, 21, 41, 82]
        assert counts == [np.count_nonzero(np.linspace(0.0, 50.0, n) <= 0.5) for n in ns]

    def test_grid_shape(self, mu0_profile):
        for n, nodes in ((1024, 217), (4096, 863)):
            grid = make_state(mu0_profile, 1e-3, n=n).grid
            assert len(grid) == nodes
            assert grid[0] == 0.0 and grid[-1] == 50.0
            assert grid[1] <= 50.0 / (n - 1)

    def test_state_carries_its_grid(self, mu0_profile):
        # the grid make_state builds from n, carried to the next slice by replace()
        st = make_state(mu0_profile, 1e-3, n=512)
        assert np.array_equal(st.grid, renorm._grid(512))
        assert replace(st, psi=np.zeros_like(st.psi)).grid is st.grid

    def test_h_is_xi_spacing(self, mu0_profile):
        # r = a sinh(xi/a), so the first r spacing exceeds the xi step that
        # dt_policy and the step guard take
        st = make_state(mu0_profile, 1e-3, n=1024)
        assert st.h == st.ops.h
        assert st.h == pytest.approx(3.0 * np.arcsinh(st.grid[1] / 3.0), rel=1e-12)
        assert st.grid[1] - st.grid[0] > st.h

    def test_simpson_partial_mass(self, mu0_profile):
        # the xi-uniform Simpson sum of psi r^2 J is int_0^r psi s^2 ds, as
        # accurate as Simpson on linspace(0, 50, n) (5.1e-9 there)
        st = make_state(mu0_profile, 1e-3, n=4096)
        ops, r = st.ops, st.grid
        m = cumulative_simpson_uniform(np.exp(-r * r) * ops.r2j, ops.h)
        exact = math.sqrt(math.pi) / 4.0 * erf(r) - r * np.exp(-r * r) / 2.0
        assert np.max(np.abs(m - exact)) < 1e-8

    def test_laplacian_second_order(self, mu0_profile):
        # Lap e^{-r^2} = (4 r^2 - 6) e^{-r^2}
        errs, hs = [], []
        for n in (512, 1024):
            st = make_state(mu0_profile, 1.0, n=n)
            r = st.grid
            psi = np.exp(-r * r)
            lap = st.ops.lap.apply(psi)
            errs.append(np.max(np.abs(lap - (4.0 * r * r - 6.0) * psi)))
            hs.append(st.ops.h)
        assert hs[0] == pytest.approx(2.0 * hs[1], rel=1e-12)
        assert 3.5 <= errs[0] / errs[1] <= 4.5


class TestFlow:
    def test_profile_residual_scaling(self, mu0_profile, mu0_params):
        # at Psi = Q the only imbalance is the diffusive forcing, whose norm
        # scales as lam0^{2-4beta} = lam0^{1/6}
        ratios = []
        for lam0 in (1e-6, 1e-9, 1e-12):
            st = make_state(mu0_profile, lam0, n=2048)
            res = _residual_norm(st.psi, st.ops, lam0, mu0_params)
            ratios.append(res / lam0 ** (1.0 / 6.0))
        # the compensated ratio is constant up to the lam0-independent O(h^2)
        # advection discretization error, while the raw norms span 100x
        assert ratios[0] == pytest.approx(ratios[1], rel=0.02)
        assert ratios[1] == pytest.approx(ratios[2], rel=0.02)

    def test_advection_only_exact(self, mu0_profile, mu0_params):
        # the drift and damping alone, stepped with the upwind stencil of
        # _rhs on the explicit half of ARS(2,2,2), have the exact solution
        # e^{-tau} Psi0(r e^{-beta tau})
        st = make_state(mu0_profile, 1e-3, n=2048)
        ops, beta = st.ops, mu0_params.beta
        F = lambda p: -(ops.r_j * beta) * _upwind(p, ops.h) - p
        dt_adv = dt_policy(st.h, 1e-3, mu0_params, st.grid[-1])
        psi, tau = st.psi, 0.0
        while tau < 0.5 - 1e-12:
            dt = min(dt_adv, 0.5 - tau)
            psi, _ = ars222_step(psi, F(psi), F, ops.lap, 0.0, dt)
            tau += dt
        exact = math.exp(-tau) * mu0_profile.q(st.grid * math.exp(-beta * tau))
        assert np.max(np.abs(psi - exact)) < 1e-3

    def test_incoming_flow_refused(self, mu0_profile, mu0_params):
        # psi = 2 gives f = 2/3 > beta = 11/24: the flow is incoming, where
        # the upwind stencil does not hold
        st = make_state(mu0_profile, 1e-3, n=1024)
        two = replace(st, psi=np.full_like(st.psi, 2.0))
        with pytest.raises(CFLViolation, match="incoming"):
            step_renorm(two, mu0_profile, mu0_params, dt_policy(st.h, 1e-3, mu0_params, st.grid[-1]))

    def test_zero_data_stays_zero(self, mu0_profile, mu0_params):
        st = make_state(mu0_profile, 1e-3, n=512, perturbation=None)
        zero = replace(st, psi=np.zeros_like(st.psi))
        out = step_renorm(zero, mu0_profile, mu0_params, dt_policy(st.h, 1e-3, mu0_params, st.grid[-1]))
        assert np.all(out.psi == 0.0)

    def test_cfl_guard(self, mu0_profile, mu0_params):
        st = make_state(mu0_profile, 1e-3, n=512)
        with pytest.raises(CFLViolation):
            step_renorm(st, mu0_profile, mu0_params, 1.0)

    def test_cfl_guard_at_scheme_limit(self, mu0_profile, mu0_params):
        # the explicit half of ARS(2,2,2) on the second-order upwind stencil is
        # stable to CFL 1/2; unguarded, 0.7x the advective bound overflows
        st = make_state(mu0_profile, 1e-24, n=1024)
        bound = lambda safety: dt_policy(st.h, st.lam, mu0_params, st.grid[-1], safety)
        with pytest.raises(CFLViolation):
            step_renorm(st, mu0_profile, mu0_params, bound(0.7))
        step_renorm(st, mu0_profile, mu0_params, bound(0.5))

    def test_two_rhs_calls_per_step(self, mu0_profile, mu0_params, monkeypatch):
        # one explicit evaluation per ARS(2,2,2) stage; diffusion is solved, not evaluated
        calls = []
        rhs = renorm._rhs
        monkeypatch.setattr(renorm, "_rhs", lambda *a, **k: calls.append(a) or rhs(*a, **k))
        st = make_state(mu0_profile, 1e-3, n=512)
        step_renorm(st, mu0_profile, mu0_params, dt_policy(st.h, 1e-3, mu0_params, st.grid[-1]))
        assert len(calls) == 2

    def test_recorded_residual_is_state_residual(self, mu0_profile, mu0_params, monkeypatch):
        # the residual is taken at record time from the recorded slice, with
        # lambda at that slice's tau
        states = []
        extract = renorm.extract_modes
        monkeypatch.setattr(
            renorm, "extract_modes", lambda st, *a, **k: states.append(st) or extract(st, *a, **k)
        )
        traj = run_renorm(mu0_profile, mu0_params, 1e-3, 0.2, n=1024)
        assert len(states) == len(traj["residual"]) == 5
        for st, res in zip(states, traj["residual"]):
            assert res == _residual_norm(st.psi, st.ops, st.lam, mu0_params)


class TestModes:
    def test_extraction_exact(self, mu0_profile):
        st0 = make_state(mu0_profile, 1e-3, n=4096)
        # the fit takes j0 + 3 = 7 modes: the 5 seeded ones and two zeros
        coeffs = np.array([2e-4, -1e-4, 5e-5, 0.0, 3e-5])
        psi = mu0_profile.q(st0.grid) + sum(
            c * st0.grid ** (2 * j) for j, c in enumerate(coeffs)
        )
        st = replace(st0, psi=psi)
        got = extract_modes(st, mu0_profile)
        assert np.allclose(got, np.concatenate((coeffs, [0.0, 0.0])), atol=1e-10)

    def test_window_without_enough_nodes_rejected(self, mu0_profile):
        # n=512 leaves 6 nodes in r <= 1/2 for the j0 + 3 = 7 unknowns; the
        # wide Vandermonde matrix is well conditioned, but the fit is not unique
        st = make_state(mu0_profile, 1e-3, n=512)
        with pytest.raises(IllConditionedFit):
            extract_modes(st, mu0_profile)


@pytest.fixture(scope="module")
def perturbative_baseline(mu0_profile, mu0_params):
    # lam0 deep in the perturbative regime so the diffusive drift sits at the
    # discretization floor rather than polluting the linear dynamics
    return run_renorm(mu0_profile, mu0_params, 1e-24, 2.0, n=1024)


class TestRates:
    @pytest.mark.parametrize("lam0, n, most", [(1e-24, 1024, 400), (1e-3, 4096, 650)])
    def test_step_count(self, mu0_profile, mu0_params, lam0, n, most):
        # on the mapped grid the advective CFL is not set by R_dom = 50, and
        # implicit diffusion leaves it the only bound: at lam0=1e-3, n=4096 the
        # explicit diffusion limit took 19573 steps
        assert run_renorm(mu0_profile, mu0_params, lam0, 2.0, n=n)["steps"] <= most

    def test_unstable_mode_rates(self, mu0_profile, mu0_params, perturbative_baseline):
        for j, tol in ((0, 0.05), (1, 0.05)):
            fit = measure_rates(
                mu0_params, mu0_profile, j, lam0=1e-24, n=1024,
                baseline=perturbative_baseline,
            )
            assert fit.expected == pytest.approx((4 - j) / 4.0, abs=1e-15)
            assert fit.rate == pytest.approx(fit.expected, rel=tol)
        # pinned output of the last fit (j=1): the run constants must keep the arithmetic
        assert fit.rate == pytest.approx(0.7500569962944398, rel=1e-12)

    def test_slow_mode_rate_at_higher_resolution(self, mu0_profile, mu0_params):
        # the j=3 rate (slope 1/4) needs the smaller O(h^2) drift floor of a
        # finer grid before the differenced signal is clean
        fit = measure_rates(mu0_params, mu0_profile, 3, lam0=1e-24, n=2048)
        assert fit.rate == pytest.approx(0.25, rel=0.10)

    def test_coupling_constant(self, mu0_params):
        assert sigma_coupling(mu0_params) == pytest.approx(-14.0 / 3.0, abs=1e-12)

    def test_measured_coupling(self, mu0_profile, mu0_params, perturbative_baseline):
        sig = measure_coupling(
            mu0_params, mu0_profile, lam0=1e-24, n=1024,
            baseline=perturbative_baseline,
        )
        assert sig == pytest.approx(-14.0 / 3.0, rel=0.30)
        assert sig == pytest.approx(-4.575941008645274, rel=1e-12)  # pinned output

    def test_amplitude_guard(self, mu0_profile, mu0_params):
        with pytest.raises(DomainError):
            measure_rates(mu0_params, mu0_profile, 0, amplitude=0.1, n=256)

    def test_mode_guard(self, mu0_profile, mu0_params):
        with pytest.raises(DomainError):
            measure_rates(mu0_params, mu0_profile, 5, n=256)


class TestDriftScaling:
    def test_perturbative_drift_slope(self, mu0_profile, mu0_params):
        # with eps(0) = 0 the sup deviation from Q after tau <= 2 scales like
        # lam0^{1/6} once lam0 is small enough to clear the O(h^2) floor
        sups = []
        lams = (1e-12, 1e-15, 1e-18)
        for lam0 in lams:
            traj = run_renorm(mu0_profile, mu0_params, lam0, 2.0, n=2048)
            sups.append(np.max(traj["eps_sup"]))
        slope = np.polyfit(np.log(lams), np.log(sups), 1)[0]
        assert slope == pytest.approx(1.0 / 6.0, rel=0.20)
