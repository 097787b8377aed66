"""Renormalized flow: fixed point, exact subchecks, modal rates and coupling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

import ksdlab.renorm as renorm
from ksdlab.errors import (
    CFLViolation,
    DomainError,
    ForcingDominates,
    IllConditionedFit,
    NonFiniteField,
)
from ksdlab.phys import build_initial
from ksdlab.profile import ProfileParams
from ksdlab.radial import ars222_step, chi_bump, cumulative_simpson_uniform, flux_laplacian
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

    def test_state_carries_its_grid(self, mu0_profile, mu0_params):
        # the grid make_state builds from n, carried to the next slice by replace()
        # and by step_renorm
        st = make_state(mu0_profile, 1e-3, n=512)
        assert np.array_equal(st.grid, renorm._grid(512))
        assert replace(st, psi=np.zeros_like(st.psi)).grid is st.grid
        assert step_renorm(st, mu0_profile, mu0_params, 1e-3).ops is st.ops

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
        # Lap e^{-r^2} = (4 r^2 - 6) e^{-r^2}, on renorm's grid and on phys's (at
        # lam0 = 1 it is in self-similar units); both loops use radial.flux_laplacian
        hs = [make_state(mu0_profile, 1.0, n=n).ops.h for n in (512, 1024)]
        assert hs[0] == pytest.approx(2.0 * hs[1], rel=1e-12)
        for grid_of in (lambda n: make_state(mu0_profile, 1.0, n=n).grid,
                        lambda n: build_initial(mu0_profile, 1.0, n=n).grid):
            errs = []
            for n in (512, 1024):
                r = grid_of(n)
                psi = np.exp(-r * r)
                lap = flux_laplacian(r).apply(psi)
                errs.append(np.max(np.abs(lap - (4.0 * r * r - 6.0) * psi)))
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

    @pytest.mark.parametrize("mu, j0", [(0.0, 4), (0.2, 7)])
    def test_rhs_adds_into_out(self, mu0_profile, mu, j0):
        # _residual_norm passes the diffusion as out: _rhs adds into it in place, to the
        # bits of the operator written out term by term
        params = ProfileParams.make(mu, j0)
        ops = make_state(mu0_profile, 1e-3, n=512).ops
        psi = mu0_profile.q(ops.grid) + np.stack((0.0 * ops.grid, 1e-4 * chi_bump(ops.grid)))
        out = 0.3 * ops.lap.apply(psi)
        m = cumulative_simpson_uniform(psi * ops.r2j, ops.h)
        f = np.concatenate((psi[:, :1] / 3.0, m[:, 1:] / ops.r3), axis=-1)
        want = out - _upwind(psi, ops.h) * ((params.beta - f) * ops.r_j) - psi
        want += (1.0 - mu) * psi * psi
        got = renorm._rhs(psi, ops, params, out)
        assert got is out
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_incoming_flow_refused(self, mu0_profile, mu0_params):
        # psi = 2 gives f = 2/3 > beta = 11/24: the flow is incoming, where
        # the upwind stencil does not hold
        st = make_state(mu0_profile, 1e-3, n=1024)
        two = replace(st, psi=np.full_like(st.psi, 2.0))
        with pytest.raises(CFLViolation, match="incoming"):
            step_renorm(two, mu0_profile, mu0_params, dt_policy(st.h, 1e-3, mu0_params, st.grid[-1]))

    @pytest.mark.parametrize("lam0", [-1e-3, -math.inf, math.inf, math.nan])
    def test_lam0_negative_or_non_finite_rejected(self, mu0_profile, lam0):
        with pytest.raises(DomainError, match="lam0"):
            make_state(mu0_profile, lam0, n=512)

    def test_lam0_zero_is_the_diffusion_free_flow(self, mu0_profile, mu0_params):
        # lambda^{2-4beta} = 0: a step at lam0 = 0 is the limit of vanishing diffusion
        steps = []
        for lam0 in (0.0, 1e-300):
            st = make_state(mu0_profile, lam0, n=512)
            steps.append(step_renorm(st, mu0_profile, mu0_params,
                                     dt_policy(st.h, lam0, mu0_params, st.grid[-1])).psi)
        assert np.array_equal(*steps)

    def test_zero_data_stays_zero(self, mu0_profile, mu0_params):
        st = make_state(mu0_profile, 1e-3, n=512)
        zero = replace(st, psi=np.zeros_like(st.psi))
        out = step_renorm(zero, mu0_profile, mu0_params, dt_policy(st.h, 1e-3, mu0_params, st.grid[-1]))
        assert np.all(out.psi == 0.0)

    def test_non_finite_state_refused(self, mu0_profile, mu0_params):
        # one NaN node spreads through the partial mass and the implicit solve
        st = make_state(mu0_profile, 1e-3, n=512)
        psi = st.psi.copy()
        psi[10] = np.nan
        with pytest.raises(NonFiniteField):
            step_renorm(replace(st, psi=psi), mu0_profile, mu0_params,
                        dt_policy(st.h, 1e-3, mu0_params, st.grid[-1]))

    def test_rows_match_separate_runs(self, mu0_profile, mu0_params):
        # one flow of the data Q, Q + 1e-4 chi r^2 and Q + 1e-4 chi records, row by row,
        # the bits of three runs of one field each, the first of them unseeded: the rows
        # share every step's dt and factorization
        seeds = (None, lambda r: 1e-4 * chi_bump(r) * r * r, lambda r: 1e-4 * chi_bump(r))
        rows = run_renorm(mu0_profile, 1e-24, 0.2, n=1024, perturbation=lambda r:
                          np.stack([np.zeros_like(r), seeds[1](r), seeds[2](r)]))
        assert rows["c"].shape == (5, 3, 7)
        for i, seed in enumerate(seeds):
            one = run_renorm(mu0_profile, 1e-24, 0.2, n=1024, perturbation=seed)
            assert rows["steps"] == one["steps"]
            for key in ("tau", "lam"):
                assert np.array_equal(rows[key], one[key])
            for key in ("eps_sup", "residual", "c"):
                assert np.array_equal(rows[key][:, i], one[key])
            assert np.array_equal(rows["state"].psi[i], one["state"].psi)
            # and the fit of a stack is each row's own fit
            st = replace(rows["state"], psi=rows["state"].psi[i])
            assert np.array_equal(extract_modes(rows["state"], mu0_profile)[i],
                                  extract_modes(st, mu0_profile))
        # a NaN in any one row stops the whole flow
        dt = dt_policy(rows["state"].h, 1e-24, mu0_params, rows["state"].grid[-1])
        for i in range(3):
            psi = rows["state"].psi.copy()
            psi[i, 10] = np.nan
            with pytest.raises(NonFiniteField):
                step_renorm(replace(rows["state"], psi=psi), mu0_profile, mu0_params, dt)

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

    def test_one_pass_over_the_records(self, mu0_profile, monkeypatch):
        # the records are evaluated once, after the last step: one _rhs call for all the
        # residuals beside the two of each step, and one mode fit
        calls = []
        for name in ("_rhs", "extract_modes"):
            fn = getattr(renorm, name)
            monkeypatch.setattr(renorm, name,
                                lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
        traj = run_renorm(mu0_profile, 1e-3, 0.2, n=1024)
        assert len(traj["tau"]) == 5
        assert calls.count("_rhs") == 2 * traj["steps"] + 1
        assert calls.count("extract_modes") == 1

    def test_records_evaluated_in_blocks(self, mu0_profile, monkeypatch):
        # past one block the records are evaluated one block per pass: one _rhs call
        # per block beside the two of each step, none on more than a block of records,
        # so the evaluation's memory does not grow with tau_end
        shapes = []
        rhs = renorm._rhs
        monkeypatch.setattr(renorm, "_rhs",
                            lambda psi, *a: shapes.append(psi.shape) or rhs(psi, *a))
        traj = run_renorm(mu0_profile, 1e-3, 3.3, n=1024)
        records = len(traj["tau"])
        blocks = -(-records // renorm._EVAL_BLOCK)
        assert (records, blocks) == (67, 2)
        assert len(shapes) == 2 * traj["steps"] + blocks
        # the steps evolve one field; each evaluation call stacks a block of records
        assert [s[0] for s in shapes if len(s) == 2] == [renorm._EVAL_BLOCK, 3]

    def test_recorded_residual_is_state_residual(self, mu0_profile, mu0_params, monkeypatch):
        # each record of a 3-row flow holds the bits of its own slice's residual (lambda
        # at that slice's tau), sup deviation and mode fit, across the edges of blocks
        # of 2, 2 and 1 records
        monkeypatch.setattr(renorm, "_EVAL_BLOCK", 2)
        states = []
        step = renorm.step_renorm

        def wrapped(st, *a, **k):
            states.append(step(st, *a, **k))
            return states[-1]

        monkeypatch.setattr(renorm, "step_renorm", wrapped)
        seeds = lambda r: np.stack([np.zeros_like(r), 1e-4 * chi_bump(r) * r * r,
                                    1e-4 * chi_bump(r)])
        traj = run_renorm(mu0_profile, 1e-3, 0.2, n=1024, perturbation=seeds)
        q0 = make_state(mu0_profile, 1e-3, n=1024)
        first = replace(q0, psi=q0.psi + seeds(q0.grid))
        slices = [first] + [st for st in states if st.tau in traj["tau"]]
        assert [st.tau for st in slices] == list(traj["tau"])
        assert traj["c"].shape == (5, 3, 7)
        for i, st in enumerate(slices):
            q = mu0_profile.q(st.grid)
            assert np.array_equal(traj["residual"][i],
                                  _residual_norm(st.psi, st.ops, st.lam, mu0_params))
            assert np.array_equal(traj["eps_sup"][i], np.max(np.abs(st.psi - q), axis=-1))
            assert np.array_equal(traj["c"][i], extract_modes(st, mu0_profile))


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

    def test_refused_window_stops_run_before_stepping(self, mu0_profile, monkeypatch):
        # the fit is made after the last step, but its window is checked before the first
        steps = []
        step = renorm.step_renorm
        monkeypatch.setattr(renorm, "step_renorm", lambda *a, **k: steps.append(a) or step(*a, **k))
        with pytest.raises(IllConditionedFit, match="6 nodes in the fit window for 7 modes"):
            run_renorm(mu0_profile, 1e-3, 0.2, n=512)
        assert steps == []


class TestRates:
    @pytest.mark.parametrize("lam0, n, most", [(1e-24, 1024, 400), (1e-3, 4096, 650)])
    def test_step_count(self, mu0_profile, lam0, n, most):
        # on the mapped grid the advective CFL is not set by R_dom = 50, and
        # implicit diffusion leaves it the only bound: at lam0=1e-3, n=4096 the
        # explicit diffusion limit took 19573 steps
        assert run_renorm(mu0_profile, lam0, 2.0, n=n)["steps"] <= most

    def test_unstable_mode_rates(self, mu0_profile, mu0_params):
        # lam0 deep in the perturbative regime so the diffusive drift sits at the
        # discretization floor rather than polluting the linear dynamics
        for j, tol in ((0, 0.05), (1, 0.05)):
            fit = measure_rates(mu0_params, mu0_profile, j, lam0=1e-24, n=1024)
            assert fit.rate == pytest.approx((4 - j) / 4.0, rel=tol)
        # pinned output of the last fit (j=1): the run constants must keep the arithmetic
        assert fit.rate == pytest.approx(0.7500486229416136, rel=1e-12)

    def test_slow_mode_rate_at_higher_resolution(self, mu0_profile, mu0_params):
        # the j=3 rate (slope 1/4) needs the smaller O(h^2) drift floor of a
        # finer grid before the differenced signal is clean
        fit = measure_rates(mu0_params, mu0_profile, 3, lam0=1e-24, n=2048)
        assert fit.rate == pytest.approx(0.25, rel=0.10)

    def test_coupling_constant(self, mu0_params):
        assert sigma_coupling(mu0_params) == pytest.approx(-14.0 / 3.0, abs=1e-12)

    def test_measured_coupling(self, mu0_profile):
        sig = measure_coupling(mu0_profile, lam0=1e-24, n=1024)
        assert sig == pytest.approx(-14.0 / 3.0, rel=0.30)
        assert sig == pytest.approx(-4.576014050789637, rel=1e-12)  # pinned output

    def test_amplitude_guard(self, mu0_profile, mu0_params):
        with pytest.raises(DomainError):
            measure_rates(mu0_params, mu0_profile, 0, amplitude=0.1, n=256)

    def test_vanished_seed_refused(self, mu0_profile, mu0_params):
        # a 1e-20 seed is below the round-off of Q ~ 1.5: the seeded and the
        # unseeded rows keep identical modes
        with pytest.raises(ForcingDominates, match="vanished"):
            measure_rates(mu0_params, mu0_profile, 1, amplitude=1e-20, lam0=1e-24, n=1024)

    def test_forcing_dominated_fit_refused(self, mu0_profile, mu0_params):
        # at lam0=1e-3 the diffusive forcing of the slow j=3 mode exceeds a tenth
        # of its modal derivative at every record of a 1e-10 seed
        with pytest.raises(ForcingDominates, match="throughout"):
            measure_rates(mu0_params, mu0_profile, 3, amplitude=1e-10, lam0=1e-3, n=1024)

    def test_mode_guard(self, mu0_profile, mu0_params):
        with pytest.raises(DomainError):
            measure_rates(mu0_params, mu0_profile, 5, n=256)

    def test_params_must_be_profile_params(self, mu0_profile):
        # the flow steps profile.params: guards and forcing check read the same values
        with pytest.raises(DomainError, match="differ from profile.params"):
            measure_rates(ProfileParams.make(0.0, 5), mu0_profile, 1, n=256)

    def test_negative_mode_rejected(self, mu0_profile, mu0_params):
        # a seed r^{-2} would divide by zero at the origin
        with pytest.raises(DomainError, match="0 <= j"):
            measure_rates(mu0_params, mu0_profile, -1, n=256)


class TestDriftScaling:
    def test_perturbative_drift_slope(self, mu0_profile):
        # with eps(0) = 0 the sup deviation from Q after tau <= 2 scales like
        # lam0^{1/6} once lam0 is small enough to clear the O(h^2) floor
        sups = []
        lams = (1e-12, 1e-15, 1e-18)
        for lam0 in lams:
            traj = run_renorm(mu0_profile, lam0, 2.0, n=2048)
            sups.append(np.max(traj["eps_sup"]))
        slope = np.polyfit(np.log(lams), np.log(sups), 1)[0]
        assert slope == pytest.approx(1.0 / 6.0, rel=0.20)
