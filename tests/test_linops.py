"""Weighted inner products, operator identities, and coercivity probes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ksdlab import linops
from ksdlab.errors import (
    DivergentIntegrand,
    DomainError,
    GridMismatch,
    NoConvergence,
    OrderUnsupported,
)
from ksdlab.heat import HeatParams, heat_apply_L, heat_weighted_inner
from ksdlab.linops import (
    PolyGauss,
    RadialQuad,
    SampledRadial,
    WeightParams,
    apply_L,
    coercivity_probe,
    make_test_suite,
    min_vanish_order,
    nonlocal_ibp_routes,
    quadratic_form_split,
    select_weight,
    sobolev_probe_low_order,
    _dq_weighted_norm,
    _du_matrix,
    weighted_inner,
)
from ksdlab.profile import ProfileParams, build_series, solve_profile


@pytest.fixture(scope="module")
def quad():
    return RadialQuad.make()


@pytest.fixture(scope="module")
def weight36(mu0_profile):
    return select_weight(mu0_profile, 4, A=36)


def monomial(p, s):
    c = np.zeros(p + 1)
    c[p] = 1.0
    return PolyGauss(c, s)


def gaussian_moment(k: float, s: float) -> float:
    """Exact ``int_0^inf r^k exp(-2 r^2/s^2) dr`` via the gamma function."""
    a = 2.0 / (s * s)
    return 0.5 * math.gamma((k + 1.0) / 2.0) / a ** ((k + 1.0) / 2.0)


class TestQuadrature:
    def test_gaussian_moments(self, quad):
        for k in (2, 6, 13):
            g = np.exp(-2.0 * quad.r**2)
            val = quad.integrate(g, power=k)
            assert val == pytest.approx(gaussian_moment(k, 1.0), rel=1e-12)

    def test_cumulative_matches_total(self, quad):
        g = np.exp(-(quad.r**2))
        cum = quad.cumulative(g, power=2)
        assert cum[-1] == pytest.approx(quad.integrate(g, power=2), rel=1e-8)

    def test_node_count_guard(self):
        with pytest.raises(DomainError):
            RadialQuad.make(n=1000)


class TestPolyGauss:
    def test_deriv_matches_fd(self):
        g = PolyGauss(np.array([0.0, 0.0, 1.0, 0.5]), 1.3)
        r = np.linspace(0.1, 3.0, 7)
        h = 1e-6
        fd = (g(r + h) - g(r - h)) / (2 * h)
        assert np.allclose(g.deriv()(r), fd, rtol=1e-8)

    def test_laplacian_matches_fd(self):
        g = monomial(4, 0.9)
        r = np.linspace(0.2, 2.0, 5)
        h = 1e-4
        fd = (g(r + h) - 2 * g(r) + g(r - h)) / h**2 + (g(r + h) - g(r - h)) / (r * h)
        assert np.allclose(g.laplacian()(r), fd, rtol=1e-6)

    def test_dilate_generator_consistency(self):
        g = monomial(6, 1.0)
        beta = 11.0 / 24.0
        r = np.linspace(0.1, 2.0, 9)
        d = 1e-6
        fd = (g.dilate(1 + d, beta)(r) - g.dilate(1 - d, beta)(r)) / (2 * d)
        assert np.allclose(g.dilation_generator(beta)(r), fd, rtol=1e-7)


class TestWeightedInner:
    def test_gamma_oracle(self, quad):
        w = WeightParams(A=36, B=1e-69, R1=50.0, cert_tailnorm=0.0, cert_wholenorm=0.0)
        for p, s in ((18, 1.0), (20, 0.5), (22, 2.0)):
            g = monomial(p, s)
            pred = 4.0 * math.pi * (
                gaussian_moment(2 * p - 36 + 2, s) + w.B * gaussian_moment(2 * p + 2, s)
            )
            assert weighted_inner(g, g, w, quad) == pytest.approx(pred, rel=1e-10)

    def test_symmetry_linearity(self, quad):
        w = WeightParams(A=36, B=1e-69, R1=50.0, cert_tailnorm=0.0, cert_wholenorm=0.0)
        g, h = monomial(18, 1.0), monomial(20, 1.0)
        assert weighted_inner(g, h, w, quad) == pytest.approx(
            weighted_inner(h, g, w, quad), rel=1e-14
        )
        assert weighted_inner(g.scale(3.0), h, w, quad) == pytest.approx(
            3.0 * weighted_inner(g, h, w, quad), rel=1e-14
        )

    def test_divergence_guard(self, quad):
        w = WeightParams(A=36, B=0.0, R1=50.0, cert_tailnorm=0.0, cert_wholenorm=0.0)
        with pytest.raises(DivergentIntegrand):
            weighted_inner(monomial(8, 1.0), monomial(8, 1.0), w, quad)

    def test_grid_mismatch(self, quad):
        w = WeightParams(A=36, B=0.0, R1=50.0, cert_tailnorm=0.0, cert_wholenorm=0.0)
        bad = SampledRadial(r=quad.r[:-1], vals=quad.r[:-1], vanish_order=20)
        with pytest.raises(GridMismatch):
            weighted_inner(bad, monomial(18, 1.0), w, quad)

    def test_unresolved_pair_rejected(self, quad):
        # grid noise has no smooth integral: panel halving must reject it on
        # both the 3D and the heat pairing, which share one checked core
        noise = np.random.default_rng(0).standard_normal(len(quad.r)) * quad.r**20
        g = SampledRadial(r=quad.r, vals=noise, vanish_order=20)
        w = WeightParams(A=36, B=1e-3, R1=50.0, cert_tailnorm=0.0, cert_wholenorm=0.0)
        with pytest.raises(NoConvergence):
            weighted_inner(g, g, w, quad)
        with pytest.raises(NoConvergence):
            heat_weighted_inner(HeatParams(m=2), g, g, 0.1, quad)


class TestSelectWeight:
    def test_pinned_A(self, weight36, mu0_params):
        assert weight36.A == 36
        checks = weight36.invariant_checks(mu0_params.j0)
        assert checks["exponent_gap"]
        assert checks["tail_smallness"]
        assert checks["flat_part_smallness"]

    @pytest.mark.parametrize("mu, j0", [(0.0, 4), (0.1, 5), (0.2, 7), (0.25, 10)])
    def test_R1_is_first_passing_grid_radius(self, mu, j0):
        # at each CLI weight (A = 36, 44, 60, 84), checked with the per-radius
        # quadrature route, independent of the cumulative integral in the node
        # index that select_weight scans with
        params = ProfileParams.make(mu, j0)
        profile = solve_profile(params, build_series(params, 1e-12), 1.0e4, 1e-10)
        w = select_weight(profile, j0)
        assert w.A == 8 * j0 + 4
        grid = profile.grid
        k = int(np.flatnonzero(grid == w.R1)[0])

        def passes(i):
            r = grid[i]
            return (1.5 * profile.q(r) <= 1e-3
                    and _dq_weighted_norm(profile, r_lo=r) <= 1.0 / 5000.0)

        assert passes(k) and not passes(k - 1)
        assert w.cert_tailnorm == _dq_weighted_norm(profile, r_lo=w.R1)
        assert w.q_at_R1 == profile.q(w.R1)

    def test_default_A_is_least_admissible(self, mu0_profile):
        # the least multiple of 4 with A >= 8 j0 + 3
        assert select_weight(mu0_profile, 4).A == 36

    def test_wholenorm_needs_A_8484(self, weight36, mu0_params):
        # the profile-gradient norm is O(1) (3.2653 at mu=0), so the whole-norm
        # certificate first passes at the multiple of 4 A = 8484
        def passes(A):
            return replace(weight36, A=A).invariant_checks(mu0_params.j0)["wholenorm_smallness"]

        assert passes(8484) and not passes(8480)

    def test_B_is_maximal(self, mu0_profile, mu0_params, weight36):
        w10 = WeightParams(
            A=weight36.A,
            B=10.0 * weight36.B,
            R1=weight36.R1,
            cert_tailnorm=weight36.cert_tailnorm,
            cert_wholenorm=weight36.cert_wholenorm,
            q_origin=weight36.q_origin,
            q_at_R1=weight36.q_at_R1,
            mu=weight36.mu,
        )
        assert not w10.invariant_checks(mu0_params.j0)["flat_part_smallness"]

    def test_A_validation(self, mu0_profile):
        with pytest.raises(DomainError):
            select_weight(mu0_profile, 4, A=34)  # not a multiple of 4
        with pytest.raises(DomainError):
            select_weight(mu0_profile, 4, A=32)  # below 8 j0 + 3


class TestOperator:
    def test_linearity(self, mu0_profile, mu0_params, quad):
        g, h = monomial(18, 1.0), monomial(20, 1.0)
        L_sum = apply_L(mu0_profile, mu0_params, g + h, quad)
        L_g = apply_L(mu0_profile, mu0_params, g, quad)
        L_h = apply_L(mu0_profile, mu0_params, h, quad)
        assert np.allclose(L_sum.vals, L_g.vals + L_h.vals, rtol=1e-12, atol=1e-14)

    def test_degenerate_matches_heat(self, quad):
        # constant profile branch: f = f0, dQ = 0, 2(1-mu)Q0 = 2, so L reduces
        # to -g - (1/(2 j0)) r g' + 2 g, which is the 1D toy operator with
        # m = j0 in its flat-profile limit c -> 0
        p = ProfileParams.make(0.0, 4, q_j0=0.0)
        prof = solve_profile(p, build_series(p, 1e-12), 1.0e4, 1e-10)
        g = monomial(18, 1.0)
        Lg = apply_L(prof, p, g, quad)
        hp = HeatParams(m=4, c=1e-30)
        Lg_heat = heat_apply_L(hp, g, quad)
        scale = np.max(np.abs(Lg.vals))
        assert np.allclose(Lg.vals, Lg_heat.vals, atol=1e-12 * scale)

    def test_ibp_routes_agree(self, mu0_profile, weight36, quad):
        for p, s in ((18, 1.0), (20, 2.0)):
            r1, r2 = nonlocal_ibp_routes(mu0_profile, weight36, monomial(p, s), quad)
            assert r1 == pytest.approx(r2, rel=1e-10)

    def test_quadratic_form_split(self, mu0_profile, mu0_params, weight36, quad):
        for p, s in ((18, 0.5), (20, 1.0)):
            parts = quadratic_form_split(
                mu0_profile, mu0_params, weight36, monomial(p, s), quad
            )
            total = parts["I_SI"] + parts["I_LO"] + parts["I_NLO"]
            assert total == pytest.approx(parts["direct"], rel=1e-10)


class TestCoercivity:
    def test_suite_reproducible(self):
        a = make_test_suite(36, count=6, seed=7)
        b = make_test_suite(36, count=6, seed=7)
        for ta, tb in zip(a, b):
            assert ta.p == tb.p and ta.s == tb.s
            assert np.array_equal(ta.poly_coeffs, tb.poly_coeffs)

    def test_min_vanish_order(self):
        assert min_vanish_order(36) == 18

    def test_suite_starts_at_min_vanish_order(self, mu0_profile, mu0_params, weight36):
        # at A=38 the least even integrable order is 20, not A // 2 = 19
        suite = make_test_suite(38, count=4)
        assert [tf.p for tf in suite] == [20, 22, 20, 22]
        rows = coercivity_probe(mu0_profile, mu0_params, replace(weight36, A=38), suite)
        assert all(math.isfinite(r["quotient"]) for r in rows)

    def test_quotients_negative(self, mu0_profile, mu0_params, weight36):
        suite = make_test_suite(36, count=12)
        rows = coercivity_probe(mu0_profile, mu0_params, weight36, suite)
        assert len(rows) == 12
        for r in rows:
            assert r["quotient"] <= -0.125 + 1e-3
            assert not r["flagged"]

    def test_nonfinite_quotient_flagged(self, mu0_profile, mu0_params, weight36):
        # at A=60 the split weight r^{-A/2} overflows on the r = e^{-30} end of
        # the quadrature grid and every quotient is NaN; none may pass
        w = replace(weight36, A=60)
        suite = make_test_suite(w.A, count=4)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = coercivity_probe(mu0_profile, mu0_params, w, suite)
        assert all(math.isnan(r["quotient"]) for r in rows)
        assert all(r["flagged"] for r in rows)

    def test_each_family_built_once(self, mu0_profile, mu0_params, weight36, monkeypatch):
        # the 50 probes fall into 4 (p, s) families: each family's rows are
        # sampled and put through L once, and no probe is sampled on its own
        builds, calls = [], []
        family_rows, call = linops._family_rows, PolyGauss.__call__
        monkeypatch.setattr(linops, "_family_rows",
                            lambda *a: builds.append(a[:2]) or family_rows(*a))
        monkeypatch.setattr(PolyGauss, "__call__", lambda g, r: calls.append(1) or call(g, r))
        suite = make_test_suite(36, count=50)
        rows = coercivity_probe(mu0_profile, mu0_params, weight36, suite)
        assert len(rows) == 50
        assert len(builds) <= 4 and len(set(builds)) == len(builds)
        assert not calls

    @pytest.mark.parametrize("A", [36, 38])
    @pytest.mark.parametrize("seed", [7, 12345])
    def test_family_quotients_match_per_probe_route(self, A, seed, mu0_profile, mu0_params,
                                                    weight36, quad):
        # the Gram-matrix quotients against the public route, one probe at a time
        w = replace(weight36, A=A)
        suite = make_test_suite(A, count=50, seed=seed)
        rows = coercivity_probe(mu0_profile, mu0_params, w, suite, quad)
        for tf, row in zip(suite, rows):
            g = tf.to_polygauss()
            Lg = apply_L(mu0_profile, mu0_params, g, quad)
            ref = weighted_inner(Lg, g, w, quad) / weighted_inner(g, g, w, quad)
            assert row["quotient"] == pytest.approx(ref, rel=1e-13, abs=0.0)
            assert row["flagged"] is not (math.isfinite(ref) and ref <= -0.125 + 1e-3)

    def test_unresolved_grid_rejected(self, mu0_profile, mu0_params, weight36):
        # 401 nodes leave the quadratic forms' panel-halving estimate above 1e-8
        with pytest.raises(NoConvergence):
            coercivity_probe(mu0_profile, mu0_params, weight36, make_test_suite(36),
                             RadialQuad.make(n=401))

    def test_low_order_rejected(self, mu0_profile, mu0_params, weight36):
        from ksdlab.linops import TestFunction

        bad = TestFunction(p=10, s=1.0, poly_coeffs=np.ones(3))
        with pytest.raises(DivergentIntegrand):
            coercivity_probe(mu0_profile, mu0_params, weight36, [bad])


class TestSobolev:
    def test_dilation_identity_routes(self, mu0_profile, mu0_params, quad):
        g = monomial(4, 1.0)
        beta = mu0_params.beta
        for m in (0, 1, 2):
            out = sobolev_probe_low_order(mu0_profile, mu0_params, g, m, quad)
            pred = -(1.0 + beta * (2 * m - 3) / 2.0)
            assert out["coefficient"] == pytest.approx(pred, abs=1e-15)
            assert out["drift_direct"] == pytest.approx(out["drift_predicted"], rel=1e-10)
            assert out["drift_dilation"] == pytest.approx(out["drift_direct"], rel=1e-6)

    def test_du_matrix_exact_on_quartic(self):
        # the 5-point stencils are exact on quartics; the two edge nodes at
        # each end copy their nearest interior neighbour
        u = np.linspace(0.0, 1.0, 41)
        vals = 1.0 + u + u**2 + u**3 + u**4
        exact = {1: 1.0 + 2 * u + 3 * u**2 + 4 * u**3, 2: 2.0 + 6 * u + 12 * u**2}
        for order, ref in exact.items():
            out = _du_matrix(vals, u, order)
            np.testing.assert_allclose(out[2:-2], ref[2:-2], rtol=1e-10)
            assert np.all(out[:2] == out[2]) and np.all(out[-2:] == out[-3])

    def test_order_guard(self, mu0_profile, mu0_params, quad):
        with pytest.raises(OrderUnsupported):
            sobolev_probe_low_order(mu0_profile, mu0_params, monomial(4, 1.0), 3, quad)
