"""Analytic 1D toy problem: closed-form profile, operator, coercivity."""

import numpy as np
import pytest

from ksdlab import linops
from ksdlab.errors import DivergentIntegrand, DomainError, GridMismatch, NoConvergence
from ksdlab.heat import (
    HeatParams,
    heat_apply_L,
    heat_coercivity,
    heat_multiplier_route,
    heat_profile,
    heat_weighted_inner,
    make_heat_suite,
)
from ksdlab.linops import PolyGauss, RadialQuad, SampledRadial


@pytest.fixture(scope="module")
def quad():
    return RadialQuad.make()


@pytest.fixture(scope="module")
def hp():
    return HeatParams(m=2)


def monomial(p, s):
    c = np.zeros(p + 1)
    c[p] = 1.0
    return PolyGauss(c, s)


def per_probe_quotients(hp, suite, kappa, quad):
    """``(L e, e) / (e, e)`` under ``Theta + kappa`` for each member, on the public route."""
    quotients = []
    for tf in suite:
        g = tf.to_polygauss()
        num = heat_weighted_inner(hp, heat_apply_L(hp, g, quad), g, kappa, quad)
        quotients.append(num / heat_weighted_inner(hp, g, g, kappa, quad))
    return quotients


def profile_dy(p, y):
    """Closed-form derivative ``U_*'(y) = -2 m c y^{2m-1} U_*^2``."""
    U = heat_profile(p, y)
    return -2.0 * p.m * p.c * y ** (2 * p.m - 1) * U * U


class TestProfile:
    def test_values(self, hp):
        assert heat_profile(hp, 0.0) == 1.0
        assert heat_profile(hp, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_ode_residual(self, hp):
        rng = np.random.default_rng(0)
        y = rng.uniform(0.01, 50.0, size=100)
        U = heat_profile(hp, y)
        residual = -U - y * profile_dy(hp, y) / (2.0 * hp.m) + U * U  # -U - y U'/(2m) + U^2
        assert np.max(np.abs(residual)) <= 1e-13

    def test_derivative_fd(self, hp):
        y = np.linspace(0.2, 5.0, 11)
        h = 1e-6
        fd = (heat_profile(hp, y + h) - heat_profile(hp, y - h)) / (2 * h)
        assert np.allclose(profile_dy(hp, y), fd, rtol=1e-8)

    def test_param_guards(self):
        with pytest.raises(DomainError):
            HeatParams(m=1)
        with pytest.raises(DomainError):
            HeatParams(m=2, c=-1.0)

    def test_non_integral_m_rejected(self):
        # the weight y^{-4m-4} and the profile's y^{2m} need an integral m
        with pytest.raises(DomainError, match="integer"):
            HeatParams(m=2.5)


class TestOperator:
    def test_zero_in_zero_out(self, hp, quad):
        z = PolyGauss(np.zeros(7), 1.0)
        out = heat_apply_L(hp, z, quad)
        assert np.all(out.vals == 0.0)

    def test_linearity(self, hp, quad):
        g, h = monomial(6, 1.0), monomial(8, 1.0)
        g_plus_h = PolyGauss(np.polynomial.polynomial.polyadd(g.coeffs, h.coeffs), g.s)
        Ls = heat_apply_L(hp, g_plus_h, quad)
        assert np.allclose(
            Ls.vals,
            heat_apply_L(hp, g, quad).vals + heat_apply_L(hp, h, quad).vals,
            rtol=1e-13,
            atol=1e-300,
        )

    def test_dilation_zero_mode(self, hp):
        # y U*' generates the scaling symmetry, so L annihilates it; sample the
        # exact derivative and compare the operator output against zero.
        # y U*' ~ -2mc y^{2m} vanishes only to order 2m, so the mode lies
        # outside L^2_Theta (the reason for modulation): Theta-weighted
        # pairings of it diverge, and the check runs in flat L^2.  The sampled
        # slope is a second-order difference in u, so the grid is the finer one
        # the 1e-3 floor was set on
        quad = RadialQuad.make(n=8001)
        y = quad.r
        mode = SampledRadial(r=y, vals=y * profile_dy(hp, y), vanish_order=2 * hp.m)
        out = heat_apply_L(hp, mode, quad)
        with pytest.raises(DivergentIntegrand):
            heat_weighted_inner(hp, mode, mode, 0.1, quad)
        num = np.dot(quad.weights(), out.vals**2 * y)  # dy = y du
        den = np.dot(quad.weights(), mode.vals**2 * y)
        assert np.sqrt(num / den) < 1e-3  # finite-difference floor of the sampled route

    def test_grid_mismatch(self, hp, quad):
        bad = SampledRadial(r=quad.r[:-1], vals=quad.r[:-1], vanish_order=6)
        with pytest.raises(GridMismatch):
            heat_apply_L(hp, bad, quad)


class TestInner:
    def test_divergence_guard(self, hp, quad):
        with pytest.raises(DivergentIntegrand):
            heat_weighted_inner(hp, monomial(2, 1.0), monomial(2, 1.0), 0.1, quad)

    def test_log_divergent_pair_rejected(self, hp, quad):
        # pa + pb = theta - 1 leaves y^{-1} dy at the origin: the quadrature
        # would return a value set only by the grid's lower cutoff
        with pytest.raises(DivergentIntegrand):
            heat_weighted_inner(hp, monomial(5, 1.0), monomial(6, 1.0), 0.1, quad)

    def test_grid_mismatch(self, hp, quad):
        bad = SampledRadial(r=quad.r[:-1], vals=quad.r[:-1], vanish_order=6)
        with pytest.raises(GridMismatch):
            heat_weighted_inner(hp, bad, monomial(6, 1.0), 0.1, quad)

    def test_multiplier_route(self, hp, quad):
        for p, s in ((6, 0.5), (6, 1.0), (8, 2.0)):
            g = monomial(p, s)
            Lg = heat_apply_L(hp, g, quad)
            direct = heat_weighted_inner(hp, Lg, g, 0.1, quad)
            route = heat_multiplier_route(hp, g, 0.1, quad)
            assert direct == pytest.approx(route, rel=1e-8)


class TestCoercivity:
    def test_all_quotients_bounded(self, hp):
        report = heat_coercivity(hp, make_heat_suite(hp, count=20))
        assert report["all_pass"]
        for r in report["records"]:
            assert r["quotient"] <= -0.125 + 1e-3

    def test_nonfinite_quotient_flagged(self):
        # at m=40 the split weight y^{-82} overflows on the y = e^{-30} end of
        # the quadrature grid and every quotient is NaN; none may pass
        hp = HeatParams(m=40)
        with np.errstate(over="ignore", invalid="ignore"):
            report = heat_coercivity(hp, make_heat_suite(hp, count=4))
        assert all(np.isnan(r["quotient"]) for r in report["records"])
        assert all(r["flagged"] for r in report["records"])
        assert not report["all_pass"]

    @pytest.mark.parametrize("m, kappa", [(4, 1e-2), (2, 1e-6)])
    def test_first_passing_kappa_kept(self, m, kappa, quad):
        # at c=0.01 heat_coercivity keeps neither the first nor the last kappa tried: every
        # larger kappa flags a probe on the per-probe route (at m=4, one at 1e-1)
        hp = HeatParams(m=m, c=0.01)
        suite = make_heat_suite(hp, count=20)
        report = heat_coercivity(hp, suite)
        assert report["kappa"] == kappa and report["all_pass"]
        bound = -1.0 / (4.0 * m) + 1e-3
        for larger in (10.0**-k for k in range(1, round(-np.log10(kappa)))):
            assert max(per_probe_quotients(hp, suite, larger, quad)) > bound

    @pytest.mark.parametrize("m, count", [(2, 50), (40, 4)])
    def test_each_family_built_once_per_call(self, m, count, monkeypatch):
        # the suite falls into at most 4 (p, s) families, each sampled once
        # however many kappas are tried; at m=40 every quotient is NaN, so all
        # six kappas are tried
        builds = []
        family_rows = linops._family_rows
        monkeypatch.setattr(linops, "_family_rows",
                            lambda *a: builds.append(a[:2]) or family_rows(*a))
        hp = HeatParams(m=m)
        with np.errstate(over="ignore", invalid="ignore"):
            report = heat_coercivity(hp, make_heat_suite(hp, count=count))
        tried = round(-np.log10(report["kappa"]))
        assert tried == (1 if m == 2 else 6)
        assert len(builds) <= 4 and len(set(builds)) == len(builds)

    @pytest.mark.parametrize("seed", [777, 12345])
    def test_family_quotients_match_per_probe_route(self, hp, quad, seed):
        # the Gram-matrix quotients and the accepted kappa against the public
        # route, one probe at a time
        suite = make_heat_suite(hp, seed=seed)
        report = heat_coercivity(hp, suite, quad)
        bound = -1.0 / (4.0 * hp.m) + 1e-3
        for kappa in (10.0**-k for k in range(1, 7)):
            refs = per_probe_quotients(hp, suite, kappa, quad)
            flags = [not (np.isfinite(q) and q <= bound) for q in refs]
            if not any(flags):
                break
        assert report["kappa"] == kappa
        for rec, ref, flagged in zip(report["records"], refs, flags):
            assert rec["quotient"] == pytest.approx(ref, rel=1e-13, abs=0.0)
            assert rec["flagged"] is flagged

    def test_unresolved_grid_rejected(self, hp):
        # 401 nodes leave the quadratic forms' panel-halving estimate at 1.2e-3 relative,
        # above the 1e-8 threshold (601 nodes still at 7.5e-7)
        with pytest.raises(NoConvergence):
            heat_coercivity(hp, make_heat_suite(hp), RadialQuad.make(n=401))

    def test_low_order_member_rejected(self, hp):
        # e^2 y^{-12} with e ~ y^4 is not integrable at the origin
        bad = linops.TestFunction(p=4, s=1.0, poly_coeffs=np.ones(7))
        with pytest.raises(DivergentIntegrand):
            heat_coercivity(hp, [bad])

    def test_near_origin_cluster(self, hp):
        # tightly localized probes see the full multiplier: quotients near -3/8
        report = heat_coercivity(hp, make_heat_suite(hp, count=20))
        narrow = [r["quotient"] for r in report["records"] if r["s"] == 0.5]
        assert len(narrow) >= 3
        assert all(-0.45 < q < -0.30 for q in narrow)

    def test_scale_invariance_of_quotient(self, hp):
        quad = RadialQuad.make()
        g = monomial(6, 1.0)
        for scale in (1.0, 5.0):
            gs = PolyGauss(scale * g.coeffs, g.s)
            Lg = heat_apply_L(hp, gs, quad)
            num = heat_weighted_inner(hp, Lg, gs, 0.1, quad)
            den = heat_weighted_inner(hp, gs, gs, 0.1, quad)
            if scale == 1.0:
                base = num / den
        assert num / den == pytest.approx(base, rel=1e-14)
