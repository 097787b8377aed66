"""Weighted inner products, operator identities, and coercivity probes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ksdlab import linops
from ksdlab.errors import DivergentIntegrand, DomainError, GridMismatch, NoConvergence
from ksdlab.heat import (
    HeatParams,
    heat_apply_L,
    heat_coercivity,
    heat_weighted_inner,
    make_heat_suite,
)
from ksdlab.linops import (
    PolyGauss,
    RadialQuad,
    SampledRadial,
    WeightParams,
    apply_L,
    coercivity_probe,
    make_test_suite,
    min_vanish_order,
    select_weight,
    _dq_weighted_norm,
    weighted_inner,
)
from ksdlab.profile import ProfileParams, build_series, solve_profile
from ksdlab.radial import cumulative_simpson_uniform


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


def integrate(quad, F, power=2):
    """``\\int_0^inf F(r) r^power dr`` by the quadrature's trapezoid weights in u = ln r."""
    return float(np.dot(quad.weights(), F * quad.r ** (power + 1)))


def gaussian_moment(k: float, s: float) -> float:
    """Exact ``int_0^inf r^k exp(-2 r^2/s^2) dr`` via the gamma function."""
    a = 2.0 / (s * s)
    return 0.5 * math.gamma((k + 1.0) / 2.0) / a ** ((k + 1.0) / 2.0)


class TestQuadrature:
    def test_gaussian_moments(self, quad):
        for k in (2, 6, 13):
            g = np.exp(-2.0 * quad.r**2)
            val = integrate(quad, g, power=k)
            assert val == pytest.approx(gaussian_moment(k, 1.0), rel=1e-12)

    def test_r_derived_from_u(self, quad):
        # a quadrature built from u alone has its radii, with the bits of the full grid's
        coarse = RadialQuad(u=quad.u[::2])
        assert np.array_equal(coarse.r.view(np.int64), quad.r[::2].view(np.int64))

    def test_node_count_guard(self):
        with pytest.raises(DomainError):
            RadialQuad.make(n=1000)

    def test_closed_form_partial_masses(self):
        # the closed-form partial masses of the A = 36 families' rows, and of a PolyGauss
        # with odd and even powers, against cumulative Simpson of F r^3 in u = ln r on 64001
        # nodes (the mass below r = e^-30 is far under the tolerance), each row scaled by
        # its total mass
        quad = RadialQuad.make(n=64001)
        r = quad.r

        def cumulative(F):
            return cumulative_simpson_uniform(F * r**3, quad.u[1] - quad.u[0])

        for p in (18, 20):
            for s in (0.5, 1.0, 2.0, 4.0):
                exact = linops.gauss_partial_masses(p + 2, s, 7, r)
                rows = r ** (p + 2.0 * np.arange(7))[:, None] * np.exp(-(r / s) ** 2)
                err = np.abs(cumulative(rows) - exact).max(axis=1)
                assert np.all(err <= 1e-10 * exact[:, -1])
        g = PolyGauss(np.array([0.0, 0.0, 0.5, -1.0, 0.3, 0.0, -0.7, 0.2]), 1.3)
        exact = g.partial_mass(r)
        assert np.abs(cumulative(g(r)) - exact).max() <= 1e-10 * np.abs(exact).max()


class TestPolyGauss:
    def test_deriv_matches_fd(self):
        g = PolyGauss(np.array([0.0, 0.0, 1.0, 0.5]), 1.3)
        r = np.linspace(0.1, 3.0, 7)
        h = 1e-6
        fd = (g(r + h) - g(r - h)) / (2 * h)
        assert np.allclose(g.deriv()(r), fd, rtol=1e-8)


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
        assert weighted_inner(PolyGauss(3.0 * g.coeffs, g.s), h, w, quad) == pytest.approx(
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

    @pytest.mark.parametrize("A, power, p0", [(36, 2, 18), (12, 0, 6)])
    def test_pair_matches_integrand_oracle(self, quad, A, power, p0):
        # the integrand (a r^{-A/2})(b r^{-A/2}) + B a b, trapezoid-integrated in u on the fine
        # and the coarse (every other) nodes, against the Gram block behind pair, for a 3D core
        # and a heat core (theta exponent 4m + 4 at m = 2, dy).  Each probe is paired with
        # itself, and B is set so that the singular and the flat part weigh alike: a slip in
        # either one fails
        coarse_quad = RadialQuad(u=quad.u[::2])
        half = np.float_power(quad.r, -A / 2.0)
        for tf in linops._probe_suite(p0, 4, seed=3):
            a = tf.to_polygauss()
            av, pa = a(quad.r), a.vanish_order
            sing, flat = (av * half) * (av * half), av * av
            B = integrate(quad, sing, power) / integrate(quad, flat, power)
            F = sing + B * flat
            oracle = [integrate(quad, F, power), integrate(coarse_quad, F[::2], power)]
            core = linops._WeightedL2(quad, A, power)
            g = core.grams(av[None], pa, av[None], pa)[..., 0, 0]
            assert g[:, 0] + B * g[:, 1] == pytest.approx(oracle, rel=1e-13)
            assert core.pair(av, pa, av, pa, B) == pytest.approx(oracle[0], rel=1e-13)


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

    def test_B_is_maximal(self, mu0_params, weight36):
        # B passes the flat-part condition and 10 B fails it; at mu=0.3, j0=22 (A=180)
        # R1^A overflows and B = 1e-323 is subnormal
        params = ProfileParams.make(0.3, 22)
        profile = solve_profile(params, build_series(params, 1e-12), 1.0e4, 1e-10)
        for w, j0 in ((weight36, mu0_params.j0), (select_weight(profile, 22), 22)):
            assert w.invariant_checks(j0)["flat_part_smallness"]
            assert not replace(w, B=10.0 * w.B).invariant_checks(j0)["flat_part_smallness"]

    def test_A_validation(self, mu0_profile):
        with pytest.raises(DomainError):
            select_weight(mu0_profile, 4, A=34)  # not a multiple of 4
        with pytest.raises(DomainError):
            select_weight(mu0_profile, 4, A=32)  # below 8 j0 + 3

    def test_j0_must_be_profile_j0(self, mu0_profile):
        # A's floor 8 j0 + 4 must come from the j0 the profile was built at
        with pytest.raises(DomainError, match="differs from profile.params.j0=4"):
            select_weight(mu0_profile, 5)


class TestOperator:
    def test_linearity(self, mu0_profile, mu0_params, quad):
        g, h = monomial(18, 1.0), monomial(20, 1.0)
        g_plus_h = PolyGauss(np.polynomial.polynomial.polyadd(g.coeffs, h.coeffs), g.s)
        L_sum = apply_L(mu0_profile, mu0_params, g_plus_h, quad)
        L_g = apply_L(mu0_profile, mu0_params, g, quad)
        L_h = apply_L(mu0_profile, mu0_params, h, quad)
        assert np.allclose(L_sum.vals, L_g.vals + L_h.vals, rtol=1e-12, atol=1e-14)

    def test_params_must_be_profile_params(self, mu0_profile, quad):
        # L's coefficients and the profile it linearizes around come from one (mu, j0)
        with pytest.raises(DomainError, match="differ from profile.params"):
            apply_L(mu0_profile, ProfileParams.make(0.1, 5), monomial(18, 1.0), quad)

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

    def test_quadratic_form_split(self, mu0_profile, mu0_params, weight36, quad):
        # (Lg, g)_w split by parts into the singular-weight local terms I_SI, the
        # flat-weight local terms I_LO and the nonlocal term I_NLO.  I_SI and I_LO
        # carry the drift's integration by parts, int (r f_Q g') g w =
        # -1/2 int Q g^2 w + (A/2) int g^2 f_Q r^{-A}, so a wrong split fails the sum
        mu, beta, A, B = mu0_params.mu, mu0_params.beta, weight36.A, weight36.B
        core = linops._WeightedL2(quad, A, 2)
        r = quad.r
        Q, fq, dQ = mu0_profile.sample(r)
        coeffs = linops._operator_coeffs(mu0_params, r, Q, fq, dQ)

        for p, s in ((18, 0.5), (20, 1.0), (18, 1.0), (20, 2.0)):
            g = monomial(p, s)
            gv, dg = g(r), g.deriv()(r)
            J = g.partial_mass(r) / (r * r)  # vanishes to order p + 1
            rows = np.stack((gv, fq * gv, Q * gv, dQ * J))
            # 4 pi int x g r^{-A} r^2 dr and 4 pi int x g r^2 dr for the rows x, fine nodes
            sing, flat = 4.0 * math.pi * core.grams(rows, p, gv[None], p)[0, :, :, 0]
            I_SI = (
                (-1.0 + beta * (3.0 - A) / 2.0) * sing[0]
                + 0.5 * A * sing[1]
                + (1.5 - 2.0 * mu) * sing[2]
            )
            I_LO = B * ((-1.0 + 1.5 * beta) * flat[0] + (1.5 - 2.0 * mu) * flat[2])
            I_NLO = sing[3] + B * flat[3]
            direct = 4.0 * math.pi * core.pair(
                linops._L_vals(coeffs, gv, dg, g.partial_mass(r)), p, gv, p, B)
            assert I_SI + I_LO + I_NLO == pytest.approx(direct, rel=1e-10)


class TestCoercivity:
    def test_suite_reproducible(self):
        a = make_test_suite(36, count=6, seed=7)
        b = make_test_suite(36, count=6, seed=7)
        for ta, tb in zip(a, b):
            assert ta.p == tb.p and ta.s == tb.s
            assert np.array_equal(ta.poly_coeffs, tb.poly_coeffs)

    def test_min_vanish_order(self):
        assert min_vanish_order(36) == 18
        # the least even p the core's guard admits for a function paired with
        # itself, 2p + 2 > A - 1
        quad = RadialQuad.make(n=5)
        for A in range(4, 201):
            core, p = linops._WeightedL2(quad, A, 2), min_vanish_order(A)
            assert p % 2 == 0
            core._guard(p, p)
            with pytest.raises(DivergentIntegrand):
                core._guard(p - 2, p - 2)

    def test_suite_starts_at_min_vanish_order(self, mu0_profile, weight36):
        # at A=38 the least even integrable order is 18: g^2 r^{-A} r^2 ~ r^{2p-36}
        # at the origin, integrable for 2p + 2 > A - 1
        suite = make_test_suite(38, count=4)
        assert [tf.p for tf in suite] == [18, 20, 18, 20]
        rows = coercivity_probe(mu0_profile, replace(weight36, A=38), suite)
        assert all(math.isfinite(r["quotient"]) for r in rows)

    def test_quotients_negative(self, mu0_profile, weight36):
        suite = make_test_suite(36, count=12)
        rows = coercivity_probe(mu0_profile, weight36, suite)
        assert len(rows) == 12
        for r in rows:
            assert r["quotient"] <= -0.125 + 1e-3
            assert not r["flagged"]

    def test_nonfinite_quotient_flagged(self, mu0_profile, weight36):
        # at A=60 the split weight r^{-A/2} overflows on the r = e^{-30} end of
        # the quadrature grid and every quotient is NaN; none may pass
        w = replace(weight36, A=60)
        suite = make_test_suite(w.A, count=4)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = coercivity_probe(mu0_profile, w, suite)
        assert all(math.isnan(r["quotient"]) for r in rows)
        assert all(r["flagged"] for r in rows)

    def test_each_family_built_once(self, mu0_profile, weight36, monkeypatch):
        # the 50 probes fall into 4 (p, s) families: each family's rows are
        # sampled and put through L once, and no probe is sampled on its own
        builds, calls = [], []
        family_rows, call = linops._family_rows, PolyGauss.__call__
        monkeypatch.setattr(linops, "_family_rows",
                            lambda *a: builds.append(a[:2]) or family_rows(*a))
        monkeypatch.setattr(PolyGauss, "__call__", lambda g, r: calls.append(1) or call(g, r))
        suite = make_test_suite(36, count=50)
        rows = coercivity_probe(mu0_profile, weight36, suite)
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
        rows = coercivity_probe(mu0_profile, w, suite, quad)
        for tf, row in zip(suite, rows):
            g = tf.to_polygauss()
            Lg = apply_L(mu0_profile, mu0_params, g, quad)
            ref = weighted_inner(Lg, g, w, quad) / weighted_inner(g, g, w, quad)
            assert row["quotient"] == pytest.approx(ref, rel=1e-13, abs=0.0)
            assert row["flagged"] is not (math.isfinite(ref) and ref <= -0.125 + 1e-3)

    def test_records_match_heat_records(self, mu0_profile, weight36):
        # one probe loop, linops._probe, assembles the records of the 3D probe and the heat toy
        rows = coercivity_probe(mu0_profile, weight36, make_test_suite(36, count=4))
        hp = HeatParams(m=2)
        report = heat_coercivity(hp, make_heat_suite(hp, count=4))
        keys = {"index", "seed_label", "p", "s", "quotient", "flagged"}
        assert [set(r) for r in rows + report["records"]] == [keys] * 8

    def test_unresolved_grid_rejected(self, mu0_profile, weight36):
        # 401 nodes leave the quadratic forms' panel-halving estimate at 1e-4 relative,
        # above the 1e-8 threshold (601 nodes are at its edge, 1.2e-8)
        with pytest.raises(NoConvergence):
            coercivity_probe(mu0_profile, weight36, make_test_suite(36),
                             RadialQuad.make(n=401))

    def test_low_order_rejected(self, mu0_profile, weight36):
        from ksdlab.linops import TestFunction

        bad = TestFunction(p=10, s=1.0, poly_coeffs=np.ones(3))
        with pytest.raises(DivergentIntegrand):
            coercivity_probe(mu0_profile, weight36, [bad])


class TestSobolev:
    def test_dilation_identity_routes(self, mu0_params, quad):
        # the drift dilation identity in homogeneous H^m, m in {0, 1, 2},
        #   -(D^m (g + beta y.grad g), D^m g) = -(1 + beta (2m-3)/2) ||g||_{H^m}^2,
        # its left side by direct quadrature and by differentiating in lam the norm
        # of the dilated family lam g(lam^beta r), whose D^m is
        # lam^{1 + m beta} (D^m g)(lam^beta r)
        g = monomial(4, 1.0)
        beta = mu0_params.beta
        r = quad.r
        # g + beta r g', the derivative of the family at lam = 1
        gen = PolyGauss(
            np.polynomial.polynomial.polyadd(g.coeffs, beta * np.append(0.0, g.deriv().coeffs)),
            g.s,
        )

        def D(h, m, x):
            """D^m h at x: h, h', or the radial 3D Laplacian h'' + (2/x) h'."""
            if m == 0:
                return h(x)
            dh = h.deriv()
            return dh(x) if m == 1 else dh.deriv()(x) + 2.0 * dh(x) / x

        # the identity holds for any operator homogeneous under dilation, so check
        # the Laplacian itself against central differences
        x, h = np.linspace(0.2, 2.0, 5), 1e-4
        fd = (g(x + h) - 2 * g(x) + g(x - h)) / h**2 + (g(x + h) - g(x - h)) / (x * h)
        assert np.allclose(D(g, 2, x), fd, rtol=1e-6)

        def inner(a, b):
            return 4.0 * math.pi * integrate(quad, a * b, power=2)

        def dilated_norm2(lam, m):
            Dg_lam = lam ** (1.0 + m * beta) * D(g, m, lam**beta * r)
            return inner(Dg_lam, Dg_lam)

        dlam = 1e-5
        for m in (0, 1, 2):
            Dg = D(g, m, r)
            direct = -inner(D(gen, m, r), Dg)
            predicted = -(1.0 + beta * (2 * m - 3) / 2.0) * inner(Dg, Dg)
            plus, minus = dilated_norm2(1.0 + dlam, m), dilated_norm2(1.0 - dlam, m)
            dilation = -0.5 * (plus - minus) / (2.0 * dlam)
            assert direct == pytest.approx(predicted, rel=1e-10)
            assert dilation == pytest.approx(direct, rel=1e-6)
