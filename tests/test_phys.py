"""Physical-variable solver: conservation, scaling symmetry, blowup fits."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded
from scipy.sparse import diags

import ksdlab.phys as phys
from ksdlab.errors import DomainError, IllConditionedFit, NoBlowupDetected, SnapshotMismatch
from ksdlab.phys import (
    _fv_mass,
    _half_max_radius,
    _imex_step,
    _phys_rhs,
    _stable_dt,
    build_initial,
    pde_residual,
    run_phys,
)
from ksdlab.profile import ProfileParams, build_series, solve_profile
from ksdlab.radial import GAMMA, flux_laplacian, sinh_grid


@pytest.fixture(scope="module")
def mu02_profile():
    p02 = ProfileParams.make(0.2, 7)
    return solve_profile(p02, build_series(p02, 1e-12), 1.0e4, 1e-8)


@st.composite
def _fv_cases(draw):
    """A phys grid of resolution n in [16, 512] on [0, r_max], uniform or sinh-graded
    with a stretch scale in [r_max/30, r_max], and a density rho >= 0 on it."""
    n = draw(st.integers(min_value=16, max_value=512))
    r_max = draw(st.floats(min_value=1.0, max_value=100.0))
    if draw(st.booleans()):
        grid = sinh_grid(r_max, n, r_max / draw(st.floats(min_value=1.0, max_value=30.0)))
    else:
        grid = np.linspace(0.0, r_max, n)
    elements = st.floats(min_value=0.0, max_value=1e6)
    rho = draw(hnp.arrays(np.float64, len(grid), elements=elements))
    return grid, rho


def _rescaled(snap, lam):
    """The snapshot ``(t, r, rho)`` under the PDE's scaling symmetry
    ``(lam^2 t, lam r, rho/lam^2)``."""
    t, grid, rho = snap
    return lam * lam * t, lam * grid, rho / (lam * lam)


def _step(rho, lap, mu, dt=None):
    k0, m_face = _phys_rhs(rho, lap.weight, mu)
    if dt is None:
        dt = _stable_dt(m_face, rho.max(), lap.weight, mu)[0]
    return _imex_step(rho, k0, lap, mu, dt)[0], dt


def _record_minima(monkeypatch):
    """The minimum of rho at every record of the next run_phys call, one per mass
    evaluation."""
    minima = []
    fv_mass = phys._fv_mass
    monkeypatch.setattr(
        phys, "_fv_mass", lambda rho, vol: minima.append(rho.min()) or fv_mass(rho, vol)
    )
    return minima


class TestDiscretization:
    def test_initial_data(self, mu0_profile):
        st = build_initial(mu0_profile, 1e-4, n=1024)
        assert st.rho.max() == pytest.approx(1e8, rel=1e-12)
        assert st.rho[0] == st.rho.max()  # peak at the origin
        assert st.rho[-1] == 0.0  # cut off before the boundary
        assert _fv_mass(st.rho, flux_laplacian(st.grid).weight) > 0.0

    @pytest.mark.parametrize("lam0, named", [
        (0.0, "underflows"), (1e-200, "underflows"), (float("nan"), "not finite"),
        (1e200, "overflows"),
        # lam0^2 = 1e-320 is subnormal, not 0, but Q0/lam0^2 overflows
        (1e-160, "peak Q0/lam0\\^2 overflows"),
    ])
    def test_initial_scaling_leaves_float64(self, mu0_profile, lam0, named):
        # refused before any array is formed: lam0^2 = 0 once gave NaN from 0/0
        with pytest.raises(DomainError, match=named):
            build_initial(mu0_profile, lam0, n=64)

    def test_negative_lam0_rejected(self, mu0_profile):
        # lam0^(2 beta) of a negative lam0 is complex
        with pytest.raises(DomainError, match="negative"):
            run_phys(mu0_profile, lam0=-1e-8)

    def test_laplacian_bands_are_flux_form(self, mu0_profile):
        # the diffusive part of the FV flux form on the graded grid, written out
        # face by face over the exact shell volumes: faces midway between nodes, the
        # origin cell the ball inside the first face, the last cell symmetric about
        # its node
        st = build_initial(mu0_profile, 1e-4, n=1024)
        rho, grid = st.rho, st.grid
        assert grid[-1] - grid[-2] > 10.0 * grid[1]
        r_face = 0.5 * (grid[:-1] + grid[1:])
        F = r_face * r_face * (rho[1:] - rho[:-1]) / (grid[1:] - grid[:-1])
        outer = 2.0 * grid[-1] - r_face[-1]
        flux_form = np.empty_like(rho)
        flux_form[0] = F[0] / (r_face[0] ** 3 / 3.0)
        flux_form[1:-1] = (F[1:] - F[:-1]) / ((r_face[1:] ** 3 - r_face[:-1] ** 3) / 3.0)
        flux_form[-1] = -F[-1] / ((outer**3 - r_face[-1] ** 3) / 3.0)
        lap = flux_laplacian(grid)
        L = diags(1.0 / lap.weight) @ diags([lap.off, lap.diag, lap.off], [-1, 0, 1])
        scale = np.max(np.abs(flux_form))
        assert np.max(np.abs(L @ rho - flux_form)) < 1e-12 * scale
        assert np.max(np.abs(lap.apply(rho) - flux_form)) < 1e-12 * scale

    @pytest.mark.parametrize("n", [64, 1024, 8192])
    @pytest.mark.parametrize("k", [0.1, 1.0, 2.5])
    def test_symmetric_solve_matches_general(self, n, k):
        # the volume-weighted symmetric solve against a pivoting banded LU (LAPACK
        # gbsv) of I - c K / vol, the same operator's bands, at the implicit stage's
        # c = gamma dt; a dense solve at n=8192 would need a 537 MB matrix
        grid = np.linspace(0.0, 1.0, n)
        lap = flux_laplacian(grid)
        b = np.random.default_rng(n).uniform(0.5, 1.5, n)
        c = GAMMA * k * grid[1] ** 2
        bands = np.zeros((3, n))
        bands[0, 1:] = -c * lap.off / lap.weight[:-1]
        bands[1] = 1.0 - c * lap.diag / lap.weight
        bands[2, :-1] = -c * lap.off / lap.weight[1:]
        x = lap.solver(c)(b)
        np.testing.assert_allclose(x, solve_banded((1, 1), bands, b), rtol=1e-14, atol=0.0)
        # K's columns sum to zero, so diffusion conserves the FV mass
        mass = np.dot(lap.weight, b)
        assert abs(np.dot(lap.weight, x) - mass) <= 1e-14 * mass

    def test_transport_conserves_discrete_mass(self, mu0_profile):
        st = build_initial(mu0_profile, 1e-4, n=512)
        rho, lap = st.rho, flux_laplacian(st.grid)
        m0 = _fv_mass(rho, lap.weight)
        rho, _dt = _step(rho, lap, mu=0.0)
        assert _fv_mass(rho, lap.weight) == pytest.approx(m0, rel=1e-14)
        for _ in range(49):
            rho, _dt = _step(rho, lap, mu=0.0)
        assert _fv_mass(rho, lap.weight) == pytest.approx(m0, rel=1e-13)

    def test_damping_only_removes(self, mu0_profile):
        st = build_initial(mu0_profile, 1e-4, n=512)
        rho, lap = st.rho, flux_laplacian(st.grid)
        masses = [_fv_mass(rho, lap.weight)]
        for _ in range(50):
            rho, _dt = _step(rho, lap, mu=0.2)
            masses.append(_fv_mass(rho, lap.weight))
        assert np.all(np.diff(masses) < 0)

    def test_half_max_interpolates(self):
        grid = np.linspace(0.0, 1.0, 101)
        rho = np.maximum(1.0 - grid / 0.5, 0.0)  # half max exactly at 0.25
        assert _half_max_radius(rho, grid) == pytest.approx(0.25, abs=1e-12)

    def test_half_max_edges(self):
        # no node below half of rho(0): the outer radius; the first node below it at
        # index 1: interpolated on the first interval
        grid = np.linspace(0.0, 1.0, 11)
        assert _half_max_radius(np.full(11, 2.0), grid) == 1.0
        rho = np.array([1.0, 0.2] + [0.1] * 9)
        assert _half_max_radius(rho, grid) == pytest.approx(0.0625, abs=1e-15)


class TestScaling:
    def _snapshots(self, profile, n=512, steps=2):
        # a narrow pair: the midpoint-in-time residual is O(dt^2) in the gap,
        # so the steps stay at the explicit-diffusion scale 0.125 h^2
        st = build_initial(profile, 1e-4, n=n)
        rho, grid = st.rho.copy(), st.grid
        lap = flux_laplacian(grid)
        t = 0.0
        for _ in range(steps):
            rho, dt = _step(rho, lap, mu=0.0, dt=0.125 * grid[1] ** 2)
            t += dt
        a = (0.0, grid, st.rho)
        b = (t, grid, rho)
        return a, b

    def test_residual_small(self, mu0_profile):
        a, b = self._snapshots(mu0_profile)
        res = pde_residual(a, b, mu=0.0)
        # normalize by the scale of d rho/dt
        lap = flux_laplacian(b[1])
        op = _phys_rhs(b[2], lap.weight, 0.0)[0] + lap.apply(b[2])
        scale = np.sqrt(4 * np.pi * np.trapezoid(op ** 2 * b[1] ** 2, b[1]))
        assert res < 0.05 * scale

    @given(
        log_lam=st.floats(min_value=-3.0, max_value=3.0),
        mu=st.floats(min_value=0.0, max_value=1.0 / 3.0, exclude_max=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_nontrivial_rescaling(self, mu0_profile, log_lam, mu):
        # every term of the discrete residual is homogeneous under
        # (t, r, rho) -> (lam^2 t, lam r, rho/lam^2): the residual density
        # scales as lam^-4 and the volume element as lam^3, so the L2 norm
        # carries lam^-4 * lam^{3/2}, up to round-off
        a, b = self._snapshots(mu0_profile)
        lam = 10.0**log_lam
        base = pde_residual(a, b, mu)
        scaled = pde_residual(_rescaled(a, lam), _rescaled(b, lam), mu)
        assert scaled == pytest.approx(base * lam ** (-2.5), rel=1e-10)

    def test_snapshot_guard(self, mu0_profile):
        a, b = self._snapshots(mu0_profile)
        with pytest.raises(SnapshotMismatch):
            pde_residual(b, a, 0.0)


class TestBlowup:
    def test_mu0_run(self, mu0_profile, monkeypatch):
        minima = _record_minima(monkeypatch)
        series, fit = run_phys(mu0_profile, lam0=1e-8, n=4096)
        assert fit.p_amp == pytest.approx(-1.0, rel=0.10)
        assert fit.p_len == pytest.approx(11.0 / 24.0, rel=0.15)
        assert fit.r2_amp > 0.999
        rel_drift = abs(series["mass"][-1] - series["mass"][0]) / series["mass"][0]
        assert rel_drift < 1e-10
        assert fit.T_est == pytest.approx(1e-16, rel=0.05)
        # pinned outputs: the run constants must keep the arithmetic
        assert fit.p_amp == pytest.approx(-0.9933412892819883, rel=1e-12)
        assert fit.p_len == pytest.approx(0.515918683213892, rel=1e-12)
        # every record but the final (stopping) one sits on the 2.5 h^2 lattice
        grid = series["grid"]
        t_rec = 2.5 * (grid[1] - grid[0]) ** 2
        k = np.arange(len(series["t"]) - 1)
        assert np.allclose(series["t"][:-1], k * t_rec, rtol=1e-12, atol=0.0)
        # one mass evaluation per record, the initial one included
        assert len(minima) == len(series["t"]) and min(minima) >= 0.0

    def test_final_state_recorded_once(self, mu0_profile):
        # the CLI's default lam0 at n=4096: 18 lattice records, then the stopping state
        # off the lattice, appended once
        series, _ = run_phys(mu0_profile, lam0=10**-9.6, n=4096)
        assert len(series["t"]) == 19
        assert np.all(np.diff(series["t"]) > 0.0)

    def test_stop_on_lattice_recorded_once(self, mu0_profile, monkeypatch):
        # each step cut to end on the next lattice time: the stopping state is then the
        # step's end itself, already a record, and it is not appended again
        h = np.diff(build_initial(mu0_profile, 10**-9.6, n=4096).grid[:2])[0]
        t_rec, t, k = 2.5 * h * h, [0.0], [1]
        stable = phys._stable_dt

        def clipped(m_face, sup, vol, mu):
            dt, limit = stable(m_face, sup, vol, mu)
            if dt >= k[0] * t_rec - t[0]:
                dt, k[0] = k[0] * t_rec - t[0], k[0] + 1
            t[0] += dt
            return dt, limit

        monkeypatch.setattr(phys, "_stable_dt", clipped)
        minima = _record_minima(monkeypatch)
        series, fit = run_phys(mu0_profile, lam0=10**-9.6, n=4096)
        assert fit.stop_reason == "resolution"
        assert series["t"][-1] == t[0]
        assert series["t"].tolist() == (np.arange(len(series["t"])) * t_rec).tolist()
        assert len(minima) == len(series["t"]) == 18

    def test_graded_grid_keeps_uniform_physics(self, mu0_profile):
        # the benchmark's run on 1044 graded nodes against the exponents the same
        # resolution gave on 8192 uniform nodes; it stops at the 8-cell floor
        series, fit = run_phys(mu0_profile, lam0=1e-8, n=8192)
        assert len(series["grid"]) == 1044
        assert fit.p_amp == pytest.approx(-0.9937364740979889, abs=2e-3)
        assert fit.p_len == pytest.approx(0.5187732829552293, abs=2e-3)
        assert len(series["t"]) >= 140
        assert fit.stop_reason == "resolution"
        assert series["half_max_radius"][-1] < 8.0 * series["grid"][1]
        assert series["sup_norm"][-1] < 1e4 * series["sup_norm"][0]

    def test_mu02_mass_identity(self, mu02_profile, monkeypatch):
        # the accumulated sink uses the step's own explicit weights and the
        # FV volumes, so mass(t) - mass(0) matches it to round-off
        minima = _record_minima(monkeypatch)
        series, fit = run_phys(mu02_profile, lam0=1e-35, n=4096)
        assert fit.mass_identity_err < 1e-13
        assert np.all(np.diff(series["mass"]) < 0)
        assert min(minima) >= 0.0

    @staticmethod
    def _count_rhs(monkeypatch):
        """The list that each later ``_phys_rhs`` call appends to."""
        calls = []
        rhs = phys._phys_rhs
        monkeypatch.setattr(
            phys, "_phys_rhs", lambda rho, vol, mu: calls.append(1) or rhs(rho, vol, mu)
        )
        return calls

    def test_implicit_diffusion_step_count(self, mu0_profile, monkeypatch):
        # diffusion no longer bounds dt: the n=8192 run took ~2950 explicit steps
        calls = self._count_rhs(monkeypatch)
        series, _ = run_phys(mu0_profile, lam0=1e-8, n=8192)
        assert 0 < series["steps"] <= 300
        assert len(calls) == 2 * series["steps"]
        assert len(series["t"]) >= 140

    def test_two_partial_mass_kernels_per_step(self, mu0_profile, monkeypatch):
        # k0's face masses also set dt, so each IMEX step evaluates the explicit
        # operator, and with it the face-mass sum, twice
        calls = self._count_rhs(monkeypatch)
        steps = 5
        with pytest.raises(NoBlowupDetected, match="step budget") as err:
            run_phys(mu0_profile, lam0=1e-8, n=2048, max_steps=steps)
        assert err.value.stop == "budget"
        assert len(calls) == 2 * steps

    def test_empty_step_budget(self, mu0_profile):
        with pytest.raises(NoBlowupDetected, match=r"step budget exhausted; sup grew 1x") as err:
            run_phys(mu0_profile, lam0=1e-8, n=1024, max_steps=0)
        assert err.value.stop == "budget"

    def test_step_budget_reports_final_state(self, mu0_profile, monkeypatch):
        # the growth in the budget message is that of the state the last step made
        states = []
        step = phys._imex_step
        monkeypatch.setattr(phys, "_imex_step", lambda *a: states.append(step(*a)) or states[-1])
        with pytest.raises(NoBlowupDetected, match="step budget") as err:
            run_phys(mu0_profile, lam0=1e-8, n=1024, max_steps=3)
        sup0 = build_initial(mu0_profile, 1e-8, n=1024).rho.max()
        growth = [f"{rho.max() / sup0:.3g}x" for rho, _ in states]
        assert len(states) == 3 and growth[-1] != growth[-2]
        assert str(err.value).endswith(f"sup grew {growth[-1]}")
        assert err.value.stop == "budget"

    def test_dt_limits_counted(self, mu0_profile, monkeypatch):
        # each step is _stable_dt's advective or reaction bound, unclipped
        taken = []
        stable = phys._stable_dt
        monkeypatch.setattr(phys, "_stable_dt", lambda *a: taken.append(stable(*a)) or taken[-1])
        series, _ = run_phys(mu0_profile, lam0=1e-8, n=8192)
        limits = series["dt_limits"]
        assert limits["advective"] + limits["reaction"] == series["steps"] == 159
        assert limits == {"advective": 154, "reaction": 5}
        # the records: the initial state, the 148 lattice times the steps pass and the
        # final one off the lattice
        assert len(series["t"]) == 150
        # the least and largest step in units of the origin h^2, the largest past the
        # 2.5 h^2 record spacing
        h2 = (series["grid"][1] - series["grid"][0]) ** 2
        dts = [dt for dt, _ in taken]
        assert len(dts) == 159 and series["dt_range"] == [min(dts) / h2, max(dts) / h2]
        assert (round(series["dt_range"][0], 2), round(series["dt_range"][1], 2)) == (0.75, 3.63)

    def test_fit_report(self, mu0_profile):
        # what the fit rests on: at n=8192 the window spans 0.22 decades of T - t, the
        # sup-norm grows 1.67x and the half-max radius shrinks 1.31x over it, 20 of the
        # 150 records lie past T_est, and the local blowup-time estimate drifts
        series, fit = run_phys(mu0_profile, lam0=1e-8, n=8192)
        rep = series["fit_report"]
        t, sup, hm = series["t"], series["sup_norm"], series["half_max_radius"]
        lo, hi = np.searchsorted(t, fit.fit_window)
        assert t[[lo, hi]].tolist() == list(fit.fit_window)
        assert rep["window_decades"] == np.log10((fit.T_est - t[lo]) / (fit.T_est - t[hi]))
        assert (rep["sup_ratio"], rep["radius_ratio"]) == (sup[hi] / sup[lo], hm[lo] / hm[hi])
        assert rep["records"] == len(t) == 150
        assert rep["records_past_T_est"] == np.count_nonzero(t > fit.T_est) == 20
        assert round(rep["window_decades"], 2) == 0.22
        assert (round(rep["sup_ratio"], 2), round(rep["radius_ratio"], 2)) == (1.67, 1.31)
        assert rep["T_local_first"] == pytest.approx(1.0e-16, rel=1e-3)
        assert rep["T_local_last"] > 1.15 * rep["T_local_first"]

    def test_under_determined_fit_refused(self, mu0_profile):
        # this run keeps 3 records, 1 of them in the 5% window; the raw
        # late-window fit once reported p_amp = -1.0000 from them
        with pytest.raises(IllConditionedFit, match="1 records"):
            run_phys(mu0_profile, lam0=1e-16, n=4096)

    def test_diffusion_dominated_decay(self, mu0_profile):
        # a moderate lam0 leaves the physical diffusion coefficient
        # lam0^{1/6} near one, and the lump spreads instead of collapsing; at n=512
        # the initial half-max radius is under 8 origin cells, so n=1024
        with pytest.raises(NoBlowupDetected, match=r"sup-norm at 0\.456x initial") as err:
            run_phys(mu0_profile, lam0=0.2, n=1024)
        assert err.value.stop == "decay"

    def test_global_existence_probe(self, mu0_profile):
        # damping above the profile's own decays the lump; n=1024 reaches the
        # 8-cell floor at 1.6x growth first
        with pytest.raises(NoBlowupDetected, match=r"sup-norm at 0\.497x initial") as err:
            run_phys(mu0_profile, lam0=1e-8, mu=0.4, n=4096)
        assert err.value.stop == "decay"

    def test_resolution_before_growth(self, mu0_profile):
        # damping above the profile's own at n=1024: the half-max radius reaches the
        # 8-cell floor at 1.88x growth, short of the 10x the fit needs
        with pytest.raises(NoBlowupDetected, match="under 8 origin cells at 1.88x") as err:
            run_phys(mu0_profile, lam0=1e-8, mu=0.25, n=1024)
        assert err.value.stop == "resolution"


class TestMassTelescoping:
    @given(case=_fv_cases(), mu=st.floats(min_value=0.0, max_value=1.0 / 3.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    # one peak over a subnormal floor: |sum vol k0| is 5e-324 against a scale of 1.5e-323
    @example(case=(np.linspace(0.0, 3.0, 16), np.where(np.arange(16) == 4, 4.0, 5e-324)), mu=0.0)
    def test_fv_mass_telescopes(self, case, mu):
        # the transport fluxes cancel face by face in the FV mass sum, and the
        # damping removes exactly mu * sum vol rho^2; subnormal round-off is
        # absolute, so the cancellation gets a few subnormal units per cell
        grid, rho = case
        vol = flux_laplacian(grid).weight
        k0, m_face = _phys_rhs(rho, vol, 0.0)
        scale = np.dot(vol, np.abs(k0))
        subnormal = len(grid) * np.finfo(float).smallest_subnormal
        assert abs(np.dot(vol, k0)) <= 1e-13 * scale + subnormal
        damping = -mu * np.dot(vol, rho * rho)
        km = _phys_rhs(rho, vol, mu)[0]
        assert abs(np.dot(vol, km - k0) - damping) <= 1e-13 * (scale + abs(damping))
        # the face masses are the running FV mass sum: the last face and the outer
        # cell hold the whole conserved mass, and no face holds less than the one inside
        total = _fv_mass(rho, vol)
        assert abs(4.0 * np.pi * (m_face[-1] + vol[-1] * rho[-1]) - total) <= 1e-13 * total
        assert np.all(np.diff(m_face) >= 0.0)

    @given(case=_fv_cases(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_laplacian_symmetric_zero_row_sums(self, case, seed):
        # vol L = K is symmetric: L is self-adjoint in the vol-weighted inner
        # product; K's rows sum to zero, so L kills constants; and the implicit
        # stage's W - c K factors without pivoting
        grid, _ = case
        lap = flux_laplacian(grid)
        assert np.all(lap.off > 0.0) and np.all(lap.weight > 0.0)
        rows = lap.diag.copy()
        rows[:-1] += lap.off
        rows[1:] += lap.off
        assert np.all(np.abs(rows) <= 1e-14 * np.abs(lap.diag))
        x, y = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, len(grid)))
        xLy, yLx = np.dot(lap.weight * x, lap.apply(y)), np.dot(lap.weight * y, lap.apply(x))
        assert abs(xLy - yLx) <= 1e-13 * np.dot(np.abs(x), np.abs(lap.diag * y))
        b = np.ones_like(grid)
        np.testing.assert_allclose(lap.solver(GAMMA * 2.5 * grid[1] ** 2)(b), b, rtol=1e-12)

    @given(
        case=_fv_cases(),
        log_lam=st.floats(min_value=-3.0, max_value=3.0),
        mu=st.floats(min_value=0.0, max_value=1.0 / 3.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_invariance_any_grid(self, case, log_lam, mu):
        # the residual density scales as lam^-4 and the volume element as lam^3
        # on the uniform and the graded grid alike
        grid, rho = case
        a, b = (0.0, grid, rho), (0.125 * grid[1] ** 2, grid, rho[::-1].copy())
        lam = 10.0**log_lam
        base = pde_residual(a, b, mu)
        assert pde_residual(_rescaled(a, lam), _rescaled(b, lam), mu) == pytest.approx(
            base * lam ** (-2.5), rel=1e-10
        )
