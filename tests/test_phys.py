"""Physical-variable solver: conservation, scaling symmetry, blowup fits."""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

import ksdlab.phys as phys
from ksdlab.errors import DomainError, NoBlowupDetected, SnapshotMismatch
from ksdlab.phys import (
    _fv_mass,
    _half_max_radius,
    _phys_rhs,
    build_initial,
    check_scaling_invariance,
    pde_residual,
    run_phys,
)


def _step(rho, grid, mu, cfl=0.25):
    h = grid[1] - grid[0]
    m = cumulative_simpson(y=rho * grid * grid, x=grid, initial=0.0)
    umax = float(np.max(m[1:] / grid[1:] ** 2)) + 1e-300
    dt = cfl * min(0.5 * h * h, h / umax, 0.5 / ((1.0 - mu) * rho.max() + 1e-300))
    k1, _ = _phys_rhs(rho, grid, mu)
    k2, _ = _phys_rhs(rho + dt * k1, grid, mu)
    return rho + 0.5 * dt * (k1 + k2), dt


class TestDiscretization:
    def test_initial_data(self, mu0_profile):
        st = build_initial(mu0_profile, 1e-4, n=1024)
        assert st.t == 0.0
        assert st.sup_norm == pytest.approx(1e8, rel=1e-12)
        assert st.rho[0] == st.sup_norm  # peak at the origin
        assert st.rho[-1] == 0.0  # cut off before the boundary
        assert st.mass > 0.0

    def test_transport_conserves_discrete_mass(self, mu0_profile):
        st = build_initial(mu0_profile, 1e-4, n=512)
        rho, grid = st.rho, st.grid
        m0 = _fv_mass(rho, grid)
        for _ in range(50):
            rho, _dt = _step(rho, grid, mu=0.0)
        assert _fv_mass(rho, grid) == pytest.approx(m0, rel=1e-13)

    def test_damping_only_removes(self, mu0_profile):
        st = build_initial(mu0_profile, 1e-4, n=512)
        rho, grid = st.rho, st.grid
        masses = [_fv_mass(rho, grid)]
        for _ in range(50):
            rho, _dt = _step(rho, grid, mu=0.2)
            masses.append(_fv_mass(rho, grid))
        assert np.all(np.diff(masses) < 0)

    def test_half_max_interpolates(self):
        grid = np.linspace(0.0, 1.0, 101)
        rho = np.maximum(1.0 - grid / 0.5, 0.0)  # half max exactly at 0.25
        assert _half_max_radius(rho, grid) == pytest.approx(0.25, abs=1e-12)


class TestScaling:
    def _snapshots(self, profile, n=512, steps=2):
        # a narrow pair: the midpoint-in-time residual is O(dt^2) in the gap
        st = build_initial(profile, 1e-4, n=n)
        rho, grid = st.rho.copy(), st.grid
        t = 0.0
        for _ in range(steps):
            rho, dt = _step(rho, grid, mu=0.0)
            t += dt
        a = (0.0, grid, st.rho)
        b = (t, grid, rho)
        return a, b

    def test_residual_small(self, mu0_profile):
        a, b = self._snapshots(mu0_profile)
        res = pde_residual(a, b, mu=0.0)
        # normalize by the scale of d rho/dt
        scale = np.sqrt(4 * np.pi * np.trapezoid(
            _phys_rhs(b[2], b[1], 0.0)[0] ** 2 * b[1] ** 2, b[1]))
        assert res < 0.05 * scale

    def test_identity_rescaling(self, mu0_profile):
        a, b = self._snapshots(mu0_profile)
        assert check_scaling_invariance(a, b, 1.0, 0.0) == pytest.approx(
            pde_residual(a, b, 0.0), rel=1e-12
        )

    def test_nontrivial_rescaling(self, mu0_profile):
        # lam=2 maps onto a coarser effective grid; the residual stays at the
        # discretization level after accounting for the rho/lam^2, r*lam scaling
        a, b = self._snapshots(mu0_profile)
        base = pde_residual(a, b, 0.0)
        lam = 2.0
        scaled = check_scaling_invariance(a, b, lam, 0.0)
        # residual density scales as lam^-4 and the volume element as lam^3,
        # so the L2 norm carries lam^-4 * lam^{3/2}
        assert scaled == pytest.approx(base * lam ** (-2.5), rel=0.5)

    def test_snapshot_guard(self, mu0_profile):
        a, b = self._snapshots(mu0_profile)
        with pytest.raises(SnapshotMismatch):
            pde_residual(b, a, 0.0)
        with pytest.raises(DomainError):
            check_scaling_invariance(a, b, -1.0, 0.0)


class TestBlowup:
    def test_mu0_run(self, mu0_profile):
        series, fit = run_phys(mu0_profile, lam0=1e-8, n=4096)
        assert fit.p_amp == pytest.approx(-1.0, rel=0.10)
        assert fit.p_len == pytest.approx(11.0 / 24.0, rel=0.15)
        assert fit.r2_amp > 0.999
        rel_drift = abs(series["mass"][-1] - series["mass"][0]) / series["mass"][0]
        assert rel_drift < 1e-10
        assert fit.T_est == pytest.approx(1e-16, rel=0.05)
        # pinned outputs: the run constants must keep the arithmetic
        assert fit.p_amp == pytest.approx(-0.9944027253361255, rel=1e-12)
        assert fit.p_len == pytest.approx(0.5092071862428219, rel=1e-12)

    def test_two_partial_mass_kernels_per_step(self, mu0_profile, monkeypatch):
        # k1's partial mass also sets dt, so each Heun step runs the kernel twice
        calls = []
        kernel = phys.cumulative_simpson_uniform

        def counted(y, h):
            calls.append(len(y))
            return kernel(y, h)

        monkeypatch.setattr(phys, "cumulative_simpson_uniform", counted)
        steps = 5
        with pytest.raises(NoBlowupDetected, match="step budget"):
            run_phys(mu0_profile, lam0=1e-8, n=2048, max_steps=steps)
        assert len(calls) == 2 * steps

    def test_diffusion_dominated_decay(self, mu0_profile):
        # a moderate lam0 leaves the physical diffusion coefficient
        # lam0^{1/6} near one, and the lump spreads instead of collapsing
        with pytest.raises(NoBlowupDetected):
            run_phys(mu0_profile, lam0=0.2, n=512)

    def test_global_existence_probe(self, mu0_profile):
        with pytest.raises(NoBlowupDetected):
            run_phys(mu0_profile, lam0=1e-8, mu=0.4, n=1024)
