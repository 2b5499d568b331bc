"""Energy budget, local energy equality, sweeps, records."""

import numpy as np
import pytest

from lerayflow import (BumpTestFunction, EnergyRecord, FilterParams,
                       ForcingMode, ForcingSpec, InvariantViolation,
                       ModelConfig, ModelKind, NonMonotone, SimState,
                       SpectralVectorField, StepperConfig, TooFewSamples,
                       WaveGrid, alpha_sweep, energy_budget_residual,
                       filter_apply, local_energy_residual, measure_energy,
                       n_sweep, pressure_solve, random_solenoidal, run,
                       sobolev_norm)
from lerayflow.presets import taylor_green_state_field

from conftest import single_mode_field


def leray_cfg(nu=0.1, alpha=0.1, theta=0.25, forcing=None):
    return ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=nu,
                       filter=FilterParams(alpha=alpha, theta=theta),
                       forcing=forcing or ForcingSpec.zero())


class TestEnergyRecord:
    def test_h_half_dominates_twice_kinetic(self, grid3):
        # |k| >= 1 on the 2*pi box, so the H^(1/2) square exceeds 2 * e_kin
        for seed in range(5):
            u = random_solenoidal(grid3, seed, -1.5, grid3.dealias_cutoff)
            rec = measure_energy(SimState(0.0, u), leray_cfg())
            assert rec.h_half >= 2.0 * rec.e_kin * (1 - 1e-13)
            assert rec.e_kin >= 0 and rec.grad_u >= 0
            assert rec.div_residual <= 1e-12

    def test_inject_matches_inner_product(self, grid3):
        f = ForcingSpec((ForcingMode((1, 0, 0), (0.0j, 0.3 + 0.1j, 0.0j)),))
        u = random_solenoidal(grid3, 3, -1.5, grid3.dealias_cutoff)
        rec = measure_energy(SimState(0.0, u), leray_cfg(forcing=f))
        from lerayflow import l2_inner
        assert rec.inject == pytest.approx(
            l2_inner(f.evaluate(grid3, 0.0), u), rel=1e-14)


class TestEnergyBudget:
    def test_zero_state_zero_residual(self, grid3):
        zero = SpectralVectorField(
            grid3, np.zeros((3,) + grid3.spectral_shape, complex))
        samples = [measure_energy(SimState(t, zero), leray_cfg())
                   for t in (0.0, 0.1, 0.2, 0.3)]
        assert energy_budget_residual(samples, leray_cfg()) == 0.0

    def test_taylor_green_budget_and_dt_order(self, grid2_64):
        nu = 0.1
        cfg = ModelConfig(kind=ModelKind.NSE, nu=nu, filter=FilterParams(0.0))
        residuals = []
        for dt in (1e-3, 5e-4):
            samples = []
            run(SimState(0.0, taylor_green_state_field(grid2_64, nu)), cfg,
                StepperConfig(dt=dt, t_end=0.1), samples.append)
            residuals.append(energy_budget_residual(samples, cfg))
        assert residuals[0] < 1e-6
        ratio = residuals[0] / residuals[1]
        assert 4 * 0.7 <= ratio <= 4 * 1.3

    def test_too_few_samples(self, grid3):
        u = random_solenoidal(grid3, 0, -1.0, 4)
        samples = [measure_energy(SimState(0.0, u), leray_cfg())]
        with pytest.raises(TooFewSamples):
            energy_budget_residual(samples * 2, leray_cfg())

    def test_nonuniform_spacing_rejected(self, grid3):
        u = random_solenoidal(grid3, 0, -1.0, 4)
        samples = [measure_energy(SimState(t, u), leray_cfg())
                   for t in (0.0, 0.1, 0.35)]
        with pytest.raises(InvariantViolation):
            energy_budget_residual(samples, leray_cfg())


class TestBumpTestFunction:
    def test_window_vanishes_outside(self):
        phi = BumpTestFunction(center=(np.pi, np.pi), width=0.7,
                               t0=0.2, t1=0.8)
        assert phi.time_weight(0.0) == 0.0
        assert phi.time_weight(0.2) == 0.0
        assert phi.time_weight(1.0) == 0.0
        assert phi.time_weight(0.5) == pytest.approx(1.0)

    def test_window_c2_at_endpoints(self):
        phi = BumpTestFunction(center=(0.0,) * 2, width=0.7, t0=0.2, t1=0.8)
        eps = 1e-6
        assert phi.time_weight(0.2 + eps) < 1e-15
        assert phi.time_weight_dt(0.2 + eps) < 1e-9
        # finite-difference check of the analytic derivative inside
        t = 0.37
        fd = (phi.time_weight(t + eps) - phi.time_weight(t - eps)) / (2 * eps)
        assert phi.time_weight_dt(t) == pytest.approx(fd, rel=1e-8)

    def test_trapezoid_fourth_order_on_canonical_window(self):
        # the integrand has the shape of the local energy identity in time
        # (w times a smooth factor plus w' times another); with the window
        # ends on the nodes the h^2 Euler-Maclaurin term vanishes, so each
        # halving of the spacing divides the error by 2^4
        from scipy.integrate import quad, trapezoid

        phi = BumpTestFunction.canonical(3, 0.2)

        def f(t):
            return (phi.time_weight(t) * (1.0 + np.cos(30.0 * t))
                    + phi.time_weight_dt(t) * np.sin(20.0 * t))

        exact, _ = quad(f, 0.0, 0.2, points=(phi.t0, phi.t1),
                        epsabs=1e-15, epsrel=1e-13, limit=200)
        errors = []
        for n in (20, 40, 80, 160):
            t = np.linspace(0.0, 0.2, n + 1)
            errors.append(abs(trapezoid([f(s) for s in t], t) - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert 15.0 <= coarse / fine <= 17.0

    def test_spatial_profile_nonnegative_and_consistent(self, grid3):
        phi = BumpTestFunction(center=(np.pi, np.pi, np.pi), width=0.8,
                               t0=0.1, t1=0.2)
        g, grad_g, lap_g = phi.spatial_fields(grid3)
        assert g.min() >= -1e-12
        assert g.max() == pytest.approx(1.0, abs=0.2)  # near-unit peak
        # laplacian consistency: sum of second derivatives via spectral grad
        assert grad_g.shape == (3,) + grid3.shape
        assert np.abs(np.mean(lap_g)) < 1e-13  # zero-mean laplacian

    def test_cache_follows_the_grid_not_its_id(self):
        # grids alternate and die between calls, so ids get reused
        import gc
        phi = BumpTestFunction(center=(np.pi, np.pi), width=0.8,
                               t0=0.1, t1=0.2)
        for i in range(200):
            n = 16 if i % 2 == 0 else 32
            g, grad_g, lap_g = phi.spatial_fields(WaveGrid(2, n))
            assert g.shape == lap_g.shape == (n, n)
            assert grad_g.shape == (2, n, n)
            gc.collect()

    def test_invalid_windows(self):
        with pytest.raises(InvariantViolation):
            BumpTestFunction(center=(0, 0), width=-1.0, t0=0.1, t1=0.2)
        with pytest.raises(InvariantViolation):
            BumpTestFunction(center=(0, 0), width=0.5, t0=0.3, t1=0.2)


class TestLocalEnergy:
    def test_zero_trajectory(self, grid3):
        zero = SpectralVectorField(
            grid3, np.zeros((3,) + grid3.spectral_shape, complex))
        cfg = leray_cfg()
        states = [SimState(t, zero.copy()) for t in np.linspace(0, 0.2, 9)]
        pressures = [pressure_solve(s, cfg) for s in states]
        phi = BumpTestFunction.canonical(3, 0.2)
        assert local_energy_residual(states, pressures, phi, cfg) == 0.0

    def test_leray_deconv_equality(self):
        grid = WaveGrid(3, 32)
        cfg = ModelConfig(kind=ModelKind.LERAY_DECONV, nu=0.15,
                          filter=FilterParams(alpha=0.1, theta=0.25,
                                              n_deconv=2))
        u0 = random_solenoidal(grid, 11, -2.5, 5)
        states = []
        run(SimState(0.0, u0), cfg, StepperConfig(dt=1e-3, t_end=0.2),
            state_sink=states.append, state_every=10)
        pressures = [pressure_solve(s, cfg) for s in states]
        phi = BumpTestFunction.canonical(3, 0.2)
        residual = local_energy_residual(states, pressures, phi, cfg)
        assert abs(residual) < 1e-3

    def test_mhd_equality_and_refinement(self):
        # includes the pseudo-pressure flux removed by projecting the
        # induction tendency (the mixed deconvolved transport is not
        # curl-like for alpha > 0); amplitudes kept moderate so the
        # space-truncation floor sits far below the quadrature error
        grid = WaveGrid(3, 32)
        cfg = ModelConfig(kind=ModelKind.MHD_DECONV, nu=0.1, nu2=0.1,
                          filter=FilterParams(alpha=0.15, theta=0.25,
                                              n_deconv=1))
        u0 = random_solenoidal(grid, 11, -2.5, 5)
        b0 = random_solenoidal(grid, 12, -2.5, 5)
        u0 = SpectralVectorField(grid, 0.5 * u0.coeffs)
        b0 = SpectralVectorField(grid, 0.5 * b0.coeffs)
        states = []
        run(SimState(0.0, u0, b0), cfg, StepperConfig(dt=1e-3, t_end=0.2),
            state_sink=states.append, state_every=5)
        pressures = [pressure_solve(s, cfg) for s in states]
        phi = BumpTestFunction.canonical(3, 0.2)
        r_coarse = abs(local_energy_residual(states[::2], pressures[::2],
                                             phi, cfg))
        r_fine = abs(local_energy_residual(states, pressures, phi, cfg))
        assert r_coarse < 5e-4
        assert r_coarse / r_fine >= 6.0

    def test_nse_one_sided(self, grid2_64):
        # plain NSE: only LHS <= RHS + tol is asserted
        nu = 0.05
        cfg = ModelConfig(kind=ModelKind.NSE, nu=nu, filter=FilterParams(0.0))
        states = []
        run(SimState(0.0, taylor_green_state_field(grid2_64, nu)), cfg,
            StepperConfig(dt=1e-3, t_end=0.2), state_sink=states.append,
            state_every=10)
        pressures = [pressure_solve(s, cfg) for s in states]
        phi = BumpTestFunction.canonical(2, 0.2)
        residual = local_energy_residual(states, pressures, phi, cfg)
        assert residual <= 1e-3

    def test_too_few_checkpoints(self, grid3):
        u = random_solenoidal(grid3, 0, -1.0, 4)
        cfg = leray_cfg()
        states = [SimState(0.0, u), SimState(0.1, u)]
        pressures = [pressure_solve(s, cfg) for s in states]
        with pytest.raises(TooFewSamples):
            local_energy_residual(states, pressures,
                                  BumpTestFunction.canonical(3, 0.1), cfg)


class TestAlphaSweep:
    def test_errors_match_closed_form(self, grid2):
        # exact per-mode error multiplier x/(1+x), x = alpha^(2t)|k|^(2t)
        u = random_solenoidal(grid2, 4, -1.0, 6)
        theta, s = 0.25, 0.5
        alphas = [0.4, 0.2, 0.1]
        report = alpha_sweep(u, FilterParams(alpha=1.0, theta=theta),
                             alphas, s)
        w = u.grid.plane_weight * u.grid.k_power(2 * s)
        for a, err in zip(alphas, report.errors):
            x = a ** (2 * theta) * u.grid.k_power(2 * theta)
            per_mode = (x / (1.0 + x)) ** 2
            expected = np.sqrt(np.sum(
                w * per_mode * np.sum(np.abs(u.coeffs) ** 2, axis=0)))
            assert err == pytest.approx(expected, rel=1e-12)

    def test_alpha_zero_gives_exact_zero(self, grid2):
        u = random_solenoidal(grid2, 5, -1.0, 6)
        report = alpha_sweep(u, FilterParams(alpha=1.0, theta=0.25),
                             [0.1, 0.05, 0.0], 0.0)
        assert report.errors[-1] == 0.0
        assert report.slope is not None  # fitted on the positive alphas

    @pytest.mark.parametrize("theta,expected", [(0.25, 0.5), (0.5, 1.0)])
    def test_slope_matches_rate(self, grid2_64, theta, expected):
        u = random_solenoidal(grid2_64, 3, -1.0, 2)
        report = alpha_sweep(u, FilterParams(alpha=1.0, theta=theta),
                             [4e-3, 2e-3, 1e-3], 0.0)
        assert report.passed
        assert abs(report.slope - expected) <= 0.05

    def test_needs_three_decreasing(self, grid2):
        u = random_solenoidal(grid2, 6, -1.0, 6)
        p = FilterParams(alpha=1.0, theta=0.25)
        with pytest.raises(InvariantViolation):
            alpha_sweep(u, p, [0.1, 0.2, 0.05], 0.0)
        with pytest.raises(InvariantViolation):
            alpha_sweep(u, p, [0.1, 0.05], 0.0)

    def test_target_slope_override(self, grid2_64):
        u = random_solenoidal(grid2_64, 3, -1.0, 2)
        report = alpha_sweep(u, FilterParams(alpha=1.0, theta=0.25),
                             [4e-3, 2e-3, 1e-3], 0.0, target_slope=1.0)
        assert not report.passed


class TestNSweep:
    def test_single_shell_ratio_exact(self, grid3):
        u = single_mode_field(grid3, (2, 0, 0), (0.0, 1.0, -0.5))
        p = FilterParams(alpha=0.5, theta=0.25)
        report = n_sweep(u, p, [0, 1, 2, 3, 4], 0.0)
        x = 0.5 ** 0.5 * 2.0 ** 0.5
        assert report.ratio == pytest.approx(x / (1 + x), abs=1e-10)
        assert report.passed

    def test_errors_match_closed_form(self, grid2):
        u = random_solenoidal(grid2, 7, -1.0, 6)
        p = FilterParams(alpha=0.6, theta=0.25)
        s = 0.5
        ns = [0, 1, 3]
        report = n_sweep(u, p, ns, s)
        w = u.grid.plane_weight * u.grid.k_power(2 * s)
        x = p.alpha ** 0.5 * u.grid.k_power(0.5)
        r = x / (1.0 + x)
        for n, err in zip(ns, report.errors):
            per_mode = r ** (2 * (n + 1))
            expected = np.sqrt(np.sum(
                w * per_mode * np.sum(np.abs(u.coeffs) ** 2, axis=0)))
            assert err == pytest.approx(expected, rel=1e-12)

    def test_alpha_zero_all_errors_zero(self, grid3):
        u = random_solenoidal(grid3, 8, -1.0, 4)
        report = n_sweep(u, FilterParams(alpha=0.0, theta=0.25),
                         [0, 1, 2], 0.0)
        assert all(e == 0.0 for e in report.errors)
        assert report.passed

    def test_floor_truncates_fit(self, grid3):
        # tiny alpha: errors hit the 1e-12 relative floor quickly
        u = single_mode_field(grid3, (1, 0, 0), (0.0, 1.0, 0.0))
        p = FilterParams(alpha=1e-4, theta=0.25)
        report = n_sweep(u, p, [0, 2, 4, 8, 16], 0.0)
        assert report.passed

    def test_orders_must_increase(self, grid3):
        u = random_solenoidal(grid3, 9, -1.0, 4)
        with pytest.raises(InvariantViolation):
            n_sweep(u, FilterParams(alpha=0.5, theta=0.25), [2, 1], 0.0)

    def test_ratio_bounded_for_multishell(self, grid2):
        u = random_solenoidal(grid2, 10, -1.0, 6)
        p = FilterParams(alpha=0.5, theta=0.25)
        report = n_sweep(u, p, [0, 1, 2, 3, 4, 5], 0.0)
        assert report.passed
        assert report.ratio <= report.ratio_bound + 0.02
