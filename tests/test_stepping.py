"""Integrating-factor time stepping: exactness, order, contracts."""

import numpy as np
import pytest
import scipy.fft

import lerayflow.stepping
from lerayflow import (CFLExceeded, FilterParams, ForcingMode, ForcingSpec,
                       InvariantViolation, ModelConfig, ModelKind, NonFinite,
                       SimState, SpectralVectorField, StepperConfig,
                       StepperScheme, WaveGrid, inverse_transform, l2_norm,
                       random_solenoidal, run, step)
from lerayflow.dynamics import Tendency
from lerayflow.fields import to_physical
from lerayflow.presets import taylor_green_state_field, taylor_green_velocity
from lerayflow.stepping import _Stepper

from conftest import single_mode_field


def nse_cfg(nu: float, forcing=None) -> ModelConfig:
    return ModelConfig(kind=ModelKind.NSE, nu=nu,
                       filter=FilterParams(alpha=0.0),
                       forcing=forcing or ForcingSpec.zero())


@pytest.fixture
def zero_tendency(monkeypatch):
    """The stepper's rhs replaced by a zero tendency with a peak |u| of 0."""
    def rhs(state, cfg, *, peaks=None):
        if peaks is not None:
            peaks.append(0.0)
        return Tendency(SpectralVectorField(state.u.grid,
                                            np.zeros_like(state.u.coeffs)))
    monkeypatch.setattr(lerayflow.stepping, "rhs", rhs)


class TestStepBasics:
    def test_pure_decay_is_exact(self, grid3, zero_tendency):
        # nonlinear term disabled: one step is exactly the viscous factor,
        # even for a large dt
        u = single_mode_field(grid3, (1, 2, 0), (2.0, -1.0, 0.0))
        nu, dt = 0.3, 2.5
        sc = StepperConfig(dt=dt, t_end=dt)
        out = step(SimState(0.0, u), nse_cfg(nu), sc)
        expected = u.coeffs * np.exp(-nu * grid3.k_sq * dt)
        assert np.abs(out.u.coeffs - expected).max() <= 1e-15

    def test_step_matches_one_step_run_and_reuses_factors(self):
        grid = WaveGrid(2, 16)
        cfg = ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=0.05,
                          filter=FilterParams(alpha=0.1, theta=0.25))
        sc = StepperConfig(dt=1e-3, t_end=1e-3)
        start = SimState(0.0, random_solenoidal(grid, 2, -1.5, 5))
        once = step(start, cfg, sc)
        assert np.array_equal(once.u.coeffs, run(start, cfg, sc).u.coeffs)
        factors = dict(grid._symbols)
        assert ("viscous", 0.05, 1e-3) in factors
        step(once, cfg, sc)
        assert grid._symbols.keys() == factors.keys()
        assert all(grid._symbols[k] is v for k, v in factors.items())

    def test_linear_subsystem_multi_step(self, grid3, zero_tendency):
        u = random_solenoidal(grid3, 0, -1.0, 4)
        nu = 0.12
        sc = StepperConfig(dt=0.5, t_end=5.0)
        final = run(SimState(0.0, u), nse_cfg(nu), sc)
        expected = u.coeffs * np.exp(-nu * grid3.k_sq * 5.0)
        scale = np.abs(u.coeffs).max()
        assert np.abs(final.u.coeffs - expected).max() <= 1e-12 * scale

    def test_zero_state_stays_zero(self, grid3):
        zero = SpectralVectorField(
            grid3, np.zeros((3,) + grid3.spectral_shape, complex))
        final = run(SimState(0.0, zero), nse_cfg(0.1),
                    StepperConfig(dt=0.01, t_end=0.1))
        assert np.abs(final.u.coeffs).max() == 0.0

    def test_taylor_green_short_run(self, grid2_64):
        nu = 0.01
        sc = StepperConfig(dt=1e-3, t_end=0.05)
        final = run(SimState(0.0, taylor_green_state_field(grid2_64, nu)),
                    nse_cfg(nu), sc)
        exact = taylor_green_velocity(grid2_64, nu, final.t)
        err = np.abs(inverse_transform(final.u).data - exact.data).max()
        assert err < 1e-10

    def test_ifeuler_available(self, grid2_64):
        nu = 0.01
        sc = StepperConfig(dt=1e-3, t_end=0.01, scheme=StepperScheme.IFEULER)
        final = run(SimState(0.0, taylor_green_state_field(grid2_64, nu)),
                    nse_cfg(nu), sc)
        exact = taylor_green_velocity(grid2_64, nu, final.t)
        assert np.abs(inverse_transform(final.u).data - exact.data).max() < 1e-10


class TestConvergenceOrder:
    def test_ifrk4_fourth_order(self):
        # forced, genuinely nonlinear 2D run; reference at dt/8
        grid = WaveGrid(2, 32)
        forcing = ForcingSpec((
            ForcingMode((1, 2), (0.4 + 0.2j, -0.2 - 0.1j), 0.8),
            ForcingMode((3, 0), (0.0j, 0.5 + 0.0j), 0.0),
        ))
        cfg = nse_cfg(0.02, forcing)
        u0 = random_solenoidal(grid, 4, -2.0, 5)
        t_end = 0.4

        def final_at(dt: float) -> np.ndarray:
            sc = StepperConfig(dt=dt, t_end=t_end, cfl_limit=1.0)
            return run(SimState(0.0, u0), cfg, sc).u.coeffs

        ref = final_at(0.02 / 8)
        err_coarse = np.abs(final_at(0.02) - ref).max()
        err_fine = np.abs(final_at(0.01) - ref).max()
        ratio = err_coarse / err_fine
        assert 16 * 0.7 <= ratio <= 16 * 1.3

    def test_unforced_energy_monotone(self):
        grid = WaveGrid(2, 32)
        cfg = ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=0.05,
                          filter=FilterParams(alpha=0.2, theta=0.25))
        u0 = random_solenoidal(grid, 6, -1.0, 8)
        energies = []
        run(SimState(0.0, u0), cfg, StepperConfig(dt=2e-3, t_end=0.2),
            lambda r: energies.append(r.e_kin))
        assert all(e2 <= e1 * (1 + 1e-13)
                   for e1, e2 in zip(energies, energies[1:]))


class TestRunContracts:
    def test_sample_counting_with_dedup(self, grid3):
        u0 = random_solenoidal(grid3, 1, -1.0, 4)
        samples = []
        run(SimState(0.0, u0), nse_cfg(0.1),
            StepperConfig(dt=0.01, t_end=0.1, sample_every=5), samples.append)
        # t = 0, 5dt, 10dt; the final sample coincides with the cadence
        assert [round(s.t, 10) for s in samples] == [0.0, 0.05, 0.1]

    def test_eleven_rows_every_step(self, grid3):
        u0 = random_solenoidal(grid3, 1, -1.0, 4)
        samples = []
        run(SimState(0.0, u0), nse_cfg(0.1),
            StepperConfig(dt=0.001, t_end=0.01, sample_every=1), samples.append)
        assert len(samples) == 11

    def test_off_cadence_final_still_sampled(self, grid3):
        u0 = random_solenoidal(grid3, 1, -1.0, 4)
        samples = []
        run(SimState(0.0, u0), nse_cfg(0.1),
            StepperConfig(dt=0.01, t_end=0.07, sample_every=3), samples.append)
        assert [round(s.t, 10) for s in samples] == [0.0, 0.03, 0.06, 0.07]

    def test_t_end_must_be_multiple_of_dt(self, grid3):
        u0 = random_solenoidal(grid3, 1, -1.0, 4)
        with pytest.raises(InvariantViolation):
            run(SimState(0.0, u0), nse_cfg(0.1),
                StepperConfig(dt=0.01, t_end=0.055))

    def test_deterministic_rerun(self, grid2):
        cfg = ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=0.05,
                          filter=FilterParams(alpha=0.1, theta=0.25))
        u0 = random_solenoidal(grid2, 3, -1.5, 8)
        sc = StepperConfig(dt=1e-3, t_end=0.05)
        a = run(SimState(0.0, u0), cfg, sc).u.coeffs
        b = run(SimState(0.0, u0), cfg, sc).u.coeffs
        assert np.array_equal(a, b)

    def test_hermitian_residue_does_not_grow(self, grid2):
        cfg = ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=0.05,
                          filter=FilterParams(alpha=0.1, theta=0.25))
        u0 = random_solenoidal(grid2, 3, -1.5, 8)
        final = run(SimState(0.0, u0), cfg, StepperConfig(dt=1e-3, t_end=0.1))
        assert final.u.hermitian_residual() <= 1e-13

    def test_cfl_warning(self, grid2):
        u0 = random_solenoidal(grid2, 7, -1.0, 4)
        scale = 10.0 / max(np.abs(inverse_transform(u0).data).max(), 1e-30)
        big = SpectralVectorField(grid2, u0.coeffs * scale)
        with pytest.warns(CFLExceeded):
            run(SimState(0.0, big), nse_cfg(1e-4),
                StepperConfig(dt=0.05, t_end=0.1, cfl_limit=0.5))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_aborts_with_time(self, grid2):
        u0 = random_solenoidal(grid2, 8, -1.0, 4)
        bad = SpectralVectorField(grid2, u0.coeffs * np.inf)
        with pytest.raises(NonFinite):
            step(SimState(0.0, bad), nse_cfg(0.1),
                 StepperConfig(dt=0.01, t_end=0.01))

    def test_state_sink_cadence(self, grid3):
        u0 = random_solenoidal(grid3, 1, -1.0, 4)
        states = []
        run(SimState(0.0, u0), nse_cfg(0.1),
            StepperConfig(dt=0.01, t_end=0.1), state_sink=states.append,
            state_every=4)
        assert [round(s.t, 10) for s in states] == [0.0, 0.04, 0.08, 0.1]

    def test_state_sink_without_cadence_gets_first_and_last(self, grid3):
        u0 = random_solenoidal(grid3, 1, -1.0, 4)
        states, samples = [], []
        run(SimState(0.0, u0), nse_cfg(0.1),
            StepperConfig(dt=0.01, t_end=0.1, sample_every=3), samples.append,
            state_sink=states.append)
        assert [round(s.t, 10) for s in states] == [0.0, 0.1]
        assert [round(r.t, 10) for r in samples] == [0.0, 0.03, 0.06, 0.09,
                                                     0.1]

    def test_nonfinite_sample_aborts_before_delivery(self, grid2):
        # finite coefficients whose energy overflows: the first sample fails
        u0 = random_solenoidal(grid2, 8, -1.0, 4)
        huge = SpectralVectorField(grid2, u0.coeffs * 1e308)
        samples = []
        with np.errstate(all="ignore"), pytest.raises(NonFinite,
                                                      match="t = 0"):
            run(SimState(0.0, huge), nse_cfg(0.1),
                StepperConfig(dt=0.01, t_end=0.01), samples.append)
        assert samples == []


def model_state(dim: int, kind: ModelKind, n: int = 16):
    """A model of the given kind and a random state for it."""
    grid = WaveGrid(dim, n)
    mhd = kind is ModelKind.MHD_DECONV
    cfg = ModelConfig(kind=kind, nu=0.05, nu2=0.05 if mhd else None,
                      filter=FilterParams(alpha=0.1, theta=0.25, n_deconv=1))
    u = random_solenoidal(grid, 5, -1.5, grid.dealias_cutoff)
    b = random_solenoidal(grid, 6, -1.5, grid.dealias_cutoff) if mhd else None
    return cfg, SimState(0.0, u, b)


class TestCFL:
    # IF-RK4: TestRunContracts::test_cfl_warning
    def test_warning_fires_under_ifeuler(self, grid2):
        u0 = random_solenoidal(grid2, 7, -1.0, 4)
        scale = 10.0 / max(np.abs(inverse_transform(u0).data).max(), 1e-30)
        big = SpectralVectorField(grid2, u0.coeffs * scale)
        with pytest.warns(CFLExceeded):
            run(SimState(0.0, big), nse_cfg(1e-4),
                StepperConfig(dt=0.05, t_end=0.1, cfl_limit=0.5,
                              scheme=StepperScheme.IFEULER))

    @pytest.mark.parametrize("dim,kind", [(2, ModelKind.NSE),
                                          (3, ModelKind.LERAY_ALPHA),
                                          (3, ModelKind.MHD_DECONV)])
    @pytest.mark.parametrize("scheme", list(StepperScheme))
    def test_value_matches_a_direct_transform(self, dim, kind, scheme):
        cfg, state = model_state(dim, kind)
        sc = StepperConfig(dt=1e-3, t_end=1e-3, scheme=scheme)
        stepper = _Stepper(cfg, sc, state.u.grid)
        stepper.advance(state)
        umax = max(float(np.abs(to_physical(f.grid, f.coeffs)).max())
                   for f in (state.u, state.b) if f is not None)
        expected = umax * sc.dt / stepper.dx
        assert abs(stepper.max_cfl - expected) <= 1e-15 * expected


class TestTransformCounts:
    """Transforms per IF-RK4 step: calls, and the scalar fields they
    transform, for each kind (one inverse and one forward call per stage)."""

    @pytest.mark.parametrize("dim,kind,inverse,forward", [
        (2, ModelKind.NSE, 8, 12),
        (3, ModelKind.NSE, 12, 24),
        (3, ModelKind.LERAY_ALPHA, 24, 36),
        (3, ModelKind.LERAY_DECONV, 24, 36),
        (3, ModelKind.MHD_DECONV, 48, 72),
    ])
    def test_per_step(self, monkeypatch, dim, kind, inverse, forward):
        cfg, state = model_state(dim, kind, n=8)
        counts = {}
        for name in ("irfftn", "rfftn"):
            def counted(x, *args, _name=name, _fn=getattr(scipy.fft, name),
                        **kwargs):
                calls, fields = counts.get(_name, (0, 0))
                counts[_name] = (calls + 1,
                                 fields + x.size // np.prod(x.shape[-dim:]))
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)
        step(state, cfg, StepperConfig(dt=1e-3, t_end=1e-3))
        assert counts == {"irfftn": (4, inverse), "rfftn": (4, forward)}


class TestModelFamilyTrajectories:
    def test_deconv_n0_matches_leray_alpha(self):
        grid = WaveGrid(2, 32)
        u0 = random_solenoidal(grid, 9, -1.5, 8)
        p = FilterParams(alpha=0.2, theta=0.25, n_deconv=0)
        sc = StepperConfig(dt=1e-3, t_end=0.05)
        f = ForcingSpec((ForcingMode((1, 1), (0.1 + 0.0j, -0.1 + 0.0j)),))
        la = run(SimState(0.0, u0),
                 ModelConfig(ModelKind.LERAY_ALPHA, 0.05, p, f), sc)
        ld = run(SimState(0.0, u0),
                 ModelConfig(ModelKind.LERAY_DECONV, 0.05, p, f), sc)
        dev = np.abs(la.u.coeffs - ld.u.coeffs).max()
        assert dev <= 1e-13 * np.abs(la.u.coeffs).max()

    def test_alpha_zero_matches_nse(self):
        grid = WaveGrid(2, 32)
        u0 = random_solenoidal(grid, 10, -1.5, 8)
        sc = StepperConfig(dt=1e-3, t_end=0.05)
        p0 = FilterParams(alpha=0.0, theta=0.25)
        nse = run(SimState(0.0, u0), ModelConfig(ModelKind.NSE, 0.05, p0), sc)
        la = run(SimState(0.0, u0),
                 ModelConfig(ModelKind.LERAY_ALPHA, 0.05, p0), sc)
        dev = np.abs(nse.u.coeffs - la.u.coeffs).max()
        assert dev <= 1e-13 * np.abs(nse.u.coeffs).max()


class TestRegularizationDistance:
    def test_trajectory_distance_shrinks_with_alpha(self):
        # at fixed resolution the continuum limit cannot be reproduced; what
        # is measurable is the trajectory distance to the unregularized run,
        # which must decrease monotonically as alpha shrinks
        grid = WaveGrid(2, 32)
        u0 = random_solenoidal(grid, 17, -2.0, 8)
        f = ForcingSpec((ForcingMode((1, 1), (0.1 + 0.0j, -0.1 + 0.0j)),))
        sc = StepperConfig(dt=1e-3, t_end=0.1)
        nse = run(SimState(0.0, u0),
                  ModelConfig(ModelKind.NSE, 0.02, FilterParams(0.0), f),
                  sc).u
        distances = []
        for alpha in (0.4, 0.2, 0.1, 0.05):
            la = run(SimState(0.0, u0),
                     ModelConfig(ModelKind.LERAY_ALPHA, 0.02,
                                 FilterParams(alpha, 0.25), f), sc).u
            distances.append(l2_norm(SpectralVectorField(
                grid, la.coeffs - nse.coeffs)))
        print("alpha -> NSE trajectory distances:", distances)
        assert all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))


class TestStepperConfigValidation:
    def test_positive_dt(self):
        with pytest.raises(InvariantViolation):
            StepperConfig(dt=0.0, t_end=1.0)

    def test_t_end_at_least_dt(self):
        with pytest.raises(InvariantViolation):
            StepperConfig(dt=0.1, t_end=0.05)

    def test_sample_every_positive(self):
        with pytest.raises(InvariantViolation):
            StepperConfig(dt=0.1, t_end=1.0, sample_every=0)

    @pytest.mark.parametrize("field,value", [
        ("dt", float("nan")), ("dt", float("inf")), ("t_end", float("nan")),
        ("t_end", float("inf")), ("cfl_limit", float("nan")),
        ("cfl_limit", float("inf"))])
    def test_non_finite_values(self, field, value):
        kwargs = {"dt": 0.1, "t_end": 1.0, field: value}
        with pytest.raises(InvariantViolation, match=field):
            StepperConfig(**kwargs)

    def test_step_count_overflow(self):
        sc = StepperConfig(dt=1e-300, t_end=1e300)
        with pytest.raises(InvariantViolation, match="multiple of dt"):
            sc.n_steps()
