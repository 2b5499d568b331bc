"""Integrating-factor time stepping: exactness, order, contracts."""

import hashlib
import platform
import re

import numpy as np
import pytest
import scipy

import lerayflow.dynamics
from lerayflow import (CFLExceeded, FilterParams, ForcingMode, ForcingSpec,
                       InvariantViolation, ModelConfig, ModelKind, NonFinite,
                       SimState, SpectralVectorField, StepperConfig, WaveGrid,
                       inverse_transform, l2_norm, random_solenoidal, rhs, run,
                       step)
from lerayflow.dynamics import _kind_transport, pressure_solve
from lerayflow.fields import to_physical
from lerayflow.presets import taylor_green_state_field, taylor_green_velocity
from lerayflow.stepping import _Stepper

from conftest import single_mode_field


def nse_cfg(nu: float, forcing=None) -> ModelConfig:
    return ModelConfig(kind=ModelKind.NSE, nu=nu,
                       filter=FilterParams(alpha=0.0),
                       forcing=forcing or ForcingSpec.zero())


def constant_tendency(monkeypatch, mean: complex = 0j):
    """The stepper's tendency replaced by zero rows, except ``mean`` at the
    mean mode of u's first component, with a peak |u| of 0."""
    def transport(kernel, fields, t=0.0, *, peaks=None, out=None):
        if peaks is not None:
            peaks.append(0.0)
        if out is None:
            out = np.empty(kernel.shape, complex)
        out[...] = 0
        out[(0, 0) + (0,) * kernel.grid.dim] = mean
        return out
    monkeypatch.setattr(lerayflow.dynamics._Transport, "__call__", transport)


@pytest.fixture
def zero_tendency(monkeypatch):
    constant_tendency(monkeypatch)


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
        assert ("band", "viscous", 0.05, 1e-3) in factors
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


class TestForcingOnTheGrid:
    @pytest.mark.parametrize("kind,a,amplitude", [
        (ModelKind.NSE, (33, 1), (1.0, -33.0)),
        (ModelKind.LERAY_ALPHA, (14, 0, 0), (0.0, 3.0, 0.0))],
        ids=["wraps-to-1-1", "outside-the-dealias-band"])
    @pytest.mark.parametrize("entry", [run, step], ids=["run", "step"])
    def test_aliased_forcing_is_refused(self, entry, kind, a, amplitude):
        # a = (33, 1) is stored at (1, 1) on n = 32, where (1, -33) is not
        # orthogonal to it; a = (14, 0, 0) is solenoidal as stored, but
        # beyond the dealias cutoff 10, where the transport identities fail
        cfg = ModelConfig(kind=kind, nu=0.02, filter=FilterParams(alpha=0.1),
                          forcing=ForcingSpec((ForcingMode(a, amplitude),)))
        grid = WaveGrid(len(a), 32)
        with pytest.raises(InvariantViolation,
                           match=re.escape(f"forcing mode {a}")):
            entry(SimState(0.0, random_solenoidal(grid, 1, -2.0, 4)), cfg,
                  StepperConfig(dt=1e-3, t_end=2e-3))


class TestBandInvariant:
    """A state enters the stepper (run, step, and so resume) only with every
    coefficient outside the dealias band exactly 0: the stepper carries the
    band alone, and outside it the transport identities fail.  A non-finite
    coefficient there is NonFinite; in the band it reaches the step's own
    finiteness test (TestFiniteness)."""

    @staticmethod
    def state(value) -> SimState:
        # 16^3, cutoff 5: u_y at (7, 0, 0) and its mirror (-7, 0, 0) is a
        # real, solenoidal mode outside the band
        grid = WaveGrid(3, 16)
        coeffs = random_solenoidal(grid, 1, -2.0, 5).coeffs
        coeffs[1, 7, 0, 0] = coeffs[1, -7, 0, 0] = value
        return SimState(0.0, SpectralVectorField(grid, coeffs))

    @pytest.mark.parametrize("entry", [run, step], ids=["run", "step"])
    def test_content_outside_the_band_is_refused(self, entry):
        with pytest.raises(InvariantViolation) as info:
            entry(self.state(0.05), nse_cfg(0.1),
                  StepperConfig(dt=1e-3, t_end=2e-3))
        assert str(info.value) == (
            "state at t = 0: non-zero coefficients outside the dealias band "
            "|a_j| <= 5")

    @pytest.mark.parametrize("entry", [run, step], ids=["run", "step"])
    def test_non_finite_content_outside_the_band_is_refused(self, entry):
        with pytest.raises(NonFinite, match="outside the dealias band"):
            entry(self.state(np.nan), nse_cfg(0.1),
                  StepperConfig(dt=1e-3, t_end=2e-3))

    def test_signed_zeros_outside_the_band_pass(self):
        final = run(self.state(-0.0), nse_cfg(0.1),
                    StepperConfig(dt=1e-3, t_end=2e-3))
        assert np.isfinite(final.u.coeffs).all()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_states_stay_zero_outside_the_band(self, dim, kind):
        # every state of a 20-step run: +0.0 outside the band, no -0.0
        cfg, state = model_state(dim, kind)
        if kind is not ModelKind.MHD_DECONV:  # forced where allowed
            cfg = ModelConfig(kind, cfg.nu, cfg.filter, ForcingSpec((
                ForcingMode((1, 2, 0)[:dim], (0.2, -0.1, 0.05)[:dim], 0.5),)))
        states = []
        run(state, cfg, StepperConfig(dt=1e-3, t_end=2e-2),
            state_sink=states.append, state_every=1)
        outside = ~state.u.grid.dealias_mask
        assert len(states) == 21
        for s in states[1:]:
            for f in s.fields:
                rest = f.coeffs[:, outside]
                parts = np.stack([rest.real, rest.imag])
                assert not parts.any() and not np.signbit(parts).any()


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

    @pytest.mark.parametrize("every", [0, -2, 2.5, "2", True])
    def test_state_every_must_be_a_positive_integer(self, grid3, every):
        # 0 divided by zero after step 1, -2 acted as 2 and 2.5 delivered
        # only the ends; now each is refused before anything is delivered
        u0 = random_solenoidal(grid3, 1, -1.0, 4)
        states, samples = [], []
        with pytest.raises(InvariantViolation, match="state_every"):
            run(SimState(0.0, u0), nse_cfg(0.1),
                StepperConfig(dt=0.01, t_end=0.04), samples.append,
                state_sink=states.append, state_every=every)
        assert (states, samples) == ([], [])

    def test_state_every_accepts_numpy_integers(self, grid3):
        u0 = random_solenoidal(grid3, 1, -1.0, 4)
        states = []
        run(SimState(0.0, u0), nse_cfg(0.1),
            StepperConfig(dt=0.01, t_end=0.04), state_sink=states.append,
            state_every=np.int64(2))
        assert [round(s.t, 10) for s in states] == [0.0, 0.02, 0.04]

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


class TestFiniteness:
    """``step`` raises NonFinite exactly when a coefficient of the new state
    has a part that is not finite or a modulus that overflows.  Under a
    constant tendency K at the mean mode (viscous factor 1) one step maps y
    there to y + dt K, up to rounding, and leaves the zero modes zero."""

    MAX = np.finfo(float).max

    def one_step(self, monkeypatch, y: complex, K: complex = 0j,
                 dt: float = 0.01):
        constant_tendency(monkeypatch, K)
        grid = WaveGrid(2, 8)
        coeffs = np.zeros((2,) + grid.spectral_shape, complex)
        coeffs[0, 0, 0] = y
        with np.errstate(all="ignore"):  # the stages' own overflows
            return step(SimState(0.0, SpectralVectorField(grid, coeffs)),
                        nse_cfg(0.1), StepperConfig(dt=dt, t_end=dt))

    @pytest.mark.parametrize("y,K,dt", [
        (complex(np.nan, 0.0), 0j, 0.01),     # y with a NaN real part
        (-1.79e308j, -1e307j, 1.0),           # real 0, imaginary -inf
        (1.5e308 + 1.5e308j, 0j, 0.01),       # finite parts, |.| overflows
    ])
    def test_raises(self, monkeypatch, y, K, dt):
        with pytest.raises(NonFinite, match="after step from t = 0"):
            self.one_step(monkeypatch, y, K, dt)

    @pytest.mark.parametrize("y", [
        1.7e308 + 0j, 1.2e308 - 1.2e308j, -1.3e308 + 1.2e308j,
        complex(MAX / np.sqrt(2), MAX / np.sqrt(2))])
    def test_large_finite_moduli_pass(self, monkeypatch, y):
        new = self.one_step(monkeypatch, y).u.coeffs
        assert new[0, 0, 0] == y and np.isfinite(np.abs(new).max())


class TestAliasing:
    """The stepper runs stage 4's kernel call over its own band input, and
    every step's new state is a fresh array."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_kernel_output_over_its_input(self, dim, kind):
        cfg, state = model_state(dim, kind)
        if kind is not ModelKind.MHD_DECONV:  # forced where allowed
            cfg = ModelConfig(kind, cfg.nu, cfg.filter, ForcingSpec((
                ForcingMode((1, 2, 0)[:dim], (0.2, -0.1, 0.05)[:dim], 0.5),)))
        kernel, grid = _kind_transport(state, cfg), state.u.grid
        x = grid.gather(np.stack([f.coeffs for f in state.fields]))
        fresh = kernel(x.copy(), 0.3)
        assert kernel(x, 0.3, out=x) is x
        assert np.array_equal(x.view(np.uint64), fresh.view(np.uint64))

    @pytest.mark.parametrize("dim,kind", [(2, ModelKind.NSE),
                                          (3, ModelKind.LERAY_ALPHA),
                                          (3, ModelKind.MHD_DECONV)])
    def test_new_state_shares_no_memory(self, dim, kind):
        cfg, state = model_state(dim, kind)
        stepper = _Stepper(cfg, StepperConfig(dt=1e-3, t_end=1e-2), state)
        states = [state]
        for _ in range(3):
            states.append(stepper.advance(states[-1]))
            held = [stepper.y, stepper.k1, stepper.stage, stepper.k2,
                    stepper.k3] + [
                f.coeffs for s in states[:-1] for f in s.fields]
            assert not any(np.shares_memory(f.coeffs, a)
                           for f in states[-1].fields for a in held)


class TestCFL:
    # The warning itself: TestRunContracts::test_cfl_warning
    @pytest.mark.parametrize("dim,kind", [(2, ModelKind.NSE),
                                          (3, ModelKind.LERAY_ALPHA),
                                          (3, ModelKind.MHD_DECONV)])
    def test_value_matches_a_direct_transform(self, dim, kind):
        cfg, state = model_state(dim, kind)
        sc = StepperConfig(dt=1e-3, t_end=1e-3)
        stepper = _Stepper(cfg, sc, state)
        stepper.advance(state)
        umax = max(float(np.abs(to_physical(f.grid, f.coeffs)).max())
                   for f in (state.u, state.b) if f is not None)
        expected = umax * sc.dt / stepper.dx
        assert abs(stepper.max_cfl - expected) <= 1e-15 * expected


class TestTransformCounts:
    """Transforms per IF-RK4 step: calls, and the scalar fields they
    transform, for each kind (one inverse call per source and stage, of d
    fields, and one forward call per chunk of the flux step: per output
    component, or one for a symmetric row).  The projected rows drop the
    trace of their flux, so each row transforms one product fewer; the
    unprojected pressure row keeps all of them."""

    # products: the flux products of every row per step, trace included
    # (what the unprojected pressure row transforms).
    @pytest.mark.parametrize("dim,kind,inverse,products", [
        (2, ModelKind.NSE, 8, 12),
        (3, ModelKind.NSE, 12, 24),
        (3, ModelKind.LERAY_ALPHA, 24, 36),
        (3, ModelKind.LERAY_DECONV, 24, 36),
        (3, ModelKind.MHD_DECONV, 48, 72),
    ])
    def test_per_step(self, counts, dim, kind, inverse, products):
        cfg, state = model_state(dim, kind, n=8)
        rows = 1 if state.b is None else 2
        step(state, cfg, StepperConfig(dt=1e-3, t_end=1e-3))
        forward = products - 4 * rows
        # inverse calls: one per source (u; Hu, u; Hu, u, Hb, b) and stage;
        # forward calls: nse's symmetric row is one chunk per stage, the
        # other kinds one chunk per row and component (3D here)
        sources = {ModelKind.NSE: 1, ModelKind.LERAY_ALPHA: 2,
                   ModelKind.LERAY_DECONV: 2, ModelKind.MHD_DECONV: 4}[kind]
        calls = {ModelKind.NSE: 4, ModelKind.LERAY_ALPHA: 12,
                 ModelKind.LERAY_DECONV: 12, ModelKind.MHD_DECONV: 24}[kind]
        assert counts == {"irfftn": (4 * sources, inverse),
                          "rfftn": (calls, forward)}
        assert counts.widest["irfftn"] == dim  # never a stack of sources

    @pytest.mark.parametrize("dim,kind,gathers,scatters", [
        (2, ModelKind.NSE, 5, 4),
        (3, ModelKind.LERAY_ALPHA, 14, 8),
        (3, ModelKind.MHD_DECONV, 28, 15),
    ])
    def test_band_copies_per_step(self, counts, dim, kind, gathers,
                                  scatters):
        # gathers: y per field, each chunk's spectra and stage 1's smoothed
        # sources; scatters: the band inputs of stages 2-4 and the smoothed
        # sources into the source buffer, and the new state once.  Stage 1
        # writes k1 in place, with no half spectra to gather it back from.
        cfg, state = model_state(dim, kind)
        stepper = _Stepper(cfg, StepperConfig(dt=1e-3, t_end=2e-3), state)
        state = stepper.advance(state)  # symbols and work arrays made
        counts.clear()
        stepper.advance(state)
        assert counts.copies == {"gather": gathers, "scatter": scatters}

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind,potential", [
        *((kind, False) for kind in ModelKind), (ModelKind.NSE, True),
        (ModelKind.LERAY_ALPHA, True), (ModelKind.MHD_DECONV, True)])
    def test_chunks_partition_the_products(self, dim, kind, potential):
        # each product is formed and transformed in exactly one chunk, and
        # each output component is contracted exactly once, from its chunk
        from lerayflow.dynamics import _KIND_ROWS, _flux_plan
        rows = _KIND_ROWS[kind][1]
        _, chunks, widest = _flux_plan(dim, rows, potential)
        symmetric = potential or kind is ModelKind.NSE
        products = [repr(p) for chunk, _ in chunks for p in chunk]
        assert len(set(products)) == len(products) == len(rows) * (
            dim * (dim + 1) // 2 - (not potential) if symmetric
            else dim * dim - 1)
        components = [(r, q) for _, members in chunks
                      for r, q, _ in members]
        width = 1 if potential else dim
        assert sorted(components) == [(r, q) for r in range(len(rows))
                                      for q in range(width)]
        for chunk, members in chunks:
            used = sorted({n for _, _, terms in members for _, n in terms})
            assert used == list(range(len(chunk)))
            assert len(chunk) <= dim * (dim + 1) // 2
        assert widest == max(len(chunk) for chunk, _ in chunks)
        # a symmetric flux is one chunk, every other row one per component
        assert len(chunks) == len(rows) * (1 if symmetric else dim)

    def test_pressure_solve_keeps_the_trace(self, counts):
        # the potential reads the symmetric flux, trace included: d(d+1)/2
        # products of Hu and u, not d^2
        cfg, state = model_state(3, ModelKind.LERAY_ALPHA, n=8)
        pressure_solve(state, cfg)
        assert counts == {"irfftn": (2, 6), "rfftn": (1, 6)}

    # Only row 0 is transported; MHD adds the forward transform of the
    # dealiased |b|^2/2, from b's samples in the kernel's own transforms.
    @pytest.mark.parametrize("dim,kind,expected", [
        (2, ModelKind.NSE, {"irfftn": (1, 2), "rfftn": (1, 3)}),
        (3, ModelKind.NSE, {"irfftn": (1, 3), "rfftn": (1, 6)}),
        (2, ModelKind.LERAY_ALPHA, {"irfftn": (2, 4), "rfftn": (1, 3)}),
        (3, ModelKind.LERAY_ALPHA, {"irfftn": (2, 6), "rfftn": (1, 6)}),
        (2, ModelKind.LERAY_DECONV, {"irfftn": (2, 4), "rfftn": (1, 3)}),
        (3, ModelKind.LERAY_DECONV, {"irfftn": (2, 6), "rfftn": (1, 6)}),
        (2, ModelKind.MHD_DECONV, {"irfftn": (4, 8), "rfftn": (2, 4)}),
        (3, ModelKind.MHD_DECONV, {"irfftn": (4, 12), "rfftn": (2, 7)}),
    ])
    def test_pressure_solve_per_kind(self, counts, dim, kind, expected):
        cfg, state = model_state(dim, kind, n=8)
        pressure_solve(state, cfg)
        assert counts == expected
        assert counts.widest["irfftn"] == dim


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

    @pytest.mark.parametrize("every", [-1, 2.5, 1.0, "2", True, None])
    def test_sample_every_must_be_a_positive_integer(self, every):
        # 2.5 sampled every 5th step
        with pytest.raises(InvariantViolation, match="sample_every"):
            StepperConfig(dt=0.1, t_end=1.0, sample_every=every)

    def test_sample_every_accepts_numpy_integers(self):
        sc = StepperConfig(dt=0.1, t_end=1.0, sample_every=np.int32(3))
        assert sc.sample_every == 3

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


class TestBitIdentity:
    """The final state of 20 IF-RK4 steps, byte for byte, per kind and
    field: forced (except mhd-deconv) from random fields on 16^2 and 16^3.
    The hashes pin a step's arithmetic: a change that reorders it anywhere
    changes them.  They hold at any LERAY_THREADS, with the numpy 2.4 and
    scipy 1.17 builds they were taken with; a failure names the builds in
    use and the first field that differs."""

    @pytest.mark.parametrize("dim,kind,digests", [
        (2, ModelKind.NSE, ("374cb8654423bbec",)),
        (2, ModelKind.LERAY_ALPHA, ("74eccb8c3002832c",)),
        (2, ModelKind.LERAY_DECONV, ("58e5817d6abfb5ed",)),
        (2, ModelKind.MHD_DECONV, ("feafaeb384de29ed", "3bb5fa5eb3945a24")),
        (3, ModelKind.NSE, ("71a9de7718965e37",)),
        (3, ModelKind.LERAY_ALPHA, ("abd0666bb34da3c5",)),
        (3, ModelKind.LERAY_DECONV, ("6d381a886e0e4795",)),
        (3, ModelKind.MHD_DECONV, ("5f4798b91c2fea3e", "1210c213bb36e6e8")),
    ])
    def test_final_state_sha256(self, dim, kind, digests):
        grid = WaveGrid(dim, 16)
        mhd = kind is ModelKind.MHD_DECONV
        mode = ForcingMode((1, 2, 0)[:dim], (0.2, -0.1, 0.05)[:dim], 0.5)
        cfg = ModelConfig(kind, 0.05, FilterParams(alpha=0.1, theta=0.25,
                                                   n_deconv=1),
                          ForcingSpec(() if mhd else (mode,)),
                          nu2=0.05 if mhd else None)
        state = SimState(0.0, *(random_solenoidal(grid, seed, -1.5, 5)
                                for seed in (3, 4)[:1 + mhd]))
        final = run(state, cfg, StepperConfig(dt=1e-3, t_end=2e-2))
        got = tuple(hashlib.sha256(f.coeffs.tobytes()).hexdigest()[:16]
                    for f in final.fields)
        differ = [name for name, a, b in zip("ub", got, digests) if a != b]
        assert got == digests, (
            f"field {differ[0]} differs ({got} != {digests}) with numpy "
            f"{np.__version__}, scipy {scipy.__version__} on "
            f"{platform.machine()}: other builds may round differently")


class TestReentrancy:
    """A state sink that calls rhs and pressure_solve on the run's own grid
    and thread overwrites the thread's work arrays between steps, and the
    pressure potential's wider chunk regrows the product rows; the
    trajectory stays the one of the same run without those calls."""

    @pytest.mark.parametrize("dim,kind", [(2, ModelKind.NSE),
                                          (3, ModelKind.LERAY_ALPHA),
                                          (3, ModelKind.MHD_DECONV)])
    def test_sink_calls_leave_the_trajectory(self, dim, kind):
        cfg, state = model_state(dim, kind)
        grid = state.u.grid
        sc = StepperConfig(dt=1e-3, t_end=1e-2)

        def trajectory(solve: bool):
            states = []

            def sink(s):
                if solve:
                    rhs(s, cfg)
                    pressure_solve(s, cfg)
                states.append(s)
            final = run(state, cfg, sc, state_sink=sink, state_every=1)
            return [f.coeffs for s in states + [final] for f in s.fields]

        quiet = trajectory(False)
        rows = grid.scratch.products.shape[0]
        busy = trajectory(True)
        assert grid.scratch.products.shape[0] > rows  # regrown in the sink
        assert len(busy) == len(quiet)
        assert all(np.array_equal(a, b) for a, b in zip(busy, quiet))
