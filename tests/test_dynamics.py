"""Transport term, model tendencies, pressure recovery."""

import warnings

import numpy as np
import pytest

from lerayflow import (CriticalityViolation, FilterParams, ForcingMode,
                       ForcingSpec, GridMismatch, InvariantViolation,
                       MissingMagneticField, ModelConfig, ModelKind,
                       SimState, SpectralVectorField, WaveGrid, advect,
                       advecting_field, deconvolve, inverse_transform,
                       inverse_transform_scalar, l2_inner, l2_norm,
                       leray_project, pressure_solve, random_solenoidal,
                       rhs, sobolev_norm)
from lerayflow.fields import from_physical, to_physical
from lerayflow.presets import (taylor_green_pressure,
                               taylor_green_state_field)
from lerayflow.validate import convolution_advect_oracle

from conftest import single_mode_field


def flux_double_divergence(w, v):
    """k_i k_j FFT[w_i v_j], dealiased: the double divergence of the flux
    tensor w (x) v, from physical products of the fields themselves."""
    g = w.grid
    w_phys = to_physical(g, w.coeffs)
    v_phys = to_physical(g, v.coeffs)
    acc = np.zeros(g.spectral_shape, dtype=complex)
    for i in range(g.dim):
        for j in range(g.dim):
            hat = from_physical(g, w_phys[i] * v_phys[j]) * g.dealias_weight
            acc += g.k[i] * g.k[j] * hat
    return acc


def flux_form_pressure(state, cfg):
    """Reference pressure: -k_i k_j (w_i u_j)^ / |k|^2 with w the advecting
    field; for MHD the Lorentz flux enters with the opposite sign and the
    dealiased magnetic pressure |b|^2/2 is subtracted."""
    g = state.u.grid
    if cfg.kind is ModelKind.MHD_DECONV:
        hu = deconvolve(state.u, cfg.filter)
        hb = deconvolve(state.b, cfg.filter)
        dd = flux_double_divergence(hu, state.u) \
            - flux_double_divergence(hb, state.b)
    else:
        dd = flux_double_divergence(advecting_field(state.u, cfg), state.u)
    p_hat = -dd / g.k_sq_safe
    if cfg.kind is ModelKind.MHD_DECONV:
        b_phys = to_physical(g, state.b.coeffs)
        p_hat -= from_physical(g, 0.5 * np.sum(b_phys * b_phys, axis=0))
    return p_hat * g.dealias_weight


def convective_transport(w, v):
    """w . grad v, dealiased and unprojected, in convective form: physical
    products of w with the inverse transforms of every derivative of v."""
    g = w.grid
    w_phys = to_physical(g, w.coeffs)
    acc = np.zeros((g.dim,) + g.shape)
    for j in range(g.dim):
        acc += w_phys[j] * to_physical(g, g.ik[j] * v.coeffs)
    return from_physical(g, acc) * g.dealias_weight


def convective_rhs_and_pressure(state, cfg):
    """Reference tendencies and pressure from the convective form: the rows
    are Leray-projected, the pressure is ``-i k . N / |k|^2`` of the
    unprojected momentum row N, less the dealiased |b|^2/2 for MHD."""
    g = state.u.grid
    if cfg.kind is ModelKind.MHD_DECONV:
        hu = deconvolve(state.u, cfg.filter)
        hb = deconvolve(state.b, cfg.filter)
        rows = [convective_transport(hb, state.b)
                - convective_transport(hu, state.u),
                convective_transport(hb, state.u)
                - convective_transport(hu, state.b)]
    else:
        rows = [-convective_transport(advecting_field(state.u, cfg), state.u)]
        rows[0] += cfg.forcing.evaluate(g, state.t).coeffs
    p_hat = -1j * np.sum(g.k * rows[0], axis=0) / g.k_sq_safe
    if cfg.kind is ModelKind.MHD_DECONV:
        b_phys = to_physical(g, state.b.coeffs)
        p_hat -= from_physical(g, 0.5 * np.sum(b_phys * b_phys, axis=0)) \
            * g.dealias_weight
    return [leray_project(SpectralVectorField(g, r)).coeffs
            for r in rows], p_hat


def relative_gap(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


def spec_variant_taylor_green(grid):
    """The (sin x cos y, -cos x sin y) single-shell variant."""
    from lerayflow import RealVectorField, forward_transform
    x, y = grid.mesh()
    r = RealVectorField(grid, np.stack([np.sin(x) * np.cos(y),
                                        -np.cos(x) * np.sin(y)]))
    s = forward_transform(r)
    return SpectralVectorField(
        grid, np.where(grid.dealias_mask, s.coeffs, 0.0))


class TestAdvect:
    def test_taylor_green_self_advection_vanishes(self, grid2_64):
        # both named variants: self-advection is a pure gradient
        for tg in (spec_variant_taylor_green(grid2_64),
                   taylor_green_state_field(grid2_64)):
            out = advect(tg, tg)
            assert np.abs(out.coeffs).max() < 1e-14

    def test_zero_advecting_field(self, grid3):
        w = SpectralVectorField(
            grid3, np.zeros((3,) + grid3.spectral_shape, complex))
        v = single_mode_field(grid3, (1, 2, 0), (2.0, -1.0, 0.0))
        assert np.abs(advect(w, v).coeffs).max() == 0.0

    def test_single_mode_pair_against_convolution(self, grid3):
        # w at k1, v at k2: B(w,v) has i (w_k1 . k2) v_k2 at k1+k2, projected
        w = leray_project(single_mode_field(grid3, (1, 0, 0), (0.0, 1.0, 0.5)))
        v = leray_project(single_mode_field(grid3, (0, 2, 1), (1.0, 0.5, -1.0)))
        fast = advect(w, v)
        oracle = convolution_advect_oracle(w, v)
        assert np.abs(fast.coeffs - oracle.coeffs).max() \
            <= 1e-12 * max(np.abs(oracle.coeffs).max(), 1e-30)

    @pytest.mark.parametrize("dim,n", [(3, 8), (2, 16)])
    def test_bruteforce_equivalence(self, dim, n):
        grid = WaveGrid(dim, n)
        for seed in (0, 1, 2):
            w = random_solenoidal(grid, seed, -1.0, grid.dealias_cutoff)
            v = random_solenoidal(grid, seed + 50, -1.0, grid.dealias_cutoff)
            fast = advect(w, v)
            oracle = convolution_advect_oracle(w, v)
            diff = l2_norm(SpectralVectorField(grid,
                                               fast.coeffs - oracle.coeffs))
            assert diff <= 1e-12 * l2_norm(oracle)

    def test_skew_symmetry(self):
        grid = WaveGrid(3, 32)
        for seed in range(3):
            w = random_solenoidal(grid, seed, -1.0, grid.dealias_cutoff)
            v = random_solenoidal(grid, seed + 10, -1.0, grid.dealias_cutoff)
            scale = l2_norm(w) * l2_norm(v) * sobolev_norm(v, 1.0)
            assert abs(l2_inner(advect(w, v), v)) <= 1e-11 * scale

    def test_alternating_identity(self):
        grid = WaveGrid(3, 32)
        w = random_solenoidal(grid, 0, -1.0, grid.dealias_cutoff)
        v = random_solenoidal(grid, 1, -1.0, grid.dealias_cutoff)
        z = random_solenoidal(grid, 2, -1.0, grid.dealias_cutoff)
        scale = l2_norm(w) * (sobolev_norm(v, 1.0) * l2_norm(z)
                              + sobolev_norm(z, 1.0) * l2_norm(v))
        total = l2_inner(advect(w, v), z) + l2_inner(advect(w, z), v)
        assert abs(total) <= 1e-11 * scale

    def test_energy_neutral_regularized_transport(self):
        grid = WaveGrid(3, 32)
        u = random_solenoidal(grid, 5, -1.5, grid.dealias_cutoff)
        p = FilterParams(alpha=0.3, theta=0.25, n_deconv=2)
        scale = l2_norm(u) ** 2 * sobolev_norm(u, 1.0)
        from lerayflow import filter_apply
        for adv in (filter_apply(u, p), deconvolve(u, p)):
            assert abs(l2_inner(advect(adv, u), u)) <= 1e-11 * scale

    def test_output_is_solenoidal(self, grid3):
        w = random_solenoidal(grid3, 3, -1.0, grid3.dealias_cutoff)
        v = random_solenoidal(grid3, 4, -1.0, grid3.dealias_cutoff)
        out = advect(w, v)
        assert out.divergence_residual() <= 1e-12
        assert out.in_dealias_band()

    def test_grid_mismatch(self, grid3, grid2):
        w = random_solenoidal(grid3, 0, -1.0, 4)
        v = random_solenoidal(grid2, 0, -1.0, 4)
        with pytest.raises(GridMismatch):
            advect(w, v)


KINDS = [(ModelKind.NSE, 0.0, 0), (ModelKind.LERAY_ALPHA, 0.15, 0),
         (ModelKind.LERAY_DECONV, 0.15, 2), (ModelKind.MHD_DECONV, 0.2, 1)]


class TestConvectiveForm:
    """The solver's transport equals the convective form to roundoff."""

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("kind,alpha,n_deconv", KINDS)
    def test_rhs_and_pressure_match(self, dim, n, kind, alpha, n_deconv):
        grid = WaveGrid(dim, n)
        mhd = kind is ModelKind.MHD_DECONV
        u = random_solenoidal(grid, 21, -1.5, grid.dealias_cutoff)
        b = (random_solenoidal(grid, 22, -1.5, grid.dealias_cutoff)
             if mhd else None)
        amp = (0.0j, 0.2 + 0.1j, 0.0j)[:dim]
        forcing = (ForcingSpec.zero() if mhd else
                   ForcingSpec((ForcingMode((1,) + (0,) * (dim - 1), amp),)))
        cfg = ModelConfig(kind, 0.1, FilterParams(alpha=alpha, theta=0.25,
                                                  n_deconv=n_deconv),
                          forcing, nu2=0.1 if mhd else None)
        state = SimState(0.3, u, b)
        rows, p_ref = convective_rhs_and_pressure(state, cfg)
        out = rhs(state, cfg)
        assert relative_gap(out.du.coeffs, rows[0]) <= 1e-13
        if mhd:
            assert relative_gap(out.db.coeffs, rows[1]) <= 1e-13
        assert relative_gap(pressure_solve(state, cfg).coeffs, p_ref) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_skew_identities(self, dim, n):
        grid = WaveGrid(dim, n)
        w, v, z = (random_solenoidal(grid, s, -1.0, grid.dealias_cutoff)
                   for s in (31, 32, 33))
        scale = l2_norm(w) * l2_norm(v) * sobolev_norm(v, 1.0)
        assert abs(l2_inner(advect(w, v), v)) <= 1e-13 * scale
        pair = l2_inner(advect(w, v), z) + l2_inner(advect(w, z), v)
        assert abs(pair) <= 1e-13 * l2_norm(w) * (
            sobolev_norm(v, 1.0) * l2_norm(z) + sobolev_norm(z, 1.0) * l2_norm(v))
        # w is v: the self-advection branch of the kernel
        scale = l2_norm(v) ** 2 * sobolev_norm(v, 1.0)
        assert abs(l2_inner(advect(v, v), v)) <= 1e-13 * scale
        pair = l2_inner(advect(v, v), z) + l2_inner(advect(v, z), v)
        assert abs(pair) <= 1e-13 * l2_norm(v) * (
            sobolev_norm(v, 1.0) * l2_norm(z) + sobolev_norm(z, 1.0) * l2_norm(v))


class TestModelConfig:
    def test_criticality_gate(self):
        with pytest.raises(CriticalityViolation):
            ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=0.1,
                        filter=FilterParams(alpha=0.1, theta=0.1))

    def test_unsafe_override_warns(self):
        with pytest.warns(UserWarning):
            ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=0.1,
                        filter=FilterParams(alpha=0.1, theta=0.1),
                        unsafe_subcritical=True)

    def test_nse_ignores_gate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ModelConfig(kind=ModelKind.NSE, nu=0.1,
                        filter=FilterParams(alpha=0.0, theta=0.0))

    def test_mhd_requires_nu2(self):
        with pytest.raises(InvariantViolation):
            ModelConfig(kind=ModelKind.MHD_DECONV, nu=0.1,
                        filter=FilterParams(alpha=0.1, theta=0.25))

    def test_mhd_rejects_forcing(self):
        forcing = ForcingSpec((ForcingMode((1, 0, 0), (0, 1, 0)),))
        with pytest.raises(InvariantViolation):
            ModelConfig(kind=ModelKind.MHD_DECONV, nu=0.1, nu2=0.1,
                        filter=FilterParams(alpha=0.1, theta=0.25),
                        forcing=forcing)

    def test_nu2_only_for_mhd(self):
        with pytest.raises(InvariantViolation):
            ModelConfig(kind=ModelKind.NSE, nu=0.1, nu2=0.2,
                        filter=FilterParams(alpha=0.0))

    @pytest.mark.parametrize("nu,nu2", [
        (float("nan"), 0.1), (float("inf"), 0.1), (0.1, float("nan")),
        (0.1, float("inf"))])
    def test_non_finite_viscosities(self, nu, nu2):
        with pytest.raises(InvariantViolation, match="nu"):
            ModelConfig(kind=ModelKind.MHD_DECONV, nu=nu, nu2=nu2,
                        filter=FilterParams(alpha=0.1, theta=0.25))


class TestForcingSpec:
    def test_orthogonality_enforced(self):
        bad = ForcingSpec((ForcingMode((1, 0, 0), (1.0, 0.0, 0.0)),))
        with pytest.raises(InvariantViolation):
            bad.validate(3)

    def test_zero_mode_rejected(self):
        bad = ForcingSpec((ForcingMode((0, 0, 0), (0.0, 1.0, 0.0)),))
        with pytest.raises(InvariantViolation):
            bad.validate(3)

    def test_evaluation_is_real_and_solenoidal(self, grid3):
        f = ForcingSpec((ForcingMode((1, 2, 0), (0.2 + 0.1j, -0.1 - 0.05j,
                                                 0.05 + 0.0j), 0.7),))
        f.validate(3)
        field = f.evaluate(grid3, 0.3)
        assert field.hermitian_residual() <= 1e-14
        assert field.divergence_residual() <= 1e-12
        decayed = f.evaluate(grid3, 1.3)
        assert np.abs(decayed.coeffs).max() == pytest.approx(
            np.abs(field.coeffs).max() * np.exp(-0.7), rel=1e-12)

    def test_indices_wrap_mod_n_as_in_the_full_layout(self, grid3):
        # a_d = 12 and -15 lie outside [-n/2, n/2] on n = 16; a_d = 8 and -8
        # sit on the self-conjugate Nyquist plane
        f = ForcingSpec((ForcingMode((1, 0, 12), (0.0j, 0.3 + 0.1j, 0.0j)),
                         ForcingMode((0, 1, -15), (0.2j, 0.0j, 0.0j)),
                         ForcingMode((2, 1, 8), (0.1 + 0.0j, -0.2 + 0.0j, 0.0j)),
                         ForcingMode((0, 1, -8), (0.4 + 0.0j, 0.0j, 0.0j))))
        f.validate(3)
        full = np.zeros((3,) + grid3.shape, dtype=complex)
        for m in f.modes:
            amp = np.array(m.amplitude, dtype=complex)
            full[(slice(None),) + tuple(c % 16 for c in m.a)] += amp
            full[(slice(None),) + tuple(-c % 16 for c in m.a)] += np.conj(amp)
        assert np.array_equal(f.evaluate(grid3, 0.0).coeffs, full[..., :9])


class TestRhs:
    def test_taylor_green_tendency_is_forcing_only(self, grid2_64):
        # single-shell field: filtering is a scalar multiple, transport
        # stays a pure gradient, so only the force survives projection
        f = ForcingSpec((ForcingMode((0, 1), (0.3 + 0.0j, 0.0j), 0.0),))
        cfg = ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=0.02,
                          filter=FilterParams(alpha=0.8, theta=0.25),
                          forcing=f)
        state = SimState(0.0, taylor_green_state_field(grid2_64))
        out = rhs(state, cfg)
        expected = f.evaluate(grid2_64, 0.0)
        assert np.abs(out.du.coeffs - expected.coeffs).max() < 1e-13

    def test_zero_state_zero_tendency(self, grid3):
        zero = SpectralVectorField(
            grid3, np.zeros((3,) + grid3.spectral_shape, complex))
        cfg = ModelConfig(kind=ModelKind.MHD_DECONV, nu=0.1, nu2=0.1,
                          filter=FilterParams(alpha=0.1, theta=0.25))
        out = rhs(SimState(0.0, zero, zero.copy()), cfg)
        assert np.abs(out.du.coeffs).max() == 0.0
        assert np.abs(out.db.coeffs).max() == 0.0

    def test_deconv_n0_equals_leray_alpha_bitwise(self, grid3):
        u = random_solenoidal(grid3, 7, -1.5, grid3.dealias_cutoff)
        f = ForcingSpec((ForcingMode((1, 0, 0), (0.0j, 0.1 + 0.05j, 0.0j)),))
        p = FilterParams(alpha=0.2, theta=0.25, n_deconv=0)
        state = SimState(0.1, u)
        la = rhs(state, ModelConfig(ModelKind.LERAY_ALPHA, 0.1, p, f))
        ld = rhs(state, ModelConfig(ModelKind.LERAY_DECONV, 0.1, p, f))
        assert np.array_equal(la.du.coeffs, ld.du.coeffs)

    def test_missing_magnetic_field(self, grid3):
        u = random_solenoidal(grid3, 1, -1.0, 4)
        cfg = ModelConfig(kind=ModelKind.MHD_DECONV, nu=0.1, nu2=0.1,
                          filter=FilterParams(alpha=0.1, theta=0.25))
        with pytest.raises(MissingMagneticField):
            rhs(SimState(0.0, u), cfg)

    def test_tendencies_solenoidal(self, grid3):
        u = random_solenoidal(grid3, 8, -1.5, grid3.dealias_cutoff)
        b = random_solenoidal(grid3, 9, -1.5, grid3.dealias_cutoff)
        cfg = ModelConfig(kind=ModelKind.MHD_DECONV, nu=0.05, nu2=0.05,
                          filter=FilterParams(alpha=0.2, theta=0.25, n_deconv=1))
        out = rhs(SimState(0.0, u, b), cfg)
        assert out.du.divergence_residual() <= 1e-12
        assert out.db.divergence_residual() <= 1e-12

    def test_mhd_cross_cancellation(self, grid3):
        # the Lorentz / stretching pair exchanges energy without loss
        u = random_solenoidal(grid3, 11, -1.5, grid3.dealias_cutoff)
        b = random_solenoidal(grid3, 12, -1.5, grid3.dealias_cutoff)
        p = FilterParams(alpha=0.3, theta=0.25, n_deconv=1)
        hb = deconvolve(b, p)
        total = l2_inner(advect(hb, b, project=False), u) \
            + l2_inner(advect(hb, u, project=False), b)
        scale = l2_norm(hb) * (sobolev_norm(b, 1.0) * l2_norm(u)
                               + sobolev_norm(u, 1.0) * l2_norm(b))
        assert abs(total) <= 1e-11 * scale

    def test_advecting_field_per_kind(self, grid3):
        u = random_solenoidal(grid3, 2, -1.0, 4)
        p = FilterParams(alpha=0.4, theta=0.25, n_deconv=3)
        f = ForcingSpec.zero()
        nse = ModelConfig(ModelKind.NSE, 0.1, p, f)
        assert advecting_field(u, nse) is u
        la = ModelConfig(ModelKind.LERAY_ALPHA, 0.1, p, f)
        from lerayflow import filter_apply
        assert np.array_equal(advecting_field(u, la).coeffs,
                              filter_apply(u, p).coeffs)
        ld = ModelConfig(ModelKind.LERAY_DECONV, 0.1, p, f)
        assert np.array_equal(advecting_field(u, ld).coeffs,
                              deconvolve(u, p).coeffs)


class TestPressure:
    def test_zero_velocity_zero_pressure(self, grid3):
        zero = SpectralVectorField(
            grid3, np.zeros((3,) + grid3.spectral_shape, complex))
        cfg = ModelConfig(ModelKind.NSE, 0.1, FilterParams(alpha=0.0))
        p = pressure_solve(SimState(0.0, zero), cfg)
        assert np.abs(p.coeffs).max() == 0.0

    def test_taylor_green_analytic(self, grid2_64):
        nu = 0.03
        cfg = ModelConfig(ModelKind.NSE, nu, FilterParams(alpha=0.0))
        state = SimState(0.0, taylor_green_state_field(grid2_64, nu, 0.0))
        p = pressure_solve(state, cfg)
        phys = inverse_transform_scalar(p)
        exact = taylor_green_pressure(grid2_64, nu, 0.0)
        assert np.abs(phys - exact).max() < 1e-13

    @pytest.mark.parametrize("kind,alpha,n", [
        (ModelKind.NSE, 0.0, 0),
        (ModelKind.LERAY_ALPHA, 0.15, 0),
        (ModelKind.LERAY_DECONV, 0.15, 2),
    ])
    def test_gradient_consistency(self, kind, alpha, n):
        # grad p equals the projection complement of the tendency term
        grid = WaveGrid(3, 32)
        u = random_solenoidal(grid, 13, -2.0, 8)
        cfg = ModelConfig(kind, 0.1, FilterParams(alpha=alpha, theta=0.25,
                                                  n_deconv=n))
        state = SimState(0.0, u)
        p = pressure_solve(state, cfg)
        adv = advecting_field(u, cfg)
        raw = advect(adv, u, project=False)
        complement = raw.coeffs - leray_project(raw).coeffs
        grad_p = 1j * grid.k * p.coeffs[np.newaxis]
        scale = max(np.abs(grad_p).max(), 1e-30)
        assert np.abs(grad_p + complement).max() <= 1e-10 * scale

    @pytest.mark.parametrize("kind,alpha,n", [
        (ModelKind.NSE, 0.0, 0),
        (ModelKind.LERAY_ALPHA, 0.15, 0),
        (ModelKind.LERAY_DECONV, 0.15, 2),
        (ModelKind.MHD_DECONV, 0.2, 1),
    ])
    def test_matches_flux_form(self, kind, alpha, n):
        # under the 2/3 rule the convective and flux forms agree exactly in
        # the retained band, so the two pressures differ only by roundoff
        grid = WaveGrid(3, 32)
        mhd = kind is ModelKind.MHD_DECONV
        u = random_solenoidal(grid, 14, -2.0, 8)
        b = random_solenoidal(grid, 15, -2.0, 8) if mhd else None
        cfg = ModelConfig(kind, 0.1, FilterParams(alpha=alpha, theta=0.25,
                                                  n_deconv=n),
                          nu2=0.1 if mhd else None)
        state = SimState(0.0, u, b)
        p = pressure_solve(state, cfg).coeffs
        oracle = flux_form_pressure(state, cfg)
        assert np.abs(p - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_mhd_gradient_consistency(self):
        grid = WaveGrid(3, 32)
        u = random_solenoidal(grid, 14, -2.0, 8)
        b = random_solenoidal(grid, 15, -2.0, 8)
        cfg = ModelConfig(ModelKind.MHD_DECONV, 0.1, nu2=0.1,
                          filter=FilterParams(alpha=0.2, theta=0.25, n_deconv=1))
        state = SimState(0.0, u, b)
        p_hat = pressure_solve(state, cfg)
        hu = deconvolve(u, cfg.filter)
        hb = deconvolve(b, cfg.filter)
        raw = SpectralVectorField(
            grid, advect(hb, b, project=False).coeffs
            - advect(hu, u, project=False).coeffs)
        complement = raw.coeffs - leray_project(raw).coeffs
        # total pressure = fluid pressure + |b|^2/2
        from lerayflow.fields import from_physical
        b_phys = inverse_transform(b).data
        mag = from_physical(grid, 0.5 * np.sum(b_phys * b_phys, axis=0))
        mag[~grid.dealias_mask] = 0.0
        mag[(0,) * 3] = 0.0
        total_p = p_hat.coeffs + mag
        grad_p = 1j * grid.k * total_p[np.newaxis]
        scale = max(np.abs(grad_p).max(), 1e-30)
        assert np.abs(grad_p - complement).max() <= 1e-10 * scale

    def test_pressure_zero_mean(self):
        grid = WaveGrid(3, 16)
        u = random_solenoidal(grid, 16, -1.0, 5)
        cfg = ModelConfig(ModelKind.LERAY_ALPHA, 0.1,
                          FilterParams(alpha=0.1, theta=0.25))
        p = pressure_solve(SimState(0.0, u), cfg)
        assert p.coeffs[0, 0, 0] == 0.0
