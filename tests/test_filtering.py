"""Fractional Helmholtz filter and deconvolution: symbols, bounds, series."""

import numpy as np
import pytest

from lerayflow import (FilterParams, InvariantViolation, SpectralVectorField,
                       WaveGrid, deconvolution_multiplier, deconvolve,
                       filter_apply, helmholtz_multiplier, multiplier_table,
                       random_solenoidal, sobolev_norm, van_cittert_series)

from conftest import single_mode_field


class TestHelmholtzMultiplier:
    def test_alpha_zero_is_one(self):
        p = FilterParams(alpha=0.0, theta=0.25)
        for k in (0.0, 1.0, 7.3):
            assert helmholtz_multiplier(k, p) == 1.0

    def test_unit_values(self):
        p = FilterParams(alpha=1.0, theta=0.25)
        assert helmholtz_multiplier(1.0, p) == pytest.approx(2.0, rel=1e-15)

    def test_sixteen_sixteen(self):
        # alpha^(1/2) * k^(1/2) = 4 * 4 = 16 at alpha = k = 16, theta = 1/4
        p = FilterParams(alpha=16.0, theta=0.25)
        assert helmholtz_multiplier(16.0, p) == pytest.approx(17.0, rel=1e-15)

    def test_zero_mode_pinned_to_one(self):
        p = FilterParams(alpha=2.0, theta=0.0)
        assert helmholtz_multiplier(0.0, p) == 1.0


class TestFilterApply:
    def test_alpha_zero_identity(self, grid3):
        u = random_solenoidal(grid3, 0, -1.0, 5)
        out = filter_apply(u, FilterParams(alpha=0.0, theta=0.25))
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_halves_unit_shell(self, grid3):
        u = single_mode_field(grid3, (1, 0, 0), (0.0, 1.0, 0.0))
        out = filter_apply(u, FilterParams(alpha=1.0, theta=0.25))
        assert out.coeffs[1, 1, 0, 0] == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_half_space_bound(self, grid3, seed):
        # smoothing gains half a derivative at cost alpha^(-1/2) at theta=1/4
        u = random_solenoidal(grid3, seed, -1.5, grid3.dealias_cutoff)
        for alpha in (0.05, 0.4, 1.3):
            ub = filter_apply(u, FilterParams(alpha=alpha, theta=0.25))
            assert sobolev_norm(ub, 0.5) <= alpha ** -0.5 * sobolev_norm(u, 0.0) \
                * (1 + 1e-12)

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5])
    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0])
    def test_regularization_bound(self, grid3, s, theta):
        p = FilterParams(alpha=0.3, theta=theta)
        for seed in range(5):
            u = random_solenoidal(grid3, seed, -1.0, grid3.dealias_cutoff)
            ub = filter_apply(u, p)
            bound = p.alpha ** (-2 * theta) * sobolev_norm(u, s)
            assert sobolev_norm(ub, s + 2 * theta) <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("beta_frac", [0.0, 0.5, 1.0])
    def test_generalized_bound(self, grid3, beta_frac):
        # ||filtered||_{H^{s+beta}} <= alpha^(-beta) ||u||_{H^s}, beta <= 2*theta
        theta = 0.25
        beta = beta_frac * 2 * theta
        p = FilterParams(alpha=0.2, theta=theta)
        for seed in range(5):
            u = random_solenoidal(grid3, seed, -1.0, grid3.dealias_cutoff)
            ub = filter_apply(u, p)
            for s in (-0.5, 0.0, 0.5):
                bound = p.alpha ** (-beta) * sobolev_norm(u, s)
                assert sobolev_norm(ub, s + beta) <= bound * (1 + 1e-12)

    def test_preserves_solenoidal_flag(self, grid3):
        u = random_solenoidal(grid3, 1, -1.0, 5)
        assert filter_apply(u, FilterParams(alpha=0.5)).solenoidal


class TestDeconvolve:
    def test_n0_equals_filter_bitwise(self, grid3):
        u = random_solenoidal(grid3, 2, -1.0, 5)
        p = FilterParams(alpha=0.37, theta=0.25, n_deconv=0)
        assert np.array_equal(deconvolve(u, p).coeffs,
                              filter_apply(u, p).coeffs)

    def test_multiplier_closed_form(self):
        # theta=1/4, alpha=1, |k|=1, N=1: 1 - (1/2)^2 = 0.75
        p = FilterParams(alpha=1.0, theta=0.25, n_deconv=1)
        assert deconvolution_multiplier(1.0, p) == pytest.approx(0.75, rel=1e-15)

    def test_alpha_zero_identity_any_n(self, grid3):
        u = random_solenoidal(grid3, 3, -1.0, 5)
        for n in (0, 1, 5, 16):
            p = FilterParams(alpha=0.0, theta=0.25, n_deconv=n)
            assert np.array_equal(deconvolve(u, p).coeffs, u.coeffs)

    def test_multiplier_in_unit_interval_and_monotone(self, grid3):
        k = grid3.k_mag[grid3.mode_mask]
        prev = None
        for n in range(6):
            p = FilterParams(alpha=0.8, theta=0.25, n_deconv=n)
            mult = deconvolution_multiplier(k, p)
            assert np.all(mult > 0.0) and np.all(mult <= 1.0)
            if prev is not None:
                assert np.all(mult[k > 0] > prev[k > 0])
            prev = mult

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 1.0])
    def test_operator_norm_at_most_one(self, grid3, s):
        for seed in range(5):
            u = random_solenoidal(grid3, seed, -1.0, grid3.dealias_cutoff)
            for n in (0, 1, 4, 16):
                p = FilterParams(alpha=0.7, theta=0.25, n_deconv=n)
                assert sobolev_norm(deconvolve(u, p), s) \
                    <= sobolev_norm(u, s) * (1 + 1e-12)

    def test_operator_norm_approached_on_lowest_shell(self, grid3):
        # concentrating on |k| = 1 with tiny alpha reaches the unit norm
        u = single_mode_field(grid3, (1, 0, 0), (0.0, 0.3, 0.4))
        p = FilterParams(alpha=1e-4, theta=0.25, n_deconv=0)
        ratio = sobolev_norm(deconvolve(u, p), 0.0) / sobolev_norm(u, 0.0)
        assert ratio > 0.99

    def test_geometric_n_convergence_single_shell(self, grid3):
        # error ratio between consecutive N is exactly x/(1+x) on one shell
        u = single_mode_field(grid3, (2, 0, 0), (0.0, 1.0, 0.5))
        alpha, theta = 0.5, 0.25
        x = alpha ** (2 * theta) * 2.0 ** (2 * theta)
        expected = x / (1.0 + x)
        errors = []
        for n in range(5):
            p = FilterParams(alpha=alpha, theta=theta, n_deconv=n)
            diff = deconvolve(u, p).coeffs - u.coeffs
            errors.append(np.sqrt(np.sum(np.abs(diff) ** 2)))
        for e1, e2 in zip(errors, errors[1:]):
            assert e2 / e1 == pytest.approx(expected, abs=1e-10)

    def test_high_norm_blowup_constant_grows_with_n(self, grid3):
        # C(N, alpha) in the smoothing bound grows with N; measured, no law
        u = random_solenoidal(grid3, 9, -1.0, grid3.dealias_cutoff)
        base = sobolev_norm(u, 0.0)
        constants = []
        for n in (0, 1, 2, 4, 8, 16):
            p = FilterParams(alpha=0.05, theta=0.25, n_deconv=n)
            constants.append(sobolev_norm(deconvolve(u, p), 0.5) / base)
        assert all(c2 >= c1 for c1, c2 in zip(constants, constants[1:]))


class TestVanCittert:
    def test_n0_equals_filter(self, grid3):
        u = random_solenoidal(grid3, 4, -1.0, 5)
        p = FilterParams(alpha=0.6, theta=0.25, n_deconv=0)
        assert np.array_equal(van_cittert_series(u, p).coeffs,
                              filter_apply(u, p).coeffs)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_matches_closed_form(self, grid3, n):
        u = random_solenoidal(grid3, 5, -1.0, grid3.dealias_cutoff)
        p = FilterParams(alpha=0.9, theta=0.25, n_deconv=n)
        closed = deconvolve(u, p)
        series = van_cittert_series(u, p)
        diff = SpectralVectorField(grid3, closed.coeffs - series.coeffs)
        assert sobolev_norm(diff, 1.0) <= 1e-12 * sobolev_norm(closed, 1.0)

    def test_alpha_zero_identity(self, grid3):
        u = random_solenoidal(grid3, 6, -1.0, 5)
        p = FilterParams(alpha=0.0, theta=0.25, n_deconv=4)
        assert np.array_equal(van_cittert_series(u, p).coeffs, u.coeffs)


class TestFilterParamsValidation:
    def test_negative_alpha(self):
        with pytest.raises(InvariantViolation):
            FilterParams(alpha=-0.1)

    def test_theta_out_of_range(self):
        with pytest.raises(InvariantViolation):
            FilterParams(alpha=0.1, theta=1.5)
        with pytest.raises(InvariantViolation):
            FilterParams(alpha=0.1, theta=-0.25)

    def test_negative_order(self):
        with pytest.raises(InvariantViolation):
            FilterParams(alpha=0.1, n_deconv=-1)

    @pytest.mark.parametrize("field", ["alpha", "n_deconv"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values(self, field, value):
        with pytest.raises(InvariantViolation, match=field):
            FilterParams(**{"alpha": 0.1, field: value})

    def test_filter_scale_overflow(self):
        # alpha^(2 theta) is the symbol's scale; a float overflow there
        # would surface as a bare OverflowError in every filter evaluation
        with pytest.raises(InvariantViolation, match="alpha"):
            FilterParams(alpha=1e308, theta=1.0)
        FilterParams(alpha=1e308, theta=0.25)


def test_multiplier_table_rows():
    p = FilterParams(alpha=1.0, theta=0.25, n_deconv=1)
    rows = multiplier_table(p, [0.0, 1.0, 4.0])
    assert rows[0] == (0.0, 1.0, 1.0)
    assert rows[1][1] == pytest.approx(2.0)
    assert rows[1][2] == pytest.approx(0.75)
    assert rows[2][1] == pytest.approx(3.0)  # 1 + 4^(1/2)
