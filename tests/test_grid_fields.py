"""Spectral core: transforms, projections, norms, field generation."""

import numpy as np
import pytest

from lerayflow import (RealVectorField, SpectralVectorField, SymmetryViolation,
                       WaveGrid, forward_transform, inverse_transform, l2_norm,
                       leray_project, random_solenoidal, sobolev_norm)
from lerayflow.diagnostics import fit_loglog
from lerayflow.dynamics import _Transport
from lerayflow.fields import project_in_place
from lerayflow.filtering import FilterParams, smoothing_symbol
from lerayflow.stepping import _viscous_factor

from conftest import single_mode_field


class TestTransforms:
    def test_single_mode_forward(self, grid3):
        # r(x) = (sin x1, 0, 0): coefficient -i/2 at a = (1,0,0), +i/2 at -a
        x = grid3.mesh()
        r = RealVectorField(grid3, np.stack(
            [np.sin(x[0]), np.zeros(grid3.shape), np.zeros(grid3.shape)]))
        s = forward_transform(r)
        assert s.coeffs[0, 1, 0, 0] == pytest.approx(-0.5j, abs=1e-15)
        assert s.coeffs[0, -1, 0, 0] == pytest.approx(0.5j, abs=1e-15)
        other = s.coeffs.copy()
        other[0, 1, 0, 0] = other[0, -1, 0, 0] = 0.0
        assert np.abs(other).max() < 1e-15

    def test_zero_roundtrip(self, grid3):
        r = RealVectorField(grid3, np.zeros((3,) + grid3.shape))
        assert np.abs(forward_transform(r).coeffs).max() == 0.0

    def test_single_mode_inverse(self, grid3):
        s = single_mode_field(grid3, (1, 0, 0), (-0.5j, 0, 0))
        r = inverse_transform(s)
        x = grid3.mesh()
        assert np.abs(r.data[0] - np.sin(x[0])).max() < 1e-14
        assert np.abs(r.data[1:]).max() < 1e-15

    @pytest.mark.parametrize("dim,n", [(3, 16), (2, 32)])
    def test_random_roundtrip(self, dim, n):
        grid = WaveGrid(dim, n)
        rng = np.random.default_rng(0)
        r = RealVectorField(grid, rng.standard_normal((dim,) + grid.shape))
        back = inverse_transform(forward_transform(r))
        scale = np.abs(r.data).max()
        assert np.abs(back.data - r.data).max() / scale < 1e-12

    def test_inverse_rejects_asymmetric(self, grid3):
        u = random_solenoidal(grid3, 0, -1.0, 4)
        u.coeffs[0, 1, 2, 0] += 1.0  # break symmetry hard inside k_z = 0
        with pytest.raises(SymmetryViolation):
            inverse_transform(u)

    def test_inverse_rejects_asymmetric_nyquist_plane(self, grid3):
        u = random_solenoidal(grid3, 0, -1.0, 4)
        u.coeffs[0, 1, 2, grid3.n // 2] += 1.0  # k_z = n/2 is self-conjugate too
        with pytest.raises(SymmetryViolation):
            inverse_transform(u)

    def test_parseval(self, grid3):
        u = random_solenoidal(grid3, 5, -1.5, grid3.dealias_cutoff)
        phys = inverse_transform(u).data
        quadrature = np.mean(np.sum(phys * phys, axis=0))
        assert sobolev_norm(u, 0.0) ** 2 == pytest.approx(quadrature, rel=1e-10)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


class TestBandLayout:
    """The compact dealias band: the boxes of ``dealias_mask`` packed in FFT
    order per axis, with a gather and a scatter, and compact symbols equal,
    bit for bit, to the gathered full-layout ones."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 10, 16, 32, 64])
    @pytest.mark.parametrize("cutoff", ["1", "n//3", "n/2-1", "n/2"])
    def test_gather_scatter_and_symbols(self, dim, n, cutoff):
        grid = WaveGrid(dim, n, dealias_cutoff={
            "1": 1, "n//3": n // 3, "n/2-1": n // 2 - 1, "n/2": n // 2}[cutoff])
        c = min(grid.dealias_cutoff, n // 2 - 1)
        assert grid.band_shape == (2 * c + 1,) * (dim - 1) + (c + 1,)
        assert np.prod(grid.band_shape) == grid.dealias_mask.sum()

        rng = np.random.default_rng(n + dim)
        shape = (2, dim) + grid.spectral_shape
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        band = grid.gather(x)
        assert band.shape == (2, dim) + grid.band_shape
        assert same_bits(grid.scatter(band), np.where(grid.dealias_mask, x, 0))

        nu, h = 0.03, 0.25
        assert same_bits(_viscous_factor(grid, nu, h),
                         grid.gather(np.exp(-nu * grid.k_sq * h)))
        for p, deconvolution in ((FilterParams(0.1, 0.25), False),
                                 (FilterParams(0.1, 0.25, 2), True)):
            assert same_bits(
                smoothing_symbol(grid, p, deconvolution, band=True),
                grid.gather(smoothing_symbol(grid, p, deconvolution)))
        # the contractions: the band is their mask, so the dealias weight
        # of a full-layout symbol changes no value there, only the sign of
        # a zero at the mean
        rows = (((0, 0),),)
        contraction = _Transport(grid, [(0, None)], rows).symbol
        potential = _Transport(grid, [(0, None)], rows, potential=0).symbol
        full = [-(1j * grid.k), np.stack([
            -grid.k[j] * grid.k[q] / grid.k_sq_safe
            for j in range(dim) for q in range(j, dim)])]
        for compact, symbol in zip((contraction, potential), full):
            assert same_bits(compact, grid.gather(symbol))
            assert np.array_equal(compact,
                                  grid.gather(symbol * grid.dealias_weight))
        project_in_place(grid, band[0], band=True)
        assert same_bits(grid._symbols["band", "k_complex"],
                         grid.gather(grid.k_complex))
        assert same_bits(grid._symbols["band", "k_over_ksq"],
                         grid.gather(grid.k_over_ksq))
        assert same_bits(band[0],
                         grid.gather(project_in_place(grid, grid.scatter(
                             grid.gather(x[0])))))


class TestLerayProjection:
    def test_gradient_mode_annihilated(self, grid3):
        # coefficients parallel to k are removed entirely
        a = (2, 1, 0)
        k = 2 * np.pi * np.array(a) / grid3.L
        u = single_mode_field(grid3, a, k + 0j)
        proj = leray_project(u)
        assert np.abs(proj.coeffs).max() < 1e-14

    def test_solenoidal_unchanged(self, grid3):
        u = random_solenoidal(grid3, 1, -1.0, 4)
        proj = leray_project(u)
        assert np.abs(proj.coeffs - u.coeffs).max() < 1e-14 * np.abs(u.coeffs).max()

    def test_hand_evaluated_mode(self, grid3):
        # at a = (1,0,0), (1,1,0) loses its x-component
        u = single_mode_field(grid3, (1, 0, 0), (1.0, 1.0, 0.0))
        proj = leray_project(u)
        assert proj.coeffs[0, 1, 0, 0] == pytest.approx(0.0, abs=1e-15)
        assert proj.coeffs[1, 1, 0, 0] == pytest.approx(1.0, abs=1e-15)
        assert proj.coeffs[2, 1, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_idempotent(self, grid3):
        u = random_solenoidal(grid3, 2, -1.0, 4)
        u.coeffs[0] += 0.3 * grid3.k[0]  # add a gradient part
        once = leray_project(u)
        twice = leray_project(once)
        assert np.abs(twice.coeffs - once.coeffs).max() \
            <= 1e-14 * np.abs(once.coeffs).max()


class TestDivergence:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_complex_k_gives_the_bits_of_float_k(self, dim):
        # a float k is cast to complex, imaginary part +0, before it
        # multiplies a spectrum; the complex k gives the same bits, signed
        # zeros included
        grid = WaveGrid(dim, 16)
        rng = np.random.default_rng(dim)
        shape = (dim,) + grid.spectral_shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        zeros = rng.integers(0, 4, shape)
        c.real[zeros == 1] = -0.0
        c.imag[zeros == 2] = -0.0
        c[zeros == 3] = 0.0
        div = np.sum(grid.k * c, axis=0)
        assert np.array_equal(
            np.sum(grid.k_complex * c, axis=0).view(np.uint64),
            div.view(np.uint64))
        u = SpectralVectorField(grid, c)
        assert u.divergence_residual() == float(np.abs(div).max() / l2_norm(u))


class TestSobolevNorms:
    def test_zero_field(self, grid3):
        u = SpectralVectorField(
            grid3, np.zeros((3,) + grid3.spectral_shape, complex))
        assert sobolev_norm(u, 0.7) == 0.0

    def test_unit_shell_all_s(self, grid3):
        coeffs = np.zeros((3,) + grid3.spectral_shape, complex)
        coeffs[1, 1, 0, 0] = 1.0  # single mode |k| = 1, |u| = 1
        u = SpectralVectorField(grid3, coeffs)
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            assert sobolev_norm(u, s) == pytest.approx(1.0, rel=1e-14)

    def test_half_norm_sqrt2(self, grid3):
        coeffs = np.zeros((3,) + grid3.spectral_shape, complex)
        coeffs[0, 0, 2, 0] = 1.0  # |k| = 2, |u| = 1
        u = SpectralVectorField(grid3, coeffs)
        assert sobolev_norm(u, 0.5) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_norm_equivalence_with_laplacian_power(self, grid3, s):
        u = random_solenoidal(grid3, 10, -1.0, 5)
        direct = sobolev_norm(u, s)
        via_power = sobolev_norm(
            SpectralVectorField(grid3, grid3.k_power(s) * u.coeffs), 0.0)
        assert direct == pytest.approx(via_power, rel=1e-12)


class TestRandomSolenoidal:
    def test_deterministic(self, grid3):
        a = random_solenoidal(grid3, 42, -2.0, 5)
        b = random_solenoidal(grid3, 42, -2.0, 5)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_divergence_free(self, grid3):
        u = random_solenoidal(grid3, 1, -2.0, 5)
        assert u.divergence_residual() <= 1e-12

    def test_hermitian_and_pins(self, grid3):
        u = random_solenoidal(grid3, 2, -2.0, 5)
        assert u.hermitian_residual() <= 1e-13
        assert np.abs(u.coeffs[:, 0, 0, 0]).max() == 0.0
        assert np.all(u.coeffs[:, ~grid3.dealias_mask] == 0.0)

    def test_spectrum_slope(self):
        # shell-averaged energy follows |k|^(2*slope); fit on shells 2..8
        grid = WaveGrid(3, 32)
        u = random_solenoidal(grid, 11, -2.0, 8)
        energy = np.sum(np.abs(u.coeffs) ** 2, axis=0)
        shells = np.arange(2, 9)
        means = np.array([energy[grid.shell == j].mean() for j in shells])
        slope = fit_loglog(shells.astype(float), means)
        assert abs(slope - (-4.0)) <= 0.1

    def test_cutoff_enforced(self, grid3):
        with pytest.raises(ValueError):
            random_solenoidal(grid3, 0, -2.0, grid3.dealias_cutoff + 1)


class TestWorkerCount:
    def test_env_var_caps_parallelism(self, monkeypatch):
        from lerayflow import grid, worker_count
        monkeypatch.setattr(grid, "_CPU_COUNT", 8)
        monkeypatch.delenv("LERAY_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("LERAY_THREADS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("LERAY_THREADS", "0")
        assert worker_count() == 1
        monkeypatch.setenv("LERAY_THREADS", "many")
        assert worker_count() == 1

    def test_clamped_to_cpu_count(self, monkeypatch):
        # only worker_count() itself: no transform runs at the huge value
        from lerayflow import grid, worker_count
        monkeypatch.setattr(grid, "_CPU_COUNT", 2)
        monkeypatch.setenv("LERAY_THREADS", str(10 ** 9))
        assert worker_count() == 2

    def test_results_identical_across_worker_counts(self, grid3, monkeypatch):
        u = random_solenoidal(grid3, 3, -1.5, grid3.dealias_cutoff)
        from lerayflow import advect
        monkeypatch.setenv("LERAY_THREADS", "1")
        one = advect(u, u).coeffs
        monkeypatch.setenv("LERAY_THREADS", "4")
        four = advect(u, u).coeffs
        assert np.array_equal(one, four)


class TestGridValidation:
    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            WaveGrid(4, 16)

    def test_odd_or_small_n(self):
        with pytest.raises(ValueError):
            WaveGrid(3, 15)
        with pytest.raises(ValueError):
            WaveGrid(3, 4)

    @pytest.mark.parametrize("dim,L", [(3, 2.1e155), (2, 7.1e-242),
                                       (2, 1e300), (3, 5e-324)])
    def test_length_out_of_float_range(self, dim, L):
        with pytest.raises(ValueError, match="length"):
            WaveGrid(dim, 16, L=L)

    def test_custom_length_wavevectors(self):
        grid = WaveGrid(2, 16, L=4.0 * np.pi)
        assert grid.k[0][1, 0] == pytest.approx(0.5)
        assert grid.k0 == pytest.approx(0.5)
