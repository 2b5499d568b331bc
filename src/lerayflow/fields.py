"""Vector fields on the torus and the core spectral operators.

Fields are real, so each is stored as its rfft half spectrum, one d-vector
per wavevector with ``a_d >= 0`` (see :mod:`lerayflow.grid`); every transform
is a real FFT.  The normalization is the Fourier-series one:
``u(x) = sum_k uhat_k exp(i k.x)``, so ``from_physical`` divides by the total
sample count and Parseval reads ``sum_k |uhat_k|^2 = mean_x |u(x)|^2`` over
the full spectrum, i.e. weighted by ``grid.plane_weight`` over the half.
Every norm in this package is built on that convention; the Sobolev norm of
order s is ``sqrt(sum_{k != 0} |k|^{2s} |uhat_k|^2)``.

Operations never mutate their inputs, except :func:`project_in_place`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np
import scipy.fft

from .errors import GridMismatch, SymmetryViolation
from .grid import WaveGrid, worker_count

__all__ = [
    "SpectralVectorField", "RealVectorField", "SpectralScalarField",
    "forward_transform", "inverse_transform", "inverse_transform_scalar",
    "leray_project", "sobolev_norm", "l2_inner", "l2_norm",
    "full_layout", "random_solenoidal", "to_physical", "from_physical",
]


def _require_shape(array: np.ndarray, expected: tuple, what: str) -> None:
    if array.shape != expected:
        raise ValueError(f"{what} shape {array.shape} != expected {expected}")


@dataclass
class SpectralVectorField:
    """Complex Fourier coefficients of a real d-vector field, zero mean.

    ``coeffs`` has shape (dim, n, ..., n/2 + 1).  Whether the field is
    divergence-free is measured, never recorded: see
    :meth:`divergence_residual`."""

    grid: WaveGrid
    coeffs: np.ndarray
    # Accepted and ignored: the benchmark's own tests still pass a third
    # positional argument.  Delete it together with that call.
    _ignored: InitVar[object] = None

    def __post_init__(self, _ignored):
        _require_shape(self.coeffs, (self.grid.dim,) + self.grid.spectral_shape,
                       "coeff")

    def copy(self) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.coeffs.copy())

    def hermitian_residual(self) -> float:
        """:func:`reflection_residual` inside the planes a_d = 0 and
        a_d = n/2, the only ones holding both k and -k, relative to the
        whole field."""
        return reflection_residual(self.coeffs[..., :: self.grid.n // 2],
                                   range(1, self.grid.dim), self.coeffs)

    def divergence_residual(self, norm: float | None = None) -> float:
        """max_k |k . uhat_k| relative to the field's L2 norm (if not given)."""
        norm = l2_norm(self) if norm is None else norm
        if norm == 0.0:
            return 0.0
        div = np.sum(self.grid.k_complex * self.coeffs, axis=0)
        return float(np.abs(div).max() / norm)


@dataclass
class RealVectorField:
    """Physical-space samples of a d-vector field, shape (dim, n, ..., n)."""

    grid: WaveGrid
    data: np.ndarray

    def __post_init__(self):
        _require_shape(self.data, (self.grid.dim,) + self.grid.shape, "sample")


@dataclass
class SpectralScalarField:
    """Half-spectrum coefficients of a real scalar field (e.g. pressure)."""

    grid: WaveGrid
    coeffs: np.ndarray

    def __post_init__(self):
        _require_shape(self.coeffs, self.grid.spectral_shape, "coeff")


def hermitian_reflection(coeffs: np.ndarray, axes) -> np.ndarray:
    """conj(coeffs) at -a over the given full FFT-layout axes."""
    out = coeffs
    for ax in axes:
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return np.conj(out)


def reflection_residual(coeffs: np.ndarray, axes, whole: np.ndarray) -> float:
    """max |coeffs - :func:`hermitian_reflection`| over ``axes``, relative
    to the largest part (real or imaginary, in one pass) in ``whole``, 0
    when that is 0: the one measure of Hermitian symmetry."""
    parts = np.ascontiguousarray(whole).view(float)
    scale = max(parts.max(), -parts.min())
    if scale == 0.0:
        return 0.0
    dev = np.abs(coeffs - hermitian_reflection(coeffs, axes))
    return float(dev.max() / scale)


def hermitian_gate(residual: float, what: str, error=SymmetryViolation) -> None:
    """Raise ``error`` naming ``what`` when a relative Hermitian residual
    exceeds 1e-10: the one gate of states, spectra and checkpoints."""
    if residual > 1e-10:
        raise error(f"{what}: relative Hermitian residual {residual:.3e}")


def full_layout(grid: WaveGrid, half: np.ndarray) -> np.ndarray:
    """Complete half spectra (the last ``grid.dim`` axes) to the full FFT
    layout via Hermitian symmetry."""
    tail = hermitian_reflection(  # the last axis by reversing the slice
        half[..., grid.n // 2 - 1: 0: -1],
        range(half.ndim - grid.dim, half.ndim - 1))
    return np.concatenate([half, tail], axis=-1)


def to_physical(grid: WaveGrid, coeffs: np.ndarray,
                workers: int | None = None) -> np.ndarray:
    """Physical samples of a stack of half spectra (inverse real FFT) on
    ``workers`` threads (default :func:`worker_count`, read per call).

    Inside the plane a_d = 0 the transform reads only the Hermitian part;
    :func:`inverse_transform` checks that there is no other."""
    workers = worker_count() if workers is None else workers
    return scipy.fft.irfftn(coeffs, axes=grid.fft_axes, norm="forward",
                            workers=workers)


def from_physical(grid: WaveGrid, data: np.ndarray,
                  workers: int | None = None) -> np.ndarray:
    """Half spectra of a stack of real samples (forward real FFT), with the
    ``workers`` of :func:`to_physical`."""
    workers = worker_count() if workers is None else workers
    return scipy.fft.rfftn(data, axes=grid.fft_axes, norm="forward",
                           workers=workers)


def forward_transform(r: RealVectorField) -> SpectralVectorField:
    """Discrete Fourier coefficients of physical samples (series convention).

    The mean (k=0) component is kept as-is; callers that require mean-free
    fields zero it themselves."""
    return SpectralVectorField(r.grid, from_physical(r.grid, r.data))


def inverse_transform(s: SpectralVectorField) -> RealVectorField:
    """Pointwise evaluation of the truncated Fourier series.

    Raises SymmetryViolation through :func:`hermitian_gate`."""
    hermitian_gate(s.hermitian_residual(), "spectrum")
    return RealVectorField(s.grid, to_physical(s.grid, s.coeffs))


def inverse_transform_scalar(p: SpectralScalarField) -> np.ndarray:
    """Physical samples of a spectral scalar (inverse real FFT)."""
    return to_physical(p.grid, p.coeffs)


def leray_project(s: SpectralVectorField) -> SpectralVectorField:
    """Remove the component parallel to k at every mode (Leray-Helmholtz)."""
    return SpectralVectorField(s.grid, project_in_place(s.grid, s.coeffs.copy()))


def project_in_place(g: WaveGrid, coeffs: np.ndarray,
                     band: bool = False) -> np.ndarray:
    """:func:`leray_project` of a d-vector of half spectra (compact band
    arrays with ``band``), written over it, with the grid's complex ``k``
    and ``k / |k|^2``."""
    k, k_over = (g.cached((name,), lambda: getattr(g, name), band)
                 for name in ("k_complex", "k_over_ksq"))
    k_dot, tmp = g.work("band" if band else "spectral_work", (2,) + (
        g.band_shape if band else g.spectral_shape), complex)[:2]
    np.multiply(k[0], coeffs[0], out=k_dot)
    for j in range(1, g.dim):
        k_dot += np.multiply(k[j], coeffs[j], out=tmp)
    for c, k_over_ksq in zip(coeffs, k_over):
        c -= np.multiply(k_over_ksq, k_dot, out=tmp)
    return coeffs


def sobolev_norm(s: SpectralVectorField, sexp: float,
                 energy: np.ndarray | None = None) -> float:
    """H^s norm over the mean-free modes: sqrt(sum |k|^{2s} |uhat|^2), from
    ``energy``, the |uhat|^2 summed over components, when given."""
    if energy is None:
        energy = np.sum(np.abs(s.coeffs) ** 2, axis=0)
    total = np.sum(s.grid.plane_weight * s.grid.k_power(2.0 * sexp) * energy)
    return float(np.sqrt(total))


def l2_inner(u: SpectralVectorField, v: SpectralVectorField) -> float:
    """L2 inner product in the series convention, (1/L^d) * integral(u.v)."""
    if not u.grid.same_as(v.grid):
        raise GridMismatch("inner product requires a common grid")
    pairing = np.real(np.sum(u.coeffs * np.conj(v.coeffs), axis=0))
    return float(np.sum(u.grid.plane_weight * pairing))


def l2_norm(u: SpectralVectorField, energy: np.ndarray | None = None) -> float:
    if energy is None:
        energy = np.sum(np.abs(u.coeffs) ** 2, axis=0)
    return float(np.sqrt(np.sum(u.grid.plane_weight * energy)))


def random_solenoidal(grid: WaveGrid, seed: int, spectrum_slope: float,
                      cutoff_shell: int) -> SpectralVectorField:
    """Deterministic random divergence-free field with power-law amplitudes.

    Each retained mode gets a random solenoidal direction; every mode of
    shell j carries the exact vector amplitude (j * 2*pi/L)^spectrum_slope,
    so the shell-averaged energy spectrum follows the requested power law.
    Shells above ``cutoff_shell`` are empty.  Hermitian symmetry and the
    zero-mean / Nyquist pins hold by construction, and the same seed
    reproduces the field bit for bit.  The random numbers are drawn and
    symmetrized in the full FFT layout, then the half spectrum is kept."""
    if cutoff_shell > grid.dealias_cutoff:
        raise ValueError(
            f"cutoff_shell {cutoff_shell} exceeds dealias cutoff "
            f"{grid.dealias_cutoff}")
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.shape
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z = 0.5 * (z + hermitian_reflection(z, range(1, grid.dim + 1)))
    z = np.ascontiguousarray(z[..., : grid.n // 2 + 1])

    # Solenoidal projection, then per-mode renormalization to the shell law.
    project_in_place(grid, z)
    keep = grid.mode_mask & (grid.shell >= 1) & (grid.shell <= cutoff_shell)
    z[:, ~keep] = 0.0
    amp = np.sqrt(np.sum(np.abs(z) ** 2, axis=0))
    target = np.zeros(grid.spectral_shape)
    target[keep] = (grid.k0 * grid.shell[keep].astype(float)) ** spectrum_slope
    scale = np.where(amp > 0, target / np.where(amp > 0, amp, 1.0), 0.0)
    return SpectralVectorField(grid, z * scale[np.newaxis])
