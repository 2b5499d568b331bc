"""Periodic torus discretization in Fourier space.

A :class:`WaveGrid` holds the wavevector bookkeeping for a ``d``-dimensional
periodic box of side ``L`` sampled with ``n`` points per axis; samples have
``shape = (n,) * d``.  Spectra of real fields are stored as the rfft half
spectrum, ``spectral_shape = (n, ..., n/2 + 1)``: mode indices follow FFT
layout, ``a_j in {0, 1, ..., n/2-1, -n/2, ..., -1}``, except ``a_d >= 0`` on
the last axis (a mode with ``a_d < 0`` is the conjugate of its mirror).  The
wavevector is ``k = 2*pi*a/L``.  Every array below has the spectral shape.

* ``mode_mask``   : modes with every ``|a_j| < n/2``.  The Nyquist planes are
  pinned to zero for all fields because they cannot carry Hermitian-symmetric
  derivative information.
* ``dealias_mask``: the subset with every ``|a_j| <= dealias_cutoff``; every
  nonlinear product is truncated to it (2/3 rule by default), which is what
  makes the discrete transport identities hold to roundoff.
* ``plane_weight``: 1 on the self-conjugate planes ``a_d = 0`` and
  ``a_d = n/2``, 2 elsewhere, where a stored mode also stands for its
  mirror.  Sums over the full spectrum are weighted sums over the half.

Per-mode work runs on the compact band: the ``2^(d-1)`` boxes of
``dealias_mask`` in FFT order per axis, packed into ``band_shape`` by
:meth:`WaveGrid.gather` and written back by :meth:`WaveGrid.scatter`.

A grid may be shared by threads: its arrays and cached symbols are read-only,
and work arrays (:meth:`WaveGrid.work`) belong to the calling thread.
"""

from __future__ import annotations

import itertools
import os
import threading

import numpy as np

__all__ = ["WaveGrid", "check_grid", "worker_count"]

# Read once: os.cpu_count() costs microseconds and every transform asks.
_CPU_COUNT = os.cpu_count() or 1


def worker_count() -> int:
    """Internal parallelism cap, from the LERAY_THREADS environment variable.

    Defaults to 1 and never exceeds the CPU count.  FFT results are
    bit-identical for any worker count (the thread split is over independent
    outer axes), so this only affects speed.
    """
    raw = os.environ.get("LERAY_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, min(value, _CPU_COUNT))


def check_grid(dim: int, n: int, L: float) -> None:
    """Raise ValueError unless ``(dim, n, L)`` make a grid; allocates nothing."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if n < 8 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 8, got {n}")
    if not 0 < L < np.inf:
        raise ValueError(f"length L must be positive and finite, got {L}")
    k0 = 2.0 * np.pi / float(L)
    with np.errstate(over="ignore", under="ignore"):
        extremes = (np.float64(float(L) / n) ** dim, np.float64(k0) ** 2,
                    dim * np.float64(k0 * (n // 2)) ** 2)
    if not all(0.0 < x < np.inf for x in extremes):
        raise ValueError(
            f"length L = {L} is out of range for n = {n}: the cell volume "
            f"or |k|^2 is not a positive finite float")


class WaveGrid:
    """Wavevector set, masks and quadrature weights for one periodic box."""

    def __init__(self, dim: int, n: int, L: float = 2.0 * np.pi,
                 dealias_cutoff: int | None = None):
        check_grid(dim, n, L)
        if dealias_cutoff is None:
            dealias_cutoff = n // 3
        if not 1 <= dealias_cutoff <= n // 2:
            raise ValueError(
                f"dealias_cutoff must lie in [1, n/2], got {dealias_cutoff}")

        self.dim = dim
        self.n = n
        self.L = float(L)
        self.dealias_cutoff = int(dealias_cutoff)
        self.descriptor = (dim, n, self.L, self.dealias_cutoff)
        self.shape = (n,) * dim
        self.spectral_shape = (n,) * (dim - 1) + (n // 2 + 1,)
        self.k0 = 2.0 * np.pi / self.L  # fundamental wavenumber
        self.cell_volume = (self.L / n) ** dim

        a = self.a
        self.a_sq = np.sum(a * a, axis=0)   # exact integer |a|^2
        # The Leray projection's k and k / |k|^2 (0 at the mean) are complex,
        # as a float factor is cast (exactly) whenever it multiplies a
        # spectrum; k is the real part of its complex copy, not a second one.
        self.k_complex = np.zeros((dim,) + self.spectral_shape, dtype=complex)
        self.k_complex.real = self.k0 * a.astype(np.float64)
        self.k = self.k_complex.real
        self.k_sq = (self.k0 ** 2) * self.a_sq.astype(np.float64)
        self.k_mag = np.sqrt(self.k_sq)
        self.k_sq_safe = np.where(self.k_sq > 0, self.k_sq, 1.0)
        self.k_over_ksq = (self.k / self.k_sq_safe).astype(complex)
        self.k_over_ksq[(slice(None),) + (0,) * dim] = 0.0

        abs_a = np.abs(a)
        self.mode_mask = np.all(abs_a < n // 2, axis=0)
        self.dealias_mask = self.mode_mask & np.all(
            abs_a <= self.dealias_cutoff, axis=0)
        # The dealias band that closes every nonlinear term, 0 at the mean.
        self.dealias_weight = self.dealias_mask.astype(np.float64)
        self.dealias_weight[(0,) * dim] = 0.0
        self.plane_weight = np.full(self.spectral_shape, 2.0)
        self.plane_weight[..., 0] = self.plane_weight[..., n // 2] = 1.0

        # Integer shell index |k| in units of k0, rounded to nearest shell.
        self.shell = np.rint(np.sqrt(self.a_sq.astype(np.float64))).astype(np.int64)
        c = min(self.dealias_cutoff, n // 2 - 1)
        self.band_shape = (2 * c + 1,) * (dim - 1) + (c + 1,)
        # (band, full) index of each box: per leading axis 0..c or -c..-1
        halves = ((slice(0, c + 1),) * 2, (slice(c + 1, None), slice(n - c, n)))
        self._boxes = [tuple((Ellipsis, *index, slice(0, c + 1))
                             for index in zip(*box))
                       for box in itertools.product(halves, repeat=dim - 1)]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        # The transform axes, the last dim of any stack, resolved once as
        # every transform reads them.
        self.fft_axes = tuple(range(-dim, 0))
        self._symbols: dict[tuple, np.ndarray] = {}
        self.scratch = threading.local()  # the calling thread's work arrays

    @property
    def a(self) -> np.ndarray:
        """Integer mode indices per axis: FFT layout, a_d >= 0 on the last."""
        axis = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        axes = [axis] * (self.dim - 1) + [
            np.arange(self.n // 2 + 1, dtype=np.int64)]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    @property
    def ik(self) -> np.ndarray:
        """The derivative symbol ``i k``, made on each access."""
        return 1j * self.k

    def cached(self, key: tuple, build, band: bool = False) -> np.ndarray:
        """The read-only array stored under ``key``, made once by ``build()``;
        with ``band``, its compact copy (:meth:`gather`), stored apart.

        The one cache of the grid's diagonal symbols (powers of |k|, filter
        multipliers, viscous factors, the transport kernel's contractions)
        and of the samples of test functions, shared by every thread.  Work
        arrays are per thread: :meth:`work`.
        """
        if band:
            key, build = ("band",) + key, lambda full=build: self.gather(full())
        value = self._symbols.get(key)
        if value is None:  # threads that race here all get the first one
            value = build()
            value.flags.writeable = False
            value = self._symbols.setdefault(key, value)
        return value

    def work(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """The calling thread's work array ``name``, of at least
        ``shape[0]`` rows: made with ``shape`` and zeroed on first use, and
        made anew when it has fewer rows.  Any later call of the same thread
        may overwrite it, and no other thread sees it, so threads can share
        the grid."""
        value = getattr(self.scratch, name, None)
        if value is None or len(value) < shape[0]:
            value = np.zeros(shape, dtype=dtype)
            setattr(self.scratch, name, value)
        return value

    def gather(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The compact band of half spectra ``x``, into ``out`` or anew."""
        if out is None:
            out = np.empty(x.shape[:-self.dim] + self.band_shape, x.dtype)
        for band, full in self._boxes:
            out[band] = x[full]
        return out

    def scatter(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compact ``x`` into the band of ``out``, or of fresh zero spectra."""
        if out is None:
            out = np.zeros(x.shape[:-self.dim] + self.spectral_shape, x.dtype)
        for band, full in self._boxes:
            out[full] = x[band]
        return out

    def k_power(self, exponent: float) -> np.ndarray:
        """|k|^exponent with the zero mode mapped to 0 (mean-free spaces)."""
        def build():
            out = np.zeros(self.spectral_shape)
            nz = self.k_mag > 0
            out[nz] = self.k_mag[nz] ** exponent
            return out
        return self.cached(("k_power", float(exponent)), build)

    def mesh(self) -> np.ndarray:
        """Physical sample coordinates, shape (dim, *shape)."""
        x = np.arange(self.n) * (self.L / self.n)
        return np.stack(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def same_as(self, other: "WaveGrid") -> bool:
        return self.descriptor == other.descriptor

    def __repr__(self) -> str:
        return (f"WaveGrid(dim={self.dim}, n={self.n}, L={self.L:.6g}, "
                f"dealias_cutoff={self.dealias_cutoff})")
