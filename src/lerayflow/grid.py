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
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["WaveGrid", "worker_count"]

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


class WaveGrid:
    """Wavevector set, masks and quadrature weights for one periodic box."""

    def __init__(self, dim: int, n: int, L: float = 2.0 * np.pi,
                 dealias_cutoff: int | None = None):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if n < 8 or n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {n}")
        if not 0 < L < np.inf:
            raise ValueError(f"period L must be positive and finite, got {L}")
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
        with np.errstate(over="ignore", under="ignore"):
            extremes = (np.float64(self.L / n) ** dim, np.float64(self.k0) ** 2,
                        dim * np.float64(self.k0 * (n // 2)) ** 2)
        if not all(0.0 < x < np.inf for x in extremes):
            raise ValueError(
                f"length L = {L} is out of range for n = {n}: the cell volume "
                f"or |k|^2 is not a positive finite float")
        self.cell_volume = (self.L / n) ** dim

        # Integer mode indices per axis: FFT layout, a_d >= 0 on the last.
        axis = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        axes = [axis] * (dim - 1) + [np.arange(n // 2 + 1, dtype=np.int64)]
        self.a = np.stack(np.meshgrid(*axes, indexing="ij"))
        self.a_sq = np.sum(self.a * self.a, axis=0)   # exact integer |a|^2
        self.k = self.k0 * self.a.astype(np.float64)
        self.ik = 1j * self.k
        self.k_sq = (self.k0 ** 2) * self.a_sq.astype(np.float64)
        self.k_mag = np.sqrt(self.k_sq)

        # k / |k|^2 with the zero mode mapped to 0 (Leray projection kernel).
        self.k_sq_safe = np.where(self.k_sq > 0, self.k_sq, 1.0)
        self.k_over_ksq = self.k / self.k_sq_safe
        self.k_over_ksq[(slice(None),) + (0,) * dim] = 0.0

        abs_a = np.abs(self.a)
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
        self.max_shell = int(self.shell[self.mode_mask].max())
        self._symbols: dict[tuple, np.ndarray] = {}

    def cached(self, key: tuple, build) -> np.ndarray:
        """The array stored under ``key``, made once by ``build()``.

        The one cache of the grid's diagonal symbols (powers of |k|, filter
        multipliers, viscous factors) and of the samples of test functions.
        Treat returned arrays as read-only.
        """
        value = self._symbols.get(key)
        if value is None:
            value = self._symbols[key] = build()
        return value

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
