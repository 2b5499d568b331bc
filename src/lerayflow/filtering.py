"""Fractional Helmholtz filter and van Cittert deconvolution.

Both operators are diagonal Fourier multipliers.  With ``x = alpha^{2 theta}
|k|^{2 theta}`` the smoothing filter divides each coefficient by ``1 + x``
(the inverse of ``I + alpha^{2 theta} (-Laplacian)^theta``), and the order-N
deconvolution operator multiplies by ``1 - (x / (1 + x))^{N + 1}``.  N = 0
reproduces the plain filter; N -> infinity recovers the identity, so the
family interpolates between the Leray-alpha model and unregularized
Navier-Stokes.

``van_cittert_series`` evaluates the same operator by literally summing the
truncated Neumann series of the approximate inverse.  It costs O(N) filter
applications and exists as the in-repo oracle for the closed-form multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .fields import SpectralVectorField

__all__ = [
    "FilterParams", "helmholtz_multiplier", "deconvolution_multiplier",
    "filter_apply", "deconvolve", "van_cittert_series", "multiplier_table",
]

CRITICAL_THETA = 0.25


@dataclass(frozen=True)
class FilterParams:
    """Filter length scale alpha, fractional order theta, deconvolution order N.

    theta is accepted on [0, 1] here; the solver separately gates theta >= 1/4
    for the regularized model kinds (with an explicit unsafe override)."""

    alpha: float
    theta: float = 0.25
    n_deconv: int = 0

    def __post_init__(self):
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise InvariantViolation(
                f"alpha must be >= 0 and finite, got {self.alpha}")
        if not 0.0 <= self.theta <= 1.0:
            raise InvariantViolation(
                f"theta must lie in [0, 1], got {self.theta}")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float64(self.alpha) ** (2 * self.theta)):
                raise InvariantViolation(
                    f"alpha^(2 theta) overflows for alpha = {self.alpha}, "
                    f"theta = {self.theta}")
        if not (0 <= self.n_deconv < 2 ** 32 and self.n_deconv % 1 == 0):
            raise InvariantViolation(  # 2^32: a u32 in checkpoint headers
                f"n_deconv must be an integer in [0, 2^32), got {self.n_deconv}")


def helmholtz_multiplier(k_mag, p: FilterParams):
    """Symbol 1 + alpha^{2 theta} |k|^{2 theta} of the filter inverse.

    Accepts scalars or arrays.  alpha = 0 gives exactly 1 (unfiltered limit)
    and the k = 0 entry is pinned to 1, consistent with mean-free spaces."""
    k_mag = np.asarray(k_mag, dtype=float)
    if p.alpha == 0.0:
        out = np.ones_like(k_mag)
    else:
        nz = k_mag > 0
        kp = np.where(nz, k_mag, 1.0) ** (2 * p.theta)
        out = np.where(nz, 1.0 + p.alpha ** (2 * p.theta) * kp, 1.0)
    return out if k_mag.ndim else float(out)


def deconvolution_multiplier(k_mag, p: FilterParams):
    """Symbol 1 - (x/(1+x))^{N+1} of the order-N deconvolution operator."""
    m = np.asarray(helmholtz_multiplier(k_mag, p))
    x = m - 1.0
    r = x / m
    out = 1.0 - r ** (p.n_deconv + 1)
    return out if np.asarray(k_mag).ndim else float(out)


def smoothing_symbol(g, p: FilterParams, deconvolution: bool = False,
                     band: bool = False):
    """The grid-cached symbol of :func:`filter_apply`, or of :func:`deconvolve`
    with ``deconvolution``, its compact copy with ``band``; None for 1.  N = 0
    takes the filter's, as 1/(1+x) and 1 - x/(1+x) differ by an ulp in
    floating point."""
    if p.alpha == 0.0:
        return None
    if deconvolution and p.n_deconv > 0:
        return g.cached(("deconvolve", p.alpha, p.theta, p.n_deconv),
                        lambda: deconvolution_multiplier(g.k_mag, p), band)
    return g.cached(("filter", p.alpha, p.theta),
                    lambda: 1.0 / helmholtz_multiplier(g.k_mag, p), band)


def _smoothed(u: SpectralVectorField, p: FilterParams,
              deconvolution: bool) -> SpectralVectorField:
    h = smoothing_symbol(u.grid, p, deconvolution)
    return u.copy() if h is None else SpectralVectorField(u.grid, u.coeffs * h)


def filter_apply(u: SpectralVectorField, p: FilterParams) -> SpectralVectorField:
    """Smooth u with the fractional Helmholtz filter (divide by the symbol)."""
    return _smoothed(u, p, deconvolution=False)


def deconvolve(u: SpectralVectorField, p: FilterParams) -> SpectralVectorField:
    """Apply the order-N interpolating deconvolution operator to u."""
    return _smoothed(u, p, deconvolution=True)


def van_cittert_series(u: SpectralVectorField, p: FilterParams) -> SpectralVectorField:
    """Oracle path: sum_{n=0}^{N} (I - G^{-1})^n applied to the filtered field.

    Agrees with :func:`deconvolve` to roundoff; kept as executable
    documentation of the truncated approximate-inverse construction."""
    term = filter_apply(u, p)
    acc = term.coeffs.copy()
    for _ in range(p.n_deconv):
        term = SpectralVectorField(
            u.grid, term.coeffs - filter_apply(term, p).coeffs)
        acc += term.coeffs
    return SpectralVectorField(u.grid, acc)


def multiplier_table(p: FilterParams, k_values) -> list[tuple[float, float, float]]:
    """Rows (|k|, filter inverse symbol, deconvolution symbol) for a CLI dump."""
    return [(float(k), float(helmholtz_multiplier(float(k), p)),
             float(deconvolution_multiplier(float(k), p))) for k in k_values]
