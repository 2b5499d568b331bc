"""Model right-hand sides: projected transport and the regularized families.

The bilinear transport term ``B(w, v) = P_sigma(w . grad v)`` is evaluated
pseudo-spectrally in divergence form, ``ik_j (w_j v_q)^``: inverse-transform
w and v, multiply pointwise into the flux tensor ``w (x) v``, transform the
products back, contract with ``ik``, truncate to the dealias band, project.
It equals the convective form ``(w_j d_j v_q)^`` in the retained band: the
two differ by ``v div w``, which is zero for a spectrally solenoidal w, and
with 2/3 dealiasing every quadratic product is alias-free there (Orszag
1971; Zang 1991).  So the discrete skew-symmetry identities
``(B(w, v), v) = 0`` and ``(B(w, v), z) = -(B(w, z), v)`` hold to roundoff
whenever the inputs live inside the dealias band.  Everything the energy
verification machinery asserts rests on this.  The divergence form
inverse-transforms the fields alone, not all d^2 derivatives of v, and
needs only d(d+1)/2 products when w is v.

One kernel evaluates every transport term: the RHS, the MHD tendencies, the
pressure and the local-energy diagnostics.  The pressure is the potential of
the gradient part that the projection removes from the same unprojected
momentum tendency, ``p = -i k . N / |k|^2``; for MHD the induction row gives
the pseudo-pressure ``q`` the same way.

Model kinds differ only in which velocity advects:

* NSE          : u itself
* LerayAlpha   : the filtered velocity
* LerayDeconv  : the order-N deconvolved velocity (N = 0 equals LerayAlpha)
* MHDDeconv    : coupled velocity/magnetic system advected by the deconvolved
  fields; the magnetic-pressure gradient is absorbed by the projection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (CriticalityViolation, GridMismatch, InvariantViolation,
                     MissingMagneticField)
from .fields import (SpectralScalarField, SpectralVectorField, from_physical,
                     leray_project, to_physical)
from .filtering import CRITICAL_THETA, FilterParams, deconvolve, filter_apply
from .grid import WaveGrid

__all__ = [
    "ModelKind", "ForcingSpec", "ForcingMode", "ModelConfig", "SimState",
    "Tendency", "advect", "advecting_field", "rhs", "pressure_solve",
]


class ModelKind(Enum):
    NSE = "nse"
    LERAY_ALPHA = "leray-alpha"
    LERAY_DECONV = "leray-deconv"
    MHD_DECONV = "mhd-deconv"


@dataclass(frozen=True)
class ForcingMode:
    """One spectral forcing mode: integer wavevector index, complex amplitude
    per component, optional exponential decay rate in time.

    The conjugate partner at -a is added automatically so the force is real.
    """

    a: tuple[int, ...]
    amplitude: tuple[complex, ...]
    decay_rate: float = 0.0


@dataclass(frozen=True)
class ForcingSpec:
    """Closed-form divergence-free forcing, evaluated spectrally each stage."""

    modes: tuple[ForcingMode, ...] = ()

    @classmethod
    def zero(cls) -> "ForcingSpec":
        return cls(())

    def is_zero(self) -> bool:
        return len(self.modes) == 0

    def validate(self, dim: int) -> None:
        for m in self.modes:
            if len(m.a) != dim or len(m.amplitude) != dim:
                raise InvariantViolation(
                    f"forcing mode {m.a} does not match dimension {dim}")
            if all(c == 0 for c in m.a):
                raise InvariantViolation("forcing at the zero mode is not allowed")
            k_dot = sum(a * amp for a, amp in zip(m.a, m.amplitude))
            scale = max(abs(complex(c)) for c in m.amplitude)
            if scale > 0 and abs(k_dot) > 1e-12 * scale * max(abs(c) for c in m.a):
                raise InvariantViolation(
                    f"forcing amplitude at {m.a} is not orthogonal to its wavevector")

    def evaluate(self, grid: WaveGrid, t: float) -> SpectralVectorField:
        """The force at time t on the half spectrum: each mode (indices taken
        mod n) keeps whichever of a and -a has its last index in [0, n/2]."""
        coeffs = np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex)
        for m in self.modes:
            amp = np.array(m.amplitude, dtype=complex)
            if m.decay_rate != 0.0:
                amp = amp * np.exp(-m.decay_rate * t)
            pos = tuple(int(c) % grid.n for c in m.a)
            neg = tuple((-int(c)) % grid.n for c in m.a)
            if pos[-1] <= grid.n // 2:
                coeffs[(slice(None),) + pos] += amp
            if neg[-1] <= grid.n // 2:
                coeffs[(slice(None),) + neg] += np.conj(amp)
        return SpectralVectorField(grid, coeffs)


@dataclass(frozen=True)
class ModelConfig:
    """Model kind, viscosities, filter parameters and forcing."""

    kind: ModelKind
    nu: float
    filter: FilterParams
    forcing: ForcingSpec = field(default_factory=ForcingSpec.zero)
    nu2: float | None = None
    unsafe_subcritical: bool = False

    def __post_init__(self):
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise InvariantViolation(
                f"nu must be positive and finite, got {self.nu}")
        if self.nu2 is not None and not math.isfinite(self.nu2):
            raise InvariantViolation(f"nu2 must be finite, got {self.nu2}")
        if self.kind is ModelKind.MHD_DECONV:
            if self.nu2 is None or self.nu2 <= 0:
                raise InvariantViolation(
                    "MHD model requires a positive magnetic diffusivity nu2")
            if not self.forcing.is_zero():
                raise InvariantViolation(
                    "the MHD deconvolution system is unforced; forcing must be zero")
        elif self.nu2 is not None:
            raise InvariantViolation("nu2 is only meaningful for the MHD model")
        if self.kind is not ModelKind.NSE and self.filter.theta < CRITICAL_THETA:
            if not self.unsafe_subcritical:
                raise CriticalityViolation(
                    f"theta = {self.filter.theta} is below the critical value "
                    f"{CRITICAL_THETA}; set unsafe_subcritical to run anyway")
            warnings.warn(
                f"running a regularized model with subcritical theta = "
                f"{self.filter.theta}", stacklevel=2)


@dataclass
class SimState:
    """Solution snapshot: time, velocity, optional magnetic field."""

    t: float
    u: SpectralVectorField
    b: SpectralVectorField | None = None

    def copy(self) -> "SimState":
        return SimState(self.t, self.u.copy(),
                        None if self.b is None else self.b.copy())


@dataclass
class Tendency:
    """Non-viscous tendency, same shape as the state fields."""

    du: SpectralVectorField
    db: SpectralVectorField | None = None


def _transport(g: WaveGrid, fields, rows, *, project: bool = False,
               peaks: list | None = None) -> list[SpectralVectorField]:
    """Dealiased half spectra of signed sums of ``w . grad v``, one field per
    row, Leray-projected when ``project`` is set.

    ``fields`` are distinct spectra; each row lists ``(i, p)`` terms
    ``fields[i] . grad fields[p]``, the first added, the others subtracted.
    Each term is taken in divergence form, ``ik_j (w_j v_q)^``: one inverse
    transform of the fields, the flux products (only ``j <= q`` for a row
    ``w . grad w``, whose flux is symmetric), one forward transform of all
    products, then the contraction with ``ik_j`` masked to the dealias band.
    When ``peaks`` is a list, the largest physical |component| of the
    transported fields is appended to it.
    """
    d = g.dim
    stack = fields[0] if len(fields) == 1 else np.concatenate(fields)
    phys = to_physical(g, stack).reshape((len(fields), d) + g.shape)
    if peaks is not None:
        moved = phys[sorted({p for row in rows for _, p in row})]
        peaks.append(float(max(moved.max(), -moved.min())))

    index = []   # per row: (j, q) -> position of w_j v_q among the products
    terms = []   # per product: its row's terms and (j, q)
    for row in rows:
        symmetric = len(row) == 1 and row[0][0] == row[0][1]
        pos = {}
        for j in range(d):
            for q in range(d):
                if symmetric and q < j:
                    pos[j, q] = pos[q, j]
                else:
                    pos[j, q] = len(terms)
                    terms.append((row, j, q))
        index.append(pos)
    prods = np.empty((len(terms),) + g.shape)
    for out, (((i, p), *minus), j, q) in zip(prods, terms):
        np.multiply(phys[i, j], phys[p, q], out=out)
        for m, r in minus:
            out -= phys[m, j] * phys[r, q]
    hat = from_physical(g, prods)

    ik = g.cached(("masked_ik",), lambda: g.ik * g.dealias_weight)
    rows_hat = np.empty((len(rows), d) + g.spectral_shape, dtype=complex)
    acc = np.empty(g.spectral_shape, dtype=complex)
    for row_hat, pos in zip(rows_hat, index):
        for q in range(d):
            np.multiply(ik[0], hat[pos[0, q]], out=row_hat[q])
            for j in range(1, d):
                row_hat[q] += np.multiply(ik[j], hat[pos[j, q]], out=acc)
    # Project while the work arrays are alive: freeing them first leaves a
    # large free block on top of the heap, which the allocator returns to
    # the system and every later call page-faults back in.
    return [leray_project(SpectralVectorField(g, row)) if project
            else SpectralVectorField(g, row) for row in rows_hat]


def _gradient_potential(g: WaveGrid, coeffs: np.ndarray) -> np.ndarray:
    """The zero-mean scalar whose gradient is the part of ``coeffs`` that the
    Leray projection removes: ``-i k . c / |k|^2``."""
    return -1j * np.sum(g.k * coeffs, axis=0) / g.k_sq_safe


def advect(w: SpectralVectorField, v: SpectralVectorField, *,
           project: bool = True,
           peaks: list | None = None) -> SpectralVectorField:
    """Transport term w . grad v, truncated to the grid's dealias band and
    (by default) Leray-projected.

    ``w`` must be solenoidal.  On a grid whose dealias cutoff is n/2 - 1 no
    product is truncated, so products alias (the negative control of the
    verification suite).  ``peaks`` receives the largest physical
    |component| of v (see :func:`rhs`).
    """
    g = w.grid
    if not g.same_as(v.grid):
        raise GridMismatch("advect requires both fields on the same grid")
    if w.coeffs is v.coeffs:
        fields, rows = (v.coeffs,), (((0, 0),),)
    else:
        fields, rows = (w.coeffs, v.coeffs), (((0, 1),),)
    return _transport(g, fields, rows, project=project, peaks=peaks)[0]


def advecting_field(u: SpectralVectorField, cfg: ModelConfig) -> SpectralVectorField:
    """The velocity that transports u under the given model kind."""
    if cfg.kind is ModelKind.NSE:
        return u
    if cfg.kind is ModelKind.LERAY_ALPHA:
        return filter_apply(u, cfg.filter)
    return deconvolve(u, cfg.filter)


def _mhd_rows(state: SimState, cfg: ModelConfig, project: bool = False,
              peaks: list | None = None) -> list[SpectralVectorField]:
    """MHD tendencies: momentum ``Hb.grad b - Hu.grad u`` and induction
    ``Hb.grad u - Hu.grad b``, with H the deconvolution; their fluxes are
    ``Hb (x) b - Hu (x) u`` and ``Hb (x) u - Hu (x) b``."""
    if state.b is None:
        raise MissingMagneticField("MHD model needs a magnetic field")
    u, b = state.u, state.b
    fields = (deconvolve(u, cfg.filter).coeffs,
              deconvolve(b, cfg.filter).coeffs, u.coeffs, b.coeffs)
    return _transport(u.grid, fields, (((1, 3), (0, 2)), ((1, 2), (0, 3))),
                      project=project, peaks=peaks)


def rhs(state: SimState, cfg: ModelConfig, *,
        peaks: list | None = None) -> Tendency:
    """Non-viscous tendency of the state (viscosity is handled exactly by the
    integrating-factor stepper).

    When ``peaks`` is a list, the largest physical |component| of u (and b)
    is appended to it, read off the transport kernel's own inverse
    transform; the stepper's CFL check uses it.
    """
    u = state.u
    if cfg.kind is ModelKind.MHD_DECONV:
        du, db = _mhd_rows(state, cfg, project=True, peaks=peaks)
        return Tendency(du=du, db=db)
    coeffs = advect(advecting_field(u, cfg), u, peaks=peaks).coeffs
    np.negative(coeffs, out=coeffs)
    if not cfg.forcing.is_zero():
        coeffs += cfg.forcing.evaluate(u.grid, state.t).coeffs
    return Tendency(du=SpectralVectorField(u.grid, coeffs))


def pressure_solve(state: SimState, cfg: ModelConfig) -> SpectralScalarField:
    """The zero-mean pressure of the projected dynamics.

    It is the potential of the gradient part that the projection removes
    from the unprojected momentum tendency; for MHD the magnetic pressure
    |b|^2/2 is subtracted, so the result is the fluid pressure.
    """
    g = state.u.grid
    if cfg.kind is ModelKind.MHD_DECONV:
        p_hat = _gradient_potential(g, _mhd_rows(state, cfg)[0].coeffs)
        b_phys = to_physical(g, state.b.coeffs)
        p_hat -= from_physical(g, 0.5 * np.sum(b_phys * b_phys, axis=0)) \
            * g.dealias_weight
    else:
        transport = advect(advecting_field(state.u, cfg), state.u,
                           project=False)
        p_hat = -_gradient_potential(g, transport.coeffs)
    return SpectralScalarField(g, p_hat)
