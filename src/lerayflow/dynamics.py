"""Model right-hand sides: projected transport and the regularized families.

The bilinear transport term ``B(w, v) = P_sigma(w . grad v)`` is evaluated
pseudo-spectrally in convective form: inverse-transform the advecting field
and all partial derivatives of v, multiply pointwise, transform back, truncate
to the dealias band, project.  With 2/3 dealiasing the quadratic product is
alias-free, so the discrete skew-symmetry identities
``(B(w, v), v) = 0`` and ``(B(w, v), z) = -(B(w, z), v)`` hold to roundoff
whenever the inputs live inside the dealias band.  Everything the energy
verification machinery asserts rests on this.

One kernel evaluates every transport term: the RHS, the MHD tendencies, the
pressure and the local-energy diagnostics.  The pressure is the potential of
the gradient part that the projection removes from the same unprojected
momentum tendency, ``p = -i k . N / |k|^2``; for MHD the induction row gives
the pseudo-pressure ``q`` the same way.  Under the 2/3 rule this equals the
flux-tensor form ``-k_i k_j (w_i v_j)^ / |k|^2`` in the retained band.

Model kinds differ only in which velocity advects:

* NSE          : u itself
* LerayAlpha   : the filtered velocity
* LerayDeconv  : the order-N deconvolved velocity (N = 0 equals LerayAlpha)
* MHDDeconv    : coupled velocity/magnetic system advected by the deconvolved
  fields; the magnetic-pressure gradient is absorbed by the projection.
"""

from __future__ import annotations

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
        return SpectralVectorField(grid, coeffs, solenoidal=True)


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
        if self.nu <= 0:
            raise InvariantViolation(f"nu must be positive, got {self.nu}")
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


def _transport(g: WaveGrid, ws, vs, rows, *, project: bool = False,
               weight=None) -> list[SpectralVectorField]:
    """Dealiased half spectra of signed sums of ``w . grad v``, one field per
    row, Leray-projected when ``project`` is set.

    ``ws`` and ``vs`` are the advecting and the transported spectra.  Each
    row lists ``(i, p)`` terms ``ws[i] . grad vs[p]``; the first is added,
    the others subtracted.  One inverse transform covers every ingredient
    and one forward transform every row; ``weight`` replaces the dealias
    mask (negative controls only).
    """
    d = g.dim
    half = np.empty(((len(ws) + d * len(vs)) * d,) + g.spectral_shape,
                    dtype=complex)
    for i, w in enumerate(ws):
        half[i * d: (i + 1) * d] = w
    for p, v in enumerate(vs):
        for j in range(d):
            s = (len(ws) + p * d + j) * d
            np.multiply(g.ik[j], v, out=half[s: s + d])
    phys = to_physical(g, half)
    w_phys = phys[: len(ws) * d].reshape((len(ws), d) + g.shape)
    grads = phys[len(ws) * d:].reshape((len(vs), d, d) + g.shape)

    prods = np.empty((len(rows), d) + g.shape)
    for j in range(d):
        for row, ((i, p), *minus) in zip(prods, rows):
            tmp = np.multiply(w_phys[i, j], grads[p, j], out=None if j else row)
            for m, q in minus:
                tmp -= w_phys[m, j] * grads[q, j]
            if j:
                row += tmp
    out = from_physical(g, prods)
    out *= g.dealias_weight if weight is None else weight
    # Project while the work arrays are alive: freeing them first leaves a
    # large free block on top of the heap, which the allocator returns to
    # the system and every later call page-faults back in.
    return [leray_project(SpectralVectorField(g, row)) if project
            else SpectralVectorField(g, row) for row in out]


def _gradient_potential(g: WaveGrid, coeffs: np.ndarray) -> np.ndarray:
    """The zero-mean scalar whose gradient is the part of ``coeffs`` that the
    Leray projection removes: ``-i k . c / |k|^2``."""
    return -1j * np.sum(g.k * coeffs, axis=0) / g.k_sq_safe


def advect(w: SpectralVectorField, v: SpectralVectorField, *,
           project: bool = True, dealias: bool = True) -> SpectralVectorField:
    """Transport term w . grad v, dealiased and (by default) Leray-projected.

    ``dealias=False`` exists for negative controls in the verification suite;
    production callers never disable it.
    """
    g = w.grid
    if not g.same_as(v.grid):
        raise GridMismatch("advect requires both fields on the same grid")
    return _transport(g, (w.coeffs,), (v.coeffs,), (((0, 0),),),
                      project=project,
                      weight=None if dealias else g.mode_weight)[0]


def advecting_field(u: SpectralVectorField, cfg: ModelConfig) -> SpectralVectorField:
    """The velocity that transports u under the given model kind."""
    if cfg.kind is ModelKind.NSE:
        return u
    if cfg.kind is ModelKind.LERAY_ALPHA:
        return filter_apply(u, cfg.filter)
    return deconvolve(u, cfg.filter)


def _mhd_rows(state: SimState, cfg: ModelConfig,
              project: bool = False) -> list[SpectralVectorField]:
    """MHD tendencies: momentum ``Hb.grad b - Hu.grad u`` and induction
    ``Hb.grad u - Hu.grad b``, with H the deconvolution."""
    if state.b is None:
        raise MissingMagneticField("MHD model needs a magnetic field")
    u, b = state.u, state.b
    ws = (deconvolve(u, cfg.filter).coeffs, deconvolve(b, cfg.filter).coeffs)
    return _transport(u.grid, ws, (u.coeffs, b.coeffs),
                      (((1, 1), (0, 0)), ((1, 0), (0, 1))), project=project)


def rhs(state: SimState, cfg: ModelConfig) -> Tendency:
    """Non-viscous tendency of the state (viscosity is handled exactly by the
    integrating-factor stepper)."""
    u = state.u
    if cfg.kind is ModelKind.MHD_DECONV:
        du, db = _mhd_rows(state, cfg, project=True)
        return Tendency(du=du, db=db)
    coeffs = advect(advecting_field(u, cfg), u).coeffs
    np.negative(coeffs, out=coeffs)
    if not cfg.forcing.is_zero():
        coeffs += cfg.forcing.evaluate(u.grid, state.t).coeffs
    return Tendency(du=SpectralVectorField(u.grid, coeffs, solenoidal=True))


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
        transport = _transport(g, (advecting_field(state.u, cfg).coeffs,),
                               (state.u.coeffs,), (((0, 0),),))[0]
        p_hat = -_gradient_potential(g, transport.coeffs)
    return SpectralScalarField(g, p_hat)
