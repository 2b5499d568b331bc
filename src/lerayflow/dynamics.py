"""Model right-hand sides: projected transport and the regularized families.

The bilinear transport term ``B(w, v) = P_sigma(w . grad v)`` is evaluated
pseudo-spectrally in convective form: inverse-transform the advecting field
and all partial derivatives of v, multiply pointwise, transform back, truncate
to the dealias band, project.  With 2/3 dealiasing the quadratic product is
alias-free, so the discrete skew-symmetry identities
``(B(w, v), v) = 0`` and ``(B(w, v), z) = -(B(w, z), v)`` hold to roundoff
whenever the inputs live inside the dealias band.  Everything the energy
verification machinery asserts rests on this.

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


def advect(w: SpectralVectorField, v: SpectralVectorField, *,
           project: bool = True, dealias: bool = True) -> SpectralVectorField:
    """Transport term w . grad v, dealiased and (by default) Leray-projected.

    ``dealias=False`` exists for negative controls in the verification suite;
    production callers never disable it.
    """
    g = w.grid
    if not g.same_as(v.grid):
        raise GridMismatch("advect requires both fields on the same grid")
    d = g.dim

    # Batch all physical-space ingredients into a single inverse transform:
    # the d advecting components followed by the d*d derivatives of v.
    half = np.empty((d + d * d,) + g.spectral_shape, dtype=complex)
    half[:d] = w.coeffs
    for j in range(d):
        np.multiply(g.ik[j], v.coeffs, out=half[d + j * d: d + (j + 1) * d])
    phys = to_physical(g, half)
    w_phys, dv = phys[:d], phys[d:]

    prod = w_phys[0] * dv[:d]
    for j in range(1, d):
        prod += w_phys[j] * dv[j * d: (j + 1) * d]

    result = SpectralVectorField(g, from_physical(g, prod))
    out = leray_project(result) if project else result
    out.coeffs *= g.dealias_weight if dealias else g.mode_weight
    return out


def advecting_field(u: SpectralVectorField, cfg: ModelConfig) -> SpectralVectorField:
    """The velocity that transports u under the given model kind."""
    if cfg.kind is ModelKind.NSE:
        return u
    if cfg.kind is ModelKind.LERAY_ALPHA:
        return filter_apply(u, cfg.filter)
    return deconvolve(u, cfg.filter)


def _mhd_tendency(state: SimState, cfg: ModelConfig) -> Tendency:
    """Coupled MHD tendencies with all transforms batched.

    Momentum: -(Hu.grad)u + (Hb.grad)b; the projection absorbs every pressure
    gradient including the magnetic |b|^2/2.  Induction: -(Hu.grad)b +
    (Hb.grad)u, projected defensively (divergence-free up to roundoff).
    """
    if state.b is None:
        raise MissingMagneticField("MHD model needs a magnetic field")
    u, b = state.u, state.b
    g = u.grid
    d = g.dim
    hu = deconvolve(u, cfg.filter)
    hb = deconvolve(b, cfg.filter)

    half = np.empty((2 * d + 2 * d * d,) + g.spectral_shape, dtype=complex)
    half[:d] = hu.coeffs
    half[d:2 * d] = hb.coeffs
    off_u, off_b = 2 * d, 2 * d + d * d
    for j in range(d):
        np.multiply(g.ik[j], u.coeffs, out=half[off_u + j * d: off_u + (j + 1) * d])
        np.multiply(g.ik[j], b.coeffs, out=half[off_b + j * d: off_b + (j + 1) * d])
    phys = to_physical(g, half)
    hu_p, hb_p = phys[:d], phys[d:2 * d]
    grad_u, grad_b = phys[off_u:off_b], phys[off_b:]

    prods = np.zeros((2 * d,) + g.shape)
    for j in range(d):
        prods[:d] += hb_p[j] * grad_b[j * d: (j + 1) * d] \
            - hu_p[j] * grad_u[j * d: (j + 1) * d]
        prods[d:] += hb_p[j] * grad_u[j * d: (j + 1) * d] \
            - hu_p[j] * grad_b[j * d: (j + 1) * d]

    out = from_physical(g, prods)
    out *= g.dealias_weight
    du = leray_project(SpectralVectorField(g, out[:d]))
    db = leray_project(SpectralVectorField(g, out[d:]))
    return Tendency(du=du, db=db)


def rhs(state: SimState, cfg: ModelConfig) -> Tendency:
    """Non-viscous tendency of the state (viscosity is handled exactly by the
    integrating-factor stepper)."""
    if cfg.kind is ModelKind.MHD_DECONV:
        return _mhd_tendency(state, cfg)
    u = state.u
    coeffs = advect(advecting_field(u, cfg), u).coeffs
    np.negative(coeffs, out=coeffs)
    if not cfg.forcing.is_zero():
        coeffs += cfg.forcing.evaluate(u.grid, state.t).coeffs
    return Tendency(du=SpectralVectorField(u.grid, coeffs, solenoidal=True))


def _product_tensor_divergence(g: WaveGrid, w_phys: np.ndarray,
                               v_phys: np.ndarray) -> np.ndarray:
    """k_i k_j FFT[w_i v_j], dealiased; the double divergence of the flux tensor."""
    d = g.dim
    prods = np.empty((d * d,) + g.shape)
    for i in range(d):
        for j in range(d):
            prods[i * d + j] = w_phys[i] * v_phys[j]
    hat = from_physical(g, prods)
    hat *= g.dealias_weight
    acc = np.zeros(g.spectral_shape, dtype=complex)
    for i in range(d):
        for j in range(d):
            acc += g.k[i] * g.k[j] * hat[i * d + j]
    return acc


def pressure_solve(state: SimState, cfg: ModelConfig) -> SpectralScalarField:
    """Recover the zero-mean pressure consistent with the projected dynamics.

    Solves the spectral Poisson problem for minus the double divergence of
    the advective flux tensor; for MHD the Lorentz flux and the explicit
    magnetic-pressure term are included, so the result is the fluid pressure.
    """
    g = state.u.grid
    d = g.dim
    if cfg.kind is ModelKind.MHD_DECONV:
        if state.b is None:
            raise MissingMagneticField("MHD model needs a magnetic field")
        fields = (state.u, deconvolve(state.u, cfg.filter),
                  state.b, deconvolve(state.b, cfg.filter))
    else:
        fields = (state.u, advecting_field(state.u, cfg))
    phys = to_physical(g, np.concatenate([f.coeffs for f in fields]))
    dd = _product_tensor_divergence(g, phys[d:2 * d], phys[:d])
    if cfg.kind is ModelKind.MHD_DECONV:
        b_phys = phys[2 * d:3 * d]
        dd -= _product_tensor_divergence(g, phys[3 * d:], b_phys)
    p_hat = -dd / g.k_sq_safe
    if cfg.kind is ModelKind.MHD_DECONV:
        # subtract the magnetic pressure |b|^2 / 2 (dealiased, zero-mean)
        p_hat -= from_physical(g, 0.5 * np.sum(b_phys * b_phys, axis=0))
    # the dealias weight is zero at the mean mode and on the Nyquist planes
    p_hat *= g.dealias_weight
    return SpectralScalarField(g, p_hat)
