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
needs only d(d+1)/2 products when w is v.  A projected term drops ``F_ll I``
from its flux F (l the last axis; Basdevant, J. Comput. Phys. 50, 1983), as
``P(ik c) = 0`` for any scalar c and the dealias mask is a scalar per mode;
an unprojected term keeps it, its gradient part being the pressure.

One kernel evaluates every transport term: the RHS, the MHD tendencies, the
pressure and the local-energy diagnostics.  The kind table
(:func:`_kind_table`) is the one place where model kinds differ; it gives
the rows N of ``d/dt fields = -P N + f`` as flux tensors F, ``N = ik . F``:

* NSE: ``u (x) u``; LerayAlpha, LerayDeconv: ``Hu (x) u``, H the filter or
  the order-N deconvolution (N = 0 equals LerayAlpha);
* MHDDeconv: fields (u, b), H the deconvolution, ``Hu (x) u - Hb (x) b`` and
  ``Hu (x) b - Hb (x) u``.

The pressure ``p = i k . N_u / |k|^2`` is the potential of the gradient part
that the projection removes from the momentum row, less the magnetic
pressure |b|^2/2 when b is present; the induction row gives the MHD
pseudo-pressure ``q`` the same way.
"""

from __future__ import annotations

import functools
import itertools
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

    @property
    def fields(self) -> list[SpectralVectorField]:
        """[u], or [u, b] when a magnetic field is present."""
        return [self.u] if self.b is None else [self.u, self.b]

    def copy(self) -> "SimState":
        return SimState(self.t, *(f.copy() for f in self.fields))


@dataclass
class Tendency:
    """Non-viscous tendency, same shape as the state fields."""

    du: SpectralVectorField
    db: SpectralVectorField | None = None


@functools.cache
def _flux_plan(d: int, rows: tuple, project: bool):
    """:func:`_transport`'s bookkeeping per (d, rows, project): moved fields,
    products as ``(ufunc, a, b)`` terms, ``(j, product)`` contraction pairs."""
    l, products, sums = d - 1, [], []
    for row in rows:
        pos = {}
        for j, q in itertools.product(range(d), repeat=2):
            if len(row) == 1 and row[0][0] == row[0][1] and q < j:
                pos[j, q] = pos[q, j]
            elif not (project and j == q == l):  # F_ll is never formed
                pos[j, q] = len(products)
                # + first term - other terms; a projected F_jj - F_ll
                signs = [(j, q, 1)] + [(l, l, -1)] * (project and j == q)
                products.append([(np.add if (s > 0) == (n == 0)
                                  else np.subtract, (i, a), (p, b))
                                 for a, b, s in signs
                                 for n, (i, p) in enumerate(row)])
        sums.append([[(j, pos[j, q]) for j in range(d) if (j, q) in pos]
                     for q in range(d)])
    return sorted({p for row in rows for _, p in row}), products, sums


def _transport(g: WaveGrid, fields, rows, *, project: bool = False,
               peaks: list | None = None) -> list[SpectralVectorField]:
    """Dealiased half spectra of signed sums of ``w . grad v``, one field per
    row, Leray-projected when ``project`` is set.

    ``fields`` are distinct spectra; each row lists ``(i, p)`` terms
    ``fields[i] . grad fields[p]``, the first added, the others subtracted.
    Each term is taken in divergence form, ``ik_j (w_j v_q)^``: one inverse
    transform of the fields, the flux products of :func:`_flux_plan`, one
    forward transform of all products, then the contraction with ``ik_j``
    masked to the dealias band.  A projected row drops ``F_ll I``, which the
    projection removes exactly; an unprojected row keeps the trace for the
    pressure (module notes).  When ``peaks`` is a list, the largest physical
    |component| of the transported fields is appended to it.
    """
    d = g.dim
    moved, products, sums = _flux_plan(d, rows, project)
    stack = fields[0] if len(fields) == 1 else np.concatenate(fields)
    phys = to_physical(g, stack).reshape((len(fields), d) + g.shape)
    if peaks is not None:
        peaks.append(float(max(max(phys[p].max(), -phys[p].min())
                               for p in moved)))

    prods = np.empty((len(products),) + g.shape)
    for out, ((_, a, b), *rest) in zip(prods, products):
        np.multiply(phys[a], phys[b], out=out)
        for op, a, b in rest:
            op(out, phys[a] * phys[b], out=out)
    hat = from_physical(g, prods)

    ik = g.cached(("masked_ik",), lambda: g.ik * g.dealias_weight)
    rows_hat = np.empty((len(rows), d) + g.spectral_shape, dtype=complex)
    acc = np.empty(g.spectral_shape, dtype=complex)
    for row_hat, row_sums in zip(rows_hat, sums):
        for out, ((j, n), *rest) in zip(row_hat, row_sums):
            np.multiply(ik[j], hat[n], out=out)
            for j, n in rest:
                out += np.multiply(ik[j], hat[n], out=acc)
    # Project while the work arrays are alive: freeing them first leaves a
    # large free block on top of the heap, which the allocator returns to
    # the system and every later call page-faults back in.
    return [leray_project(SpectralVectorField(g, row)) if project
            else SpectralVectorField(g, row) for row in rows_hat]


def _gradient_potential(g: WaveGrid, coeffs: np.ndarray) -> np.ndarray:
    """The zero-mean scalar whose gradient is the part of ``coeffs`` that the
    Leray projection removes: ``-i k . c / |k|^2``."""
    return -1j * np.sum(g.k * coeffs, axis=0) / g.k_sq_safe


def _indexed(terms) -> tuple[list[np.ndarray], tuple]:
    """The distinct spectra of rows of ``(w, v)`` terms ``w . grad v``, and
    the rows as :func:`_transport` takes them: a field that appears twice
    (as in ``u . grad u``) is transformed once."""
    index: dict = {}  # id(coeffs) -> (position, coeffs), in first-use order

    def at(f: SpectralVectorField) -> int:
        return index.setdefault(id(f.coeffs), (len(index), f.coeffs))[0]

    rows = tuple(tuple((at(w), at(v)) for w, v in row) for row in terms)
    return [c for _, c in index.values()], rows


def advect(w: SpectralVectorField, v: SpectralVectorField, *,
           project: bool = True) -> SpectralVectorField:
    """Transport term w . grad v, truncated to the grid's dealias band and
    (by default) Leray-projected.

    ``w`` must be solenoidal.  On a grid whose dealias cutoff is n/2 - 1 no
    product is truncated, so products alias (the negative control of the
    verification suite).
    """
    g = w.grid
    if not g.same_as(v.grid):
        raise GridMismatch("advect requires both fields on the same grid")
    return _transport(g, *_indexed([[(w, v)]]), project=project)[0]


def advecting_field(u: SpectralVectorField, cfg: ModelConfig) -> SpectralVectorField:
    """The velocity that transports u under the given model kind."""
    if cfg.kind is ModelKind.NSE:
        return u
    if cfg.kind is ModelKind.LERAY_ALPHA:
        return filter_apply(u, cfg.filter)
    return deconvolve(u, cfg.filter)


def _kind_table(state: SimState, cfg: ModelConfig) -> tuple[list, tuple]:
    """The transport rows N of ``d/dt state.fields = -P N + f``, with their
    distinct spectra (module notes); the one place where model kinds differ."""
    u, b = state.u, state.b
    if cfg.kind is not ModelKind.MHD_DECONV:
        if b is not None:
            raise InvariantViolation(
                f"model kind {cfg.kind.value} has no magnetic field")
        return _indexed([[(advecting_field(u, cfg), u)]])
    if b is None:
        raise MissingMagneticField("MHD model needs a magnetic field")
    hu, hb = deconvolve(u, cfg.filter), deconvolve(b, cfg.filter)
    return _indexed([[(hu, u), (hb, b)], [(hu, b), (hb, u)]])


def rhs(state: SimState, cfg: ModelConfig, *,
        peaks: list | None = None) -> Tendency:
    """Non-viscous tendency of the state (viscosity is handled exactly by the
    integrating-factor stepper).

    When ``peaks`` is a list, the largest physical |component| of u (and b)
    is appended to it, read off the transport kernel's own inverse
    transform; the stepper's CFL check uses it.
    """
    g = state.u.grid
    rows = _transport(g, *_kind_table(state, cfg), project=True, peaks=peaks)
    for row in rows:
        np.negative(row.coeffs, out=row.coeffs)
    if not cfg.forcing.is_zero():
        rows[0].coeffs += cfg.forcing.evaluate(g, state.t).coeffs
    return Tendency(*rows)


def pressure_solve(state: SimState, cfg: ModelConfig) -> SpectralScalarField:
    """The zero-mean pressure of the projected dynamics.

    It is minus the potential of the gradient part that the projection
    removes from the unprojected momentum row N_u; with a magnetic field the
    magnetic pressure |b|^2/2 is subtracted, so the result is the fluid
    pressure.
    """
    g = state.u.grid
    p_hat = -_gradient_potential(
        g, _transport(g, *_kind_table(state, cfg))[0].coeffs)
    if state.b is not None:
        b_phys = to_physical(g, state.b.coeffs)
        p_hat -= from_physical(g, 0.5 * np.sum(b_phys * b_phys, axis=0)) \
            * g.dealias_weight
    return SpectralScalarField(g, p_hat)
