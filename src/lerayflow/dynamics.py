"""Model right-hand sides: projected transport and the regularized families.

The transport term ``B(w, v) = P_sigma(w . grad v)`` is evaluated
pseudo-spectrally in divergence form, ``ik_j (w_j v_q)^``: inverse-transform
w and v, multiply pointwise into the flux ``w (x) v``, transform back,
contract with ``ik``, truncate to the dealias band, project.  In the retained
band it equals the convective form ``(w_j d_j v_q)^``: the two differ by
``v div w``, zero for a spectrally solenoidal w, and with 2/3 dealiasing
every quadratic product is alias-free there (Orszag 1971; Zang 1991).  So
the skew-symmetry identities ``(B(w, v), v) = 0`` and ``(B(w, v), z) =
-(B(w, z), v)``, on which the energy verification rests, hold to roundoff
for inputs inside the dealias band.  The fields alone are transformed, not
the d^2 derivatives of v.  A projected term drops ``F_ll I`` from its flux F
(l the last axis; Basdevant, J. Comput. Phys. 50, 1983), as ``P(ik c) = 0``
for any scalar c and the dealias mask is a scalar per mode.

One kernel evaluates every transport term: the RHS (one projected row per
field), the pressure and the local-energy diagnostics, which hold the
sources' samples and call its flux step alone.  Each source is inverse
transformed on its own: a field as it is, a smoothed field from one d-vector
buffer that the sources take in turn.  The flux step goes chunk by chunk
(``_flux_plan``): one output component's products (all of a symmetric
flux's) are formed, transformed and contracted before the next's, each
product once and in the same arithmetic order.  Its work arrays (that
buffer, the widest chunk's product rows and the spectral work) belong to the
calling thread (``WaveGrid.work``), so threads can share a grid; every call
of a thread overwrites its arrays, and nothing the kernel returns aliases
them: its rows are fresh, or the ``out`` given.

The kind table
``_KIND_ROWS`` is the one place where model kinds differ; it gives the rows
N of ``d/dt fields = -P N + f`` as flux tensors F, ``N = ik . F``:

* NSE: ``u (x) u``; LerayAlpha, LerayDeconv: ``Hu (x) u``, H the filter or
  the order-N deconvolution (N = 0 equals LerayAlpha);
* MHDDeconv: fields (u, b), H the deconvolution, ``Hu (x) u - Hb (x) b`` and
  ``Hu (x) b - Hb (x) u``.

The gradient part that the projection removes from a row is ``-grad p``
with ``p = -k_j k_q F_jq / |k|^2``, which reads only the symmetric part of
F.  From the momentum row it is the pressure (less the magnetic pressure
|b|^2/2 when b is present), from the induction row the MHD pseudo-pressure q.
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
                     project_in_place, spectral_work, to_physical)
from .filtering import CRITICAL_THETA, FilterParams, smoothing_symbol
from .grid import WaveGrid

__all__ = [
    "ModelKind", "ForcingSpec", "ForcingMode", "ModelConfig", "SimState",
    "advect", "rhs", "pressure_solve",
]


class ModelKind(Enum):
    NSE = "nse"
    LERAY_ALPHA = "leray-alpha"
    LERAY_DECONV = "leray-deconv"
    MHD_DECONV = "mhd-deconv"


@dataclass(frozen=True)
class ForcingMode:
    """One spectral forcing mode: integer wavevector index, complex amplitude
    per component, optional exponential decay rate in time.  The conjugate
    partner at -a is added automatically so the force is real."""

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

    def check_stored(self, grid: WaveGrid) -> None:
        """:meth:`validate`, and each mode as :meth:`evaluate` stores it on
        ``grid`` (indices mod n) must lie on retained modes other than the
        mean, and there ``max |k . f| <= 1e-12 max |k| |f|``."""
        self.validate(grid.dim)
        outside = ~grid.mode_mask | (grid.a_sq == 0)
        for m in self.modes:
            f = ForcingSpec((m,)).evaluate(grid, 0.0).coeffs
            div = np.abs(np.sum(grid.k * f, axis=0)).max()
            if np.any(f[:, outside]) or div > 1e-12 * np.max(
                    grid.k_mag * np.linalg.norm(f, axis=0)):
                raise InvariantViolation(
                    f"forcing mode {m.a} aliases on the n = {grid.n} grid "
                    f"(indices mod n) to a force that is not divergence-free "
                    f"on retained modes")

    def evaluate(self, grid: WaveGrid, t: float) -> SpectralVectorField:
        """The force at time t on the half spectrum: each mode (indices taken
        mod n) keeps whichever of a and -a has its last index in [0, n/2]."""
        coeffs = np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex)
        for m in self.modes:
            amp = np.array(m.amplitude, dtype=complex)
            if m.decay_rate != 0.0:
                amp = amp * np.exp(-m.decay_rate * t)
            for sign, value in ((1, amp), (-1, np.conj(amp))):
                index = tuple(sign * int(c) % grid.n for c in m.a)
                if index[-1] <= grid.n // 2:
                    coeffs[(slice(None),) + index] += value
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


@functools.cache
def _flux_plan(d: int, rows: tuple, potential: bool = False):
    """:func:`_flux`'s bookkeeping per (d, rows, potential): the moved
    fields, the chunks, one per output component or per symmetric flux
    (whose components share products): their products as ``(ufunc, a, b)``
    terms, and per component ``(row, component, [(symbol, product)])``; and
    the most products of one chunk."""
    l, products, plan = d - 1, [], []
    pairs = list(itertools.combinations_with_replacement(range(d), 2))
    for r, row in enumerate(rows):
        symmetric = potential or (len(row) == 1 and row[0][0] == row[0][1])
        pos = {}
        for j, q in pairs if potential else itertools.product(range(d), repeat=2):
            if not potential and symmetric and q < j:
                pos[j, q] = pos[q, j]
            elif potential or not j == q == l:  # F_ll is never formed
                # + first term - other terms: F_jq + F_qj (j <= q) for the
                # potential, F_jj - F_ll on a projected diagonal, else F_jq
                signs = [(j, q, 1)] + ([(q, j, 1)] * (j != q) if potential else
                                       [(l, l, -1)] * (j == q))
                pos[j, q] = len(products)
                products.append([(np.add if (s > 0) == (n == 0) else np.subtract,
                                  (i, a), (p, b))
                                 for a, b, s in signs for n, (i, p) in enumerate(row)])
        comps = [(0, list(enumerate(pos.values())))] if potential else \
            [(q, [(j, pos[j, q]) for j in range(d) if (j, q) in pos])
             for q in range(d)]
        for chunk in [comps] if symmetric else [[c] for c in comps]:
            used = sorted({n for _, terms in chunk for _, n in terms})
            plan.append(([products[n] for n in used],
                         [(r, q, [(j, used.index(n)) for j, n in terms])
                          for q, terms in chunk]))
    return (sorted({p for row in rows for _, p in row}), plan,
            max(len(products) for products, _ in plan))


def _transport(g: WaveGrid, sources, rows, forcing: ForcingSpec = ForcingSpec(),
               t: float = 0.0, *, peaks: list | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Dealiased, Leray-projected half spectra of signed sums of
    ``-w . grad v`` (the tendency's sign), one per row, into ``out`` when
    given, plus the ``forcing`` at time t on row 0.  ``sources`` are
    ``(coeffs, symbol)``: spectra times smoothing symbols (None for 1); row
    terms ``(i, p)`` are ``w_i . grad v_p``, the first added, the others
    subtracted.  Two steps: :func:`_source_samples`, the inverse transforms,
    and :func:`_flux`, which callers holding those samples (the pressure and
    the local-energy residual) call alone."""
    out = _flux(g, _source_samples(g, sources), rows, peaks=peaks, out=out)
    if not forcing.is_zero():
        out[0] += forcing.evaluate(g, t).coeffs
    return out


def _source_samples(g: WaveGrid, sources) -> list[np.ndarray]:
    """Physical samples of :func:`_transport`'s sources, one ``(d, *g.shape)``
    array each, from one inverse transform per source: of the spectrum
    itself, or of the spectrum times its symbol, written into the calling
    thread's one d-vector source buffer."""
    phys = []
    for coeffs, symbol in sources:
        if symbol is not None:
            coeffs = np.multiply(coeffs, symbol, out=g.work(
                "source", (g.dim,) + g.spectral_shape, complex))
        phys.append(to_physical(g, coeffs))
    return phys


def _flux(g: WaveGrid, phys: list, rows, *, potential: bool = False,
          peaks: list | None = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """:func:`_transport` from the sources' samples ``phys``, or with
    ``potential`` the scalar p of the module notes per row, into ``out`` when
    given: per chunk of :func:`_flux_plan`, one forward transform and the
    contraction with a grid-cached symbol masked to the dealias band, ``-ik_j``
    or ``-k_j k_q / |k|^2``.  ``peaks`` (a list) gets the largest physical
    |component| of the transported fields."""
    d = g.dim
    moved, chunks, width = _flux_plan(d, rows, potential)
    if peaks is not None:
        peaks.append(float(max(max(phys[p].max(), -phys[p].min())
                               for p in moved)))
    if potential:
        symbol = g.cached(("potential",), lambda: np.stack([
            -g.k[j] * g.k[q] / g.k_sq_safe * g.dealias_weight
            for j, q in itertools.combinations_with_replacement(range(d), 2)]))
    else:
        symbol = g.cached(("minus_masked_ik",),
                          lambda: -(1j * g.k) * g.dealias_weight)
    # The calling thread's work arrays: rows for the widest chunk's products
    # and one more, and an accumulator.
    work = g.work("products", (width + 1,) + g.shape)
    acc = spectral_work(g)[0]
    for products, components in chunks:
        for i, ((_, (s, a), (p, b)), *rest) in enumerate(products):
            np.multiply(phys[s][a], phys[p][b], out=work[i])
            for op, (s, a), (p, b) in rest:  # the next row is free until used
                op(work[i], np.multiply(phys[s][a], phys[p][b],
                                        out=work[i + 1]), out=work[i])
        hat = from_physical(g, work[:len(products)])
        if out is None:
            # A fresh ``out`` (a step's new state) is made while the samples
            # and the first chunk's spectra are alive, so it lands above
            # them: freed, they leave room below it, not a heap top that
            # the allocator gives back and the next stage faults in again.
            out = np.empty((len(rows), 1 if potential else d)
                           + g.spectral_shape, dtype=complex)
        for r, q, ((j, n), *rest) in components:
            comp = out[r, q]
            np.multiply(symbol[j], hat[n], out=comp)
            for j, n in rest:
                comp += np.multiply(symbol[j], hat[n], out=acc)
        del hat  # one chunk's spectra at a time
    if not potential:
        for row_hat in out:
            project_in_place(g, row_hat)
    return out


def advect(w: SpectralVectorField, v: SpectralVectorField) -> SpectralVectorField:
    """Transport term P(w . grad v) (w solenoidal), truncated to the grid's
    dealias band and Leray-projected.  With a dealias cutoff of n/2 - 1
    products alias (the verification suite's negative control)."""
    g = w.grid
    if not g.same_as(v.grid):
        raise GridMismatch("advect requires both fields on the same grid")
    sources = [(w.coeffs, None)] + [(v.coeffs, None)] * (v.coeffs is not w.coeffs)
    minus = _transport(g, sources, (((0, len(sources) - 1),),))[0]
    return SpectralVectorField(g, np.negative(minus, out=minus))


# The kind table (module notes): per kind, the sources (field, smoothed) of its
# rows, u being 0 and b 1, and each row's (w, v) terms as source positions.
_KIND_ROWS = {
    ModelKind.NSE: (((0, False),), (((0, 0),),)),
    ModelKind.LERAY_ALPHA: (((0, True), (0, False)), (((0, 1),),)),
    ModelKind.LERAY_DECONV: (((0, True), (0, False)), (((0, 1),),)),
    ModelKind.MHD_DECONV: (((0, True), (0, False), (1, True), (1, False)),
                           (((0, 1), (2, 3)), ((0, 3), (2, 1)))),
}


def _kind_table(state: SimState, cfg: ModelConfig) -> tuple[list, tuple]:
    """The kind table's sources, as :func:`_transport` takes them, and rows."""
    if (state.b is None) == (cfg.kind is ModelKind.MHD_DECONV):
        raise MissingMagneticField("MHD model needs a magnetic field") \
            if state.b is None else InvariantViolation(
                f"model kind {cfg.kind.value} has no magnetic field")
    if state.b is not None and not state.b.grid.same_as(state.u.grid):
        raise GridMismatch("the magnetic field is not on the velocity's grid")
    symbol = None if cfg.kind is ModelKind.NSE else smoothing_symbol(
        state.u.grid, cfg.filter,
        deconvolution=cfg.kind is not ModelKind.LERAY_ALPHA)
    sources, rows = _KIND_ROWS[cfg.kind]
    return [(state.fields[i].coeffs, symbol if smoothed else None)
            for i, smoothed in sources], rows


def rhs(state: SimState, cfg: ModelConfig) -> list[SpectralVectorField]:
    """Non-viscous tendency of the state, one projected row per entry of
    ``state.fields`` (the integrating-factor stepper takes viscosity
    exactly)."""
    g = state.u.grid
    rows = _transport(g, *_kind_table(state, cfg), cfg.forcing, state.t)
    return [SpectralVectorField(g, row) for row in rows]


def pressure_solve(state: SimState, cfg: ModelConfig) -> SpectralScalarField:
    """The zero-mean pressure of the projected dynamics: the potential of the
    momentum row (module notes), less the magnetic pressure |b|^2/2 when b
    is present, so the result is the fluid pressure.  The kernel's inverse
    transforms serve both: b's samples are the kernel's own."""
    g = state.u.grid
    sources, rows = _kind_table(state, cfg)
    phys = _source_samples(g, sources)
    p_hat = _flux(g, phys, rows[:1], potential=True)[0, 0]
    if state.b is not None:
        b_phys = phys[rows[0][1][1]]  # v of the momentum row's Lorentz term
        p_hat -= from_physical(g, 0.5 * np.sum(b_phys * b_phys, axis=0)) \
            * g.dealias_weight
    return SpectralScalarField(g, p_hat)
