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

One kernel, ``_Transport``, evaluates every transport term: the RHS (one
projected row per field), the pressure and the local-energy diagnostics,
which hold the sources' samples and call its flux step alone.  It is made
once per caller, once per run for the stepper, and resolves then the flux
plan (``_flux_plan``), the contraction and smoothing symbols and the FFT
worker count.  Each source is inverse transformed on its own: a field as it
is, a smoothed field from one d-vector buffer that the sources take in turn.
The flux step goes chunk by chunk: one output component's products (all of
a symmetric flux's) are formed, transformed and contracted before the
next's, each product once and in the same arithmetic order.  Its per-mode
work (the smoothing multiply, contraction, projection and forcing) runs on
the compact dealias band (``WaveGrid.gather``), and its output is band
rows alone, into the caller's ``out`` or a fresh array; a caller that wants
half spectra scatters them (``WaveGrid.scatter``), zero outside the band.
Its input is half spectra (a state's own arrays, any spectrum of the public
entry points) or band arrays.  Its work arrays (that buffer, the widest
chunk's product rows and their band rows) belong to the calling thread
(``WaveGrid.work``), so threads can share a grid; every call of a thread
overwrites its arrays, and nothing the kernel returns aliases them.

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
                     project_in_place, to_physical)
from .filtering import CRITICAL_THETA, FilterParams, smoothing_symbol
from .grid import WaveGrid, worker_count

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

    def check_stored(self, grid: WaveGrid) -> None:
        """Each mode has ``grid.dim`` indices and amplitudes, and as
        :meth:`evaluate` stores it on ``grid`` (indices mod n) lies off the
        mean, inside the dealias band and there ``max |k . f| <= 1e-12 max
        |k| |f|``: the transport identities hold only inside the band."""
        outside = ~grid.dealias_mask | (grid.a_sq == 0)
        for m in self.modes:
            if len(m.a) != grid.dim or len(m.amplitude) != grid.dim:
                raise InvariantViolation(
                    f"forcing mode {m.a} does not match dimension {grid.dim}")
            f = ForcingSpec((m,)).evaluate(grid, 0.0).coeffs
            div = np.abs(np.sum(grid.k_complex * f, axis=0)).max()
            if np.any(f[:, outside]) or div > 1e-12 * np.max(
                    grid.k_mag * np.linalg.norm(f, axis=0)):
                raise InvariantViolation(
                    f"forcing mode {m.a} is not, as the n = {grid.n} grid "
                    f"stores it (indices mod n), a divergence-free force off "
                    f"the mean and inside the dealias band |a_j| <= "
                    f"{grid.dealias_cutoff}")

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
    """:class:`_Transport`'s bookkeeping per (d, rows, potential): the moved
    fields, the chunks, one per output component or per symmetric flux
    (whose components share products): their products as ``(ufunc, a, b)``
    terms, and per component ``(row, component, [(symbol, product)])``; and
    the most products of one chunk (0 without rows)."""
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
            max((len(products) for products, _ in plan), default=0))


class _Transport:
    """The transport kernel (module notes) of one grid, source list and row
    table.  ``sources`` are ``(field, symbol)``: a position in the spectra a
    call passes and the smoothing symbol to multiply it by (None for 1); row
    terms ``(i, p)`` are ``w_i . grad v_p`` between source positions, the
    first added, the others subtracted.  A call gives the dealiased,
    Leray-projected ``-w . grad v`` per row plus the ``forcing`` on row 0,
    or with ``potential`` (a row index) the scalar p of that row alone, none
    if the table has no such row: always compact band rows
    (:meth:`WaveGrid.gather`), which a caller that wants half spectra
    scatters (:meth:`WaveGrid.scatter`)."""

    def __init__(self, g: WaveGrid, sources, rows, *,
                 potential: int | None = None, forcing=ForcingSpec()):
        d, self.project = g.dim, potential is None
        self.grid, self.sources, self.rows = g, sources, rows
        rows = rows if self.project else rows[potential:potential + 1]
        self.moved, self.chunks, self.width = _flux_plan(d, rows,
                                                         not self.project)
        if self.project:  # the contraction, on the dealias band
            self.symbol = g.cached(("minus_ik",), lambda: -(1j * g.k), True)
        else:
            self.symbol = g.cached(("potential",), lambda: np.stack([
                -g.k[j] * g.k[q] / g.k_sq_safe for j, q in
                itertools.combinations_with_replacement(range(d), 2)]), True)
        self.workers = worker_count()
        self.shape = (len(rows), d if self.project else 1) + g.band_shape
        # band work rows: a smoothed source, or a chunk's spectra and a sum
        self.band = (max(self.width + 1, d),) + g.band_shape
        self.forcing = None if forcing.is_zero() else forcing

    def __call__(self, fields, t: float = 0.0, *, peaks: list | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
        """The rows for the d-vector spectra ``fields`` at time t:
        :meth:`samples`, then :meth:`flux`.  ``out`` may be ``fields``
        itself, as every source is read before a row is written."""
        return self.flux(self.samples(fields), t, peaks=peaks, out=out)

    def samples(self, fields) -> list[np.ndarray]:
        """Physical samples of the sources, one ``(d, *g.shape)`` array each,
        of half spectra as they are, or of band arrays and smoothed bands
        scattered into the source buffer, which is zero outside the band."""
        g, phys = self.grid, []
        for i, symbol in self.sources:
            coeffs = fields[i]
            full = coeffs.shape[1:] == g.spectral_shape
            if symbol is not None:
                band = g.work("band", self.band, complex)[:g.dim]
                coeffs = np.multiply(g.gather(coeffs, out=band) if full
                                     else coeffs, symbol, out=band)
            if symbol is not None or not full:
                coeffs = g.scatter(coeffs, out=g.work(
                    "source", (g.dim,) + g.spectral_shape, complex))
            phys.append(to_physical(g, coeffs, self.workers))
        return phys

    def flux(self, phys: list, t: float = 0.0, *, peaks: list | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
        """The band rows (``self.shape``) from the sources' samples ``phys``
        at time t, into ``out`` or a fresh array: per chunk, its products,
        one forward transform, its band's contraction with the symbol; then
        the projection and the forcing.  ``peaks`` (a list) gets the largest
        physical |component| of the transported fields."""
        g, symbol = self.grid, self.symbol
        # Rows for the widest chunk's products and one more.  Work arrays are
        # fetched per call, here and in samples: made with the kernel, before
        # any stage's transients, they would leave the heap top free for
        # glibc to trim and refault (940 minor faults per 32^3 mhd-deconv
        # stage, measured).
        work = g.work("products", (self.width + 1,) + g.shape)
        band = g.work("band", self.band, complex)
        acc = band[self.width]
        if out is None:
            out = np.empty(self.shape, dtype=complex)
        if peaks is not None:
            peaks.append(float(max(max(phys[p].max(), -phys[p].min())
                                   for p in self.moved)))
        for products, components in self.chunks:
            for i, ((_, (s, a), (p, b)), *rest) in enumerate(products):
                np.multiply(phys[s][a], phys[p][b], out=work[i])
                for op, (s, a), (p, b) in rest:  # the next row is free until used
                    op(work[i], np.multiply(phys[s][a], phys[p][b],
                                            out=work[i + 1]), out=work[i])
            spectra = from_physical(g, work[:len(products)], self.workers)
            hat = g.gather(spectra, out=band[:len(products)])
            del spectra  # one chunk's spectra at a time
            for r, q, ((j, n), *rest) in components:
                comp = out[r, q]
                np.multiply(symbol[j], hat[n], out=comp)
                for j, n in rest:
                    comp += np.multiply(symbol[j], hat[n], out=acc)
        if self.project:
            for row_hat in out:
                project_in_place(g, row_hat, band=True)
            if self.forcing is not None:
                out[0] += g.gather(self.forcing.evaluate(g, t).coeffs)
        return out


def advect(w: SpectralVectorField, v: SpectralVectorField) -> SpectralVectorField:
    """Transport term P(w . grad v) (w solenoidal), truncated to the grid's
    dealias band and Leray-projected.  With a dealias cutoff of n/2 - 1
    products alias (the verification suite's negative control)."""
    g = w.grid
    if not g.same_as(v.grid):
        raise GridMismatch("advect requires both fields on the same grid")
    fields = [w.coeffs] + [v.coeffs] * (v.coeffs is not w.coeffs)
    minus = g.scatter(_Transport(g, [(i, None) for i in range(len(fields))],
                                 (((0, len(fields) - 1),),))(fields)[0])
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


def _kind_transport(state: SimState, cfg: ModelConfig, *,
                    potential: int | None = None) -> _Transport:
    """:class:`_Transport` of the kind table's sources, smoothed where it says
    so, and rows (0 the momentum's, 1 the induction's) on the state's grid,
    with the forcing.  Raises unless the state's fields are the kind's."""
    if (state.b is None) == (cfg.kind is ModelKind.MHD_DECONV):
        raise MissingMagneticField("MHD model needs a magnetic field") \
            if state.b is None else InvariantViolation(
                f"model kind {cfg.kind.value} has no magnetic field")
    if state.b is not None and not state.b.grid.same_as(state.u.grid):
        raise GridMismatch("the magnetic field is not on the velocity's grid")
    g = state.u.grid
    symbol = None if cfg.kind is ModelKind.NSE else smoothing_symbol(
        g, cfg.filter, deconvolution=cfg.kind is not ModelKind.LERAY_ALPHA,
        band=True)
    sources, rows = _KIND_ROWS[cfg.kind]
    return _Transport(g, [(i, symbol if smoothed else None)
                          for i, smoothed in sources], rows,
                      potential=potential, forcing=cfg.forcing)


def rhs(state: SimState, cfg: ModelConfig) -> list[SpectralVectorField]:
    """Non-viscous tendency of the state, one projected row per entry of
    ``state.fields`` (the integrating-factor stepper takes viscosity
    exactly)."""
    g = state.u.grid
    rows = _kind_transport(state, cfg)([f.coeffs for f in state.fields],
                                       state.t)
    return [SpectralVectorField(g, row) for row in g.scatter(rows)]


def pressure_solve(state: SimState, cfg: ModelConfig) -> SpectralScalarField:
    """The zero-mean pressure of the projected dynamics: the potential of the
    momentum row (module notes), less the magnetic pressure |b|^2/2 when b
    is present, so the result is the fluid pressure.  The kernel's inverse
    transforms serve both: b's samples are the kernel's own."""
    g = state.u.grid
    kernel = _kind_transport(state, cfg, potential=0)
    phys = kernel.samples([f.coeffs for f in state.fields])
    p_hat = g.scatter(kernel.flux(phys)[0, 0])
    if state.b is not None:
        b_phys = phys[kernel.rows[0][1][1]]  # v of the momentum's Lorentz term
        p_hat -= from_physical(g, 0.5 * np.sum(b_phys * b_phys, axis=0)) \
            * g.dealias_weight
    return SpectralScalarField(g, p_hat)
