"""Time integration: exact per-mode viscous factors, explicit nonlinearity.

The semi-discrete system is ``d uhat/dt = -nu |k|^2 uhat + N(u, t)`` per mode
(``nu2`` for the magnetic field).  Substituting ``w = exp(nu |k|^2 t) uhat``
removes the stiff diagonal part exactly, and the remaining system is advanced
with classical RK4.  Where the nonlinear term vanishes the per-mode decay is
exact for arbitrarily large dt, which is what the tight energy-budget
tolerances downstream rely on.  The stepper reads its CFL number off the peak
|u| (and |b|) of stage 1's own transform.  It carries the compact dealias
band alone (``WaveGrid.gather``), so it accepts only states that are 0
outside that band: the kernel writes each stage's band rows into its
buffers, and the new state is scattered from k1's after stage 4, 0 outside
the band.

The step size is fixed; ``t_end`` must be an integer multiple of ``dt``.
Sample times are ``i * dt`` computed by multiplication, never accumulation,
so reruns are bit-identical.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import astuple, dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import EnergyRecord, measure_energy
from .dynamics import (_KIND_ROWS, ModelConfig, ModelKind, SimState,
                       _flux_plan, _kind_transport)
from .errors import CFLExceeded, InvariantViolation, NonFinite
from .fields import SpectralVectorField, hermitian_gate

__all__ = ["StepperConfig", "step", "run", "working_set"]


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    sample_every: int = 1
    cfl_limit: float = 0.5

    def __post_init__(self):
        for name in ("dt", "t_end", "cfl_limit"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantViolation(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise InvariantViolation(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise InvariantViolation("t_end must be at least dt")
        _check_every("sample_every", self.sample_every)

    def n_steps(self, t_start: float = 0.0) -> int:
        span = self.t_end - t_start
        ratio = span / self.dt
        steps = int(round(ratio)) if math.isfinite(ratio) else 0
        if steps < 1 or abs(steps * self.dt - span) > 1e-9 * max(abs(span), self.dt):
            raise InvariantViolation(
                f"t_end - t_start = {span} is not a positive integer "
                f"multiple of dt = {self.dt}")
        return steps


def _check_every(name: str, value) -> None:
    """Raise unless a cadence ``value`` is a positive integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise InvariantViolation(
            f"{name} must be a positive integer, got {value!r}")


# No modulus of a complex whose parts are at most this large overflows:
# hypot(x, x) is finite for x = DBL_MAX / sqrt(2) as rounded.
_SAFE_PART = sys.float_info.max / math.sqrt(2.0)


def _viscous_factor(grid, nu: float, h: float) -> np.ndarray:
    """exp(-nu |k|^2 h) per band mode, kept in the grid's symbol cache."""
    return grid.cached(("viscous", nu, h), lambda: np.exp(-nu * grid.k_sq * h),
                       band=True)


class _Stepper:
    """The per-mode viscous exponentials for one (grid, model, dt), the band
    buffers that the RK combinations write into, and the transport kernel,
    resolved once for the state's kind and grid: every stage of every step
    calls it.  It carries the dealias band alone, so a state must be 0
    outside it."""

    def __init__(self, cfg: ModelConfig, sc: StepperConfig, state: SimState):
        grid = state.u.grid
        cfg.forcing.check_stored(grid)
        for rest in (f.coeffs[:, ~grid.dealias_mask] for f in state.fields):
            if np.any(rest):
                raise (InvariantViolation if np.isfinite(rest).all() else
                       NonFinite)(f"state at t = {state.t:.6g}: non-zero "
                                  f"coefficients outside the dealias band "
                                  f"|a_j| <= {grid.dealias_cutoff}")
        self.sc = sc
        self.grid = grid
        nus = [cfg.nu] if cfg.nu2 is None else [cfg.nu, cfg.nu2]
        self.e_half = [_viscous_factor(grid, nu, 0.5 * sc.dt) for nu in nus]
        self.e_full = [_viscous_factor(grid, nu, sc.dt) for nu in nus]
        self.h_e_half = [sc.dt * eh for eh in self.e_half]
        self.two_e_half = [2.0 * eh for eh in self.e_half]
        # Owned by this stepper, never by the grid, and overwritten by every
        # step: y; k1, then the new state's band; the stage state, then ef y;
        # k2; k3, then stage 4's state and, over it, k4.
        shape = (len(nus), grid.dim) + grid.band_shape
        self.y, self.k1, self.stage, self.k2, self.k3 = (
            np.empty(shape, dtype=complex) for _ in range(5))
        self.transport = _kind_transport(state, cfg)
        self.dx = grid.L / grid.n
        self.max_cfl = 0.0
        self._cfl_warned = False

    def _check_cfl(self, t: float, umax: float) -> None:
        """Warn once when the advective CFL number exceeds the limit.  The
        peak |u| (and |b|) is stage 1's, read off the transport kernel."""
        cfl = umax * self.sc.dt / self.dx
        self.max_cfl = max(self.max_cfl, cfl)
        if cfl > self.sc.cfl_limit and not self._cfl_warned:
            warnings.warn(CFLExceeded(
                f"advective CFL {cfl:.3f} exceeds limit {self.sc.cfl_limit} "
                f"at t = {t:.6g}"), stacklevel=2)
            self._cfl_warned = True

    def advance(self, state: SimState) -> SimState:
        h, t, transport, grid = self.sc.dt, state.t, self.transport, self.grid
        fields = [f.coeffs for f in state.fields]
        y = [grid.gather(full, out=band) for full, band in zip(fields, self.y)]

        # Each combination keeps the operation order of its formula, on the
        # band.  Stage 1 reads the state's own arrays.  The stage buffer
        # holds each stage's input, then ef y; k2's and k3's hold those
        # tendencies and serve as scratch, and k3's holds stage 4's input,
        # which k4 overwrites; k1's ends up holding the new state's band.
        peaks: list[float] = []
        k1 = transport(fields, t, peaks=peaks, out=self.k1)
        self._check_cfl(t, peaks[0])
        for yi, ki, eh, s in zip(y, k1, self.e_half, self.stage):
            np.multiply(ki, 0.5 * h, out=s)         # eh (y + h/2 k1)
            s += yi
            s *= eh
        k2 = transport(self.stage, t + 0.5 * h, out=self.k2)
        for yi, ki, eh, s, tmp in zip(y, k2, self.e_half, self.stage,
                                      self.k3):
            np.multiply(yi, eh, out=s)              # eh y + h/2 k2
            np.multiply(ki, 0.5 * h, out=tmp)
            s += tmp
        k3 = transport(self.stage, t + 0.5 * h, out=self.k3)
        for yi, b2, c, ef, eh2, heh, efy in zip(
                y, k2, k3, self.e_full, self.two_e_half, self.h_e_half,
                self.stage):
            b2 += c                                 # 2 eh (k2 + k3)
            b2 *= eh2
            np.multiply(yi, ef, out=efy)            # ef y, kept
            c *= heh                                # h eh k3 + ef y
            c += efy
        k4 = transport(k3, t + h, out=k3)
        # h/6 (ef k1 + 2 eh (k2 + k3) + k4) + ef y
        for a, b2, d, ef, efy in zip(k1, k2, k4, self.e_full, self.stage):
            a *= ef
            a += b2
            a += d
            a *= h / 6.0
            a += efy

        # One pass over the parts; the modulus only when one may overflow it.
        parts = k1.view(float)
        if not (parts.max() <= _SAFE_PART and -parts.min() <= _SAFE_PART) \
                and not math.isfinite(np.abs(k1).max()):
            raise NonFinite(f"non-finite solution after step from t = {t:.6g}")

        return SimState(t + h, *(SpectralVectorField(grid, a)
                                 for a in grid.scatter(k1)))


def working_set(dim: int, n: int, kind: ModelKind) -> int:
    """Bytes that bound what an IF-RK4 run holds at its peak, a stage's
    flux step (the inverse transforms' input copies are gone by then): per
    field the initial and current state and one more, the new state, made
    only after stage 4 and counted as a margin; the kernel's samples,
    product rows, widest chunk's spectra, source buffer and one d-vector
    spectrum more per smoothed source (allocator holes, measured); the
    grid's arrays, symbols and spectral work; and on the band, at its widest
    (cutoff n/2 - 1), per field y, k1, stage, k2, k3, viscous factors and
    one d-vector more (margin), and the kernel's band rows and symbols."""
    spectral, points = n ** (dim - 1) * (n // 2 + 1), n ** dim
    band = (n - 1) ** (dim - 1) * (n // 2)
    sources, rows = _KIND_ROWS[kind]
    fields = len(rows)  # one tendency row per field
    smoothed = sum(smoothed for _, smoothed in sources)
    widest = _flux_plan(dim, rows)[2]
    return 16 * spectral * (widest + 2 + dim * (3 * fields + 3 + smoothed)) \
        + 16 * band * (widest + 1 + dim * (6 * fields + 3)) \
        + 8 * spectral * 9 + 8 * band * (4 * fields + 1) \
        + 8 * points * (dim * len(sources) + widest + 1)


def step(state: SimState, cfg: ModelConfig, sc: StepperConfig) -> SimState:
    """Advance the state by one dt, as one step of :func:`run` does.  The
    viscous factors come from the grid's cache, so repeated calls reuse them."""
    return _Stepper(cfg, sc, state).advance(state)


def run(initial: SimState, cfg: ModelConfig, sc: StepperConfig,
        sink: Optional[Callable[[EnergyRecord], None]] = None, *,
        state_sink: Optional[Callable[[SimState], None]] = None,
        state_every: Optional[int] = None) -> SimState:
    """Integrate to t_end, delivering samples along the way.

    ``sink`` receives an :class:`EnergyRecord` at t = 0, every
    ``sample_every`` steps and at the final time (no duplicates); a record
    that is not finite raises :class:`NonFinite` instead.  ``state_sink``
    receives copies of the first and the last state, and of every
    ``state_every``-th one when that is given, for trajectory diagnostics.
    The first, the last and every delivered state pass the Hermitian gate
    first.  Deterministic for fixed inputs."""
    if state_every is not None:
        _check_every("state_every", state_every)
    t_start = initial.t
    n_steps = sc.n_steps(t_start)
    stepper = _Stepper(cfg, sc, initial)
    state = initial
    for i in range(n_steps + 1):
        if i > 0:
            state = stepper.advance(state)
            state.t = t_start + i * sc.dt  # avoid accumulated addition error
        end = i == 0 or i == n_steps
        to_sink = sink is not None and (end or i % sc.sample_every == 0)
        to_states = state_sink is not None and (
            end or (state_every is not None and i % state_every == 0))
        if not (end or to_sink or to_states):
            continue
        hermitian_gate(max(f.hermitian_residual() for f in state.fields),
                       f"state at t = {state.t:.6g}")
        if to_sink:
            record = measure_energy(state, cfg)
            if not all(map(math.isfinite, astuple(record))):
                raise NonFinite(
                    f"non-finite energy sample at t = {state.t:.6g}")
            sink(record)
        if to_states:
            state_sink(state.copy())
    return state
