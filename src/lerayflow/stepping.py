"""Time integration: exact per-mode viscous factors, explicit nonlinearity.

The semi-discrete system is ``d uhat/dt = -nu |k|^2 uhat + N(u, t)`` per mode
(``nu2`` for the magnetic field).  Substituting ``w = exp(nu |k|^2 t) uhat``
removes the stiff diagonal part exactly, and the remaining system is advanced
with classical RK4 (or forward Euler).  Where the nonlinear term vanishes the
per-mode decay is exact for arbitrarily large dt, which is what the tight
energy-budget tolerances downstream rely on.  The stepper reads its CFL
number off the peak |u| (and |b|) of stage 1's own transform.

The step size is fixed; ``t_end`` must be an integer multiple of ``dt``.
Sample times are ``i * dt`` computed by multiplication, never accumulation,
so reruns are bit-identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .diagnostics import EnergyRecord, measure_energy
from .dynamics import ModelConfig, ModelKind, SimState, Tendency, rhs
from .errors import CFLExceeded, InvariantViolation, NonFinite, SymmetryViolation
from .fields import SpectralVectorField

__all__ = ["StepperScheme", "StepperConfig", "step", "run"]


class StepperScheme(Enum):
    IFRK4 = "ifrk4"
    IFEULER = "ifeuler"


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    scheme: StepperScheme = StepperScheme.IFRK4
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
        if self.sample_every < 1:
            raise InvariantViolation("sample_every must be >= 1")

    def n_steps(self, t_start: float = 0.0) -> int:
        span = self.t_end - t_start
        ratio = span / self.dt
        steps = int(round(ratio)) if math.isfinite(ratio) else 0
        if steps < 1 or abs(steps * self.dt - span) > 1e-9 * max(abs(span), self.dt):
            raise InvariantViolation(
                f"t_end - t_start = {span} is not a positive integer "
                f"multiple of dt = {self.dt}")
        return steps


def _viscous_factor(grid, nu: float, h: float) -> np.ndarray:
    """exp(-nu |k|^2 h) per mode, kept in the grid's symbol cache."""
    return grid.cached(("viscous", nu, h), lambda: np.exp(-nu * grid.k_sq * h))


class _Stepper:
    """The per-mode viscous exponentials for one (grid, model, dt), and the
    stage buffers that the RK combinations write into."""

    def __init__(self, cfg: ModelConfig, sc: StepperConfig, grid):
        self.cfg = cfg
        self.sc = sc
        self.grid = grid
        self.is_mhd = cfg.kind is ModelKind.MHD_DECONV
        nus = [cfg.nu] + ([cfg.nu2] if self.is_mhd else [])
        self.e_half = [_viscous_factor(grid, nu, 0.5 * sc.dt) for nu in nus]
        self.e_full = [_viscous_factor(grid, nu, sc.dt) for nu in nus]
        self.h_e_half = [sc.dt * eh for eh in self.e_half]
        self.two_e_half = [2.0 * eh for eh in self.e_half]
        # Owned by this stepper, never by the grid: a stage state and one
        # scratch array per field, overwritten by every step.
        shape = (grid.dim,) + grid.spectral_shape
        self.stage = [np.empty(shape, dtype=complex) for _ in nus]
        self.scratch = [np.empty(shape, dtype=complex) for _ in nus]
        self.dx = grid.L / grid.n
        self.max_cfl = 0.0
        self._cfl_warned = False

    def _tendency(self, arrays: list[np.ndarray], t: float,
                  peaks: list | None = None) -> list[np.ndarray]:
        u = SpectralVectorField(self.grid, arrays[0])
        b = SpectralVectorField(self.grid, arrays[1]) if self.is_mhd else None
        out: Tendency = rhs(SimState(t, u, b), self.cfg, peaks=peaks)
        return [out.du.coeffs] + ([out.db.coeffs] if self.is_mhd else [])

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
        h = self.sc.dt
        t = state.t
        y = [state.u.coeffs] + ([state.b.coeffs] if self.is_mhd else [])

        # Each combination keeps the operation order of its formula; k1..k4
        # are fresh arrays, and k1 ends up holding the new state.
        peaks: list[float] = []
        k1 = self._tendency(y, t, peaks)
        self._check_cfl(t, peaks[0])
        if self.sc.scheme is StepperScheme.IFEULER:
            for yi, ki, ef in zip(y, k1, self.e_full):  # ef (y + h k1)
                ki *= h
                ki += yi
                ki *= ef
        else:
            for yi, ki, eh, s in zip(y, k1, self.e_half, self.stage):
                np.multiply(ki, 0.5 * h, out=s)         # eh (y + h/2 k1)
                s += yi
                s *= eh
            k2 = self._tendency(self.stage, t + 0.5 * h)
            for yi, ki, eh, s, tmp in zip(y, k2, self.e_half, self.stage,
                                          self.scratch):
                np.multiply(yi, eh, out=s)              # eh y + h/2 k2
                np.multiply(ki, 0.5 * h, out=tmp)
                s += tmp
            k3 = self._tendency(self.stage, t + 0.5 * h)
            for yi, ki, ef, heh, s, tmp in zip(y, k3, self.e_full,
                                               self.h_e_half, self.stage,
                                               self.scratch):
                np.multiply(yi, ef, out=s)              # ef y + h eh k3
                np.multiply(ki, heh, out=tmp)
                s += tmp
            k4 = self._tendency(self.stage, t + h)
            # ef y + h/6 (ef k1 + 2 eh (k2 + k3) + k4)
            for yi, a, b2, c, d, ef, eh2, tmp in zip(
                    y, k1, k2, k3, k4, self.e_full, self.two_e_half,
                    self.scratch):
                b2 += c
                b2 *= eh2
                a *= ef
                a += b2
                a += d
                a *= h / 6.0
                np.multiply(yi, ef, out=tmp)
                a += tmp

        for arr in k1:
            peak = float(np.abs(arr).max())
            if not np.isfinite(peak):
                raise NonFinite(f"non-finite solution after step from t = {t:.6g}")

        u = SpectralVectorField(self.grid, k1[0])
        b = SpectralVectorField(self.grid, k1[1]) if self.is_mhd else None
        return SimState(t + h, u, b)


def step(state: SimState, cfg: ModelConfig, sc: StepperConfig) -> SimState:
    """Advance the state by one dt, as one step of :func:`run` does.  The
    viscous factors come from the grid's cache, so repeated calls reuse them."""
    return _Stepper(cfg, sc, state.u.grid).advance(state)


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
    The first, the last and every delivered state pass the Hermitian check
    first.  Deterministic for fixed inputs.
    """
    t_start = initial.t
    n_steps = sc.n_steps(t_start)
    stepper = _Stepper(cfg, sc, initial.u.grid)
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
        res = max(f.hermitian_residual() for f in (state.u, state.b)
                  if f is not None)
        if res > 1e-10:
            raise SymmetryViolation(
                f"Hermitian residual {res:.3e} at t = {state.t:.6g}")
        if to_sink:
            record = measure_energy(state, cfg)
            if not all(map(math.isfinite, astuple(record))):
                raise NonFinite(
                    f"non-finite energy sample at t = {state.t:.6g}")
            sink(record)
        if to_states:
            state_sink(state.copy())
    return state
