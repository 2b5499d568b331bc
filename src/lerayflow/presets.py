"""Closed-form initial conditions and exact trajectories.

The 2D Taylor-Green vortex

    u(t, x, y) = (cos x sin y, -sin x cos y) exp(-2 nu t)
    p(t, x, y) = -(cos 2x + cos 2y) / 4 * exp(-4 nu t)

is an exact Navier-Stokes solution on the 2*pi box: its self-advection is a
pure gradient, annihilated by the Leray projection.  Because the velocity
lives on a single spectral shell, the Helmholtz filter acts on it as a scalar
multiple, so the same trajectory is exact for every alpha and theta of the
regularized family.  That makes it the pointwise oracle for the stepper.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation
from .fields import RealVectorField, SpectralVectorField, forward_transform
from .grid import WaveGrid

__all__ = [
    "taylor_green_velocity", "taylor_green_state_field",
    "taylor_green_pressure", "taylor_green_energy",
]


def _check_grid(grid: WaveGrid) -> None:
    if grid.dim != 2:
        raise InvariantViolation("the Taylor-Green preset is two-dimensional")
    if abs(grid.L - 2.0 * np.pi) > 1e-12:
        raise InvariantViolation("the Taylor-Green preset needs L = 2*pi")


def taylor_green_velocity(grid: WaveGrid, nu: float, t: float) -> RealVectorField:
    """Physical-space Taylor-Green velocity at time t."""
    _check_grid(grid)
    x, y = grid.mesh()
    decay = np.exp(-2.0 * nu * t)
    data = np.stack([np.cos(x) * np.sin(y) * decay,
                     -np.sin(x) * np.cos(y) * decay])
    return RealVectorField(grid, data)


def taylor_green_state_field(grid: WaveGrid, nu: float = 0.0,
                             t: float = 0.0) -> SpectralVectorField:
    """Spectral Taylor-Green velocity, exactly solenoidal and band-limited."""
    s = forward_transform(taylor_green_velocity(grid, nu, t))
    coeffs = np.where(grid.dealias_mask, s.coeffs, 0.0)
    return SpectralVectorField(grid, coeffs)


def taylor_green_pressure(grid: WaveGrid, nu: float, t: float) -> np.ndarray:
    """Physical-space Taylor-Green pressure (zero mean) at time t."""
    _check_grid(grid)
    x, y = grid.mesh()
    return -0.25 * (np.cos(2 * x) + np.cos(2 * y)) * np.exp(-4.0 * nu * t)


def taylor_green_energy(nu: float, t: float) -> float:
    """Kinetic energy (1/2) mean |u|^2 of the Taylor-Green flow at time t."""
    return 0.25 * np.exp(-4.0 * nu * t)
