"""Pseudo-spectral Leray-alpha / deconvolution solver on the periodic torus."""

from .errors import (CFLExceeded, ConfigError, ConfigSyntaxError,
                     CriticalityViolation, GridMismatch, InvariantViolation,
                     LerayflowError, MissingMagneticField, NonFinite,
                     NonMonotone, SymmetryViolation, TooFewSamples,
                     UnknownKeyError)
from .grid import WaveGrid, worker_count
from .fields import (RealVectorField, SpectralScalarField, SpectralVectorField,
                     forward_transform, inverse_transform,
                     inverse_transform_scalar, l2_inner, l2_norm,
                     leray_project, random_solenoidal, sobolev_norm)
from .filtering import (FilterParams, deconvolution_multiplier, deconvolve,
                        filter_apply, helmholtz_multiplier, multiplier_table,
                        van_cittert_series)
from .dynamics import (ForcingMode, ForcingSpec, ModelConfig, ModelKind,
                       SimState, advect, pressure_solve, rhs)
from .stepping import StepperConfig, run, step
from .diagnostics import (BumpTestFunction, EnergyRecord, SweepReport,
                          alpha_sweep, energy_budget_residual, fit_loglog,
                          local_energy_residual, measure_energy, n_sweep)
from .presets import taylor_green_state_field, taylor_green_velocity

__version__ = "0.1.0"
