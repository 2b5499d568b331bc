"""Line-oriented run configuration: [section] headers, key = value lines.

The format is deliberately flat so parse errors can always name the offending
key and line.  Comments start with '#', values never span lines, duplicate
keys are rejected with both line numbers.  All module invariants (positivity,
the theta >= 1/4 gate, forcing orthogonality, ...) are re-validated at parse
time so a RunConfig that parses is a RunConfig that runs.

Sections and keys::

    [grid]     dim, n, length, dealias_fraction
    [model]    kind, nu, nu2, alpha, theta, n_deconv, unsafe_subcritical
    [forcing]  mode_1, mode_2, ...  ("a1 a2 [a3] : re im pairs : decay")
    [initial]  preset (taylor-green | random | checkpoint),
               seed, slope, cutoff_shell, scale, seed_b, scale_b, path
    [stepper]  dt, t_end, scheme, sample_every, cfl_limit
    [output]   directory, checkpoint_every
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ForcingMode, ForcingSpec, ModelConfig, ModelKind, SimState
from .errors import (ConfigSyntaxError, CriticalityViolation,
                     InvariantViolation, UnknownKeyError)
from .fields import SpectralVectorField, random_solenoidal
from .filtering import FilterParams
from .grid import WaveGrid
from .presets import taylor_green_state_field
from .stepping import StepperConfig, StepperScheme

__all__ = ["RunConfig", "parse_config", "parse_config_file"]

_SECTIONS = {
    "grid": {"dim", "n", "length", "dealias_fraction"},
    "model": {"kind", "nu", "nu2", "alpha", "theta", "n_deconv",
              "unsafe_subcritical"},
    "forcing": None,  # mode_* keys, validated separately
    "initial": {"preset", "seed", "slope", "cutoff_shell", "scale",
                "seed_b", "scale_b", "path"},
    "stepper": {"dt", "t_end", "scheme", "sample_every", "cfl_limit"},
    "output": {"directory", "checkpoint_every"},
}

_KINDS = {k.value: k for k in ModelKind}
_SCHEMES = {s.value: s for s in StepperScheme}


@dataclass
class RunConfig:
    """Validated run description; builder methods assemble live objects."""

    dim: int
    n: int
    length: float
    dealias_fraction: float
    kind: ModelKind
    nu: float
    nu2: float | None
    alpha: float
    theta: float
    n_deconv: int
    unsafe_subcritical: bool
    forcing: ForcingSpec
    preset: str
    seed: int
    slope: float
    cutoff_shell: int | None
    scale: float
    seed_b: int | None
    scale_b: float | None
    checkpoint_path: str | None
    dt: float
    t_end: float
    scheme: StepperScheme
    sample_every: int
    cfl_limit: float
    directory: str | None
    checkpoint_every: int

    def build_grid(self) -> WaveGrid:
        cutoff = max(1, int(math.floor(self.dealias_fraction * self.n / 2)))
        return WaveGrid(self.dim, self.n, self.length, dealias_cutoff=cutoff)

    def build_filter(self) -> FilterParams:
        return FilterParams(alpha=self.alpha, theta=self.theta,
                            n_deconv=self.n_deconv)

    def build_model(self) -> ModelConfig:
        return ModelConfig(kind=self.kind, nu=self.nu, nu2=self.nu2,
                           filter=self.build_filter(), forcing=self.forcing,
                           unsafe_subcritical=self.unsafe_subcritical)

    def build_stepper(self) -> StepperConfig:
        return StepperConfig(dt=self.dt, t_end=self.t_end, scheme=self.scheme,
                             sample_every=self.sample_every,
                             cfl_limit=self.cfl_limit)

    def build_initial(self, grid: WaveGrid) -> SimState:
        if self.preset == "taylor-green":
            u = taylor_green_state_field(grid, self.nu, 0.0)
            if self.scale != 1.0:
                u = SpectralVectorField(grid, u.coeffs * self.scale, True)
            return SimState(0.0, u)
        if self.preset == "random":
            cutoff = (self.cutoff_shell if self.cutoff_shell is not None
                      else grid.dealias_cutoff)
            u = random_solenoidal(grid, self.seed, self.slope, cutoff)
            if self.scale != 1.0:
                u = SpectralVectorField(grid, u.coeffs * self.scale, True)
            b = None
            if self.kind is ModelKind.MHD_DECONV:
                seed_b = self.seed_b if self.seed_b is not None else self.seed + 1
                scale_b = self.scale_b if self.scale_b is not None else self.scale
                b = random_solenoidal(grid, seed_b, self.slope, cutoff)
                if scale_b != 1.0:
                    b = SpectralVectorField(grid, b.coeffs * scale_b, True)
            return SimState(0.0, u, b)
        if self.preset == "checkpoint":
            from .checkpoint import load_checkpoint
            state, meta = load_checkpoint(self.checkpoint_path)
            loaded = meta["grid"]
            if not loaded.same_as(grid):
                raise InvariantViolation(
                    "checkpoint grid does not match the configured grid")
            if (state.b is not None) != (self.kind is ModelKind.MHD_DECONV):
                raise InvariantViolation(
                    f"checkpoint of kind {meta['kind'].value} "
                    f"{'has' if state.b is not None else 'lacks'} a magnetic "
                    f"field; the configured kind is {self.kind.value}")
            return state
        raise InvariantViolation(f"preset: unknown initial preset {self.preset!r}")


def _tokenize(text: str):
    """Yield (line_no, section, key, value) after syntax validation."""
    section = None
    seen: dict[tuple[str, str], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigSyntaxError(f"line {line_no}: malformed section header")
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise UnknownKeyError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"line {line_no}: expected 'key = value'")
        if section is None:
            raise ConfigSyntaxError(f"line {line_no}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigSyntaxError(f"line {line_no}: empty key")
        known = _SECTIONS[section]
        if known is None:
            if not key.startswith("mode_"):
                raise UnknownKeyError(
                    f"line {line_no}: unknown key '{key}' in [forcing] "
                    f"(forcing keys are mode_1, mode_2, ...)")
        elif key not in known:
            raise UnknownKeyError(
                f"line {line_no}: unknown key '{key}' in [{section}]")
        if (section, key) in seen:
            raise ConfigSyntaxError(
                f"duplicate key '{key}' in [{section}]: "
                f"lines {seen[(section, key)]} and {line_no}")
        seen[(section, key)] = line_no
        yield line_no, section, key, value


class _Values:
    def __init__(self):
        self.data: dict[tuple[str, str], tuple[int, str]] = {}

    def put(self, line_no, section, key, value):
        self.data[(section, key)] = (line_no, value)

    def _fetch(self, section, key, conv, default, required):
        entry = self.data.get((section, key))
        if entry is None:
            if required:
                raise InvariantViolation(f"{key}: required key missing "
                                         f"from [{section}]")
            return default
        line_no, raw = entry
        try:
            return conv(raw)
        except (ValueError, KeyError):
            raise InvariantViolation(
                f"{key}: cannot interpret {raw!r} (line {line_no})") from None

    def get_int(self, section, key, default=None, required=False):
        return self._fetch(section, key, lambda s: int(s, 10), default, required)

    def get_float(self, section, key, default=None, required=False):
        return self._fetch(section, key, float, default, required)

    def get_str(self, section, key, default=None, required=False):
        return self._fetch(section, key, str, default, required)

    def get_bool(self, section, key, default=False):
        return self._fetch(
            section, key,
            lambda s: {"true": True, "false": False}[s.lower()],
            default, False)

    def forcing_items(self):
        items = [(key, line_no, raw) for (sec, key), (line_no, raw)
                 in self.data.items() if sec == "forcing"]
        return sorted(items, key=lambda kv: kv[1])


def _parse_forcing_mode(key: str, line_no: int, raw: str, dim: int) -> ForcingMode:
    parts = [p.strip() for p in raw.split(":")]
    if len(parts) not in (2, 3):
        raise InvariantViolation(
            f"{key}: expected 'a1 .. : re im pairs : decay' (line {line_no})")
    try:
        a = tuple(int(tok) for tok in parts[0].split())
        flat = [float(tok) for tok in parts[1].split()]
        decay = float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError:
        raise InvariantViolation(
            f"{key}: non-numeric forcing entry (line {line_no})") from None
    if len(a) != dim or len(flat) != 2 * dim:
        raise InvariantViolation(
            f"{key}: wavevector needs {dim} integers and amplitude "
            f"{2 * dim} floats (line {line_no})")
    amp = tuple(complex(flat[2 * j], flat[2 * j + 1]) for j in range(dim))
    return ForcingMode(a=a, amplitude=amp, decay_rate=decay)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; raises naming key and line."""
    vals = _Values()
    for item in _tokenize(text):
        vals.put(*item)

    dim = vals.get_int("grid", "dim", required=True)
    n = vals.get_int("grid", "n", required=True)
    if dim not in (2, 3):
        raise InvariantViolation(f"dim: must be 2 or 3, got {dim}")
    if n < 8 or n % 2:
        raise InvariantViolation(f"n: must be even and >= 8, got {n}")
    length = vals.get_float("grid", "length", default=2.0 * np.pi)
    if length <= 0:
        raise InvariantViolation("length: must be positive")
    frac = vals.get_float("grid", "dealias_fraction", default=2.0 / 3.0)
    if not 0.0 < frac <= 1.0:
        raise InvariantViolation("dealias_fraction: must lie in (0, 1]")

    kind_raw = vals.get_str("model", "kind", required=True)
    if kind_raw not in _KINDS:
        raise InvariantViolation(
            f"kind: unknown model kind {kind_raw!r} "
            f"(expected one of {sorted(_KINDS)})")
    kind = _KINDS[kind_raw]
    nu = vals.get_float("model", "nu", required=True)
    nu2 = vals.get_float("model", "nu2")
    alpha = vals.get_float("model", "alpha", default=0.0)
    theta = vals.get_float("model", "theta", default=0.25)
    n_deconv = vals.get_int("model", "n_deconv", default=0)
    unsafe = vals.get_bool("model", "unsafe_subcritical")

    modes = tuple(_parse_forcing_mode(key, line_no, raw, dim)
                  for key, line_no, raw in vals.forcing_items())
    forcing = ForcingSpec(modes)
    forcing.validate(dim)

    preset = vals.get_str("initial", "preset", required=True)
    if preset not in ("taylor-green", "random", "checkpoint"):
        raise InvariantViolation(f"preset: unknown preset {preset!r}")
    seed = vals.get_int("initial", "seed", default=0)
    slope = vals.get_float("initial", "slope", default=-2.0)
    cutoff_shell = vals.get_int("initial", "cutoff_shell")
    scale = vals.get_float("initial", "scale", default=1.0)
    seed_b = vals.get_int("initial", "seed_b")
    for key, value in (("seed", seed), ("seed_b", seed_b)):
        if value is not None and value < 0:
            raise InvariantViolation(f"{key}: must be >= 0, got {value}")
    scale_b = vals.get_float("initial", "scale_b")
    path = vals.get_str("initial", "path")
    if preset == "checkpoint" and not path:
        raise InvariantViolation("path: required for the checkpoint preset")

    dt = vals.get_float("stepper", "dt", required=True)
    t_end = vals.get_float("stepper", "t_end", required=True)
    scheme_raw = vals.get_str("stepper", "scheme", default="ifrk4")
    if scheme_raw not in _SCHEMES:
        raise InvariantViolation(f"scheme: unknown scheme {scheme_raw!r}")
    sample_every = vals.get_int("stepper", "sample_every", default=1)
    cfl_limit = vals.get_float("stepper", "cfl_limit", default=0.5)

    directory = vals.get_str("output", "directory")
    checkpoint_every = vals.get_int("output", "checkpoint_every", default=0)
    if checkpoint_every < 0:
        raise InvariantViolation("checkpoint_every: must be >= 0")

    cfg = RunConfig(
        dim=dim, n=n, length=length, dealias_fraction=frac,
        kind=kind, nu=nu, nu2=nu2, alpha=alpha, theta=theta,
        n_deconv=n_deconv, unsafe_subcritical=unsafe, forcing=forcing,
        preset=preset, seed=seed, slope=slope, cutoff_shell=cutoff_shell,
        scale=scale, seed_b=seed_b, scale_b=scale_b, checkpoint_path=path,
        dt=dt, t_end=t_end, scheme=_SCHEMES[scheme_raw],
        sample_every=sample_every, cfl_limit=cfl_limit,
        directory=directory, checkpoint_every=checkpoint_every)

    # Re-validate every downstream invariant now, so errors carry key names.
    try:
        grid = cfg.build_grid()
        cfg.build_model()
        cfg.build_stepper()
    except CriticalityViolation as exc:
        raise InvariantViolation(f"theta: {exc}") from None
    except (InvariantViolation, ValueError) as exc:
        raise InvariantViolation(str(exc)) from None
    if cfg.cutoff_shell is not None and cfg.cutoff_shell > grid.dealias_cutoff:
        raise InvariantViolation(
            f"cutoff_shell: {cfg.cutoff_shell} exceeds the dealias cutoff "
            f"{grid.dealias_cutoff}")
    if cfg.preset == "taylor-green" and dim != 2:
        raise InvariantViolation("preset: taylor-green requires dim = 2")
    return cfg


def parse_config_file(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
