"""Line-oriented run configuration: [section] headers, key = value lines.

The format is deliberately flat so parse errors can always name the offending
key and line.  Comments start with '#', values never span lines, duplicate
keys are rejected with both line numbers.  Every key is declared once, in
``_KEYS``, with its reader and default; float values must be finite.  The
[forcing] section takes mode_1, mode_2, ... ("a1 a2 [a3] : re im pairs :
decay") instead.

Parsing reports the first fault in this order: syntax and unknown keys in
text order, then unreadable or missing values in table order, then the range
checks.  All module invariants (positivity, the theta >= 1/4 gate, forcing
orthogonality, ...) are re-validated at parse time so a RunConfig that
parses is a RunConfig that runs.
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
    path: str | None
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
            u = SpectralVectorField(grid, u.coeffs * self.scale)
            return SimState(0.0, u)
        if self.preset == "random":
            cutoff = (self.cutoff_shell if self.cutoff_shell is not None
                      else grid.dealias_cutoff)
            u = random_solenoidal(grid, self.seed, self.slope, cutoff)
            u = SpectralVectorField(grid, u.coeffs * self.scale)
            b = None
            if self.kind is ModelKind.MHD_DECONV:
                seed_b = self.seed_b if self.seed_b is not None else self.seed + 1
                scale_b = self.scale_b if self.scale_b is not None else self.scale
                b = random_solenoidal(grid, seed_b, self.slope, cutoff)
                b = SpectralVectorField(grid, b.coeffs * scale_b)
            return SimState(0.0, u, b)
        if self.preset == "checkpoint":
            from .checkpoint import load_checkpoint
            state, meta = load_checkpoint(self.path)
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


_REQUIRED = object()  # marks a key without a default


def _int(text: str) -> int:
    return int(text, 10)


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bool(text: str) -> bool:
    return {"true": True, "false": False}[text.lower()]


# section -> key -> (reader, default or _REQUIRED); each key names its
# RunConfig field.  [forcing] takes mode_1, mode_2, ... instead.
_KEYS = {
    "grid": {"dim": (_int, _REQUIRED), "n": (_int, _REQUIRED),
             "length": (_float, 2.0 * np.pi),
             "dealias_fraction": (_float, 2.0 / 3.0)},
    "model": {"kind": (str, _REQUIRED), "nu": (_float, _REQUIRED),
              "nu2": (_float, None), "alpha": (_float, 0.0),
              "theta": (_float, 0.25), "n_deconv": (_int, 0),
              "unsafe_subcritical": (_bool, False)},
    "forcing": {},
    "initial": {"preset": (str, _REQUIRED), "seed": (_int, 0),
                "slope": (_float, -2.0), "cutoff_shell": (_int, None),
                "scale": (_float, 1.0), "seed_b": (_int, None),
                "scale_b": (_float, None), "path": (str, None)},
    "stepper": {"dt": (_float, _REQUIRED), "t_end": (_float, _REQUIRED),
                "scheme": (str, "ifrk4"), "sample_every": (_int, 1),
                "cfl_limit": (_float, 0.5)},
    "output": {"directory": (str, None), "checkpoint_every": (_int, 0)},
}


def _tokenize(text: str) -> dict[tuple[str, str], tuple[int, str]]:
    """(section, key) -> (line_no, value) after syntax validation."""
    section = None
    entries: dict[tuple[str, str], tuple[int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigSyntaxError(f"line {line_no}: malformed section header")
            section = line[1:-1].strip().lower()
            if section not in _KEYS:
                raise UnknownKeyError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"line {line_no}: expected 'key = value'")
        if section is None:
            raise ConfigSyntaxError(f"line {line_no}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigSyntaxError(f"line {line_no}: empty key")
        if section == "forcing":
            if not key.startswith("mode_"):
                raise UnknownKeyError(
                    f"line {line_no}: unknown key '{key}' in [forcing] "
                    f"(forcing keys are mode_1, mode_2, ...)")
        elif key not in _KEYS[section]:
            raise UnknownKeyError(
                f"line {line_no}: unknown key '{key}' in [{section}]")
        if (section, key) in entries:
            raise ConfigSyntaxError(
                f"duplicate key '{key}' in [{section}]: "
                f"lines {entries[(section, key)][0]} and {line_no}")
        entries[(section, key)] = (line_no, value)
    return entries


def _parse_forcing_mode(key: str, line_no: int, raw: str, dim: int) -> ForcingMode:
    parts = [p.strip() for p in raw.split(":")]
    if len(parts) not in (2, 3):
        raise InvariantViolation(
            f"{key}: expected 'a1 .. : re im pairs : decay' (line {line_no})")
    try:
        a = tuple(int(tok) for tok in parts[0].split())
        flat = [_float(tok) for tok in parts[1].split()]
        decay = _float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError:
        raise InvariantViolation(
            f"{key}: non-numeric or non-finite forcing entry "
            f"(line {line_no})") from None
    if len(a) != dim or len(flat) != 2 * dim:
        raise InvariantViolation(
            f"{key}: wavevector needs {dim} integers and amplitude "
            f"{2 * dim} floats (line {line_no})")
    amp = tuple(complex(flat[2 * j], flat[2 * j + 1]) for j in range(dim))
    return ForcingMode(a=a, amplitude=amp, decay_rate=decay)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; raises naming key and line."""
    entries = _tokenize(text)
    values = {}
    for section, keys in _KEYS.items():
        for key, (read, default) in keys.items():
            entry = entries.get((section, key))
            if entry is None:
                if default is _REQUIRED:
                    raise InvariantViolation(f"{key}: required key missing "
                                             f"from [{section}]")
                values[key] = default
                continue
            line_no, raw = entry
            try:
                values[key] = read(raw)
            except (ValueError, KeyError):
                raise InvariantViolation(
                    f"{key}: cannot interpret {raw!r} (line {line_no})") from None

    dim, n = values["dim"], values["n"]
    if dim not in (2, 3):
        raise InvariantViolation(f"dim: must be 2 or 3, got {dim}")
    if n < 8 or n % 2:
        raise InvariantViolation(f"n: must be even and >= 8, got {n}")
    if values["length"] <= 0:
        raise InvariantViolation("length: must be positive")
    if not 0.0 < values["dealias_fraction"] <= 1.0:
        raise InvariantViolation("dealias_fraction: must lie in (0, 1]")
    if values["kind"] not in _KINDS:
        raise InvariantViolation(
            f"kind: unknown model kind {values['kind']!r} "
            f"(expected one of {sorted(_KINDS)})")
    values["kind"] = _KINDS[values["kind"]]

    values["forcing"] = ForcingSpec(tuple(  # entries keep the text order
        _parse_forcing_mode(key, line_no, raw, dim)
        for (section, key), (line_no, raw) in entries.items()
        if section == "forcing"))
    values["forcing"].validate(dim)

    if values["preset"] not in ("taylor-green", "random", "checkpoint"):
        raise InvariantViolation(f"preset: unknown preset {values['preset']!r}")
    for key in ("seed", "seed_b"):
        if values[key] is not None and values[key] < 0:
            raise InvariantViolation(f"{key}: must be >= 0, got {values[key]}")
    if values["preset"] == "checkpoint" and not values["path"]:
        raise InvariantViolation("path: required for the checkpoint preset")
    if values["scheme"] not in _SCHEMES:
        raise InvariantViolation(f"scheme: unknown scheme {values['scheme']!r}")
    values["scheme"] = _SCHEMES[values["scheme"]]
    if values["checkpoint_every"] < 0:
        raise InvariantViolation("checkpoint_every: must be >= 0")
    if values["n_deconv"] >= 2 ** 32:  # a u32 field of the checkpoint header
        raise InvariantViolation(
            f"n_deconv: must be below 2^32, got {values['n_deconv']}")
    cfg = RunConfig(**values)

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
