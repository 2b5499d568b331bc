"""Line-oriented run configuration: [section] headers, key = value lines.

The format is deliberately flat so parse errors can always name the offending
key and line.  Comments start with '#', values never span lines, duplicate
keys are rejected with both line numbers.  Every key is declared once, as a
``RunConfig`` field with its section, reader and default (``_KEYS`` is derived
from the fields); float values must be finite.  The [forcing] section takes
mode_1, mode_2, ... ("a1 a2 [a3] : re im pairs : decay") instead.

Parsing reports the first fault in this order: syntax and unknown keys in
text order, then unreadable (an unknown ``kind`` or ``preset`` included) or
missing values in field order, then the range checks.  All module invariants
(the grid's own check, the theta >= 1/4 gate, forcing that is solenoidal and
inside the dealias band as the grid stores it, whole steps up to ``t_end``,
...) are re-validated at parse time so a RunConfig that parses is a RunConfig
that runs.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum

from .dynamics import ForcingMode, ForcingSpec, ModelConfig, ModelKind, SimState
from .errors import (ConfigSyntaxError, CriticalityViolation,
                     InvariantViolation, UnknownKeyError)
from .fields import SpectralVectorField, random_solenoidal
from .filtering import FilterParams
from .grid import WaveGrid, check_grid
from .presets import check_taylor_green_grid, taylor_green_state_field
from .stepping import StepperConfig, working_set

__all__ = ["RunConfig", "parse_config", "parse_config_file"]


def _int(text: str) -> int:
    return int(text, 10)


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bool(text: str) -> bool:
    return {"true": True, "false": False}[text.lower()]


class Preset(str, Enum):  # the reader of [initial] preset
    TAYLOR_GREEN = "taylor-green"
    RANDOM = "random"
    CHECKPOINT = "checkpoint"


def _key(section: str, read=None, default=MISSING):
    """A key of [section], read by ``read``; required when it has no default."""
    return field(default=default, metadata={"section": section, "read": read})


@dataclass(kw_only=True)
class RunConfig:
    """Validated run description: each field is a config key with its section,
    reader and default, in reading order.  Builders assemble live objects."""

    dim: int = _key("grid", _int)
    n: int = _key("grid", _int)
    length: float = _key("grid", _float, 2.0 * math.pi)
    dealias_fraction: float = _key("grid", _float, 2.0 / 3.0)
    kind: ModelKind = _key("model", ModelKind)
    nu: float = _key("model", _float)
    nu2: float | None = _key("model", _float, None)
    alpha: float = _key("model", _float, 0.0)
    theta: float = _key("model", _float, 0.25)
    n_deconv: int = _key("model", _int, 0)
    unsafe_subcritical: bool = _key("model", _bool, False)
    forcing: ForcingSpec = _key("forcing")  # from mode_1, mode_2, ...
    preset: Preset = _key("initial", Preset)
    seed: int = _key("initial", _int, 0)
    slope: float = _key("initial", _float, -2.0)
    cutoff_shell: int | None = _key("initial", _int, None)
    scale: float = _key("initial", _float, 1.0)
    seed_b: int | None = _key("initial", _int, None)
    scale_b: float | None = _key("initial", _float, None)
    path: str | None = _key("initial", str, None)
    dt: float = _key("stepper", _float)
    t_end: float = _key("stepper", _float)
    sample_every: int = _key("stepper", _int, 1)
    cfl_limit: float = _key("stepper", _float, 0.5)
    directory: str | None = _key("output", str, None)
    checkpoint_every: int = _key("output", _int, 0)

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
        return StepperConfig(dt=self.dt, t_end=self.t_end,
                             sample_every=self.sample_every,
                             cfl_limit=self.cfl_limit)

    def build_initial(self, grid: WaveGrid) -> SimState:
        if self.preset is Preset.CHECKPOINT:
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
        b = None
        if self.preset is Preset.TAYLOR_GREEN:
            u = taylor_green_state_field(grid, self.nu, 0.0)
        else:
            cutoff = (self.cutoff_shell if self.cutoff_shell is not None
                      else grid.dealias_cutoff)
            u = random_solenoidal(grid, self.seed, self.slope, cutoff)
            if self.kind is ModelKind.MHD_DECONV:
                seed_b = self.seed_b if self.seed_b is not None else self.seed + 1
                scale_b = self.scale_b if self.scale_b is not None else self.scale
                b = random_solenoidal(grid, seed_b, self.slope, cutoff)
                b = SpectralVectorField(grid, b.coeffs * scale_b)
        return SimState(0.0, SpectralVectorField(grid, u.coeffs * self.scale), b)


# section -> key -> its RunConfig field; [forcing] takes mode_1, mode_2, ...
_KEYS: dict[str, dict] = {}
for _f in fields(RunConfig):
    _KEYS.setdefault(_f.metadata["section"], {})
    if _f.metadata["read"] is not None:
        _KEYS[_f.metadata["section"]][_f.name] = _f


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
                raise UnknownKeyError(f"line {line_no}: unknown section {section!r}")
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
                    f"line {line_no}: unknown key {key!r} in [forcing] "
                    f"(forcing keys are mode_1, mode_2, ...)")
        elif key not in _KEYS[section]:
            raise UnknownKeyError(
                f"line {line_no}: unknown key {key!r} in [{section}]")
        if (section, key) in entries:
            raise ConfigSyntaxError(
                f"duplicate key {key!r} in [{section}]: "
                f"lines {entries[(section, key)][0]} and {line_no}")
        entries[(section, key)] = (line_no, value)
    return entries


def _parse_forcing_mode(key: str, line_no: int, raw: str, dim: int) -> ForcingMode:
    parts = [p.strip() for p in raw.split(":")]
    if len(parts) not in (2, 3):
        raise InvariantViolation(
            f"{key!r}: expected 'a1 .. : re im pairs : decay' (line {line_no})")
    try:
        a = tuple(int(tok) for tok in parts[0].split())
        flat = [_float(tok) for tok in parts[1].split()]
        decay = _float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError:
        raise InvariantViolation(
            f"{key!r}: non-numeric or non-finite forcing entry "
            f"(line {line_no})") from None
    if len(a) != dim or len(flat) != 2 * dim:
        raise InvariantViolation(
            f"{key!r}: wavevector needs {dim} integers and amplitude "
            f"{2 * dim} floats (line {line_no})")
    amp = tuple(complex(flat[2 * j], flat[2 * j + 1]) for j in range(dim))
    return ForcingMode(a=a, amplitude=amp, decay_rate=decay)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; raises naming key and line."""
    entries = _tokenize(text)
    values = {}
    for section, keys in _KEYS.items():
        for key, spec in keys.items():
            entry = entries.get((section, key))
            if entry is None:
                if spec.default is MISSING:
                    raise InvariantViolation(f"{key}: required key missing "
                                             f"from [{section}]")
                values[key] = spec.default
                continue
            line_no, raw = entry
            try:
                values[key] = spec.metadata["read"](raw)
            except (ValueError, KeyError):
                raise InvariantViolation(
                    f"{key}: cannot interpret {raw!r} (line {line_no})") from None

    dim, n = values["dim"], values["n"]
    try:
        check_grid(dim, n, values["length"])
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from None
    if not 0.0 < values["dealias_fraction"] <= 1.0:
        raise InvariantViolation("dealias_fraction: must lie in (0, 1]")
    run_bytes = working_set(dim, n, values["kind"])
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if run_bytes > memory:
        raise InvariantViolation(
            f"n: a {values['kind'].value} run at n = {n} needs about "
            f"{run_bytes} bytes, more than the {memory} of physical memory")

    values["forcing"] = ForcingSpec(tuple(  # entries keep the text order
        _parse_forcing_mode(key, line_no, raw, dim)
        for (section, key), (line_no, raw) in entries.items()
        if section == "forcing"))

    for key in ("seed", "seed_b"):
        if values[key] is not None and values[key] < 0:
            raise InvariantViolation(f"{key}: must be >= 0, got {values[key]}")
    for key in ("path", "directory"):
        if values[key] is not None and "\0" in values[key]:
            raise InvariantViolation(f"{key}: a path cannot hold a NUL byte")
    if values["preset"] is Preset.CHECKPOINT and not values["path"]:
        raise InvariantViolation("path: required for the checkpoint preset")
    if values["checkpoint_every"] < 0:
        raise InvariantViolation("checkpoint_every: must be >= 0")
    cfg = RunConfig(**values)

    # Re-validate every downstream invariant now, so errors carry key names.
    try:
        grid = cfg.build_grid()
        cfg.build_model()
        stepper = cfg.build_stepper()
        if cfg.preset is not Preset.CHECKPOINT:  # it starts at its file's t
            stepper.n_steps()
        cfg.forcing.check_stored(grid)
    except CriticalityViolation as exc:
        raise InvariantViolation(f"theta: {exc}") from None
    except (InvariantViolation, ValueError) as exc:
        raise InvariantViolation(str(exc)) from None
    if cfg.cutoff_shell is not None and cfg.cutoff_shell > grid.dealias_cutoff:
        raise InvariantViolation(
            f"cutoff_shell: {cfg.cutoff_shell} exceeds the dealias cutoff "
            f"{grid.dealias_cutoff}")
    if cfg.preset is Preset.TAYLOR_GREEN:
        try:
            check_taylor_green_grid(grid)
        except InvariantViolation as exc:
            raise InvariantViolation(f"preset: {exc}") from None
    if cfg.preset is not Preset.CHECKPOINT:
        # Energy samples at t = 0 are below n^dim (A max(1, k0 n))^2, with
        # A = |scale| (k0 j)^slope, j in [1, cutoff] (|scale| for Taylor-Green)
        room = (math.log(sys.float_info.max) - dim * math.log(n)) / 2 \
            - max(0.0, math.log(grid.k0 * n))
        cutoff = (grid.dealias_cutoff if cfg.cutoff_shell is None
                  else cfg.cutoff_shell)
        peak = max((cfg.slope * math.log(grid.k0 * j) for j in (1, cutoff)
                    if cfg.preset is Preset.RANDOM and cutoff >= 1),
                   default=0.0)
        for key, scale in (("slope", 1.0), ("scale", cfg.scale), ("scale_b",
                           cfg.kind is ModelKind.MHD_DECONV and cfg.scale_b)):
            if scale and math.log(abs(scale)) + peak > room:
                raise InvariantViolation(f"{key}: overflows the initial field")
    return cfg


def parse_config_file(path: str) -> RunConfig:
    """Parse a UTF-8 config file; a leading byte order mark is skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigSyntaxError(f"byte {exc.start}: not valid UTF-8") from None
    return parse_config(text.removeprefix("\ufeff"))
