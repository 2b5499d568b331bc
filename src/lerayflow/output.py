"""CSV / text emission with full double precision and atomic writes.

Numbers are formatted with 17 significant digits via repr-style '%.17g', so
files are locale-independent and round-trip exactly; identical trajectories
produce byte-identical files.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import astuple, fields

from .diagnostics import EnergyRecord, SweepReport

__all__ = ["format_g17", "atomic_write", "energy_csv_text",
           "write_energy_csv", "write_sweep_csv", "write_summary"]


def format_g17(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write(path: str, *chunks: bytes) -> None:
    """Write the chunks (bytes-like) to path through a temp file in the same
    directory and ``os.replace``, so readers see the old file or the whole
    new one; the file gets the mode ``open()`` gives, 0666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def energy_csv_text(records: list[EnergyRecord]) -> str:
    """One row per record, its fields in declaration order."""
    lines = [",".join(f.name for f in fields(EnergyRecord))]
    for r in records:
        lines.append(",".join(format_g17(value) for value in astuple(r)))
    return "\n".join(lines) + "\n"


def write_energy_csv(path: str, records: list[EnergyRecord]) -> None:
    atomic_write(path, energy_csv_text(records).encode())


def write_sweep_csv(path: str, report: SweepReport) -> None:
    lines = ["parameter,error"]
    for p, e in zip(report.parameter_values, report.errors):
        lines.append(f"{format_g17(p)},{format_g17(e)}")
    for name in ("slope", "target_slope", "ratio", "ratio_bound"):
        if getattr(report, name) is not None:
            lines.append(f"{name},{format_g17(getattr(report, name))}")
    lines.append(f"pass,{1 if report.passed else 0}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_summary(path: str, entries: list[tuple[str, object]]) -> None:
    lines = []
    for name, value in entries:
        text = format_g17(value) if isinstance(value, float) else value
        lines.append(f"{name} = {text}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())
