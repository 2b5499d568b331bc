"""Binary checkpoints: fixed little-endian header + packed coefficients.

Layout (all little-endian, no padding)::

    magic            4s   b"LFCK"
    format version   u16  (currently 1)
    dim              u8
    has_b            u8   (1 if a magnetic field follows the velocity)
    n                u32
    L                f64
    dealias_cutoff   u32
    model kind       u8   (index into KIND_ORDER)
    nu               f64
    nu2              f64  (0 when absent)
    alpha            f64
    theta            f64
    n_deconv         u32
    t                f64
    payload length   u64  (bytes)
    checksum         u32  (CRC32 of the header with this field zeroed,
                           followed by the payload)

The payload is the velocity coefficients, then the magnetic ones if present:
component by component (x first), each a C-order complex128 array over the
full FFT-layout axes.  The solver keeps only the rfft half spectrum, so saving
expands it by Hermitian symmetry and loading keeps the half after checking
that the dropped mirror modes are the conjugates of the kept ones.  Round
trips are bit-exact, which is what makes resumed runs reproduce
uninterrupted trajectories.  Every malformed file raises
:class:`InvariantViolation` with a one-line message.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib

import numpy as np

from .dynamics import ModelConfig, ModelKind, SimState
from .errors import InvariantViolation
from .fields import SpectralVectorField, full_layout
from .grid import WaveGrid

__all__ = ["save_checkpoint", "load_checkpoint", "FORMAT_VERSION"]

MAGIC = b"LFCK"
FORMAT_VERSION = 1
KIND_ORDER = (ModelKind.NSE, ModelKind.LERAY_ALPHA,
              ModelKind.LERAY_DECONV, ModelKind.MHD_DECONV)
_HEADER_FMT = "<4sHBBIdIBddddIdQI"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


def _payload_bytes(state: SimState) -> bytes:
    return b"".join(full_layout(f.grid, f.coeffs).astype("<c16").tobytes()
                    for f in (state.u, state.b) if f is not None)


def save_checkpoint(path: str, state: SimState, cfg: ModelConfig) -> None:
    """Write the state atomically (temp file + rename)."""
    grid = state.u.grid
    payload = _payload_bytes(state)
    header_wo_crc = struct.pack(
        _HEADER_FMT, MAGIC, FORMAT_VERSION, grid.dim,
        1 if state.b is not None else 0, grid.n, grid.L,
        grid.dealias_cutoff, KIND_ORDER.index(cfg.kind), cfg.nu,
        cfg.nu2 if cfg.nu2 is not None else 0.0, cfg.filter.alpha,
        cfg.filter.theta, cfg.filter.n_deconv, state.t, len(payload), 0)
    crc = zlib.crc32(payload, zlib.crc32(header_wo_crc))
    header = header_wo_crc[:-4] + struct.pack("<I", crc)

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> tuple[SimState, dict]:
    """Read a checkpoint; returns the state and a metadata dict with the
    reconstructed grid and the stored model descriptor."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_SIZE)
        payload = fh.read()
    if len(header) != _HEADER_SIZE:
        raise InvariantViolation(f"{path}: truncated checkpoint header")
    (magic, version, dim, has_b, n, L, cutoff, kind_idx, nu, nu2, alpha,
     theta, n_deconv, t, payload_len, crc) = struct.unpack(_HEADER_FMT, header)
    if magic != MAGIC:
        raise InvariantViolation(f"{path}: not a lerayflow checkpoint")
    if version != FORMAT_VERSION:
        raise InvariantViolation(
            f"{path}: unsupported checkpoint version {version}")
    if payload_len != len(payload):
        raise InvariantViolation(f"{path}: payload length mismatch")
    expect_crc = zlib.crc32(payload, zlib.crc32(header[:-4] + b"\x00" * 4))
    if crc != expect_crc:
        raise InvariantViolation(f"{path}: checksum mismatch")

    if has_b not in (0, 1):
        raise InvariantViolation(f"{path}: magnetic-field flag {has_b} is not 0 or 1")
    if kind_idx >= len(KIND_ORDER):
        raise InvariantViolation(f"{path}: unknown model kind index {kind_idx}")
    kind = KIND_ORDER[kind_idx]
    if has_b != (kind is ModelKind.MHD_DECONV):
        raise InvariantViolation(
            f"{path}: magnetic-field flag {has_b} does not match kind {kind.value}")
    expected = (1 + has_b) * dim * n ** dim * 16
    if payload_len != expected:
        raise InvariantViolation(
            f"{path}: payload of {payload_len} bytes, expected {expected} "
            f"for dim {dim}, n {n}")
    if not np.isfinite(t):
        raise InvariantViolation(f"{path}: non-finite time {t}")
    try:
        grid = WaveGrid(dim, n, L, dealias_cutoff=cutoff)
    except ValueError as exc:
        raise InvariantViolation(f"{path}: {exc}") from None
    full = np.frombuffer(payload, dtype="<c16").reshape(
        (1 + has_b, dim) + grid.shape)
    if not np.all(np.isfinite(full)):
        raise InvariantViolation(f"{path}: non-finite coefficients")

    fields = []
    for stored in full:
        half = np.array(stored[..., : n // 2 + 1], dtype=complex)
        mirror = np.abs(full_layout(grid, half) - stored).max()
        if mirror > 1e-10 * np.abs(stored).max():
            raise InvariantViolation(
                f"{path}: mirror modes are not the conjugates of the kept "
                f"ones (deviation {mirror:.3e})")
        fields.append(SpectralVectorField(grid, half))
    meta = {"grid": grid, "kind": kind, "nu": nu, "nu2": nu2 if has_b else None,
            "alpha": alpha, "theta": theta, "n_deconv": n_deconv}
    return SimState(t, fields[0], fields[1] if has_b else None), meta
