"""Property tests of the inputs other than config text: checkpoint bytes and
the LERAY_THREADS environment variable.

A corrupted checkpoint either loads or fails with a one-line
InvariantViolation, and resuming it from the CLI exits 0 or 4 with at most
one stderr line.  Any LERAY_THREADS string gives a worker count in
[1, CPU count]."""

import contextlib
import io
import os
import re
import struct
import tempfile
import zlib
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from lerayflow import (FilterParams, InvariantViolation, ModelConfig,
                       ModelKind, SimState, SpectralVectorField, WaveGrid,
                       random_solenoidal)
from lerayflow.checkpoint import (_HEADER_FMT, _HEADER_SIZE, load_checkpoint,
                                  save_checkpoint)
from lerayflow.cli import EXIT_INVARIANT, EXIT_OK, main
from lerayflow.grid import worker_count

# A 2D 8^2 leray-alpha state at t = 0.5, small enough to stay linear: the
# resume config below steps it with dt = 0.25 up to t_end = 0.75.
GRID = WaveGrid(2, 8)
MODEL = ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=0.02,
                    filter=FilterParams(alpha=0.1, theta=0.25))
RESUME = """[grid]
dim = 2
n = 8
[model]
kind = leray-alpha
nu = 0.02
alpha = 0.1
[initial]
preset = checkpoint
path = {path}
[stepper]
dt = 0.25
t_end = 0.75
[output]
directory = {outdir}
"""


def _valid_bytes() -> bytes:
    u = random_solenoidal(GRID, 5, -1.5, 2)
    state = SimState(0.5, SpectralVectorField(GRID, 1e-3 * u.coeffs))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.lfck")
        save_checkpoint(path, state, MODEL)
        with open(path, "rb") as fh:
            return fh.read()


VALID = _valid_bytes()
FIELDS = re.findall(r"\d*[a-zA-Z]", _HEADER_FMT[1:])  # one code per field
VERSION, TIME, PAYLOAD_LENGTH = 1, 13, 14
# A forged time stays in [-10, 10] or is not a finite double, so that the
# resumed run stays short.
TIMES = st.one_of(st.floats(-10.0, 10.0),
                  st.sampled_from([float("nan"), float("inf"), 1e308]))
FIELD_VALUES = {
    "s": st.one_of(st.just(b"LFCK"), st.binary(min_size=4, max_size=4)),
    "H": st.integers(0, 2 ** 16 - 1),
    "B": st.integers(0, 2 ** 8 - 1),
    "I": st.one_of(st.integers(0, 16), st.integers(0, 2 ** 32 - 1)),
    "Q": st.integers(0, 2 ** 64 - 1),
    "d": st.floats(allow_nan=True, allow_infinity=True),
}


def _with_crc(header: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(payload, zlib.crc32(header[:-4] + b"\x00" * 4))
    return header[:-4] + struct.pack("<I", crc) + payload


def _flip(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@st.composite
def corrupted(draw):
    how = draw(st.sampled_from(["truncate", "flip", "forge"]))
    if how == "truncate":
        return VALID[:draw(st.integers(0, len(VALID) - 1))]
    if how == "flip":
        blob = VALID
        for _ in range(draw(st.integers(1, 3))):
            blob = _flip(blob, draw(st.integers(0, 8 * len(blob) - 1)))
        return blob
    # one header field replaced, the CRC recomputed to match
    fields = list(struct.unpack(_HEADER_FMT, VALID[:_HEADER_SIZE]))
    i = draw(st.integers(0, len(fields) - 2))
    fields[i] = draw(TIMES if i == TIME else FIELD_VALUES[FIELDS[i][-1]])
    return _with_crc(struct.pack(_HEADER_FMT, *fields), VALID[_HEADER_SIZE:])


def _field_bit(index: int) -> int:
    """The lowest bit of a header field."""
    return 8 * struct.calcsize("<" + "".join(FIELDS[:index]))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(corrupted())
@example(VALID[:_HEADER_SIZE - 1])
@example(_flip(VALID, _field_bit(VERSION)))
@example(_flip(VALID, _field_bit(PAYLOAD_LENGTH)))
def test_checkpoint_bytes_load_or_fail_with_one_line(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.lfck")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load_checkpoint(path)
            expected = {EXIT_OK, EXIT_INVARIANT}
        except InvariantViolation as exc:
            assert "\n" not in str(exc)
            expected = {EXIT_INVARIANT}

        cfg = os.path.join(tmp, "resume.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(RESUME.format(path=path, outdir=os.path.join(tmp, "out")))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", cfg])
    assert code in expected, err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\x00"), max_size=12)))
def test_any_thread_count_is_clamped(raw):
    with mock.patch.dict(os.environ, {"LERAY_THREADS": raw}):
        assert 1 <= worker_count() <= (os.cpu_count() or 1)
