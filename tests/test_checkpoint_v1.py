"""Format-v1 checkpoints: an old file still loads and resumes.

``tests/data/mhd_deconv_8_v1.lfck`` is the step-10 checkpoint of
``V1_CONFIG`` (3D 8^3 ``mhd-deconv`` with a magnetic field), written by the
solver while it still stored full FFT-layout spectra.  Steps 0-10 of a fresh
run use today's arithmetic, so the resume from the old file matches the
uninterrupted run to roundoff; the resume path itself is checked bit for
bit.  Regenerate the file (only with such a solver) with

    PYTHONPATH=src python tests/test_checkpoint_v1.py
"""

import os
import shutil
import sys

import numpy as np

from lerayflow.checkpoint import _HEADER_SIZE, load_checkpoint, save_checkpoint
from lerayflow.config import parse_config
from lerayflow.runner import execute_run
from lerayflow.stepping import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
V1_FILE = os.path.join(ROOT, "tests", "data", "mhd_deconv_8_v1.lfck")

V1_CONFIG = """
[grid]
dim = 3
n = 8

[model]
kind = mhd-deconv
nu = 0.02
nu2 = 0.02
alpha = 0.1
theta = 0.25
n_deconv = 1

[initial]
{initial}

[stepper]
dt = 0.001
t_end = 0.02

[output]
directory = {outdir}
checkpoint_every = 10
"""
RANDOM_INITIAL = "preset = random\nseed = 3\nseed_b = 4\nslope = -2.0\ncutoff_shell = 2"


def config_text(outdir: str, checkpoint: str | None = None) -> str:
    initial = (RANDOM_INITIAL if checkpoint is None
               else f"preset = checkpoint\npath = {checkpoint}")
    return V1_CONFIG.format(initial=initial, outdir=outdir)


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_v1_resume_reproduces_uninterrupted_run(tmp_path):
    # the file holds the old solver's step 10; steps 0-10 of the fresh run
    # may differ at roundoff, inside the 1e-13 bound of the fingerprints
    whole, _ = execute_run(parse_config(config_text(str(tmp_path / "whole"))))
    resumed, _ = execute_run(parse_config(
        config_text(str(tmp_path / "resumed"), checkpoint=V1_FILE)))
    assert resumed.t == whole.t
    assert _relative_gap(resumed.u.coeffs, whole.u.coeffs) <= 1e-13
    assert _relative_gap(resumed.b.coeffs, whole.b.coeffs) <= 1e-13


def test_v1_resume_is_run_from_the_loaded_state(tmp_path):
    rc = parse_config(config_text(str(tmp_path), checkpoint=V1_FILE))
    resumed, _ = execute_run(rc)
    state, _meta = load_checkpoint(V1_FILE)
    direct = run(state, rc.build_model(), rc.build_stepper())
    assert resumed.t == direct.t
    assert np.array_equal(resumed.u.coeffs, direct.u.coeffs)
    assert np.array_equal(resumed.b.coeffs, direct.b.coeffs)


def test_current_checkpoint_resumes_bit_for_bit(tmp_path):
    whole_dir = str(tmp_path / "whole")
    whole, _ = execute_run(parse_config(config_text(whole_dir)))
    resumed, _ = execute_run(parse_config(config_text(
        str(tmp_path / "resumed"),
        checkpoint=os.path.join(whole_dir, "checkpoint_000010.lfck"))))
    assert resumed.t == whole.t
    assert np.array_equal(resumed.u.coeffs, whole.u.coeffs)
    assert np.array_equal(resumed.b.coeffs, whole.b.coeffs)


def test_v1_file_loads_into_half_layout():
    state, meta = load_checkpoint(V1_FILE)
    assert state.t == 0.01
    assert meta["kind"].value == "mhd-deconv"
    for field in (state.u, state.b):
        assert field.coeffs.shape == (3, 8, 8, 5)
        assert field.coeffs.shape[1:] == meta["grid"].spectral_shape


def test_save_writes_the_full_v1_layout(tmp_path):
    # expanding on save gives back the header and the coefficient values of
    # the stored v1 file (the CRC may differ: zeros can change sign)
    state, _meta = load_checkpoint(V1_FILE)
    cfg = parse_config(config_text(str(tmp_path))).build_model()
    path = str(tmp_path / "again.lfck")
    save_checkpoint(path, state, cfg)
    with open(V1_FILE, "rb") as a, open(path, "rb") as b:
        old, new = a.read(), b.read()
    assert old[:_HEADER_SIZE - 4] == new[:_HEADER_SIZE - 4]
    assert np.array_equal(np.frombuffer(old[_HEADER_SIZE:], "<c16"),
                          np.frombuffer(new[_HEADER_SIZE:], "<c16"))


def main() -> int:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        execute_run(parse_config(config_text(tmp)))
        os.makedirs(os.path.dirname(V1_FILE), exist_ok=True)
        shutil.copyfile(os.path.join(tmp, "checkpoint_000010.lfck"), V1_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
