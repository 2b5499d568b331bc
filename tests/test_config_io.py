"""Config parsing, checkpoint format, CSV emission."""

import os
import struct
import zlib

import numpy as np
import pytest

from lerayflow import (ConfigSyntaxError, FilterParams, InvariantViolation,
                       ModelConfig, ModelKind, SimState, UnknownKeyError,
                       WaveGrid, random_solenoidal)
from lerayflow.checkpoint import (_HEADER_FMT, MAGIC, load_checkpoint,
                                  save_checkpoint)
from lerayflow.cli import EXIT_INVARIANT, main
from lerayflow.config import parse_config
from lerayflow.diagnostics import EnergyRecord
from lerayflow.fields import full_layout
from lerayflow.output import energy_csv_text, format_g17

MINIMAL = """
[grid]
dim = 2
n = 64

[model]
kind = leray-alpha
nu = 0.01
alpha = 0.1
theta = 0.25

[initial]
preset = taylor-green

[stepper]
dt = 0.001
t_end = 0.01
"""


class TestParseConfig:
    def test_minimal_echoes_values(self):
        rc = parse_config(MINIMAL)
        assert rc.dim == 2 and rc.n == 64
        assert rc.kind is ModelKind.LERAY_ALPHA
        assert rc.nu == 0.01 and rc.alpha == 0.1 and rc.theta == 0.25
        assert rc.preset == "taylor-green"
        assert rc.dt == 0.001 and rc.t_end == 0.01
        grid = rc.build_grid()
        assert grid.dealias_cutoff == 21  # floor(2/3 * 64/2)

    def test_theta_gate_names_theta(self):
        text = MINIMAL.replace("theta = 0.25", "theta = 0.1")
        with pytest.raises(InvariantViolation, match="theta"):
            parse_config(text)

    def test_unsafe_flag_downgrades_gate_to_warning(self):
        text = MINIMAL.replace("theta = 0.25",
                               "theta = 0.1\nunsafe_subcritical = true")
        with pytest.warns(UserWarning):
            rc = parse_config(text)
        assert rc.unsafe_subcritical

    def test_duplicate_key_reports_both_lines(self):
        text = MINIMAL + "\n[output]\ndirectory = a\ndirectory = b\n"
        with pytest.raises(ConfigSyntaxError, match=r"lines \d+ and \d+"):
            parse_config(text)

    def test_unknown_key_named(self):
        text = MINIMAL.replace("nu = 0.01", "nu = 0.01\nviscosity = 0.2")
        with pytest.raises(UnknownKeyError, match="viscosity"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(UnknownKeyError, match="extras"):
            parse_config(MINIMAL + "\n[extras]\nfoo = 1\n")

    def test_missing_required_key(self):
        text = MINIMAL.replace("nu = 0.01\n", "")
        with pytest.raises(InvariantViolation, match="nu"):
            parse_config(text)

    def test_key_outside_section(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("dim = 2\n" + MINIMAL)

    def test_bad_value_reports_line(self):
        text = MINIMAL.replace("nu = 0.01", "nu = viscous")
        with pytest.raises(InvariantViolation, match="nu"):
            parse_config(text)

    def test_taylor_green_needs_2d(self):
        text = MINIMAL.replace("dim = 2", "dim = 3").replace("n = 64", "n = 16")
        with pytest.raises(InvariantViolation, match="preset"):
            parse_config(text)

    def test_forcing_modes_parsed_in_order(self):
        text = MINIMAL + """
[forcing]
mode_1 = 1 2 : 0.2 0.1 -0.1 -0.05 : 0.5
mode_2 = 0 1 : 0.3 0.0 0.0 0.0
"""
        rc = parse_config(text)
        assert len(rc.forcing.modes) == 2
        assert rc.forcing.modes[0].a == (1, 2)
        assert rc.forcing.modes[0].amplitude == (0.2 + 0.1j, -0.1 - 0.05j)
        assert rc.forcing.modes[0].decay_rate == 0.5
        assert rc.forcing.modes[1].decay_rate == 0.0

    def test_forcing_orthogonality_checked(self):
        text = MINIMAL + "\n[forcing]\nmode_1 = 1 0 : 1.0 0.0 0.0 0.0\n"
        with pytest.raises(InvariantViolation):
            parse_config(text)

    def test_random_preset_with_mhd_fields(self):
        text = """
[grid]
dim = 3
n = 16

[model]
kind = mhd-deconv
nu = 0.02
nu2 = 0.03
alpha = 0.1
theta = 0.25
n_deconv = 1

[initial]
preset = random
seed = 5
slope = -2.0
cutoff_shell = 4

[stepper]
dt = 0.001
t_end = 0.01
"""
        rc = parse_config(text)
        grid = rc.build_grid()
        state = rc.build_initial(grid)
        assert state.b is not None
        assert state.u.divergence_residual() <= 1e-12
        assert state.b.divergence_residual() <= 1e-12

    def test_cutoff_shell_bounded_by_dealias(self):
        text = MINIMAL.replace("preset = taylor-green",
                               "preset = random\ncutoff_shell = 30")
        with pytest.raises(InvariantViolation, match="cutoff_shell"):
            parse_config(text)

    @pytest.mark.parametrize("order", [2 ** 32, 10 ** 400],
                             ids=["2^32", "10^400"])
    def test_deconvolution_order_fits_the_checkpoint(self, order):
        text = MINIMAL.replace("theta = 0.25",
                               f"theta = 0.25\nn_deconv = {order}")
        with pytest.raises(InvariantViolation, match="n_deconv"):
            parse_config(text)
        parse_config(text.replace(str(order), str(2 ** 32 - 1)))

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n" + MINIMAL.replace(
            "nu = 0.01", "nu = 0.01   # viscosity")
        assert parse_config(text).nu == 0.01

    def test_scales_multiply_the_unscaled_fields(self):
        mhd = MINIMAL.replace("kind = leray-alpha", "kind = mhd-deconv\n"
                              "nu2 = 0.01").replace("preset = taylor-green",
                                                    "preset = random")
        for text, factors in ((MINIMAL, (2.0,)), (mhd, (2.0, 3.0))):
            rc = parse_config(text)
            grid = rc.build_grid()
            plain = rc.build_initial(grid)
            scaled = parse_config(text.replace(
                "[stepper]", "scale = 2\nscale_b = 3\n[stepper]")
            ).build_initial(grid)
            for f, g, factor in zip((scaled.u, scaled.b), (plain.u, plain.b),
                                    factors):
                assert np.array_equal(f.coeffs, factor * g.coeffs)


class TestCheckpoint:
    def make_state(self, tmp_path, mhd=False):
        grid = WaveGrid(3, 16)
        u = random_solenoidal(grid, 3, -1.5, 5)
        b = random_solenoidal(grid, 4, -1.5, 5) if mhd else None
        kind = ModelKind.MHD_DECONV if mhd else ModelKind.LERAY_ALPHA
        cfg = ModelConfig(kind=kind, nu=0.02, nu2=0.03 if mhd else None,
                          filter=FilterParams(alpha=0.1, theta=0.25,
                                              n_deconv=2))
        return SimState(0.375, u, b), cfg

    @pytest.mark.parametrize("mhd", [False, True])
    def test_roundtrip_bit_exact(self, tmp_path, mhd):
        state, cfg = self.make_state(tmp_path, mhd)
        path = os.path.join(tmp_path, "state.lfck")
        save_checkpoint(path, state, cfg)
        loaded, meta = load_checkpoint(path)
        assert loaded.t == state.t
        assert np.array_equal(loaded.u.coeffs, state.u.coeffs)
        if mhd:
            assert np.array_equal(loaded.b.coeffs, state.b.coeffs)
        else:
            assert loaded.b is None
        assert meta["kind"] is cfg.kind
        assert meta["alpha"] == 0.1 and meta["n_deconv"] == 2
        assert meta["grid"].same_as(state.u.grid)

    def test_checksum_validates(self, tmp_path):
        state, cfg = self.make_state(tmp_path)
        path = os.path.join(tmp_path, "state.lfck")
        save_checkpoint(path, state, cfg)
        blob = bytearray(open(path, "rb").read())
        blob[200] ^= 0xFF  # corrupt one payload byte
        open(path, "wb").write(bytes(blob))
        with pytest.raises(InvariantViolation, match="checksum"):
            load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = os.path.join(tmp_path, "junk.lfck")
        open(path, "wb").write(b"not a checkpoint at all" * 10)
        with pytest.raises(InvariantViolation):
            load_checkpoint(path)


def forge_checkpoint(path, payload, *, dim=3, has_b=0, n=8, kind=1, t=0.5):
    """A checkpoint with a consistent length field and CRC, whatever else."""
    header = struct.pack(_HEADER_FMT, MAGIC, 1, dim, has_b, n, 2.0 * np.pi,
                         2, kind, 0.02, 0.0, 0.1, 0.25, 0, t, len(payload), 0)
    crc = zlib.crc32(payload, zlib.crc32(header))
    with open(path, "wb") as fh:
        fh.write(header[:-4] + struct.pack("<I", crc) + payload)


def full_payload(grid, fields: int = 1) -> np.ndarray:
    """Full FFT-layout coefficients of ``fields`` random solenoidal fields."""
    return np.stack([full_layout(grid, random_solenoidal(
        grid, seed, -1.5, 2).coeffs) for seed in range(fields)])


def _nan_coefficient(full):
    full[0, 0, 1, 2, 0] = np.nan


def _broken_mirror(full):
    full[0, 1, 1, 2, 6] += 1e-3  # a_3 = -2: dropped on load


FORGED = {
    # name: (header overrides, fields in the payload, payload edit, message)
    "short_payload": ({}, 1, "short", "payload of"),
    "kind_index": ({"kind": 9}, 1, None, "unknown model kind index 9"),
    "has_b_flag": ({"has_b": 2}, 3, None, "flag 2 is not 0 or 1"),
    "b_without_mhd": ({"has_b": 1}, 2, None, "does not match kind leray-alpha"),
    "mhd_without_b": ({"kind": 3}, 1, None, "does not match kind mhd-deconv"),
    "bad_dim": ({"dim": 4}, 0, None, "dim must be 2 or 3"),
    "nonfinite_t": ({"t": float("inf")}, 1, None, "non-finite time"),
    "nonfinite_coefficient": ({}, 1, _nan_coefficient, "non-finite coefficients"),
    "broken_mirror": ({}, 1, _broken_mirror, "mirror modes"),
}


class TestForgedCheckpoints:
    """CRC-consistent files with a bad field fail with one clear line."""

    @pytest.mark.parametrize("case", sorted(FORGED))
    def test_rejected(self, tmp_path, case):
        overrides, fields, edit, message = FORGED[case]
        if fields:
            full = full_payload(WaveGrid(3, 8), fields)
            if callable(edit):
                edit(full)
            payload = full.astype("<c16").tobytes()
        else:
            payload = bytes(4 * 8 ** 4 * 16)
        if edit == "short":
            payload = payload[:-16]
        path = os.path.join(tmp_path, f"{case}.lfck")
        forge_checkpoint(path, payload, **overrides)
        with pytest.raises(InvariantViolation, match=message) as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    def test_run_exits_with_invariant_code(self, tmp_path, capsys):
        ckpt = os.path.join(tmp_path, "short.lfck")
        payload = full_payload(WaveGrid(3, 8)).astype("<c16").tobytes()
        forge_checkpoint(ckpt, payload[:-16])
        cfg = os.path.join(tmp_path, "resume.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"[grid]\ndim = 3\nn = 8\n[model]\nkind = leray-alpha\n"
                     f"nu = 0.02\nalpha = 0.1\n[initial]\npreset = checkpoint\n"
                     f"path = {ckpt}\n[stepper]\ndt = 0.001\nt_end = 0.501\n"
                     f"[output]\ndirectory = {tmp_path}/out\n")
        assert main(["run", cfg]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "payload of" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("stored,configured", [
        ("mhd-deconv", "leray-alpha"), ("leray-alpha", "mhd-deconv")])
    def test_resume_checks_magnetic_field(self, tmp_path, capsys, stored,
                                          configured):
        grid = WaveGrid(3, 8)
        mhd = stored == "mhd-deconv"
        state = SimState(0.5, random_solenoidal(grid, 1, -1.5, 2),
                         random_solenoidal(grid, 2, -1.5, 2) if mhd else None)
        model = ModelConfig(kind=ModelKind(stored), nu=0.02,
                            nu2=0.02 if mhd else None,
                            filter=FilterParams(alpha=0.1, theta=0.25))
        ckpt = os.path.join(tmp_path, "state.lfck")
        save_checkpoint(ckpt, state, model)
        cfg = os.path.join(tmp_path, "resume.cfg")
        nu2 = "nu2 = 0.02\n" if configured == "mhd-deconv" else ""
        with open(cfg, "w") as fh:
            fh.write(f"[grid]\ndim = 3\nn = 8\n[model]\nkind = {configured}\n"
                     f"nu = 0.02\n{nu2}alpha = 0.1\n[initial]\n"
                     f"preset = checkpoint\npath = {ckpt}\n[stepper]\n"
                     f"dt = 0.001\nt_end = 0.501\n"
                     f"[output]\ndirectory = {tmp_path}/out\n")
        assert main(["run", cfg]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "magnetic field" in err and len(err.strip().splitlines()) == 1


class TestCsvOutput:
    def test_full_precision_and_fixed_order(self):
        rec = EnergyRecord(t=0.1, e_kin=1.0 / 3.0, e_mag=0.0,
                           grad_u=2.0 / 7.0, grad_b=0.0, inject=-1e-17,
                           h_half=0.5, div_residual=1e-16)
        text = energy_csv_text([rec])
        lines = text.strip().split("\n")
        assert lines[0] == "t,e_kin,e_mag,grad_u,grad_b,inject,h_half,div_residual"
        fields = lines[1].split(",")
        assert float(fields[1]) == 1.0 / 3.0  # round-trips exactly
        assert float(fields[3]) == 2.0 / 7.0

    def test_format_g17_roundtrip(self):
        for x in (np.pi, 1e-300, -3.5, 0.1 + 1e-17):
            assert float(format_g17(x)) == x
