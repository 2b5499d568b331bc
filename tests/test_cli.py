"""End-to-end CLI: exit codes, artifacts, analytic content of energy.csv."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lerayflow.cli
import lerayflow.config
from lerayflow.cli import (EXIT_CHECK_FAILED, EXIT_INTERNAL, EXIT_INVARIANT,
                           EXIT_IO, EXIT_NONFINITE, EXIT_OK, EXIT_SYNTAX,
                           EXIT_UNKNOWN_KEY, main)
from lerayflow.validate import CriterionResult, criterion_advection, run_all

SRC = os.path.dirname(os.path.dirname(lerayflow.cli.__file__))

TG_RUN = """
[grid]
dim = 2
n = 64

[model]
kind = nse
nu = 0.01

[initial]
preset = taylor-green

[stepper]
dt = 0.001
t_end = 0.01

[output]
directory = {outdir}
"""

SWEEP_BASE = """
[grid]
dim = 2
n = 64

[model]
kind = leray-alpha
nu = 0.01
alpha = 1.0
theta = 0.25

[initial]
preset = random
seed = 3
slope = -1.0
cutoff_shell = 2

[stepper]
dt = 0.001
t_end = 0.01

[output]
directory = {outdir}
"""


def taylor_green_energy(nu, t):
    """Kinetic energy (1/2) mean |u|^2 of the Taylor-Green flow at time t."""
    return 0.25 * np.exp(-4.0 * nu * t)


def write_cfg(tmp_path, text, name="run.cfg", **kw):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(text.format(**kw))
    return path


class TestRunCommand:
    def test_taylor_green_energy_column(self, tmp_path):
        outdir = os.path.join(tmp_path, "out")
        cfg = write_cfg(tmp_path, TG_RUN, outdir=outdir)
        assert main(["run", cfg]) == EXIT_OK
        rows = open(os.path.join(outdir, "energy.csv")).read().strip().split("\n")
        assert len(rows) == 1 + 11  # header + 11 samples
        header = rows[0].split(",")
        t_col, e_col = header.index("t"), header.index("e_kin")
        for row in rows[1:]:
            fields = row.split(",")
            t, e_kin = float(fields[t_col]), float(fields[e_col])
            assert e_kin == pytest.approx(taylor_green_energy(0.01, t),
                                          rel=1e-10)
        assert os.path.exists(os.path.join(outdir, "summary.txt"))
        assert os.path.exists(os.path.join(outdir, "final.lfck"))

    def test_rerun_byte_identical(self, tmp_path):
        out_a = os.path.join(tmp_path, "a")
        out_b = os.path.join(tmp_path, "b")
        cfg_a = write_cfg(tmp_path, TG_RUN, name="a.cfg", outdir=out_a)
        cfg_b = write_cfg(tmp_path, TG_RUN, name="b.cfg", outdir=out_b)
        assert main(["run", cfg_a]) == EXIT_OK
        assert main(["run", cfg_b]) == EXIT_OK
        bytes_a = open(os.path.join(out_a, "energy.csv"), "rb").read()
        bytes_b = open(os.path.join(out_b, "energy.csv"), "rb").read()
        assert bytes_a == bytes_b

    def test_output_directory_is_quoted_on_stdout(self, tmp_path, capsys,
                                                  monkeypatch):
        # the directory is echoed as its repr, like names on stderr: no
        # control byte reaches stdout
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, TG_RUN, outdir="o\x1b[31mut")
        assert main(["run", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert r"'o\x1b[31mut'" in out and out.rstrip("\n").isprintable()


class TestErrorExitCodes:
    def test_syntax_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "[grid]\ndim = 2\ndim = 3\n")
        assert main(["run", cfg]) == EXIT_SYNTAX

    def test_unknown_key(self, tmp_path):
        cfg = write_cfg(tmp_path, TG_RUN + "\n[grid2]\nx = 1\n", outdir="o")
        assert main(["run", cfg]) == EXIT_UNKNOWN_KEY

    @pytest.mark.parametrize("value", ["ifrk4", "ifeuler"])
    @pytest.mark.parametrize("command", ["run", "multiplier-table"])
    def test_scheme_is_an_unknown_key(self, tmp_path, capsys, value, command):
        # IF-RK4 is the one integrator; the key that chose it is gone
        outdir = os.path.join(tmp_path, "o")
        text = TG_RUN.replace("t_end = 0.01", f"t_end = 0.01\nscheme = {value}")
        cfg = write_cfg(tmp_path, text, outdir=outdir)
        line = text.format(outdir=outdir).splitlines().index(
            f"scheme = {value}") + 1
        assert main([command, cfg]) == EXIT_UNKNOWN_KEY
        assert capsys.readouterr().err == (
            f"unknown key: line {line}: unknown key 'scheme' in [stepper]\n")
        assert not os.path.exists(outdir)

    def test_invariant_violation(self, tmp_path):
        bad = TG_RUN.replace("kind = nse", "kind = leray-alpha\ntheta = 0.1")
        cfg = write_cfg(tmp_path, bad, outdir=os.path.join(tmp_path, "o"))
        assert main(["run", cfg]) == EXIT_INVARIANT

    @pytest.mark.parametrize("old,new,message", [
        ("n = 64", "n = 16\nlength = 3.0",
         "preset: the Taylor-Green preset needs L = 2*pi"),
        ("t_end = 0.01", "t_end = 0.0025", "not a positive integer multiple"),
    ], ids=["taylor-green-length", "partial-step"])
    @pytest.mark.parametrize("command", ["run", "multiplier-table"])
    def test_rejected_at_parse_time(self, tmp_path, capsys, old, new, message,
                                    command):
        outdir = os.path.join(tmp_path, "o")
        cfg = write_cfg(tmp_path, TG_RUN.replace(old, new), outdir=outdir)
        assert main([command, cfg]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("command", ["run", "multiplier-table"])
    def test_unknown_preset(self, tmp_path, capsys, command):
        bad = TG_RUN.replace("preset = taylor-green", "preset = vortex")
        cfg = write_cfg(tmp_path, bad, outdir=os.path.join(tmp_path, "o"))
        assert main([command, cfg]) == EXIT_INVARIANT
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert re.search(r"preset: cannot interpret 'vortex' \(line \d+\)",
                         err[0])

    @pytest.mark.parametrize("checkpoint,t_end,code", [
        ("missing.lfck", "0.02", EXIT_IO),
        ("a/final.lfck", "0.0125", EXIT_INVARIANT),  # from t = 0.01
    ], ids=["missing-checkpoint", "partial-step-from-checkpoint"])
    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys,
                                                   checkpoint, t_end, code):
        assert main(["run", write_cfg(tmp_path, TG_RUN, outdir=os.path.join(
            tmp_path, "a"))]) == EXIT_OK
        outdir = os.path.join(tmp_path, "o")
        resume = TG_RUN.replace("preset = taylor-green", "preset = checkpoint\n"
                                f"path = {os.path.join(tmp_path, checkpoint)}")
        cfg = write_cfg(tmp_path, resume.replace("t_end = 0.01",
                                                 f"t_end = {t_end}"),
                        name="resume.cfg", outdir=outdir)
        capsys.readouterr()
        assert main(["run", cfg]) == code
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("line", ["seed = -1", "seed = 3\nseed_b = -2"])
    def test_negative_seed(self, tmp_path, capsys, line):
        bad = SWEEP_BASE.replace("seed = 3", line)
        cfg = write_cfg(tmp_path, bad, outdir=os.path.join(tmp_path, "o"))
        assert main(["run", cfg]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "seed" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("old,new,key", [
        ("dt = 0.001", "dt = nan", "dt"),
        ("t_end = 0.01", "t_end = inf", "t_end"),
        ("nu = 0.01", "nu = nan", "nu"),
        ("t_end = 0.01", "t_end = 0.01\ncfl_limit = nan", "cfl_limit"),
        (": 0.2 0.0", ": nan 0.0", "mode_1"),
        (": 0.5", ": inf", "mode_1"),
    ])
    def test_non_finite_value(self, tmp_path, capsys, old, new, key):
        forced = SWEEP_BASE.replace(
            "[initial]", "[forcing]\nmode_1 = 1 2 : 0.2 0.0 -0.1 0.0 : 0.5\n"
            "\n[initial]")
        assert old in forced
        cfg = write_cfg(tmp_path, forced.replace(old, new),
                        outdir=os.path.join(tmp_path, "o"))
        assert main(["run", cfg]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert key in err and "line" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("dim,mode", [
        (2, "33 1 : 1 0 -33 0"), (2, "16 1 : 1 0 -16 0"),
        (3, "14 0 0 : 0 0 3 0 0 0")],
        ids=["wraps-to-1-1", "nyquist-index", "outside-the-dealias-band"])
    def test_forcing_that_the_grid_aliases(self, tmp_path, capsys, dim, mode):
        # orthogonal on the integer index, but n = 32 stores a = (33, 1) at
        # (1, 1), where it is not solenoidal, a_1 = 16 on the Nyquist row,
        # and a_1 = 14 beyond the dealias cutoff 10
        forced = SWEEP_BASE.replace("dim = 2\nn = 64", f"dim = {dim}\nn = 32")
        forced = forced.replace(
            "[initial]", f"[forcing]\nmode_1 = {mode}\n\n[initial]")
        cfg = write_cfg(tmp_path, forced, outdir=os.path.join(tmp_path, "o"))
        assert main(["run", cfg]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        a = tuple(int(c) for c in mode.split(":")[0].split())
        assert f"forcing mode {a}" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command,option,value", [
        ("sweep-alpha", "--alphas", "0.4,x"),
        ("sweep-n", "--orders", "0,x"),
        ("sweep-n", "--orders", "0,1.5"),
    ])
    def test_malformed_list_argument(self, tmp_path, capsys, command, option,
                                     value):
        cfg = write_cfg(tmp_path, SWEEP_BASE,
                        outdir=os.path.join(tmp_path, "o"))
        assert main([command, cfg, option, value]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert option in err and len(err.strip().splitlines()) == 1

    def test_grid_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        # rejected from n alone: the grid is never built, nothing allocated
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was built")
        monkeypatch.setattr(lerayflow.config, "WaveGrid", no_grid)
        big = SWEEP_BASE.replace("dim = 2\nn = 64", f"dim = 3\nn = {2**20}")
        cfg = write_cfg(tmp_path, big, outdir=os.path.join(tmp_path, "o"))
        assert main(["multiplier-table", cfg]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "n:" in err and len(err.strip().splitlines()) == 1

    def test_run_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        # one spectral field fits, the run's working set does not: rejected
        # before the grid is built
        from lerayflow.stepping import working_set
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was built")
        monkeypatch.setattr(lerayflow.config, "WaveGrid", no_grid)
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        n = next(n for n in range(8, 2 ** 20, 2)
                 if working_set(3, n, lerayflow.ModelKind.LERAY_ALPHA) > memory)
        assert 16 * 3 * n * n * (n // 2 + 1) < memory / 4
        big = SWEEP_BASE.replace("dim = 2\nn = 64", f"dim = 3\nn = {n}")
        cfg = write_cfg(tmp_path, big, outdir=os.path.join(tmp_path, "o"))
        assert main(["run", cfg]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "n: a leray-alpha run" in err
        assert len(err.strip().splitlines()) == 1
        assert not os.path.exists(os.path.join(tmp_path, "o"))

    @pytest.mark.parametrize("command", ["run", "multiplier-table"])
    def test_config_not_utf8(self, tmp_path, capsys, command):
        path = os.path.join(tmp_path, "bad.cfg")
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe[grid]\n")
        assert main([command, path]) == EXIT_SYNTAX
        err = capsys.readouterr().err
        assert err.startswith("config syntax error:") and "byte 0" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("old,new,name", [
        ("[grid]", "[gr\x00id]", r"'gr\x00id'"),
        ("dim = 2", "d\x1b[31mim = 2", r"'d\x1b[31mim'"),
        ("[initial]", "[forcing]\nmode_\x07 = 1 : 0 0\n[initial]",
         r"'mode_\x07'"),
    ], ids=["section", "key", "forcing-key"])
    def test_names_are_quoted(self, tmp_path, capsys, old, new, name):
        # a name is echoed as its repr, like a value: no control byte
        # reaches stderr
        cfg = write_cfg(tmp_path, SWEEP_BASE.replace(old, new), outdir="o")
        assert main(["multiplier-table", cfg]) in (EXIT_UNKNOWN_KEY,
                                                   EXIT_INVARIANT)
        err = capsys.readouterr().err
        assert name in err and len(err.splitlines()) == 1
        assert err.rstrip("\n").isprintable()

    @pytest.mark.parametrize("command", ["run", "sweep-n"])
    def test_nul_in_output_directory(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, SWEEP_BASE, outdir="o\x00ut")
        lists = ["--orders", "0,1"] if command == "sweep-n" else []
        assert main([command, cfg] + lists) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "directory:" in err and len(err.splitlines()) == 1

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        plain = write_cfg(tmp_path, SWEEP_BASE, outdir="o")
        with open(plain, "rb") as fh:
            text = fh.read()
        marked = os.path.join(tmp_path, "marked.cfg")
        with open(marked, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + text)
        assert main(["multiplier-table", marked]) == EXIT_OK
        table = capsys.readouterr().out
        assert main(["multiplier-table", plain]) == EXIT_OK
        assert capsys.readouterr().out == table

    def test_output_directory_under_a_file(self, tmp_path, capsys):
        blocker = os.path.join(tmp_path, "file")
        open(blocker, "w").close()
        cfg = write_cfg(tmp_path, TG_RUN, outdir=os.path.join(blocker, "out"))
        assert main(["run", cfg]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("io error:") and len(err.splitlines()) == 1

    def test_unexpected_exception_is_one_line(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(lerayflow.cli, "_dispatch", broken)
        assert main(["validate"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "boom" in err and len(err.strip().splitlines()) == 1


class TestExtremeFiniteValues:
    """Overflow from extreme but finite values is reported by the parse-time
    bound on the initial field or by the finite checks alone: stderr holds
    no numpy warning, at most the error line."""

    @pytest.mark.parametrize("old,new,code,line", [
        ("slope = -1.0", "slope = -1.0\nscale = 1e308", EXIT_INVARIANT,
         "invalid configuration: scale: "),
        ("slope = -1.0", "slope = 1e308", EXIT_INVARIANT,
         "invalid configuration: slope: "),
        ("nu = 0.01", "nu = 1e308", EXIT_OK, None),
    ], ids=["scale", "slope", "nu"])
    def test_stderr_has_no_numpy_warning(self, tmp_path, old, new, code, line):
        text = SWEEP_BASE.replace("n = 64", "n = 16").replace(old, new)
        cfg = write_cfg(tmp_path, text, outdir=os.path.join(tmp_path, "o"))
        proc = subprocess.run(
            [sys.executable, "-m", "lerayflow.cli", "run", cfg],
            capture_output=True, text=True, env=dict(os.environ,
                                                     PYTHONPATH=SRC))
        assert proc.returncode == code, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        if code == EXIT_OK:
            assert proc.stderr == ""
        else:
            [only] = proc.stderr.splitlines()
            assert only.startswith(line)


class TestSweepCommands:
    def test_alpha_sweep_passes_and_writes_csv(self, tmp_path):
        outdir = os.path.join(tmp_path, "out")
        cfg = write_cfg(tmp_path, SWEEP_BASE, outdir=outdir)
        code = main(["sweep-alpha", cfg, "--alphas", "0.004,0.002,0.001"])
        assert code == EXIT_OK
        text = open(os.path.join(outdir, "sweep.csv")).read()
        assert text.startswith("parameter,error")
        assert "slope," in text and "pass,1" in text

    def test_alpha_sweep_wrong_target_fails(self, tmp_path):
        outdir = os.path.join(tmp_path, "out")
        cfg = write_cfg(tmp_path, SWEEP_BASE, outdir=outdir)
        code = main(["sweep-alpha", cfg, "--alphas", "0.004,0.002,0.001",
                     "--target-slope", "1.0"])
        assert code == EXIT_CHECK_FAILED
        assert "pass,0" in open(os.path.join(outdir, "sweep.csv")).read()

    def test_n_sweep_alpha_zero_degenerate_ok(self, tmp_path):
        outdir = os.path.join(tmp_path, "out")
        text = SWEEP_BASE.replace("alpha = 1.0", "alpha = 0.0")
        cfg = write_cfg(tmp_path, text, outdir=outdir)
        assert main(["sweep-n", cfg, "--orders", "0,1,2"]) == EXIT_OK

    def test_n_sweep_ratio_reported(self, tmp_path):
        outdir = os.path.join(tmp_path, "out")
        text = SWEEP_BASE.replace("alpha = 1.0", "alpha = 0.5")
        cfg = write_cfg(tmp_path, text, outdir=outdir)
        assert main(["sweep-n", cfg, "--orders", "0,1,2,3,4"]) == EXIT_OK
        text = open(os.path.join(outdir, "sweep.csv")).read()
        assert "ratio," in text and "ratio_bound," in text


class TestMultiplierTable:
    def test_stdout_table(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_BASE, outdir=os.path.join(tmp_path, "o"))
        assert main(["multiplier-table", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "k,helmholtz_multiplier,deconvolution_multiplier"
        # 64-grid: cutoff 21 -> rows for k = 0..21
        assert len(lines) == 1 + 22
        k1 = lines[2].split(",")
        assert float(k1[0]) == 1.0
        assert float(k1[1]) == pytest.approx(2.0)  # 1 + 1*1 at alpha=1

    def test_file_output(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_BASE, outdir=os.path.join(tmp_path, "o"))
        dest = os.path.join(tmp_path, "table.csv")
        assert main(["multiplier-table", cfg, "--output", dest]) == EXIT_OK
        assert open(dest).read().startswith("k,helmholtz")


class TestValidateCommand:
    @pytest.mark.parametrize("last_passed,code", [(True, EXIT_OK),
                                                  (False, EXIT_CHECK_FAILED)])
    def test_table_timings_and_exit_code(self, monkeypatch, capsys,
                                         last_passed, code):
        faults = []

        def fake_run_all(fault=None):
            faults.append(fault)
            return [CriterionResult(1, "filter-bound", True, "ratio 0.5", 1.3),
                    CriterionResult(10, "persistence", last_passed,
                                    "dev 0.00e+00", 2.0)]
        monkeypatch.setattr(lerayflow.cli, "run_all", fake_run_all)
        assert main(["validate"]) == code
        out, err = capsys.readouterr()
        status = "PASS" if last_passed else "FAIL"
        assert out == (" 1  filter-bound  PASS  ratio 0.5\n"
                       f"10  persistence   {status}  dev 0.00e+00\n"
                       f"{1 + last_passed}/2 criteria passed\n")
        assert err == "criterion runtimes: 1=1.3s 10=2.0s (total 3.3s)\n"
        main(["validate", "--inject-fault", "skew-no-dealias"])
        assert faults == [None, "skew-no-dealias"]

    def test_unknown_fault_is_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            run_all(fault="bogus")


class TestValidateNegativeControl:
    def test_injected_fault_fails_the_skew_row(self):
        # the full table is exercised by the acceptance suite; here only the
        # fault path, which must flip the advection row to FAIL
        good = criterion_advection()
        bad = criterion_advection(fault="skew-no-dealias")
        assert good.passed and not bad.passed
