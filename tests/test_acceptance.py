"""Acceptance gate: one test per shipped criterion, stated tolerances.

Each test runs the corresponding criterion from lerayflow.validate (the same
code `lerayflow validate` executes) and asserts its verdict, printing the
measured numbers either way.  A ``fails_`` test is a row's negative control:
it breaks one ingredient that the row guards, by monkeypatch, and asserts
that the row fails on the number of the clause that guards it.
"""

import dataclasses
import re

import numpy as np

import lerayflow.filtering
import lerayflow.output
import lerayflow.runner
import lerayflow.stepping
import lerayflow.validate as V


def _check(result):
    print(f"[criterion {result.index}] {result.name}: "
          f"{'PASS' if result.passed else 'FAIL'} - {result.detail} "
          f"({result.seconds:.1f}s)")
    assert result.passed, f"criterion {result.index} failed: {result.detail}"


def test_criterion_01_filter_bounds():
    _check(V.criterion_filter_bounds())


def test_criterion_01_fails_a_filter_factor_above_one(monkeypatch):
    # The filter factor 1/(1 + x) raised to 2 on shell 1, where the factor's
    # bound alpha^(-2 theta) |k|^(-2 theta) is below 2 at alpha = 0.8.
    multiplier = lerayflow.filtering.helmholtz_multiplier
    monkeypatch.setattr(
        lerayflow.filtering, "helmholtz_multiplier",
        lambda k_mag, p: np.where(np.rint(k_mag) == 1, 0.5,
                                  multiplier(k_mag, p)))
    result = V.criterion_filter_bounds()
    assert result.passed is False
    ratio = float(re.search(r"bound = (\S+)", result.detail)[1])
    assert ratio > 1.0 + 1e-12


def test_criterion_02_deconvolution_operator():
    _check(V.criterion_deconv_operator())


def test_criterion_02_fails_a_series_one_term_short(monkeypatch):
    # N = 0 keeps its one term; every N >= 1 drops its last
    series = V.van_cittert_series
    monkeypatch.setattr(
        V, "van_cittert_series",
        lambda u, p: series(u, dataclasses.replace(
            p, n_deconv=max(p.n_deconv - 1, 0))))
    result = V.criterion_deconv_operator()
    assert result.passed is False
    mismatch = float(re.search(r"series mismatch (\S+)", result.detail)[1])
    assert mismatch > 1e-12


def test_criterion_03_advection_oracle():
    _check(V.criterion_advection())


def test_criterion_04_taylor_green_exactness():
    _check(V.criterion_taylor_green())


def test_criterion_04_fails_a_viscous_factor_of_half_the_step(monkeypatch):
    # Every viscous factor exp(-nu |k|^2 h) made for h/2: the Taylor-Green
    # decay, which the factors alone carry, runs at half its rate.
    factor = lerayflow.stepping._viscous_factor
    monkeypatch.setattr(lerayflow.stepping, "_viscous_factor",
                        lambda grid, nu, h: factor(grid, nu, 0.5 * h))
    result = V.criterion_taylor_green()
    assert result.passed is False
    error = float(re.search(r"max pointwise error (\S+)", result.detail)[1])
    assert error >= 1e-10


def test_criterion_05_energy_budget():
    _check(V.criterion_energy_budget())


def test_criterion_06_local_energy_equality():
    _check(V.criterion_local_energy())


def test_criterion_06_fails_a_window_off_the_coarse_nodes(monkeypatch):
    # Ends at 0.025 and 0.175 are fine (5 ms) sample times but not coarse
    # (10 ms) ones; the row must fail before any pressure is solved.  It
    # reuses the trajectory cached by criteria 5 and 6.
    monkeypatch.setattr(
        V.BumpTestFunction, "canonical",
        classmethod(lambda cls, dim, t_end: cls(center=(3.0,) * dim,
                                                width=0.8, t0=0.025,
                                                t1=0.175)))
    solved = []
    monkeypatch.setattr(V, "pressure_solve",
                        lambda *args: solved.append(args))
    result = V.criterion_local_energy()
    assert not result.passed
    assert "0.025, 0.175 off the coarse sample times" in result.detail
    assert solved == []


def test_criterion_07_convergence_sweeps():
    _check(V.criterion_sweeps())


def test_criterion_07_fails_a_filter_order_off_theta(monkeypatch):
    # The filter built with theta + 0.1: alpha^(2 theta) |k|^(2 theta) with
    # the wrong exponent, so the filter error decays as alpha^(2 theta + 0.2).
    multiplier = lerayflow.filtering.helmholtz_multiplier
    monkeypatch.setattr(
        lerayflow.filtering, "helmholtz_multiplier",
        lambda k_mag, p: multiplier(
            k_mag, dataclasses.replace(p, theta=p.theta + 0.1)))
    result = V.criterion_sweeps()
    assert result.passed is False
    slopes = re.findall(r"slope\(theta=(\S+)\) = (\S+),", result.detail)
    assert [theta for theta, _ in slopes] == ["0.25", "0.5"]
    assert all(abs(float(slope) - 2 * float(theta)) > 0.05
               for theta, slope in slopes)


def test_criterion_08_model_family_consistency():
    _check(V.criterion_model_family())


def test_criterion_09_mhd_energy_identity():
    _check(V.criterion_mhd())


def test_criterion_10_determinism_persistence():
    _check(V.criterion_persistence())


def test_criterion_10_fails_a_byte_dropped_on_a_rerun(monkeypatch):
    # The second run's energy.csv loses its last byte; its trajectory, the
    # checkpoints and the resumed run are those of the first.
    calls = []

    def write(path, records):
        calls.append(path)
        text = lerayflow.output.energy_csv_text(records).encode()
        lerayflow.output.atomic_write(path, text[:-1] if len(calls) == 2
                                      else text)
    monkeypatch.setattr(lerayflow.runner, "write_energy_csv", write)
    result = V.criterion_persistence()
    assert result.passed is False
    assert "byte-identical=False, roundtrip=True" in result.detail
    assert len(calls) == 3
