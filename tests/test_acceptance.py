"""Acceptance gate: one test per shipped criterion, stated tolerances.

Each test runs the corresponding criterion from lerayflow.validate (the same
code `lerayflow validate` executes) and asserts its verdict, printing the
measured numbers either way.
"""

import lerayflow.validate as V


def _check(result):
    print(f"[criterion {result.index}] {result.name}: "
          f"{'PASS' if result.passed else 'FAIL'} - {result.detail} "
          f"({result.seconds:.1f}s)")
    assert result.passed, f"criterion {result.index} failed: {result.detail}"


def test_criterion_01_filter_bounds():
    _check(V.criterion_filter_bounds())


def test_criterion_02_deconvolution_operator():
    _check(V.criterion_deconv_operator())


def test_criterion_03_advection_oracle():
    _check(V.criterion_advection())


def test_criterion_04_taylor_green_exactness():
    _check(V.criterion_taylor_green())


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


def test_criterion_08_model_family_consistency():
    _check(V.criterion_model_family())


def test_criterion_09_mhd_energy_identity():
    _check(V.criterion_mhd())


def test_criterion_10_determinism_persistence():
    _check(V.criterion_persistence())
