"""Tests of the benchmark itself, at tiny grid sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lerayflow import SimState, SpectralVectorField  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _perturbed(field: SpectralVectorField, rel: float) -> SpectralVectorField:
    return SpectralVectorField(field.grid, field.coeffs * (1.0 + rel), True)


def _names(result) -> dict[str, bool]:
    return {c.name: c.passed for c in result}


# ------------------------------------------------------------ output checks

def test_mhd_run_checks(tmp_path):
    w = workloads.MhdRun(n=24, steps=3, checkpoint_every=2)
    inp = w.setup(4, str(tmp_path))
    result = w.execute(inp)
    assert result.steps_done == 3
    assert all(c.passed for c in result.checks), result.checks
    final, _ = workloads.runner.execute_run(inp.rc)

    drifted = SimState(final.t, final.u, _perturbed(final.b, 1e-15))
    assert not _names(workloads.check_mhd_run(inp.directory, drifted))[
        "checkpoint_roundtrip"]

    ckpt = os.path.join(inp.directory, "final.lfck")
    with open(ckpt, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    assert not _names(workloads.check_mhd_run(inp.directory, final))[
        "checkpoint_roundtrip"]

    summary = os.path.join(inp.directory, "summary.txt")
    with open(summary, encoding="utf-8") as fh:
        lines = [ln if not ln.startswith("energy_budget_residual")
                 else "energy_budget_residual = 0.5\n" for ln in fh]
    with open(summary, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert not _names(workloads.check_mhd_run(inp.directory, final))[
        "energy_budget"]


def test_local_energy_checks(tmp_path):
    w = workloads.LocalEnergy(n=24, steps=40)
    inp = w.setup(5, str(tmp_path))
    states, samples = [], []
    workloads.stepping.run(inp.initial, inp.cfg, inp.sc, samples.append,
                           state_sink=states.append, state_every=1)
    pressures = [workloads.dynamics.pressure_solve(s, inp.cfg) for s in states]
    final = states[-1]
    ref = workloads.fingerprint(final.u.coeffs, final.t)

    def check(states=states, pressures=pressures, samples=samples, ref=ref):
        return _names(workloads.check_local_energy(states, pressures, samples,
                                                   inp.cfg, ref))

    assert check() == {"local_energy_full": True, "local_energy_half": True,
                       "energy_budget": True, "divergence": True,
                       "fingerprint": True}

    doubled = [type(p)(p.grid, 2.0 * p.coeffs) for p in pressures]
    bad = check(pressures=doubled)
    assert not bad["local_energy_full"] and not bad["local_energy_half"]

    bad_samples = list(samples)
    bad_samples[5] = type(samples[5])(**{**vars(samples[5]),
                                         "e_kin": samples[5].e_kin * 1.01})
    assert not check(samples=bad_samples)["energy_budget"]

    grid = final.u.grid
    k_parallel = SimState(final.t, SpectralVectorField(
        grid, final.u.coeffs + 1e-6 * grid.k))
    assert not check(states=states[:-1] + [k_parallel])["divergence"]

    drifted = SimState(final.t, _perturbed(final.u, 1e-11))
    assert not check(states=states[:-1] + [drifted])["fingerprint"]


def test_taylor_green_checks(tmp_path):
    w = workloads.TaylorGreen(n=16, steps=20)
    inp = w.setup(0, str(tmp_path))
    result = w.execute(inp)
    assert all(c.passed for c in result.checks), result.checks
    assert result.csv_sha256 is not None

    final, _ = workloads.runner.execute_run(inp.rc)
    assert workloads.check_taylor_green(final, inp.rc.nu).passed
    drifted = SimState(final.t, _perturbed(final.u, 1e-8))
    assert not workloads.check_taylor_green(drifted, inp.rc.nu).passed


def test_failed_step_counts_every_remaining_step(tmp_path):
    w = workloads.LocalEnergy(n=16, steps=4)
    inp = w.setup(3, str(tmp_path))
    inp.initial.u.coeffs[0, 1, 2, 3] = np.nan
    result = w.execute(inp)
    assert result.steps_done == 0
    assert [c.passed for c in result.checks] == [False] * 4  # no reference


# ------------------------------------------------------------ tracing

def test_self_time_on_synthetic_tree():
    tree = [
        ["stepping.run", 0, 100, -1, "r", 0],
        ["dynamics.rhs", 10, 60, 0, "r", 0],
        ["fft.irfftn", 15, 25, 1, "r", 80],
        ["fft.rfftn", 30, 40, 1, "r", 40],
        ["fields.to_physical", 70, 90, 0, "r", 0],
        ["fft.irfftn", 72, 88, 4, "r", 80],
        ["fft.irfftn", 95, 99, -1, "r", 10],
    ]
    m = spans.aggregate(tree, steps=2)
    assert m["stepping.run.total_s"] == pytest.approx(100e-9)
    assert m["stepping.run.self_s"] == pytest.approx(30e-9)
    assert m["dynamics.rhs.self_s"] == pytest.approx(30e-9)
    assert m["fields.to_physical.self_s"] == pytest.approx(4e-9)
    assert m["fft.irfftn.calls"] == 3
    assert m["fft.irfftn.total_s"] == pytest.approx(30e-9)
    assert m["fft.irfftn.self_s"] == pytest.approx(30e-9)
    assert m["fft.irfftn.per_step"] == 1.0      # the call outside run is not a step's
    assert m["fft.rfftn.per_step"] == 0.5
    assert m["fft.irfftn.bytes"] == 170
    assert m["fft.largest_call_bytes"] == 80
    assert m["stepping.run.self_per_step_s"] == pytest.approx(15e-9)
    assert m["dynamics.rhs.self_per_call_s"] == pytest.approx(30e-9)
    assert m["dynamics.advect.calls"] == 0


def test_traced_run_passes_through_bit_identical(tmp_path):
    w = workloads.LocalEnergy(n=16, steps=4)
    plain = w.execute(w.setup(2, str(tmp_path)))
    original = workloads.dynamics.advect

    tracer = spans.Tracer("test")
    assert tracer.install() == []
    assert workloads.dynamics.advect is not original
    try:
        traced = w.execute(w.setup(2, str(tmp_path)))
    finally:
        tracer.uninstall()
    assert workloads.dynamics.advect is original
    assert (workloads.state_digest(traced.state)
            == workloads.state_digest(plain.state))

    m = spans.aggregate(tracer.rows(), steps=4)
    assert m["stepping.run.calls"] == 1
    assert m["fft.irfftn.per_step"] == 5.0
    assert m["fft.rfftn.per_step"] == 4.0
    assert m["dynamics.rhs.calls"] == 16
    assert m["dynamics.pressure_solve.calls"] == 5


# ------------------------------------------------------------ metric names

def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in names + list(e2e) + list(layers):
        assert NAME.fullmatch(name), name
    assert tuple(names) == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert set(names) == set(spans.EXPECTED)
    assert e2e == run.END_TO_END_UNITS

    produced = set(spans.aggregate([], steps=1)) | {"trace.overhead_s"}
    assert set(layers) == produced
    for name, unit in layers.items():
        assert spans.unit(name) == unit, name
