"""The benchmark workloads: inputs from a seed, a timed phase, checks.

Each workload builds its inputs in ``setup`` (counted in ``setup_s``) and
runs the timed phase in ``execute``: the integration call, the workload's
diagnostics and output, and the verification of its results.  Checks are
plain functions of the outputs so the tests can feed them corrupted data.

Why these three (see README.md for the metric -> layer table):

* ``mhd-run-32``: the only MHD tendency path, the per-step sampling path and
  CSV/checkpoint writing, driven through the runner.
* ``local-energy-32``: 3D ``leray-alpha`` stepping, then pressure recovery
  and the local-energy diagnostics on the full-complex ``fftn``/``ifftn``
  path.
* ``taylor-green-2d``: 3.5 ms steps, so per-call overhead dominates; it has
  an exact solution, so the seed is unused.

All of them call the package through module attributes so that the traced
run sees the same calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import lerayflow
from lerayflow import checkpoint, config, diagnostics, dynamics, runner, stepping

DT = 1e-3
HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

# Bounds of the output checks.
DIVERGENCE_BOUND = 1e-12       # roundoff
FINGERPRINT_BOUND = 1e-13      # relative, against the stored reference
MHD_BUDGET_BOUND = 1e-4        # criterion 5, one-step spacing
LOCAL_ENERGY_BOUND = 1e-3      # criterion 6's magnitude clause
LOCAL_BUDGET_BOUND = 1e-4      # criterion 5, one-step spacing
TAYLOR_GREEN_BOUND = 1e-10     # criterion 4

# The two forcing modes of configs/leray_forced_32.cfg.
FORCING_MODES = (
    ((1, 2, 0), (0.2 + 0.1j, -0.1 - 0.05j, 0.05 + 0.0j), 0.0),
    ((0, 1, 1), (0.15 + 0.0j, 0.05 + 0.0j, -0.05 + 0.0j), 0.5),
)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Result:
    """What one execution of a workload's timed phase produced."""

    steps: int                  # IF-RK4 steps attempted
    steps_done: int             # steps known to have completed
    integrate_ns: int           # wall time of the integration call
    checks: list[Check]
    state: list[np.ndarray] = field(default_factory=list)
    csv_sha256: str | None = None


def state_digest(arrays: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _failed(check_names, steps: int, steps_done: int, started: int,
            error: BaseException) -> Result:
    """A timed phase that raised: its checks all count as failed."""
    detail = f"{type(error).__name__}: {error}"
    return Result(steps, steps_done, time.perf_counter_ns() - started,
                  [Check(name, False, detail) for name in check_names])


def _budget_check(name: str, records, cfg, bound: float) -> Check:
    try:
        value = diagnostics.energy_budget_residual(records, cfg)
    except lerayflow.LerayflowError as exc:
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    return Check(name, value < bound, f"residual {value:.3e} (< {bound:g})")


# ---------------------------------------------------------------- fingerprint

def fingerprint_modes(coeffs: np.ndarray) -> np.ndarray:
    """The coefficients at a_1, a_2 in {0, 1, -1} and a_3 in {0, 1}.

    These indices mean the same mode in the full and in the rfft half
    spectrum layout, so the reference survives a change of state layout.
    """
    low = [0, 1, -1]
    return coeffs[:, low][:, :, low][..., [0, 1]]


def fingerprint(coeffs: np.ndarray, t: float) -> dict:
    modes = fingerprint_modes(coeffs).ravel()
    return {"t": t, "modes": [[float(c.real), float(c.imag)] for c in modes]}


def fingerprint_deviation(coeffs: np.ndarray, ref: dict) -> float:
    ref_modes = np.array([complex(re, im) for re, im in ref["modes"]])
    modes = fingerprint_modes(coeffs).ravel()
    if modes.shape != ref_modes.shape:
        return float("inf")
    return float(np.abs(modes - ref_modes).max() / np.abs(ref_modes).max())


def load_fingerprint(workload: str, params: dict, seed: int) -> dict | None:
    """The stored reference for this workload, size and seed, if any."""
    try:
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            stored = json.load(fh).get(workload)
    except FileNotFoundError:
        return None
    if not stored or stored["params"] != params:
        return None
    return stored["seeds"].get(str(seed))


# ---------------------------------------------------------------- workloads

def leray_alpha_inputs(n: int, steps: int, seed: int) -> SimpleNamespace:
    """The criterion-5/6 setup: forced 3D ``leray-alpha``, theta = 1/4,
    alpha = 0.1, nu = 0.15, random initial condition (slope -2.5, cutoff 5),
    every step sampled."""
    grid = lerayflow.WaveGrid(3, n)
    cfg = lerayflow.ModelConfig(
        kind=lerayflow.ModelKind.LERAY_ALPHA, nu=0.15,
        filter=lerayflow.FilterParams(alpha=0.1, theta=0.25),
        forcing=dynamics.ForcingSpec(tuple(
            dynamics.ForcingMode(*mode) for mode in FORCING_MODES)))
    u0 = lerayflow.random_solenoidal(grid, seed, -2.5, 5)
    sc = lerayflow.StepperConfig(dt=DT, t_end=steps * DT)
    return SimpleNamespace(cfg=cfg, sc=sc, initial=lerayflow.SimState(0.0, u0))


MHD_CONFIG = """\
[grid]
dim = 3
n = {n}

[model]
kind = mhd-deconv
nu = 0.02
nu2 = 0.02
alpha = 0.1
theta = 0.25
n_deconv = 1

[initial]
preset = random
seed = {seed}
seed_b = {seed_b}
slope = -2.0
cutoff_shell = {cutoff}

[stepper]
dt = 0.001
t_end = {t_end!r}
sample_every = 1

[output]
directory = {directory}
checkpoint_every = {checkpoint_every}
"""


class MhdRun:
    """``configs/mhd_decay_32.cfg`` through the runner, every step sampled."""

    name = "mhd-run-32"
    checks = ("energy_budget", "checkpoint_roundtrip")

    def __init__(self, n: int = 32, steps: int = 30, checkpoint_every: int = 10):
        self.params = {"n": n, "steps": steps,
                       "checkpoint_every": checkpoint_every}

    def setup(self, seed: int, workdir: str):
        p = self.params
        directory = os.path.join(workdir, "out")
        text = MHD_CONFIG.format(
            n=p["n"], seed=seed, seed_b=seed + 1, cutoff=min(6, p["n"] // 3),
            t_end=p["steps"] * DT, directory=directory,
            checkpoint_every=p["checkpoint_every"])
        return SimpleNamespace(rc=config.parse_config(text), directory=directory)

    def execute(self, inp) -> Result:
        steps = self.params["steps"]
        t0 = time.perf_counter_ns()
        try:
            final, _records = runner.execute_run(inp.rc)
        except Exception as exc:  # the runner hides which step failed
            return _failed(self.checks, steps, 0, t0, exc)
        t1 = time.perf_counter_ns()
        checks = check_mhd_run(inp.directory, final)
        return Result(steps, steps, t1 - t0, checks,
                      [final.u.coeffs, final.b.coeffs],
                      file_digest(os.path.join(inp.directory, "energy.csv")))


def summary_value(directory: str, key: str) -> str | None:
    with open(os.path.join(directory, "summary.txt"), encoding="utf-8") as fh:
        for line in fh:
            name, _, value = line.partition(" = ")
            if name == key:
                return value.strip()
    return None


def check_mhd_run(directory: str, final) -> list[Check]:
    raw = summary_value(directory, "energy_budget_residual")
    try:
        ok = float(raw) < MHD_BUDGET_BOUND
    except (TypeError, ValueError):  # missing, or "n/a (nonuniform samples)"
        ok = False
    checks = [Check("energy_budget", ok, f"summary residual {raw}")]

    try:
        state, _meta = checkpoint.load_checkpoint(
            os.path.join(directory, "final.lfck"))
    except lerayflow.LerayflowError as exc:
        checks.append(Check("checkpoint_roundtrip", False,
                            f"{type(exc).__name__}: {exc}"))
        return checks
    exact = (state.t == final.t
             and np.array_equal(state.u.coeffs, final.u.coeffs)
             and state.b is not None
             and np.array_equal(state.b.coeffs, final.b.coeffs))
    checks.append(Check("checkpoint_roundtrip", bool(exact),
                        "final.lfck reloads bit-exact" if exact
                        else "final.lfck differs from the final state"))
    return checks


class LocalEnergy:
    """Criterion 5/6 setup: every step kept, pressure and local energy."""

    name = "local-energy-32"
    checks = ("local_energy_full", "local_energy_half", "energy_budget",
              "divergence", "fingerprint")

    # 80 steps put the ends of the canonical time window (10% and 90% of
    # t_end) on even sample indices, so the trapezoid rule stays 4th order
    # at both cadences; misaligned windows leave residuals near the bound.
    def __init__(self, n: int = 32, steps: int = 80):
        self.params = {"n": n, "steps": steps}

    def setup(self, seed: int, workdir: str):
        inp = leray_alpha_inputs(self.params["n"], self.params["steps"], seed)
        inp.reference = load_fingerprint(self.name, self.params, seed)
        return inp

    def execute(self, inp) -> Result:
        steps = self.params["steps"]
        states, samples = [], []
        t0 = time.perf_counter_ns()
        try:
            final = stepping.run(inp.initial, inp.cfg, inp.sc, samples.append,
                                 state_sink=states.append, state_every=1)
        except Exception as exc:  # a failed step is a counted failure
            names = self.checks if inp.reference else self.checks[:-1]
            return _failed(names, steps, max(len(states) - 1, 0), t0, exc)
        t1 = time.perf_counter_ns()
        pressures = [dynamics.pressure_solve(s, inp.cfg) for s in states]
        checks = check_local_energy(states, pressures, samples, inp.cfg,
                                    inp.reference)
        return Result(steps, steps, t1 - t0, checks, [final.u.coeffs])


def check_local_energy(states, pressures, samples, cfg,
                       reference: dict | None) -> list[Check]:
    """Criterion 6's magnitude clause at both cadences, the energy budget,
    the final divergence and, for seeds with a stored reference, the final
    state to 1e-13 relative.

    The cadence-ratio clause of criterion 6 is the documented red of the
    acceptance suite and is deliberately not checked here.
    """
    phi = diagnostics.BumpTestFunction.canonical(3, states[-1].t)
    checks = []
    for name, every in (("local_energy_full", 1), ("local_energy_half", 2)):
        r = diagnostics.local_energy_residual(states[::every], pressures[::every],
                                              phi, cfg)
        checks.append(Check(name, abs(r) < LOCAL_ENERGY_BOUND,
                            f"residual {r:.3e}"))
    checks.append(_budget_check("energy_budget", samples, cfg, LOCAL_BUDGET_BOUND))
    final = states[-1]
    div = final.u.divergence_residual()
    checks.append(Check("divergence", div < DIVERGENCE_BOUND,
                        f"final divergence residual {div:.3e}"))
    if reference is not None:
        dev = fingerprint_deviation(final.u.coeffs, reference)
        ok = dev <= FINGERPRINT_BOUND and final.t == reference["t"]
        checks.append(Check("fingerprint", ok,
                            f"relative deviation {dev:.3e} from reference"))
    return checks


TAYLOR_GREEN_CONFIG = """\
[grid]
dim = 2
n = {n}

[model]
kind = nse
nu = 0.01

[initial]
preset = taylor-green

[stepper]
dt = 0.001
t_end = {t_end!r}
sample_every = 10

[output]
directory = {directory}
checkpoint_every = {checkpoint_every}
"""


class TaylorGreen:
    """``configs/taylor_green_2d.cfg`` through the runner; exact solution."""

    name = "taylor-green-2d"
    checks = ("exactness",)

    def __init__(self, n: int = 64, steps: int = 1000):
        self.params = {"n": n, "steps": steps}

    def setup(self, seed: int, workdir: str):
        p = self.params
        directory = os.path.join(workdir, "out")
        text = TAYLOR_GREEN_CONFIG.format(
            n=p["n"], t_end=p["steps"] * DT, directory=directory,
            checkpoint_every=p["steps"] // 2)
        return SimpleNamespace(rc=config.parse_config(text), directory=directory)

    def execute(self, inp) -> Result:
        steps = self.params["steps"]
        t0 = time.perf_counter_ns()
        try:
            final, _records = runner.execute_run(inp.rc)
        except Exception as exc:  # the runner hides which step failed
            return _failed(self.checks, steps, 0, t0, exc)
        t1 = time.perf_counter_ns()
        checks = [check_taylor_green(final, inp.rc.nu)]
        return Result(steps, steps, t1 - t0, checks, [final.u.coeffs],
                      file_digest(os.path.join(inp.directory, "energy.csv")))


def check_taylor_green(final, nu: float) -> Check:
    grid = final.u.grid
    exact = lerayflow.taylor_green_velocity(grid, nu, final.t)
    err = float(np.abs(lerayflow.inverse_transform(final.u).data
                       - exact.data).max())
    return Check("exactness", err < TAYLOR_GREEN_BOUND,
                 f"max pointwise error {err:.3e}")


WORKLOADS = {w.name: w for w in (MhdRun, LocalEnergy, TaylorGreen)}
