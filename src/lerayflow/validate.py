"""Acceptance suite: every shipped claim, runnable at desk scale.

Each criterion function returns a :class:`CriterionResult` with the measured
numbers in ``detail`` so a failing row is diagnosable from the table alone.
The suite is deterministic; `lerayflow validate` prints one row per criterion
and exits nonzero if any fails.  ``fault`` hooks deliberately break one
ingredient (currently the dealiasing of the skew-symmetry test) to prove the
table can fail.
"""

from __future__ import annotations

import functools
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .config import parse_config
from .checkpoint import load_checkpoint
from .diagnostics import (BumpTestFunction, alpha_sweep, energy_budget_residual,
                          local_energy_residual, n_sweep)
from .dynamics import (ForcingMode, ForcingSpec, ModelConfig, ModelKind,
                       SimState, advect, pressure_solve)
from .fields import (SpectralVectorField, full_layout, inverse_transform,
                     l2_inner, l2_norm, leray_project, random_solenoidal,
                     sobolev_norm)
from .filtering import FilterParams, deconvolve, filter_apply, van_cittert_series
from .grid import WaveGrid
from .presets import taylor_green_state_field, taylor_green_velocity
from .runner import execute_run
from .stepping import StepperConfig, run

__all__ = ["CriterionResult", "convolution_advect_oracle", "run_all",
           "format_table", "format_timings", "FAULTS"]

FAULTS = ("skew-no-dealias",)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def convolution_advect_oracle(w: SpectralVectorField,
                              v: SpectralVectorField) -> SpectralVectorField:
    """Direct O(M^2) convolution sum for the projected transport term.

    Expands both inputs to the full FFT layout and iterates over explicit
    mode pairs of the full spectrum, so it shares nothing with the
    pseudo-spectral evaluation path it checks.
    """
    g = w.grid
    d = g.dim
    w_full, v_full = full_layout(g, w.coeffs), full_layout(g, v.coeffs)
    coeffs = np.zeros((d,) + g.shape, dtype=complex)
    cutoff = g.dealias_cutoff
    nonzero = lambda f: np.argwhere(np.any(f != 0.0, axis=0))
    signed = lambda idx: (idx + g.n // 2) % g.n - g.n // 2  # FFT-layout mode index
    all_comp = (slice(None),)
    for p_idx in nonzero(w_full):
        p = tuple(int(c) for c in p_idx)
        a_p = signed(p_idx)
        w_p = w_full[all_comp + p]
        for q_idx in nonzero(v_full):
            q = tuple(int(c) for c in q_idx)
            a_q = signed(q_idx)
            a_s = a_p + a_q
            if np.any(np.abs(a_s) > cutoff):
                continue
            k_q = g.k0 * a_q
            factor = 1j * complex(np.dot(w_p, k_q))
            s = tuple(int(c) % g.n for c in a_s)
            coeffs[all_comp + s] += factor * v_full[all_comp + q]
    coeffs[all_comp + (0,) * d] = 0.0
    half = np.ascontiguousarray(coeffs[..., : g.n // 2 + 1])
    return leray_project(SpectralVectorField(g, half))


def _budget_forcing() -> ForcingSpec:
    return ForcingSpec((
        ForcingMode((1, 2, 0), (0.2 + 0.1j, -0.1 - 0.05j, 0.05 + 0.0j), 0.0),
        ForcingMode((0, 1, 1), (0.15 + 0.0j, 0.05 + 0.0j, -0.05 + 0.0j), 0.5),
    ))


def _single_shell_field(grid: WaveGrid, seed: int, a_sq: int) -> SpectralVectorField:
    base = random_solenoidal(grid, seed, -1.0, int(np.ceil(np.sqrt(a_sq))) + 1)
    coeffs = np.where(grid.a_sq == a_sq, base.coeffs, 0.0)
    return SpectralVectorField(grid, coeffs)


def criterion_filter_bounds() -> CriterionResult:
    t0 = time.time()
    worst = 0.0
    s_values = (-1.0, 0.0, 0.5)
    for grid in (WaveGrid(3, 32), WaveGrid(2, 64)):
        for seed in range(100):
            u = random_solenoidal(grid, seed, -1.5, grid.dealias_cutoff)
            ref = {s: sobolev_norm(u, s) for s in s_values}
            for theta in (0.25, 0.5, 1.0):
                for alpha in (0.05, 0.8):
                    p = FilterParams(alpha=alpha, theta=theta)
                    ub = filter_apply(u, p)
                    for s in s_values:
                        bound = alpha ** (-2.0 * theta) * ref[s]
                        worst = max(worst, sobolev_norm(ub, s + 2 * theta) / bound)
    return CriterionResult(1, "filter-bound", worst <= 1.0 + 1e-12,
                           f"max ||filtered||/bound = {worst:.15f}",
                           time.time() - t0)


def criterion_deconv_operator() -> CriterionResult:
    t0 = time.time()
    worst_norm = 0.0
    worst_vc = 0.0
    s_values = (-1.0, 0.0, 0.5)
    for grid in (WaveGrid(3, 32), WaveGrid(2, 64)):
        for seed in range(100):
            u = random_solenoidal(grid, seed, -1.5, grid.dealias_cutoff)
            ref = {s: sobolev_norm(u, s) for s in s_values}
            for n in (0, 1, 4, 16):
                p = FilterParams(alpha=0.7, theta=0.25, n_deconv=n)
                hu = deconvolve(u, p)
                for s in s_values:
                    worst_norm = max(worst_norm, sobolev_norm(hu, s) / ref[s])
        for seed in (0, 1, 2):
            u = random_solenoidal(grid, seed, -1.5, grid.dealias_cutoff)
            for n in range(9):
                p = FilterParams(alpha=0.7, theta=0.25, n_deconv=n)
                closed = deconvolve(u, p)
                series = van_cittert_series(u, p)
                diff = SpectralVectorField(grid, closed.coeffs - series.coeffs)
                worst_vc = max(worst_vc,
                               sobolev_norm(diff, 1.0) / sobolev_norm(closed, 1.0))
    passed = worst_norm <= 1.0 + 1e-12 and worst_vc <= 1e-12
    return CriterionResult(
        2, "deconvolution-operator", passed,
        f"max op-norm ratio {worst_norm:.15f}, series mismatch {worst_vc:.2e}",
        time.time() - t0)


def criterion_advection(fault: str | None = None) -> CriterionResult:
    t0 = time.time()
    worst_conv = 0.0
    for grid in (WaveGrid(3, 8), WaveGrid(2, 16)):
        for seed in (0, 1):
            w = random_solenoidal(grid, seed, -1.0, grid.dealias_cutoff)
            v = random_solenoidal(grid, seed + 10, -1.0, grid.dealias_cutoff)
            fast = advect(w, v)
            oracle = convolution_advect_oracle(w, v)
            diff = l2_norm(SpectralVectorField(grid, fast.coeffs - oracle.coeffs))
            worst_conv = max(worst_conv, diff / l2_norm(oracle))

    # Skew symmetry: with the fault injected the grid's dealias cutoff is
    # n/2 - 1, so no product is truncated, products alias back into the
    # retained band and the identity breaks.
    g = WaveGrid(3, 32, dealias_cutoff=15 if fault == "skew-no-dealias"
                 else None)
    worst_skew = 0.0
    for seed in range(5):
        w = random_solenoidal(g, seed, -1.0, g.dealias_cutoff)
        v = random_solenoidal(g, 100 + seed, -1.0, g.dealias_cutoff)
        transported = advect(w, v)
        scale = l2_norm(w) * l2_norm(v) * sobolev_norm(v, 1.0)
        worst_skew = max(worst_skew, abs(l2_inner(transported, v)) / scale)
    passed = worst_conv <= 1e-12 and worst_skew <= 1e-11
    return CriterionResult(
        3, "advection-oracle", passed,
        f"convolution mismatch {worst_conv:.2e}, skew residual {worst_skew:.2e}",
        time.time() - t0)


def criterion_taylor_green() -> CriterionResult:
    t0 = time.time()
    grid = WaveGrid(2, 64)
    nu = 0.01
    worst = 0.0
    cases = ((ModelKind.NSE, 0.0), (ModelKind.LERAY_ALPHA, 0.0),
             (ModelKind.LERAY_ALPHA, 0.5))
    for kind, alpha in cases:
        cfg = ModelConfig(kind=kind, nu=nu,
                          filter=FilterParams(alpha=alpha, theta=0.25))
        sc = StepperConfig(dt=1e-3, t_end=1.0)
        final = run(SimState(0.0, taylor_green_state_field(grid, nu, 0.0)),
                    cfg, sc)
        exact = taylor_green_velocity(grid, nu, final.t)
        err = float(np.abs(inverse_transform(final.u).data - exact.data).max())
        worst = max(worst, err)
    return CriterionResult(4, "taylor-green-exactness", worst < 1e-10,
                           f"max pointwise error {worst:.2e}",
                           time.time() - t0)


@functools.cache
def _budget_trajectory():
    """Criterion 5's dt = 1e-3 run, which is also criterion 6's trajectory:
    integrated once per process with an energy sample every step and a
    state every 5 ms.  Callers must not modify the states it returns."""
    # smooth low-shell data keeps the space-truncation residue of the local
    # energy identity far below the time-quadrature error being measured
    cfg = ModelConfig(kind=ModelKind.LERAY_ALPHA, nu=0.15,
                      filter=FilterParams(alpha=0.1, theta=0.25),
                      forcing=_budget_forcing())
    u0 = random_solenoidal(WaveGrid(3, 32), 11, -2.5, 5)
    samples = []
    states: list[SimState] = []
    run(SimState(0.0, u0), cfg, StepperConfig(dt=1e-3, t_end=0.2),
        samples.append, state_sink=states.append, state_every=5)
    return cfg, tuple(samples), tuple(states)


def _budget_residual(initial: SimState, cfg: ModelConfig, dt: float) -> float:
    samples = []
    run(initial, cfg, StepperConfig(dt=dt, t_end=0.2), samples.append)
    return energy_budget_residual(samples, cfg)


def criterion_energy_budget() -> CriterionResult:
    t0 = time.time()
    cfg, samples, states = _budget_trajectory()
    r1 = energy_budget_residual(samples, cfg)
    r2 = _budget_residual(states[0], cfg, 5e-4)
    ratio = r1 / r2
    passed = r1 < 1e-4 and 3.0 <= ratio <= 5.0
    return CriterionResult(
        5, "energy-budget", passed,
        f"residual {r1:.3e}, dt-halving ratio {ratio:.2f}",
        time.time() - t0)


def criterion_local_energy() -> CriterionResult:
    # The window w and its first two derivatives vanish at phi.t0 and
    # phi.t1.  When both ends are sample times at both cadences, the h^2
    # Euler-Maclaurin term of the trapezoid rule is zero and the time
    # quadrature is 4th order: halving the cadence divides the residual by
    # 2^4, asserted within 25%.  Off the nodes that term returns and the
    # ratio is erratic, so misaligned ends fail the row on their own.
    t0 = time.time()
    cfg, _, states = _budget_trajectory()
    phi = BumpTestFunction.canonical(3, 0.2)
    coarse = states[::2]
    coarse_times = np.array([s.t for s in coarse])
    off_node = [end for end in (phi.t0, phi.t1)
                if np.abs(coarse_times - end).min() > 1e-12]
    if off_node:
        return CriterionResult(
            6, "local-energy-equality", False,
            f"window end(s) {', '.join(f'{e:.6g}' for e in off_node)} off the "
            f"coarse sample times; 4th-order quadrature needs them on nodes",
            time.time() - t0)
    pressures = [pressure_solve(s, cfg) for s in states]
    r_fine = abs(local_energy_residual(states, pressures, phi, cfg))
    r_coarse = abs(local_energy_residual(coarse, pressures[::2], phi, cfg))
    ratio = r_coarse / r_fine
    passed = r_coarse < 1e-3 and 12.0 <= ratio <= 20.0
    return CriterionResult(
        6, "local-energy-equality", passed,
        f"residual {r_coarse:.3e}, cadence-halving ratio {ratio:.2f} "
        f"(order {np.log2(ratio):.2f}; required window [12, 20])",
        time.time() - t0)


def criterion_sweeps() -> CriterionResult:
    t0 = time.time()
    grid = WaveGrid(2, 64)
    details = []
    ok = True
    for theta in (0.25, 0.5):
        u = random_solenoidal(grid, 3, -1.0, 2)
        report = alpha_sweep(u, FilterParams(alpha=1.0, theta=theta),
                             [0.004, 0.002, 0.001], 0.0)
        dev = abs(report.slope - 2.0 * theta)
        ok = ok and report.passed and dev <= 0.05
        details.append(f"slope(theta={theta}) = {report.slope:.4f}")

    u = _single_shell_field(grid, 5, a_sq=4)
    p = FilterParams(alpha=0.5, theta=0.25)
    report = n_sweep(u, p, list(range(7)), 0.0)
    dev = abs(report.ratio - report.ratio_bound) / report.ratio_bound
    ok = ok and report.passed and dev <= 0.02
    details.append(f"N-ratio {report.ratio:.6f} vs {report.ratio_bound:.6f}")
    return CriterionResult(7, "convergence-sweeps", ok, ", ".join(details),
                           time.time() - t0)


def criterion_model_family() -> CriterionResult:
    t0 = time.time()
    grid = WaveGrid(3, 32)
    forcing = _budget_forcing()
    u0 = random_solenoidal(grid, 21, -2.0, 6)
    sc = StepperConfig(dt=1e-3, t_end=0.1)

    def final_u(kind: ModelKind, alpha: float, n: int) -> np.ndarray:
        cfg = ModelConfig(kind=kind, nu=0.05,
                          filter=FilterParams(alpha=alpha, theta=0.25,
                                              n_deconv=n),
                          forcing=forcing)
        return run(SimState(0.0, u0), cfg, sc).u.coeffs

    la = final_u(ModelKind.LERAY_ALPHA, 0.1, 0)
    ld = final_u(ModelKind.LERAY_DECONV, 0.1, 0)
    dev1 = float(np.abs(la - ld).max() / np.abs(la).max())
    nse = final_u(ModelKind.NSE, 0.0, 0)
    la0 = final_u(ModelKind.LERAY_ALPHA, 0.0, 0)
    dev2 = float(np.abs(nse - la0).max() / np.abs(nse).max())
    passed = dev1 <= 1e-13 and dev2 <= 1e-13
    return CriterionResult(
        8, "model-family-consistency", passed,
        f"deconv(N=0) dev {dev1:.2e}, alpha=0 dev {dev2:.2e}",
        time.time() - t0)


def criterion_mhd() -> CriterionResult:
    t0 = time.time()
    grid = WaveGrid(3, 32)
    cfg = ModelConfig(kind=ModelKind.MHD_DECONV, nu=0.02, nu2=0.02,
                      filter=FilterParams(alpha=0.1, theta=0.25, n_deconv=1))
    u0 = random_solenoidal(grid, 11, -2.0, 6)
    b0 = random_solenoidal(grid, 12, -2.0, 6)
    r1, r2 = (_budget_residual(SimState(0.0, u0, b0), cfg, dt)
              for dt in (1e-3, 5e-4))
    ratio = r1 / r2

    worst_cancel = 0.0
    for seed in range(3):
        u = random_solenoidal(grid, 30 + seed, -2.0, 8)
        b = random_solenoidal(grid, 60 + seed, -2.0, 8)
        hb = deconvolve(b, cfg.filter)
        lorentz = advect(hb, b, project=False)
        stretch = advect(hb, u, project=False)
        total = l2_inner(lorentz, u) + l2_inner(stretch, b)
        scale = l2_norm(hb) * (sobolev_norm(b, 1.0) * l2_norm(u)
                               + sobolev_norm(u, 1.0) * l2_norm(b))
        worst_cancel = max(worst_cancel, abs(total) / scale)
    passed = r1 < 1e-4 and 3.0 <= ratio <= 5.0 and worst_cancel <= 1e-11
    return CriterionResult(
        9, "mhd-energy-identity", passed,
        f"residual {r1:.3e}, ratio {ratio:.2f}, cancellation {worst_cancel:.2e}",
        time.time() - t0)


_PERSISTENCE_CONFIG = """
[grid]
dim = 2
n = 64

[model]
kind = leray-alpha
nu = 0.02
alpha = 0.2
theta = 0.25

[forcing]
mode_1 = 1 2 : 0.2 0.0 -0.1 0.0 : 0.0

[initial]
{initial}

[stepper]
dt = 0.001
t_end = 0.1

[output]
directory = {outdir}
checkpoint_every = {checkpoint_every}
"""


def _persistence_run(outdir: str, initial: str, checkpoint_every: int = 0):
    return execute_run(parse_config(_PERSISTENCE_CONFIG.format(
        initial=initial, outdir=outdir, checkpoint_every=checkpoint_every)))


def criterion_persistence() -> CriterionResult:
    t0 = time.time()
    fresh = "preset = random\nseed = 9\nslope = -2.0\ncutoff_shell = 8"
    with tempfile.TemporaryDirectory() as tmp:
        dir_a = os.path.join(tmp, "a")
        dir_b = os.path.join(tmp, "b")
        final_a, _ = _persistence_run(dir_a, fresh, checkpoint_every=50)
        _persistence_run(dir_b, fresh, checkpoint_every=50)
        with open(os.path.join(dir_a, "energy.csv"), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(dir_b, "energy.csv"), "rb") as fh:
            bytes_b = fh.read()
        deterministic = bytes_a == bytes_b

        # bit-exact checkpoint round trip of the final state
        state, _meta = load_checkpoint(os.path.join(dir_a, "final.lfck"))
        roundtrip = bool(np.array_equal(state.u.coeffs, final_a.u.coeffs)
                         and state.t == final_a.t)

        # resuming from the midpoint reproduces the uninterrupted trajectory
        ckpt = os.path.join(dir_a, "checkpoint_000050.lfck")
        final_c, _ = _persistence_run(os.path.join(tmp, "c"),
                                      f"preset = checkpoint\npath = {ckpt}")
        dev = float(np.abs(final_c.u.coeffs - final_a.u.coeffs).max()
                    / np.abs(final_a.u.coeffs).max())
        resumed = dev <= 1e-13
    passed = deterministic and roundtrip and resumed
    return CriterionResult(
        10, "determinism-persistence", passed,
        f"byte-identical={deterministic}, roundtrip={roundtrip}, "
        f"resume dev {dev:.2e}", time.time() - t0)


def run_all(fault: str | None = None) -> list[CriterionResult]:
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known: {FAULTS}")
    return [
        criterion_filter_bounds(),
        criterion_deconv_operator(),
        criterion_advection(fault=fault),
        criterion_taylor_green(),
        criterion_energy_budget(),
        criterion_local_energy(),
        criterion_sweeps(),
        criterion_model_family(),
        criterion_mhd(),
        criterion_persistence(),
    ]


def format_table(results: list[CriterionResult]) -> str:
    """Deterministic pass/fail table: repeated invocations print the same
    bytes (timings are reported separately)."""
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.index:>2}  {r.name:<{width}}  {status}  {r.detail}")
    good = sum(r.passed for r in results)
    lines.append(f"{good}/{len(results)} criteria passed")
    return "\n".join(lines)


def format_timings(results: list[CriterionResult]) -> str:
    parts = [f"{r.index}={r.seconds:.1f}s" for r in results]
    total = sum(r.seconds for r in results)
    return f"criterion runtimes: {' '.join(parts)} (total {total:.1f}s)"
