"""Run orchestration shared by the CLI and the verification suite.

``execute_run`` drives one simulation from a validated RunConfig and writes
energy.csv, periodic checkpoints and summary.txt into the output directory.
It is a plain function so tests and the acceptance suite can call it
in-process and inspect the same artifacts the CLI produces.
"""

from __future__ import annotations

import os

from .checkpoint import save_checkpoint
from .config import RunConfig
from .diagnostics import (EnergyRecord, alpha_sweep, energy_budget_residual,
                          n_sweep)
from .dynamics import SimState
from .errors import InvariantViolation, LerayflowError
from .fields import sobolev_norm
from .filtering import multiplier_table
from .output import (format_g17, write_energy_csv, write_summary,
                     write_sweep_csv)
from .stepping import run

__all__ = ["execute_run", "execute_sweep_alpha", "execute_sweep_n",
           "multiplier_table_text"]


def execute_run(rc: RunConfig) -> tuple[SimState, list[EnergyRecord]]:
    """Run the configured simulation and write all output artifacts."""
    if not rc.directory:
        raise InvariantViolation("directory: required in [output] for a run")
    grid = rc.build_grid()
    model = rc.build_model()
    sc = rc.build_stepper()
    initial = rc.build_initial(grid)

    records: list[EnergyRecord] = []
    n_steps = sc.n_steps(initial.t)
    t_start = initial.t
    os.makedirs(rc.directory, exist_ok=True)  # a failed start makes none

    def checkpoint_sink(state: SimState) -> None:
        i = int(round((state.t - t_start) / sc.dt))
        if 0 < i < n_steps:
            save_checkpoint(
                os.path.join(rc.directory, f"checkpoint_{i:06d}.lfck"),
                state, model)

    state_every = rc.checkpoint_every if rc.checkpoint_every > 0 else None
    final = run(initial, model, sc, records.append,
                state_sink=checkpoint_sink if state_every else None,
                state_every=state_every)

    save_checkpoint(os.path.join(rc.directory, "final.lfck"), final, model)
    write_energy_csv(os.path.join(rc.directory, "energy.csv"), records)

    entries: list[tuple[str, object]] = [
        ("model", rc.kind.value),
        ("t_final", final.t),
        ("samples", len(records)),
        ("e_kin_final", records[-1].e_kin),
        ("e_mag_final", records[-1].e_mag),
        ("grad_u_final", records[-1].grad_u),
        ("h_half_final", records[-1].h_half),
        ("u_l2_final", sobolev_norm(final.u, 0.0)),
        ("div_residual_final", records[-1].div_residual),
    ]
    try:
        entries.append(("energy_budget_residual",
                        energy_budget_residual(records, model)))
    except LerayflowError:
        entries.append(("energy_budget_residual", "n/a (nonuniform samples)"))
    write_summary(os.path.join(rc.directory, "summary.txt"), entries)
    return final, records


def _sweep(rc: RunConfig, sweep, values: list, s_norm: float, **options):
    """``sweep`` of the configured initial velocity and filter; writes
    sweep.csv into the output directory, when one is configured."""
    grid = rc.build_grid()
    report = sweep(rc.build_initial(grid).u, rc.build_filter(), values, s_norm,
                   **options)
    if rc.directory:
        os.makedirs(rc.directory, exist_ok=True)
        write_sweep_csv(os.path.join(rc.directory, "sweep.csv"), report)
    return report


def execute_sweep_alpha(rc: RunConfig, alphas: list[float], s_norm: float,
                        target_slope: float | None = None):
    return _sweep(rc, alpha_sweep, alphas, s_norm, target_slope=target_slope)


def execute_sweep_n(rc: RunConfig, orders: list[int], s_norm: float):
    return _sweep(rc, n_sweep, orders, s_norm)


def multiplier_table_text(rc: RunConfig) -> str:
    grid = rc.build_grid()
    params = rc.build_filter()
    ks = [j * grid.k0 for j in range(grid.dealias_cutoff + 1)]
    lines = ["k,helmholtz_multiplier,deconvolution_multiplier"]
    for k, gm, hm in multiplier_table(params, ks):
        lines.append(f"{format_g17(k)},{format_g17(gm)},{format_g17(hm)}")
    return "\n".join(lines) + "\n"
