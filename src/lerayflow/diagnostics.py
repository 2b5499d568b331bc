"""Energy records, budget and local-energy residuals, convergence sweeps.

The global budget identity for the regularized models is

    d/dt (1/2 ||u||^2) + nu ||grad u||^2 = (f, u)

exactly in the space-discrete system, because the dealiased transport term is
energy-neutral.  ``energy_budget_residual`` measures how far a sampled
trajectory is from it, using centered differences, so the residual is second
order in the sample spacing.  ``local_energy_residual`` checks the
space-localized version against a smooth nonnegative test function that
vanishes at both ends of the time interval; for the regularized models it is
an equality, for plain NSE only the one-sided inequality is meaningful.

The sweeps quantify the two convergence directions of the filter family:
error in alpha at fixed N (rate alpha^{2 theta}) and error in N at fixed
alpha (geometric, per-mode ratio x/(1+x)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (ModelConfig, ModelKind, SimState, _gradient_potential,
                       _mhd_rows, advecting_field)
from .errors import InvariantViolation, NonMonotone, TooFewSamples
from .fields import (SpectralScalarField, SpectralVectorField, from_physical,
                     inverse_transform_scalar, l2_inner, l2_norm, sobolev_norm,
                     to_physical)
from .filtering import FilterParams, deconvolve, filter_apply
from .grid import WaveGrid

__all__ = [
    "EnergyRecord", "measure_energy", "energy_budget_residual",
    "BumpTestFunction", "local_energy_residual",
    "SweepReport", "alpha_sweep", "n_sweep",
    "shell_spectrum", "fit_loglog",
]


@dataclass(frozen=True)
class EnergyRecord:
    """Instantaneous norms of one state sample.

    e_kin/e_mag are halves of squared L2 norms, grad_* are squared H^1
    seminorms, inject is the forcing power (f, u), h_half the squared H^{1/2}
    norm, div_residual the worst relative divergence of the fields.
    """

    t: float
    e_kin: float
    e_mag: float
    grad_u: float
    grad_b: float
    inject: float
    h_half: float
    div_residual: float

    FIELDS = ("t", "e_kin", "e_mag", "grad_u", "grad_b",
              "inject", "h_half", "div_residual")


def measure_energy(state: SimState, cfg: ModelConfig) -> EnergyRecord:
    u = state.u
    e_kin = 0.5 * l2_norm(u) ** 2
    grad_u = sobolev_norm(u, 1.0) ** 2
    h_half = sobolev_norm(u, 0.5) ** 2
    div_res = u.divergence_residual()
    e_mag = grad_b = 0.0
    if state.b is not None:
        e_mag = 0.5 * l2_norm(state.b) ** 2
        grad_b = sobolev_norm(state.b, 1.0) ** 2
        div_res = max(div_res, state.b.divergence_residual())
    inject = 0.0
    if not cfg.forcing.is_zero():
        inject = l2_inner(cfg.forcing.evaluate(u.grid, state.t), u)
    return EnergyRecord(state.t, e_kin, e_mag, grad_u, grad_b,
                        inject, h_half, div_res)


def energy_budget_residual(samples: list[EnergyRecord], cfg: ModelConfig) -> float:
    """Worst relative defect of the energy identity over interior samples.

    Time derivatives use centered differences on the (uniform) sample grid,
    so a smooth trajectory gives a residual that is O(spacing^2).
    """
    if len(samples) < 3:
        raise TooFewSamples("energy budget needs at least 3 samples")
    t = np.array([s.t for s in samples])
    spacing = np.diff(t)
    h = spacing[0]
    if h <= 0 or np.any(np.abs(spacing - h) > 1e-9 * max(h, 1e-30)):
        raise InvariantViolation("energy budget requires uniform sample spacing")

    energy = np.array([s.e_kin + s.e_mag for s in samples])
    nu2 = cfg.nu2 if cfg.nu2 is not None else 0.0
    dissipation = np.array([cfg.nu * s.grad_u + nu2 * s.grad_b for s in samples])
    inject = np.array([s.inject for s in samples])

    dedt = (energy[2:] - energy[:-2]) / (2.0 * h)
    defect = np.abs(dedt + dissipation[1:-1] - inject[1:-1])
    scale = np.maximum(dissipation[1:-1], 1e-30)
    return float(np.max(defect / scale))


class BumpTestFunction:
    """Smooth nonnegative test function: periodized Gaussian times a compact
    C^2 time window, phi(t, x) = w(t) g(x) with w, w' and w'' zero at t0
    and t1.

    The spatial profile is synthesized from its exact Fourier coefficients,
    so its gradient and Laplacian are spectrally consistent with it.
    """

    def __init__(self, center: tuple[float, ...], width: float,
                 t0: float, t1: float):
        if width <= 0:
            raise InvariantViolation("bump width must be positive")
        if not 0 < t0 < t1:
            raise InvariantViolation("need 0 < t0 < t1 for the time window")
        self.center = tuple(float(c) for c in center)
        self.width = float(width)
        self.t0 = float(t0)
        self.t1 = float(t1)

    @classmethod
    def canonical(cls, dim: int, t_end: float,
                  box_length: float = 2.0 * np.pi) -> "BumpTestFunction":
        """The one reproducible choice used by the verification suite:
        centered in the box, width 0.8, time window the middle 80 percent."""
        return cls(center=(box_length / 2.0,) * dim, width=0.8,
                   t0=0.1 * t_end, t1=0.9 * t_end)

    def time_weight(self, t: float) -> float:
        if t <= self.t0 or t >= self.t1:
            return 0.0
        s = (t - self.t0) / (self.t1 - self.t0)
        return (4.0 * s * (1.0 - s)) ** 3

    def time_weight_dt(self, t: float) -> float:
        if t <= self.t0 or t >= self.t1:
            return 0.0
        s = (t - self.t0) / (self.t1 - self.t0)
        return 3.0 * (4.0 * s * (1.0 - s)) ** 2 * 4.0 * (1.0 - 2.0 * s) \
            / (self.t1 - self.t0)

    def spatial_fields(self, grid: WaveGrid):
        """Physical samples of (g, grad g, laplacian g) on the grid."""
        if len(self.center) != grid.dim:
            raise InvariantViolation("bump center does not match grid dim")

        def build():
            w2 = self.width ** 2
            phase = sum(k * c for k, c in zip(grid.k, self.center))
            amp = ((2.0 * np.pi * w2) ** (grid.dim / 2.0) / grid.L ** grid.dim
                   * np.exp(-0.5 * w2 * grid.k_sq))
            g_hat = amp * np.exp(-1j * phase) * grid.mode_mask
            stack = np.concatenate([[g_hat], [-grid.k_sq * g_hat],
                                    grid.ik * g_hat])
            return to_physical(grid, stack)

        phys = grid.cached(("bump", self.center, self.width), build)
        return phys[0], phys[2:], phys[1]


def _phys_grad_sq(field: SpectralVectorField) -> np.ndarray:
    """Pointwise |grad u|^2 = sum_ij (d_j u_i)^2 in physical space."""
    g = field.grid
    d = g.dim
    stack = np.empty((d * d,) + g.spectral_shape, dtype=complex)
    for j in range(d):
        stack[j * d: (j + 1) * d] = g.ik[j] * field.coeffs
    der = to_physical(g, stack)
    return np.sum(der * der, axis=0)


def local_energy_residual(states: list[SimState],
                          pressures: list[SpectralScalarField],
                          phi: BumpTestFunction,
                          cfg: ModelConfig) -> float:
    """Signed relative defect of the localized energy identity.

    Space integrals use the spectral (grid-sum) quadrature, the time integral
    the trapezoid rule over the supplied checkpoints, so for the regularized
    models the residual shrinks at second order in the checkpoint spacing in
    general, and at fourth order when ``phi.t0`` and ``phi.t1`` are
    checkpoints (the window and its first two derivatives vanish there, so
    the h^2 Euler-Maclaurin term drops out).
    For plain NSE only ``residual <= tol`` (the inequality direction) is
    asserted by callers.
    """
    if len(states) < 3:
        raise TooFewSamples("local energy residual needs >= 3 checkpoints")
    if len(states) != len(pressures):
        raise InvariantViolation("one pressure field per checkpoint required")

    grid = states[0].u.grid
    g, grad_g, lap_g = phi.spatial_fields(grid)
    vol = grid.cell_volume
    is_mhd = cfg.kind is ModelKind.MHD_DECONV
    nu2 = cfg.nu2 if cfg.nu2 is not None else 0.0

    times = np.array([s.t for s in states])
    lhs_vals = np.empty(len(states))
    rhs_vals = np.empty(len(states))

    for i, (state, p_hat) in enumerate(zip(states, pressures)):
        w = phi.time_weight(state.t)
        w_dt = phi.time_weight_dt(state.t)
        if w == 0.0 and w_dt == 0.0:
            lhs_vals[i] = rhs_vals[i] = 0.0
            continue

        u_phys = to_physical(grid, state.u.coeffs)
        u_sq = np.sum(u_phys * u_phys, axis=0)
        grad_u_sq = _phys_grad_sq(state.u)
        adv_phys = to_physical(grid, advecting_field(state.u, cfg).coeffs)
        p_phys = inverse_transform_scalar(p_hat)

        lhs = 2.0 * cfg.nu * w * np.sum(grad_u_sq * g)
        rhs = np.sum(u_sq * (w_dt * g + cfg.nu * w * lap_g))

        if is_mhd:
            b_phys = to_physical(grid, state.b.coeffs)
            b_sq = np.sum(b_phys * b_phys, axis=0)
            grad_b_sq = _phys_grad_sq(state.b)
            hb_phys = to_physical(grid, deconvolve(state.b, cfg.filter).coeffs)

            # total pressure (fluid + dealiased magnetic) drives the u-flux
            mag_hat = from_physical(grid, 0.5 * b_sq) * grid.dealias_weight
            # pseudo-pressure removed by projecting the induction tendency:
            # the mixed deconvolved transport is not curl-like for alpha > 0
            q_hat = _gradient_potential(grid, _mhd_rows(state, cfg)[1].coeffs)
            p_tot, q_phys = to_physical(grid, np.stack([mag_hat, q_hat]))
            p_tot += p_phys

            lhs += 2.0 * nu2 * w * np.sum(grad_b_sq * g)
            rhs += np.sum(b_sq * (w_dt * g + nu2 * w * lap_g))
            rhs += w * np.sum(
                ((u_sq + b_sq) * np.sum(adv_phys * grad_g, axis=0))
                + 2.0 * p_tot * np.sum(u_phys * grad_g, axis=0)
                + 2.0 * q_phys * np.sum(b_phys * grad_g, axis=0)
                - 2.0 * np.sum(u_phys * b_phys, axis=0)
                * np.sum(hb_phys * grad_g, axis=0))
        else:
            flux = u_sq[np.newaxis] * adv_phys \
                + 2.0 * p_phys[np.newaxis] * u_phys
            rhs += w * np.sum(np.sum(flux * grad_g, axis=0))
            if not cfg.forcing.is_zero():
                f_phys = to_physical(
                    grid, cfg.forcing.evaluate(grid, state.t).coeffs)
                rhs += 2.0 * w * np.sum(np.sum(f_phys * u_phys, axis=0) * g)

        lhs_vals[i] = vol * lhs
        rhs_vals[i] = vol * rhs

    lhs_int = float(np.trapezoid(lhs_vals, times))
    rhs_int = float(np.trapezoid(rhs_vals, times))
    return (lhs_int - rhs_int) / max(abs(lhs_int), 1e-30)


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an alpha or N convergence sweep."""

    parameter_values: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float | None
    target_slope: float | None
    ratio: float | None
    ratio_bound: float | None
    passed: bool


def fit_loglog(x, y) -> float:
    """Unweighted least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def alpha_sweep(u_ref: SpectralVectorField, p: FilterParams,
                alphas: list[float], s_norm: float,
                slope_tolerance: float = 0.1,
                target_slope: float | None = None) -> SweepReport:
    """Filter-error decay ||filtered u - u||_{H^s} along decreasing alpha.

    The fitted log-log slope is compared against the theoretical rate
    2*theta (or an explicit ``target_slope``); alpha = 0 entries give an
    exactly zero error and are excluded from the fit.
    """
    if len(alphas) < 3:
        raise InvariantViolation("alpha sweep needs at least 3 values")
    if any(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise InvariantViolation("alphas must be strictly decreasing")
    errors = []
    for a in alphas:
        pa = FilterParams(alpha=a, theta=p.theta, n_deconv=p.n_deconv)
        diff = filter_apply(u_ref, pa).coeffs - u_ref.coeffs
        errors.append(sobolev_norm(
            SpectralVectorField(u_ref.grid, diff), s_norm))
    for e1, e2 in zip(errors, errors[1:]):
        if e2 > e1:
            raise NonMonotone(f"filter errors increased: {e1} -> {e2}")

    fit_pts = [(a, e) for a, e in zip(alphas, errors) if a > 0 and e > 0]
    target = 2.0 * p.theta if target_slope is None else float(target_slope)
    if len(fit_pts) < 2:
        return SweepReport(tuple(alphas), tuple(errors), None, target,
                           None, None, True)
    slope = fit_loglog([a for a, _ in fit_pts], [e for _, e in fit_pts])
    return SweepReport(tuple(alphas), tuple(errors), slope, target, None,
                       None, abs(slope - target) <= slope_tolerance)


def _support_k_max(u: SpectralVectorField) -> float:
    amp = np.sqrt(np.sum(np.abs(u.coeffs) ** 2, axis=0))
    return float(u.grid.k_mag[amp > 1e-13 * amp.max()].max())


def n_sweep(u_ref: SpectralVectorField, p: FilterParams,
            n_values: list[int], s_norm: float,
            ratio_margin: float = 0.02) -> SweepReport:
    """Deconvolution-error decay ||H_N u - u||_{H^s} along increasing N.

    The per-unit-N geometric ratio must stay below x/(1+x) evaluated at the
    largest wavenumber in the support of u (plus a small margin); errors that
    fall under the 1e-12 relative floor are excluded from the ratio fit.
    """
    if len(n_values) < 2:
        raise InvariantViolation("n sweep needs at least 2 orders")
    if any(n2 <= n1 for n1, n2 in zip(n_values, n_values[1:])):
        raise InvariantViolation("deconvolution orders must be increasing")
    errors = []
    for n in n_values:
        pn = FilterParams(alpha=p.alpha, theta=p.theta, n_deconv=int(n))
        diff = deconvolve(u_ref, pn).coeffs - u_ref.coeffs
        errors.append(sobolev_norm(
            SpectralVectorField(u_ref.grid, diff), s_norm))
    for e1, e2 in zip(errors, errors[1:]):
        if e2 > e1 * (1.0 + 1e-12):
            raise NonMonotone(f"deconvolution errors increased: {e1} -> {e2}")

    if p.alpha == 0.0 or all(e == 0.0 for e in errors):
        return SweepReport(tuple(float(n) for n in n_values), tuple(errors),
                           None, None, None, None, True)

    k_max = _support_k_max(u_ref)
    x_max = p.alpha ** (2 * p.theta) * k_max ** (2 * p.theta)
    bound = x_max / (1.0 + x_max)

    floor = 1e-12 * sobolev_norm(u_ref, s_norm)
    ratios = []
    for (n1, e1), (n2, e2) in zip(zip(n_values, errors),
                                  zip(n_values[1:], errors[1:])):
        if e1 <= floor or e2 <= floor:
            break  # below the resolvable floor, truncate the fit
        ratios.append((e2 / e1) ** (1.0 / (n2 - n1)))
    if not ratios:
        return SweepReport(tuple(float(n) for n in n_values), tuple(errors),
                           None, None, None, bound, True)
    ratio = float(np.exp(np.mean(np.log(ratios))))
    passed = all(r <= bound + ratio_margin for r in ratios)
    return SweepReport(tuple(float(n) for n in n_values), tuple(errors),
                       None, None, ratio, bound, passed)


def shell_spectrum(u: SpectralVectorField) -> list[tuple[int, float]]:
    """Per-shell spectral energy sum_{|k| in shell j} |uhat_k|^2.

    Shells partition the retained modes, so the energies sum to the squared
    L2 norm of the field.
    """
    g = u.grid
    energy_density = g.plane_weight * np.sum(np.abs(u.coeffs) ** 2, axis=0)
    totals = np.bincount(g.shell.ravel(), weights=energy_density.ravel(),
                         minlength=g.max_shell + 1)
    return [(j, float(totals[j])) for j in range(g.max_shell + 1)]
