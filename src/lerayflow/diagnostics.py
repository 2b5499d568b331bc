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
Its dissipation term comes from ``u . lap u = lap(|u|^2/2) - |grad u|^2``.
Every term that pairs a grid product with a band-limited spectrum (lap f, the
force, p and q) is summed in spectral space by the discrete Parseval identity,
exact on the grid, so a state costs the transport kernel's own inverse
transform of its sources and one forward transform of g f and f . grad g;
with b, q is the kernel's flux step on those samples.

The sweeps quantify the two convergence directions of the filter family:
error in alpha at fixed N (rate alpha^{2 theta}) and error in N at fixed
alpha (geometric, per-mode ratio x/(1+x)).
"""

from __future__ import annotations

import functools
import weakref
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import ModelConfig, SimState, _kind_transport
from .errors import (GridMismatch, InvariantViolation, NonMonotone,
                     TooFewSamples)
from .fields import (SpectralScalarField, SpectralVectorField, from_physical,
                     l2_inner, l2_norm, sobolev_norm, to_physical)
from .filtering import FilterParams, deconvolve, filter_apply
from .grid import WaveGrid

__all__ = [
    "EnergyRecord", "measure_energy", "energy_budget_residual",
    "BumpTestFunction", "local_energy_residual",
    "SweepReport", "alpha_sweep", "n_sweep", "fit_loglog",
]


@dataclass(frozen=True)
class EnergyRecord:
    """Instantaneous norms of one state sample.

    e_kin/e_mag are halves of squared L2 norms, grad_* are squared H^1
    seminorms, inject is the forcing power (f, u), h_half the squared H^{1/2}
    norm, div_residual the worst relative divergence of the fields."""

    t: float
    e_kin: float
    e_mag: float
    grad_u: float
    grad_b: float
    inject: float
    h_half: float
    div_residual: float


def measure_energy(state: SimState, cfg: ModelConfig) -> EnergyRecord:
    u = state.u
    energies = [np.sum(np.abs(f.coeffs) ** 2, axis=0) for f in state.fields]
    l2 = [l2_norm(f, e) for f, e in zip(state.fields, energies)]
    norms = [(0.5 * n ** 2, sobolev_norm(f, 1.0, e) ** 2)
             for f, e, n in zip(state.fields, energies, l2)]
    (e_kin, grad_u), (e_mag, grad_b) = (norms + [(0.0, 0.0)])[:2]
    h_half = sobolev_norm(u, 0.5, energies[0]) ** 2
    div_res = max(f.divergence_residual(n) for f, n in zip(state.fields, l2))
    inject = 0.0
    if not cfg.forcing.is_zero():
        inject = l2_inner(cfg.forcing.evaluate(u.grid, state.t), u)
    return EnergyRecord(state.t, e_kin, e_mag, grad_u, grad_b,
                        inject, h_half, div_res)


def energy_budget_residual(samples: list[EnergyRecord], cfg: ModelConfig) -> float:
    """Worst relative defect of the energy identity over interior samples.

    Time derivatives use centered differences on the (uniform) sample grid,
    so a smooth trajectory gives a residual that is O(spacing^2)."""
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

    It remembers the two sides of :func:`local_energy_residual` per (state,
    pressure) pair, through weak references, so nothing is kept alive and an
    object whose id is reused misses.  An entry holds only while ``t``,
    ``cfg``, the window and a crc32 of the coefficient bytes are unchanged,
    so a state edited in place is integrated again."""

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
        self._sides: dict[tuple[int, int], tuple] = {}

    @classmethod
    def canonical(cls, dim: int, t_end: float) -> "BumpTestFunction":
        """The one reproducible choice used by the verification suite:
        centered in the 2 pi box, width 0.8, time window the middle 80
        percent."""
        return cls(center=(np.pi,) * dim, width=0.8,
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


def _grid_sum(grid: WaveGrid, a_hat: np.ndarray, b_hat: np.ndarray) -> float:
    """``sum_x a . b`` over the grid, from the half spectra of real samples a
    and b: ``N sum_k plane_weight Re(conj(a_k) . b_k)`` (discrete Parseval,
    exact on the grid), the self-conjugate planes counted once."""
    planes = (Ellipsis, slice(None, None, grid.n // 2))
    pairing = 2.0 * np.vdot(a_hat, b_hat).real \
        - np.vdot(a_hat[planes], b_hat[planes]).real
    return grid.n ** grid.dim * pairing


def _sides_tag(state: SimState, p_hat: SpectralScalarField, cfg: ModelConfig,
               phi: BumpTestFunction) -> tuple:
    """What a state's two sides depend on besides the objects themselves."""
    crc = 0
    for f in (*state.fields, p_hat):
        crc = zlib.crc32(np.ascontiguousarray(f.coeffs), crc)
    return (state.t, cfg, state.u.grid.descriptor, crc, phi.center,
            phi.width, phi.t0, phi.t1)


def _local_energy_sides(state: SimState, p_hat: SpectralScalarField,
                        cfg: ModelConfig, bump, w: float,
                        w_dt: float) -> tuple[float, float]:
    """Both sides of the localized energy identity at one state."""
    grid = state.u.grid
    g, grad_g, lap_g = bump

    # The kernel's own inverse transforms, one per source: the fields and
    # the advecting fields of row 0 (u alone for nse; Hu, u; or Hu, u, Hb,
    # b), and one forward transform of g f and f . grad g per field (and
    # |b|^2/2), to pair with the band-limited lap f, f, p and q; its flux
    # step gives q from the induction row, when there is one.
    kernel = _kind_transport(state, cfg, potential=1)
    phys = kernel.samples([f.coeffs for f in state.fields])
    f_phys = [phys[v] for _, v in kernel.rows[0]]
    adv_phys = [phys[a] for a, _ in kernel.rows[0]]
    squares = [np.sum(f * f, axis=0) for f in f_phys]
    hat = from_physical(grid, np.concatenate(
        [g * f for f in f_phys]
        + [np.sum(f * grad_g, axis=0)[np.newaxis] for f in f_phys]
        + [0.5 * b_sq[np.newaxis] for b_sq in squares[1:]]))
    m = len(f_phys)
    g_hat = hat[:m * grid.dim].reshape((m, grid.dim) + grid.spectral_shape)
    grad_hat = hat[m * grid.dim:]

    # 2 int |grad f|^2 g = int |f|^2 lap g - 2 int g f . lap f
    lhs = rhs = 0.0
    for f, gf_hat, f_sq, nu in zip(state.fields, g_hat, squares,
                                   (cfg.nu, cfg.nu2)):
        lhs += nu * w * (np.sum(f_sq * lap_g)
                         + 2.0 * _grid_sum(grid, grid.k_sq * gf_hat, f.coeffs))
        rhs += np.sum(f_sq * (w_dt * g + nu * w * lap_g))

    # The flux of |u|^2 (+ |b|^2): advection by Hu and the pressure work on
    # u; with b, the work of the dealiased magnetic pressure on u and of the
    # induction potential q on b (the mixed deconvolved transport is not
    # curl-like for alpha > 0), and the Lorentz exchange carried by Hb.
    flux = sum(squares)[np.newaxis] * adv_phys[0]
    pressure = p_hat.coeffs
    if state.b is not None:
        flux -= 2.0 * np.sum(f_phys[0] * f_phys[1], axis=0) * adv_phys[1]
        pressure = pressure + hat[-1] * grid.dealias_weight
        q_hat = grid.scatter(kernel.flux(phys)[0, 0])
    rhs += w * np.sum(np.sum(np.multiply(flux, grad_g, out=flux), axis=0))
    del flux  # before the force's spectrum exists
    rhs += 2.0 * w * _grid_sum(grid, grad_hat[0], pressure)
    if state.b is not None:
        rhs += 2.0 * w * _grid_sum(grid, grad_hat[1], q_hat)
    if not cfg.forcing.is_zero():
        rhs += 2.0 * w * _grid_sum(grid, g_hat[0],
                                   cfg.forcing.evaluate(grid, state.t).coeffs)
    return grid.cell_volume * lhs, grid.cell_volume * rhs


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

    ``phi`` remembers each state's two sides (see :class:`BumpTestFunction`),
    so a second call with a subset of the states, such as every other one,
    integrates none of them again."""
    if len(states) < 3:
        raise TooFewSamples("local energy residual needs >= 3 checkpoints")
    if len(states) != len(pressures):
        raise InvariantViolation("one pressure field per checkpoint required")
    grid = states[0].u.grid
    if not all(f.grid.same_as(grid) for state, p_hat in zip(states, pressures)
               for f in (*state.fields, p_hat)):
        raise GridMismatch(
            "local energy residual needs every state and pressure on one grid")

    bump = phi.spatial_fields(grid)
    times = np.array([s.t for s in states])
    lhs_vals = np.zeros(len(states))
    rhs_vals = np.zeros(len(states))
    memo = phi._sides = {key: entry for key, entry in phi._sides.items()
                         if entry[0]() is not None and entry[1]() is not None}
    for i, (state, p_hat) in enumerate(zip(states, pressures)):
        w = phi.time_weight(state.t)
        w_dt = phi.time_weight_dt(state.t)
        if w == 0.0 and w_dt == 0.0:
            continue
        key, tag = (id(state), id(p_hat)), _sides_tag(state, p_hat, cfg, phi)
        entry = memo.get(key)
        if entry is None or entry[0]() is not state \
                or entry[1]() is not p_hat or entry[2] != tag:
            sides = _local_energy_sides(state, p_hat, cfg, bump, w, w_dt)
            entry = memo[key] = (weakref.ref(state), weakref.ref(p_hat), tag,
                                 sides)
        lhs_vals[i], rhs_vals[i] = entry[3]

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


def _sweep_errors(u_ref: SpectralVectorField, smooth, params: list,
                  s_norm: float, what: str, slack: float) -> list[float]:
    """||smooth(u_ref, p) - u_ref||_{H^s} per p, which must not increase
    by more than the relative ``slack`` from one p to the next."""
    errors = [sobolev_norm(SpectralVectorField(
        u_ref.grid, smooth(u_ref, p).coeffs - u_ref.coeffs), s_norm)
        for p in params]
    for e1, e2 in zip(errors, errors[1:]):
        if e2 > e1 * (1.0 + slack):
            raise NonMonotone(f"{what} errors increased: {e1} -> {e2}")
    return errors


def alpha_sweep(u_ref: SpectralVectorField, p: FilterParams,
                alphas: list[float], s_norm: float,
                target_slope: float | None = None) -> SweepReport:
    """Filter-error decay ||filtered u - u||_{H^s} along decreasing alpha.

    The fitted log-log slope must be within 0.1 of the theoretical rate
    2*theta (or an explicit ``target_slope``); alpha = 0 entries give an
    exactly zero error and are excluded from the fit."""
    if len(alphas) < 3:
        raise InvariantViolation("alpha sweep needs at least 3 values")
    if any(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise InvariantViolation("alphas must be strictly decreasing")
    errors = _sweep_errors(u_ref, filter_apply, [
        replace(p, alpha=a) for a in alphas], s_norm, "filter", 0.0)

    fit_pts = [(a, e) for a, e in zip(alphas, errors) if a > 0 and e > 0]
    target = 2.0 * p.theta if target_slope is None else float(target_slope)
    report = functools.partial(SweepReport, tuple(alphas), tuple(errors))
    if len(fit_pts) < 2:
        return report(None, target, None, None, True)
    slope = fit_loglog([a for a, _ in fit_pts], [e for _, e in fit_pts])
    return report(slope, target, None, None, abs(slope - target) <= 0.1)


def _support_k_max(u: SpectralVectorField) -> float:
    amp = np.sqrt(np.sum(np.abs(u.coeffs) ** 2, axis=0))
    return float(u.grid.k_mag[amp > 1e-13 * amp.max()].max())


def n_sweep(u_ref: SpectralVectorField, p: FilterParams,
            n_values: list[int], s_norm: float) -> SweepReport:
    """Deconvolution-error decay ||H_N u - u||_{H^s} along increasing N.

    The per-unit-N geometric ratio must stay below x/(1+x) evaluated at the
    largest wavenumber in the support of u (plus a margin of 0.02); errors that
    fall under the 1e-12 relative floor are excluded from the ratio fit."""
    if len(n_values) < 2:
        raise InvariantViolation("n sweep needs at least 2 orders")
    if any(n2 <= n1 for n1, n2 in zip(n_values, n_values[1:])):
        raise InvariantViolation("deconvolution orders must be increasing")
    errors = _sweep_errors(u_ref, deconvolve, [
        replace(p, n_deconv=int(n)) for n in n_values], s_norm,
        "deconvolution", 1e-12)

    report = functools.partial(SweepReport, tuple(float(n) for n in n_values),
                               tuple(errors), None, None)
    if p.alpha == 0.0 or all(e == 0.0 for e in errors):
        return report(None, None, True)

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
        return report(None, bound, True)
    ratio = float(np.exp(np.mean(np.log(ratios))))
    passed = all(r <= bound + 0.02 for r in ratios)
    return report(ratio, bound, passed)
