"""Threads sharing one grid: every result equals the serial one bit for bit.

The transport kernel and the projection write into work arrays that belong
to the calling thread, so concurrent simulations on one ``WaveGrid`` do not
see each other's rows.  Each check starts three threads together (more than
the two cores of the reference machine) on different inputs of one grid,
with a short interpreter switch interval, and compares every result with
the same call made serially.
"""

from concurrent.futures import ThreadPoolExecutor
import sys
import threading

import numpy as np
import pytest

from lerayflow import (FilterParams, ModelConfig, ModelKind, SimState,
                       SpectralVectorField, StepperConfig, WaveGrid,
                       leray_project, pressure_solve, random_solenoidal, rhs,
                       run)
from lerayflow.dynamics import _KIND_ROWS, _flux_plan

CALLS = 50
SEEDS = (5, 7, 9)  # one input per thread
TIMEOUT_S = 120.0
KINDS = [(3, ModelKind.MHD_DECONV), (3, ModelKind.LERAY_ALPHA),
         (2, ModelKind.NSE)]
IDS = ["3d-mhd-deconv", "3d-leray-alpha", "2d-nse"]


@pytest.fixture(autouse=True)
def short_switch_interval():
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def model(dim: int, kind: ModelKind):
    """One grid at n = 16, a model of the kind and one state per seed."""
    grid = WaveGrid(dim, 16)
    mhd = kind is ModelKind.MHD_DECONV
    cfg = ModelConfig(kind=kind, nu=0.05, nu2=0.05 if mhd else None,
                      filter=FilterParams(alpha=0.1, theta=0.25, n_deconv=1))
    states = [SimState(0.0, random_solenoidal(grid, seed, -1.5, 5),
                       random_solenoidal(grid, seed + 1, -1.5, 5)
                       if mhd else None) for seed in SEEDS]
    return grid, cfg, states


def concurrently(work, inputs):
    """``work(x)`` for each input in its own thread, all started together."""
    barrier = threading.Barrier(len(inputs))

    def started(x):
        barrier.wait(TIMEOUT_S)
        return work(x)

    with ThreadPoolExecutor(max_workers=len(inputs)) as pool:
        return list(pool.map(started, inputs, timeout=TIMEOUT_S))


def mismatches(concurrent, serial) -> int:
    """How many results of a thread differ from the serial result."""
    return sum(not all(np.array_equal(a, b) for a, b in zip(got, serial))
               for got in concurrent)


@pytest.mark.parametrize("dim,kind", KINDS, ids=IDS)
def test_rhs(dim, kind):
    _, cfg, states = model(dim, kind)
    serial = [[row.coeffs.copy() for row in rhs(s, cfg)] for s in states]
    per_thread = concurrently(
        lambda s: [[row.coeffs for row in rhs(s, cfg)] for _ in range(CALLS)],
        states)
    assert [mismatches(got, want) for got, want in zip(per_thread, serial)] \
        == [0] * len(SEEDS)


@pytest.mark.parametrize("dim,kind", KINDS, ids=IDS)
def test_run(dim, kind):
    _, cfg, states = model(dim, kind)
    sc = StepperConfig(dt=1e-3, t_end=1e-2)
    serial = [[f.coeffs for f in run(s, cfg, sc).fields] for s in states]
    finals = concurrently(lambda s: [f.coeffs for f in run(s, cfg, sc).fields],
                          states)
    for got, want in zip(finals, serial):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("dim,kind", KINDS, ids=IDS)
def test_pressure_solve(dim, kind):
    _, cfg, states = model(dim, kind)
    serial = [[pressure_solve(s, cfg).coeffs] for s in states]
    per_thread = concurrently(
        lambda s: [[pressure_solve(s, cfg).coeffs] for _ in range(CALLS)],
        states)
    assert [mismatches(got, want) for got, want in zip(per_thread, serial)] \
        == [0] * len(SEEDS)


@pytest.mark.parametrize("dim", [2, 3])
def test_leray_project(dim):
    grid = WaveGrid(dim, 16)
    rng = np.random.default_rng(3)
    shape = (len(SEEDS), dim) + grid.spectral_shape
    fields = [SpectralVectorField(grid, c) for c in
              rng.standard_normal(shape) + 1j * rng.standard_normal(shape)]
    serial = [[leray_project(f).coeffs] for f in fields]
    per_thread = concurrently(
        lambda f: [[leray_project(f).coeffs] for _ in range(CALLS)], fields)
    assert [mismatches(got, want) for got, want in zip(per_thread, serial)] \
        == [0] * len(SEEDS)


def test_work_arrays_belong_to_the_calling_thread():
    # after a warm 3D mhd-deconv rhs the thread holds one d-vector source
    # buffer, the widest chunk's product rows and one more, as many band
    # rows, and the two spectral work arrays of the states' own projection
    # (random_solenoidal); a pressure potential (a wider chunk) grows the
    # rows.  The grid's own and cached arrays are read-only, and another
    # thread sees none of this one's work arrays.
    grid, cfg, states = model(3, ModelKind.MHD_DECONV)
    for state in states:
        rhs(state, cfg)
    _, chunks, _ = _flux_plan(3, _KIND_ROWS[ModelKind.MHD_DECONV][1])
    widest = max(len(products) for products, _ in chunks)
    layout = {name: (a.shape, a.dtype)
              for name, a in vars(grid.scratch).items()}
    assert (widest, layout) == (3, {
        "source": ((3,) + grid.spectral_shape, np.complex128),
        "products": ((widest + 1,) + grid.shape, np.float64),
        "band": ((widest + 1,) + grid.band_shape, np.complex128),
        "spectral_work": ((2,) + grid.spectral_shape, np.complex128)})
    shared = [*grid._symbols.values(),
              *(a for a in vars(grid).values() if isinstance(a, np.ndarray))]
    assert not any(a.flags.writeable for a in shared)
    assert concurrently(lambda _: vars(grid.scratch), [None]) == [{}]
    pressure_solve(states[0], cfg)
    assert grid.scratch.products.shape == (7,) + grid.shape
    assert grid.scratch.band.shape == (7,) + grid.band_shape
