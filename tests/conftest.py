import numpy as np
import pytest
import scipy.fft

from lerayflow import WaveGrid


@pytest.fixture(scope="session")
def grid3() -> WaveGrid:
    return WaveGrid(3, 16)


@pytest.fixture(scope="session")
def grid2() -> WaveGrid:
    return WaveGrid(2, 32)


@pytest.fixture(scope="session")
def grid2_64() -> WaveGrid:
    return WaveGrid(2, 64)


class Counts(dict):
    """(calls, fields) per real-FFT direction, keyed by name, in ``widest``
    the most fields one call of that direction transformed, and in
    ``copies`` the calls of ``WaveGrid.gather`` and ``WaveGrid.scatter``."""

    def __init__(self):
        super().__init__()
        self.widest = {}
        self.copies = {"gather": 0, "scatter": 0}

    def clear(self):
        super().clear()
        self.widest.clear()
        self.copies.update(gather=0, scatter=0)


@pytest.fixture
def counts(monkeypatch):
    """A :class:`Counts` of the real FFTs and band copies made while the
    test runs."""
    counts = Counts()
    for name in ("irfftn", "rfftn"):
        def counted(x, *args, _name=name, _fn=getattr(scipy.fft, name),
                    **kwargs):
            calls, fields = counts.get(_name, (0, 0))
            dim = len(kwargs["axes"])
            width = int(x.size // np.prod(x.shape[-dim:]))
            counts[_name] = (calls + 1, fields + width)
            counts.widest[_name] = max(counts.widest.get(_name, 0), width)
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    for name in ("gather", "scatter"):
        def copied(grid, *args, _name=name, _fn=getattr(WaveGrid, name),
                   **kwargs):
            counts.copies[_name] += 1
            return _fn(grid, *args, **kwargs)
        monkeypatch.setattr(WaveGrid, name, copied)
    return counts


def single_mode_field(grid, a, amplitude):
    """Hermitian pair at integer index a (and -a) with the given d-vector,
    stored at its half-spectrum representative: both a and -a when a_d = 0,
    conj(amplitude) at -a when a_d < 0."""
    from lerayflow import SpectralVectorField
    coeffs = np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex)
    amp = np.asarray(amplitude, dtype=complex)
    idx = tuple(int(c) % grid.n for c in a)
    conj_idx = tuple((-int(c)) % grid.n for c in a)
    for comp in range(grid.dim):
        if a[-1] >= 0:
            coeffs[(comp,) + idx] = amp[comp]
        if a[-1] <= 0:
            coeffs[(comp,) + conj_idx] = np.conj(amp[comp])
    return SpectralVectorField(grid, coeffs)
