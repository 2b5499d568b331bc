"""Short runs of the three sample configs against stored low modes.

The reference in ``tests/data/layout_fingerprints.json`` holds, for each
config, the final coefficients at a_1, ..., a_{d-1} in {0, 1, -1} and
a_d in {0, 1} and every row of ``energy.csv``.  Those indices name the same
modes in the full FFT layout and in the rfft half-spectrum layout, so the
file pins a change of the coefficient layout to the solver's numbers.

Regenerate (only on a commit whose solver is the reference) with

    PYTHONPATH=src python tests/test_layout_fingerprints.py
"""

import csv
import json
import os
import re
import sys

import numpy as np
import pytest

from lerayflow.config import parse_config
from lerayflow.runner import execute_run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data", "layout_fingerprints.json")
CASES = {"taylor_green_2d": 100, "leray_forced_32": 20, "mhd_decay_32": 10}
MODE_TOL = 1e-13
ENERGY_TOL = 1e-12


def low_modes(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients at a_j in {0, 1, -1} (j < d) and a_d in {0, 1}."""
    dim = coeffs.ndim - 1
    index = [range(dim)] + [[0, 1, -1]] * (dim - 1) + [[0, 1]]
    return coeffs[np.ix_(*index)].ravel()


def short_run(name: str, steps: int, directory: str) -> dict:
    with open(os.path.join(ROOT, "configs", f"{name}.cfg"),
              encoding="utf-8") as fh:
        text = fh.read()
    text = re.sub(r"(?m)^t_end = .*$", f"t_end = {steps * 0.001!r}", text)
    text = re.sub(r"(?m)^directory = .*$", f"directory = {directory}", text)
    final, _records = execute_run(parse_config(text))
    with open(os.path.join(directory, "energy.csv"), encoding="utf-8") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    out = {"t": final.t, "energy": rows}
    for key, field in (("u", final.u), ("b", final.b)):
        if field is not None:
            out[key] = [[float(c.real), float(c.imag)]
                        for c in low_modes(field.coeffs)]
    return out


def load_reference() -> dict:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_short_run_matches_reference(name, tmp_path):
    ref = load_reference()[name]
    new = short_run(name, CASES[name], str(tmp_path / "out"))
    assert new["t"] == ref["t"]
    for key in ("u", "b"):
        assert (key in new) == (key in ref)
        if key not in ref:
            continue
        got = np.array([complex(re_, im) for re_, im in new[key]])
        want = np.array([complex(re_, im) for re_, im in ref[key]])
        dev = np.abs(got - want).max() / np.abs(want).max()
        assert dev <= MODE_TOL, f"{name} {key}: relative deviation {dev:.3e}"
    assert len(new["energy"]) == len(ref["energy"])
    for got, want in zip(new["energy"], ref["energy"]):
        got, want = np.array(got), np.array(want)
        dev = np.abs(got - want).max() / np.abs(want).max()
        assert dev <= ENERGY_TOL, f"{name} energy row t={want[0]}: {dev:.3e}"


def main() -> int:
    import tempfile
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, steps in CASES.items():
            out[name] = short_run(name, steps, os.path.join(tmp, name))
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
