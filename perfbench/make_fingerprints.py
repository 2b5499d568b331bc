"""Record the reference fingerprints of the ``local-energy-32`` final state.

    PYTHONPATH=src LERAY_THREADS=1 python3 perfbench/make_fingerprints.py 0 20

runs the workload for each seed in the inclusive range and rewrites
``perfbench/fingerprints.json``.  Run it only on a commit whose solver is the
reference: the benchmark then checks later commits against these states to
1e-13 relative.
"""

from __future__ import annotations

import json
import sys

import workloads


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    workload = workloads.LocalEnergy()
    seeds = {}
    for seed in range(first, last + 1):
        inp = workloads.leray_alpha_inputs(workload.params["n"],
                                           workload.params["steps"], seed)
        final = workloads.stepping.run(inp.initial, inp.cfg, inp.sc)
        seeds[str(seed)] = workloads.fingerprint(final.u.coeffs, final.t)
        print(f"seed {seed}: t = {final.t}", file=sys.stderr)
    with open(workloads.FINGERPRINTS, "w", encoding="utf-8") as fh:
        fh.write(format_fingerprints(workload.name, workload.params, seeds))
    return 0


def format_fingerprints(name: str, params: dict, seeds: dict) -> str:
    """JSON with one line per seed, so a changed reference diffs by seed."""
    rows = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}"
                      for k, v in seeds.items())
    return (f'{{\n {json.dumps(name)}: {{\n  "params": {json.dumps(params)},\n'
            f'  "seeds": {{\n{rows}\n  }}\n }}\n}}\n')


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
