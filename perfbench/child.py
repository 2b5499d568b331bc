"""One benchmark child: set up a workload, run its timed phase once, report.

    python3 perfbench/child.py WORKLOAD SEED TRACE RUN_ID WORKDIR

``run.py`` starts one of these per simulation, with ``src`` on PYTHONPATH
and LERAY_THREADS=1.  Set-up time runs from the parent's spawn to the
``ready_ns`` stamp printed here (both read CLOCK_MONOTONIC).  With TRACE=1
the spans are written to WORKDIR/spans.jsonl after the timed phase.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def main(argv: list[str]) -> int:
    name, seed, trace, run_id, workdir = argv
    import numpy
    import scipy

    import spans
    import workloads

    workload = workloads.WORKLOADS[name]()
    tracer = None
    missing: list[str] = []
    if trace == "1":
        tracer = spans.Tracer(run_id)
        missing = tracer.install()
    inputs = workload.setup(int(seed), workdir)
    ready_ns = time.perf_counter_ns()

    result = workload.execute(inputs)
    wall_ns = time.perf_counter_ns() - ready_ns

    spans_path = None
    if tracer is not None:
        tracer.uninstall()
        spans_path = os.path.join(workdir, "spans.jsonl")
        tracer.dump(spans_path)

    print(json.dumps({
        "ready_ns": ready_ns,
        "wall_ns": wall_ns,
        "integrate_ns": result.integrate_ns,
        "steps": result.steps,
        "steps_done": result.steps_done,
        "checks": [[c.name, c.passed, c.detail] for c in result.checks],
        "state_sha256": workloads.state_digest(result.state),
        "csv_sha256": result.csv_sha256,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans_path,
        "missing_spans": missing,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "LERAY_THREADS": os.environ.get("LERAY_THREADS")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
