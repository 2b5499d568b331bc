"""lerayflow benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py`` or ``all``.  Each
simulation runs in a fresh child process (``child.py``) at LERAY_THREADS=1,
one at a time, as a closed loop; children are started until ``--seconds``
would be exceeded.  The solver is imported from ``src/`` of this checkout.

``--trace 0`` reports the end-to-end metrics (medians over the children).
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics from the spans of the traced ones.  Every child's outputs
are checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 without a result if a
child cannot run at all (for example when ``src/lerayflow`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("mhd-run-32", "local-energy-32", "taylor-green-2d")
END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}
MIN_CHILDREN = {0: 3, 1: 4}     # trace 1: two untraced/traced pairs
DEADLINE_S = 170.0              # one workload's run must end within 180 s

# Cache sizes of the machine the bounds were set on (2-core Xeon); every
# workload's largest FFT call fits in its L3, so byte figures are computed
# from array sizes and are not measured bandwidth.
REFERENCE_CACHES = {"l2": "4 MiB x2", "l3": "300 MiB"}


class ChildFailed(RuntimeError):
    """A child exited without a result: the benchmark cannot run here."""


def git_revision(root: str) -> str:
    """HEAD of the checkout's own .git, without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(LERAY_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(name: str, seed: int, traced: bool, run_id: str, workdir: str,
          timeout: float) -> dict:
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed),
           "1" if traced else "0", run_id, workdir]
    t_spawn = time.perf_counter_ns()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{run_id}: no result within {timeout:.0f} s") from exc
    t_end = time.perf_counter_ns()
    if proc.returncode != 0:
        raise ChildFailed(f"{run_id}: exit code {proc.returncode}\n"
                          + proc.stderr[-2000:])
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    child.update(traced=traced, run_id=run_id,
                 setup_ns=child["ready_ns"] - t_spawn,
                 duration_s=(t_end - t_spawn) / 1e9)
    return child


def run_children(name: str, seed: int, seconds: float, trace: int,
                 workdir: str) -> list[dict]:
    """Closed loop: the next child starts when the previous one has ended."""
    children: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        i = len(children)
        if i >= MIN_CHILDREN[trace] and (not trace or i % 2 == 0):
            typical = statistics.median(c["duration_s"] for c in children)
            if time.perf_counter() - loop_start + typical > seconds:
                break
        remaining = DEADLINE_S - (time.perf_counter() - loop_start)
        traced = bool(trace) and i % 2 == 1
        run_id = f"{name}-s{seed}-{i}{'-traced' if traced else ''}"
        children.append(spawn(name, seed, traced, run_id,
                              os.path.join(workdir, run_id), remaining))
    return children


def cross_checks(children: list[dict]) -> list[tuple[str, bool]]:
    """Reruns reproduce the first child bit for bit; traced runs too."""
    first = children[0]
    out = []
    for c in children[1:]:
        kind = "passthrough" if c["traced"] else "rerun"
        out.append((f"{kind}_state", c["state_sha256"] == first["state_sha256"]))
        if first["csv_sha256"] is not None:
            out.append((f"{kind}_energy_csv",
                        c["csv_sha256"] == first["csv_sha256"]))
    traced = [c for c in children if c["traced"]]
    for c in traced[1:]:
        same = all(c["layers"][k] == traced[0]["layers"][k]
                   for k in traced[0]["layers"] if spans.is_exact(k))
        out.append(("trace_counts_repeat", same))
    return out


def layer_metrics(name: str, children: list[dict]) -> dict[str, float]:
    """Per-layer metrics: exact counts from one traced child, times as
    medians over the traced children, plus the tracing overhead."""
    traced = [c for c in children if c["traced"]]
    untraced = [c for c in children if not c["traced"]]
    out = {}
    for key, value in traced[0]["layers"].items():
        out[key] = (value if spans.is_exact(key) else
                    statistics.median(c["layers"][key] for c in traced))
    out["trace.overhead_s"] = (
        statistics.median(c["wall_ns"] for c in traced)
        - statistics.median(c["wall_ns"] for c in untraced)) / 1e9
    missing = set(traced[0]["missing_spans"])
    for span in spans.EXPECTED[name]:
        if span in missing or out[f"{span}.calls"] == 0:
            print(f"warning: span {span} recorded 0 calls on {name}",
                  file=sys.stderr)
    return out


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    # One directory per workload and mode, emptied first, so repeated runs
    # with other seeds do not pile up checkpoints in the checkout.
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-t{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    children = run_children(name, seed, seconds, trace, workdir)
    for c in children:
        if c["spans"]:
            c["layers"] = spans.aggregate(spans.load_spans(c["spans"]),
                                          c["steps"])

    attempted = failed = 0
    for c in children:
        attempted += c["steps"] + len(c["checks"])
        failed += c["steps"] - c["steps_done"]
        for check, passed, detail in c["checks"]:
            if not passed:
                failed += 1
                print(f"check failed: {c['run_id']} {check}: {detail}",
                      file=sys.stderr)
    for check, passed in cross_checks(children):
        attempted += 1
        if not passed:
            failed += 1
            print(f"check failed: {name} {check}", file=sys.stderr)

    if trace:
        metrics = {k: (v, spans.unit(k))
                   for k, v in layer_metrics(name, children).items()}
    else:
        untraced = [c for c in children if not c["traced"]]
        med = statistics.median
        metrics = {
            "wall_s": med(c["wall_ns"] / 1e9 for c in untraced),
            "steps_per_s": med(c["steps_done"] / (c["integrate_ns"] / 1e9)
                               for c in untraced),
            "setup_s": med(c["setup_ns"] / 1e9 for c in untraced),
            "peak_rss_mib": med(c["maxrss_kib"] / 1024 for c in untraced),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return {"children": children, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def environment(results: dict) -> dict:
    env = {"git_revision": git_revision(ROOT), "nproc": os.cpu_count(),
           "l2_cache_reference": REFERENCE_CACHES["l2"],
           "l3_cache_reference": REFERENCE_CACHES["l3"]}
    any_child = next(iter(results.values()))["children"][0]
    env.update(any_child["versions"])
    for name, res in results.items():
        largest = res["metrics"].get("fft.largest_call_bytes")
        if largest is not None:
            env[f"largest_fft_call_mib.{name}"] = round(largest[0] / 2**20, 3)
    env["note"] = ("the largest FFT call fits in L3: byte figures are "
                   "computed from array sizes, not measured bandwidth")
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lerayflow", "__init__.py")):
        print(f"error: no lerayflow sources under {ROOT}/src", file=sys.stderr)
        return 1

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("# env " + json.dumps(environment(results), sort_keys=True))
    metrics = {}
    attempted = failed = 0
    for name, res in results.items():
        attempted += res["attempted"]
        failed += res["failed"]
        walls = " ".join(f"{c['wall_ns'] / 1e9:.3f}" for c in res["children"])
        print(f"# {name} seed {args.seed} trace {args.trace}: "
              f"{len(res['children'])} children, wall_s {walls}")
        for key, (value, unit) in res["metrics"].items():
            print(f"{name} {key} {value:.6g} {unit}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {
                "value": value, "unit": unit}
        print(f"{name} fail_ratio {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
