"""ksdlab benchmark: one workload, one run, every metric by name and unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

The workload runs in a fresh interpreter (worker.py) that takes the package
from ./src, with the OpenBLAS/OpenMP pools pinned to one thread in its
environment before it starts.  Set-up time is measured in three further fresh
interpreters.  With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Operation times are
gated as multiples of a fixed slice of reference work timed every 0.25 s
during the operation (``wall_ref``, ``cpu_ref``, see worker.SpeedProbe),
because the shared CPU's speed drifts by more than the bounds; the raw
seconds are printed and kept in the details.  The
last stdout line is the JSON result; the line before it holds the checked
outputs of every operation, the known failures and the machine facts.  Exits non-zero, with no
result, when the package or the worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 3
DEADLINE_S = 170.0
# set before the interpreter starts: numpy reads them only at import, which is
# why setting them later (as ksdlab.cli.run does for KSD_LAB_THREADS) has no effect
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _child_env(work: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(work)
    return env


def _run(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{Path(cmd[1]).name} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def _summary(xs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def measure(args, work: Path, deadline: float) -> tuple[dict, dict]:
    env = _child_env(work)
    setups = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = _run([sys.executable, str(WORKER), "--setup"], env, deadline - time.monotonic())
        setups.append((time.perf_counter() - t0, json.loads(proc.stdout.splitlines()[-1])))
    result = work / "result.json"
    _run([sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
          "--seconds", str(args.seconds), "--trace", str(args.trace),
          "--work", str(work), "--result", str(result)], env, deadline - time.monotonic())
    return json.loads(result.read_text()), {"wall_s": [s for s, _ in setups],
                                            "inside": [d for _, d in setups]}


def metrics_of(args, bench: dict, report: dict, setup: dict) -> tuple[dict, dict]:
    ops = report["ops"]
    plain = [op for op in ops if not op["traced"]]
    wall = _summary([op["wall_s"] for op in plain])
    cpu = _summary([op["cpu_s"] for op in plain])
    wall_ref = _summary([op["wall_s"] / op["slice_wall_s"] for op in plain])
    cpu_ref = _summary([op["cpu_s"] / op["slice_cpu_s"] for op in plain])
    failed = sum(not op["ok"] for op in ops)
    details = {"wall_s": wall, "cpu_s": cpu, "wall_ref": wall_ref, "cpu_ref": cpu_ref,
               "slice_wall_s": _summary([op["slice_wall_s"] for op in plain]),
               "setup_s": setup}
    if args.trace:
        traced = statistics.median(op["wall_s"] for op in ops if op["traced"])
        pool = dict(report["layers"], **report["kernels"])
        pool.update({"trace.wall_s.untraced": wall["median"], "trace.wall_s.traced": traced,
                     "trace.overhead_s": traced - wall["median"]})
        wanted = bench["per_layer"]
        details["layers_missing"] = report["layers_missing"]
        details["per_layer_not_observed"] = [m["name"] for m in wanted if m["name"] not in pool]
        details["hook_errors"] = report["hook_errors"]
    else:
        pool = {"wall_ref": wall_ref["median"], "cpu_ref": cpu_ref["median"],
                "setup_s": statistics.median(setup["wall_s"]),
                "peak_rss_mb": report["peak_rss_mb"],
                "pass_frac": (len(ops) - failed) / len(ops)}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": pool.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    return metrics, details


def main() -> int:
    spec = json.loads((HERE / "workloads.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ksdlab" / "__init__.py").is_file():
        print(f"run.py: no ksdlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        report, setup = measure(args, work, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, details = metrics_of(args, bench, report, setup)
    ops = report["ops"]
    failed = sum(not op["ok"] for op in ops)
    if not args.trace:
        for name in ("wall_s", "cpu_s"):
            print(f"{name + ' (not gated)':44s} {details[name]['median']:.6g} s")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for kf in report["known_failures"]:
        status = "known failure" if kf["still_failing"] else "known failure now passes"
        print(f"{status}: {kf['command']} exited {kf['exit_code']}")
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, ops=ops, known_failures=report["known_failures"],
                   machine=report["machine"])
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
