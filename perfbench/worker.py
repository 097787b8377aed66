"""One benchmark process: set-up probe, or a timed workload run.

run.py starts this file in a fresh interpreter with ``src`` on PYTHONPATH and
the thread pools pinned.  With ``--setup`` it imports the package, builds the
mu=0 profile and exits.  Otherwise it repeats the workload's operation until
``--seconds`` have passed, checks every operation's outputs against the gates
in workloads.json, and writes a JSON report to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())


def import_package():
    import ksdlab
    import ksdlab.cli  # imports every module of the package

    src = (ROOT / "src").resolve()
    if src not in Path(ksdlab.__file__).resolve().parents:
        raise SystemExit(f"ksdlab imported from {ksdlab.__file__}, not from {src}")


def build_mu0_profile():
    from ksdlab.profile import ProfileParams, build_series, solve_profile

    params = ProfileParams.make(0.0, 4)
    return params, solve_profile(params, build_series(params, 1e-12), 1.0e4, 1e-10)


# ---------------------------------------------------------------------------
# workloads: op() is timed, check() is not
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Certify:
    COMMANDS = ("profile", "portrait", "coercivity", "heat")

    def __init__(self, seed: int, gates: dict):
        self.seed, self.gates = str(seed), gates
        self.first_hashes: dict | None = None

    def op(self, out: Path):
        from ksdlab import cli

        codes = {}
        for cmd in self.COMMANDS:
            codes[cmd] = cli.main([cmd, "--mu", "0", "--j0", "4", "--seed", self.seed,
                                   "--out", str(out / "mu0")])
        codes["profile_mu0.2"] = cli.main(["profile", "--mu", "0.2", "--j0", "7",
                                           "--seed", self.seed, "--out", str(out / "mu0.2")])
        return codes

    def check(self, out: Path, codes: dict) -> tuple[dict, list[str]]:
        g = self.gates
        problems = [f"{k} exited {rc}" for k, rc in codes.items() if rc != g["exit_code"]]
        vals: dict = {"exit_codes": codes}
        for sub in ("mu0", "mu0.2"):
            man = json.loads((out / sub / "manifest_profile.json").read_text())
            res, tol = man["residual_max"], man["config"]["tol"]
            vals[f"residual_max_{sub}"] = res
            if not res <= g["residual_max_per_tol"] * tol:
                problems.append(f"residual_max {res:.3g} > {g['residual_max_per_tol']}*tol at {sub}")
        quots = [float(r["quotient"]) for r in _read_csv(out / "mu0" / "coercivity.csv")]
        worst = max(quots)
        vals["coercivity_count"], vals["coercivity_worst"] = len(quots), worst
        if len(quots) != g["coercivity_count"] or not worst <= g["coercivity_bound"] + g["coercivity_slack"]:
            problems.append(f"coercivity: {len(quots)} quotients, worst {worst:.6g}")
        heat = json.loads((out / "mu0" / "heat_certificate.json").read_text())
        vals["heat_all_pass"] = heat["all_pass"]
        if heat["all_pass"] is not g["heat_all_pass"]:
            problems.append("heat all_pass is false")
        labels = [r["label"] for r in _read_csv(out / "mu0" / "portrait.csv")]
        vals["portrait_labels"] = labels
        if labels != g["portrait_labels"]:
            problems.append(f"portrait labels {labels}")
        hashes = {str(p.relative_to(out)): _sha256(p) for p in sorted(out.glob("*/*.csv"))}
        vals["csv_sha256"] = hashes
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            problems.append("CSV bodies differ from the run's first operation")
        return vals, problems


class Modal:
    def __init__(self, seed: int, gates: dict):
        self.gates = gates
        self.params, self.profile = build_mu0_profile()

    def op(self, out: Path):
        from ksdlab import renorm

        return renorm.measure_rates(self.params, self.profile, 1, lam0=1e-24, n=1024, tau_end=2.0)

    def check(self, out: Path, fit) -> tuple[dict, list[str]]:
        g = self.gates
        vals = {"rate": fit.rate}
        problems = []
        if not abs(fit.rate - g["rate_target"]) <= g["rate_rel_tol"] * g["rate_target"]:
            problems.append(f"rate {fit.rate:.6g} outside {g['rate_target']} +- {g['rate_rel_tol']:.0%}")
        return vals, problems


class Blowup:
    def __init__(self, seed: int, gates: dict):
        self.seed, self.gates = str(seed), gates

    def op(self, out: Path):
        from ksdlab import cli

        return cli.main(["phys", "--mu", "0", "--lambda0", "1e-8", "--seed", self.seed,
                         "--out", str(out)])

    def check(self, out: Path, rc: int) -> tuple[dict, list[str]]:
        g = self.gates
        problems = [] if rc == g["exit_code"] else [f"phys exited {rc}"]
        fit = json.loads((out / "blowup_fit.json").read_text())
        mass = [float(r["mass"]) for r in _read_csv(out / "phys.csv")]
        drift = abs(mass[-1] - mass[0]) / mass[0]
        vals = {"exit_code": rc, "p_amp": fit["p_amp"], "p_len": fit["p_len"],
                "mass_drift": drift, "mass_identity_err": fit["mass_identity_err"]}
        if not abs(fit["p_amp"] - g["p_amp_target"]) <= g["p_amp_abs_tol"]:
            problems.append(f"p_amp {fit['p_amp']:.6g}")
        if not abs(fit["p_len"] - g["p_len_target"]) <= g["p_len_rel_tol"] * g["p_len_target"]:
            problems.append(f"p_len {fit['p_len']:.6g}")
        if not drift < g["mass_drift_max"]:
            problems.append(f"mass drift {drift:.3g}")
        return vals, problems


WORKLOADS = {"certify": Certify, "modal": Modal, "blowup": Blowup}


# ---------------------------------------------------------------------------
# untimed extras: known failures, machine facts
# ---------------------------------------------------------------------------


def known_failures(work: Path) -> list[dict]:
    """Run each recorded failing command once and report its exit code."""
    from ksdlab import cli

    report = []
    for i, kf in enumerate(SPEC["known_failures"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(kf["argv"] + ["--out", str(work / f"known{i}")])
        report.append({
            "command": "ksdlab " + " ".join(kf["argv"]),
            "exit_code": rc,
            "expected_exit_code": kf["expected_exit_code"],
            "still_failing": rc != 0,
            "stderr": err.getvalue().strip(),
            "reason": kf["reason"],
        })
    return report


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(idx / f)) for f in ("level", "type", "size"))
        caches[f"L{level}-{kind}"] = size
    threads = None
    for line in (_read("/proc/self/status") or "").splitlines():
        if line.startswith("Threads:"):
            threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KSD_LAB_THREADS")},
        "threads_observed": threads,
    }


# ---------------------------------------------------------------------------


class SpeedProbe:
    """Samples the speed of the shared CPU while an operation runs.

    Every PERIOD_S of wall time a signal handler times a fixed slice of work
    that does not use ksdlab: small numpy calls and interpreter work, the mix
    the workloads run, which slows down with them when other tenants load the
    machine.  The slices' own time is taken out of the operation's time.
    """

    PERIOD_S = 0.25
    SLICE_ITERATIONS = 2000

    def __init__(self):
        import numpy as np

        self._x = np.linspace(0.0, 1.0, 1024)
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def _slice(self, signum=None, frame=None):
        x = self._x
        t0, c0 = time.perf_counter(), time.process_time()
        acc = 0.0
        for i in range(self.SLICE_ITERATIONS):
            acc += float((x * 1.0001 + 0.5)[i & 1023]) + i % 7
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)

    def __enter__(self):
        self.wall, self.cpu = [], []
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def run_workload(args) -> dict:
    import_package()
    work = Path(args.work)
    wl = WORKLOADS[args.workload](args.seed, SPEC["workloads"][args.workload]["gates"])
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()

    ops = []
    probe = SpeedProbe()
    t_start = time.perf_counter()
    while len(ops) < (2 if tracer else 1) or time.perf_counter() - t_start < args.seconds:
        k = len(ops)
        out = work / f"op{k}"
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        # traced operations run without the probe, whose slices would land
        # in the self time of whichever layer they interrupt
        sampling = contextlib.nullcontext() if traced else probe
        result, error = None, None
        with sampling:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = wl.op(out)
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if traced:
                    tracer.uninstall()
        # read the clocks after the probe has stopped, so every slice but the
        # first (taken before t0) lies inside the interval it is taken out of
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        slices = {}
        if not traced:
            wall -= sum(probe.wall[1:])
            cpu -= sum(probe.cpu[1:])
            slices = {"slices": len(probe.wall), "slice_wall_s": statistics.mean(probe.wall),
                      "slice_cpu_s": statistics.mean(probe.cpu)}
        vals, problems = {}, [error] if error else []
        if error is None:
            try:
                vals, problems = wl.check(out, result)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        ops.append({"wall_s": wall, "cpu_s": cpu, **slices, "traced": traced,
                    "ok": not problems, "problems": problems, "values": vals})
        shutil.rmtree(out, ignore_errors=True)

    report = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "known_failures": known_failures(work),
        "machine": machine_facts(),
    }
    if tracer is not None:
        from kernels import kernel_metrics

        n_traced = sum(op["traced"] for op in ops)
        report["layers"] = {k: v / n_traced for k, v in tracer.totals.items()}
        report["layers_missing"] = tracer.missing
        report["hook_errors"] = dict(tracer.hook_errors)
        report["kernels"] = kernel_metrics(*build_mu0_profile())
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work")
    ap.add_argument("--result")
    args = ap.parse_args()
    if args.setup:
        t0 = time.perf_counter()
        import_package()
        t1 = time.perf_counter()
        build_mu0_profile()
        print(json.dumps({"import_s": t1 - t0, "profile_s": time.perf_counter() - t1}))
        return 0
    report = run_workload(args)
    Path(args.result).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
