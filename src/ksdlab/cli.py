"""Command-line front end: stage orchestration, config handling, artifacts.

Each subcommand runs one pipeline stage, after ``profile`` when it reads the profile,
or ``all``; each stage writes CSV/JSON artifacts and its manifest.  Configuration comes
from an optional JSON file plus flags; flags win.  Exit codes: 0 success,
2 validation failure (bad parameters or config), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ConfigParseError, DomainError, KSDLabError
from .heat import HeatParams, heat_coercivity, make_heat_suite
from .io import write_csv, write_json, write_manifest
from .linops import coercivity_probe, make_test_suite, select_weight
from .phys import run_phys
from .profile import (
    ProfileParams,
    build_series,
    classify_beta,
    compute_admissibility,
    solve_profile,
)
from .renorm import quick_resolution, run_renorm, sigma_coupling


@dataclass
class RunConfig:
    """One resolved run request; round-trips losslessly through ``asdict``."""

    command: str
    mu: float = 0.0
    j0: int | None = None
    qj0: float = -1.0
    lambda0: float | None = None
    tol: float = 1.0e-8
    grid_n: int | None = None
    seed: int = 12345
    out: str = "ksdlab-out"
    quick: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigParseError(f"unknown command {self.command!r}")
        for key in ("mu", "qj0", "tol", "lambda0"):  # flags and json.loads both take nan, inf
            if not abs(getattr(self, key) or 0.0) < float("inf"):
                raise ConfigParseError(f"{key} must be finite, not {getattr(self, key)}")
        if self.tol <= 0:
            raise ConfigParseError("tol must be positive")
        if self.lambda0 is not None and self.lambda0 <= 0:
            raise ConfigParseError("lambda0 must be positive")
        if self.grid_n is not None and self.grid_n < 64:
            raise ConfigParseError("grid-n must be >= 64")
        if self.seed < 0:
            raise ConfigParseError("seed must be non-negative")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        allowed = set(cls.__dataclass_fields__)
        unknown = set(d) - allowed
        if unknown:
            raise ConfigParseError(f"unknown config keys: {sorted(unknown)}")
        # a float key takes any JSON number, an int key an integer, never a bool;
        # a float key stores float(val), so 0 and 0.0 give one config_hash
        fields = dict(d)
        for key, val in d.items():
            kind, _, optional = cls.__dataclass_fields__[key].type.partition(" | ")
            if val is None and optional:
                continue
            wanted = {"float": (int, float), "int": int, "bool": bool, "str": str}[kind]
            if isinstance(val, bool) != (kind == "bool") or not isinstance(val, wanted):
                raise ConfigParseError(f"config key {key!r} must be {kind}, not {val!r}")
            if kind == "float":
                fields[key] = float(val)
        return cls(**fields)


def portrait_scan(mu: float, beta_grid) -> list[dict]:
    """Classify candidate similarity exponents along ``beta_grid``."""
    rows = []
    for beta in beta_grid:
        label, j0 = classify_beta(mu, beta)
        rows.append({"mu": mu, "beta": float(beta), "label": label, "j0": j0})
    return rows


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _stage_profile(cfg: RunConfig, outdir: Path, cache: dict) -> dict:
    j0 = cfg.j0
    if j0 is None:
        _, j0 = compute_admissibility(cfg.mu)
    params = ProfileParams(mu=cfg.mu, j0=j0, q_j0=cfg.qj0)
    series = build_series(params, min(cfg.tol, 1e-12))
    profile = solve_profile(params, series, 1.0e4, cfg.tol)
    cache["profile"] = profile
    write_csv(
        outdir / "profile.csv",
        ["r", "Q", "f", "dQ"],
        zip(profile.grid, profile.q_vals, profile.f_vals, profile.dq_vals),
    )
    return {
        "tail_exponent": profile.tail_exponent,
        "residual_max": profile.residual_max,
        "handoff_radius": profile.handoff_radius,
        "series_order": (len(series.q_coeffs) - 1) * series.j0,
        "series_terms": series.lattice_terms,
        "series_radius": series.radius_estimate,
    }


def _stage_portrait(cfg: RunConfig, outdir: Path, cache: dict) -> None:
    betas = [0.30, 1.0 / 3.0, 11.0 / 24.0]
    rows = portrait_scan(cfg.mu, betas)
    write_csv(
        outdir / "portrait.csv",
        ["mu", "beta", "label", "j0"],
        [(r["mu"], r["beta"], r["label"], "" if r["j0"] is None else r["j0"]) for r in rows],
    )


def _stage_coercivity(cfg: RunConfig, outdir: Path, cache: dict) -> None:
    profile = cache["profile"]
    w = select_weight(profile, profile.params.j0)
    count = 10 if cfg.quick else 50
    suite = make_test_suite(w.A, count=count, seed=cfg.seed)
    rows = coercivity_probe(profile, w, suite)
    write_csv(
        outdir / "coercivity.csv",
        ["index", "seed", "p", "s", "quotient", "pass"],
        [
            (r["index"], r["seed_label"], r["p"], r["s"], r["quotient"], not r["flagged"])
            for r in rows
        ],
    )
    write_json(
        outdir / "coercivity_certificate.json",
        {
            "A": w.A,
            "B": w.B,
            "R1": w.R1,
            "cert_tailnorm": w.cert_tailnorm,
            "cert_wholenorm": w.cert_wholenorm,
            "invariants": w.invariant_checks(profile.params.j0),
        },
    )


def _stage_renorm(cfg: RunConfig, outdir: Path, cache: dict) -> dict:
    profile = cache["profile"]
    lam0 = cfg.lambda0 if cfg.lambda0 is not None else 1.0e-3
    n = cfg.grid_n
    if n is None:
        n = quick_resolution(profile.params.j0) if cfg.quick else 4096
    tau_end = 0.5 if cfg.quick else 2.0
    traj = run_renorm(profile, lam0, tau_end, n=n)
    kf = traj["c"].shape[1]
    write_csv(
        outdir / "renorm.csv",
        ["tau", "lam", "eps_sup", "residual"] + [f"c{j}" for j in range(kf)],
        [
            (traj["tau"][i], traj["lam"][i], traj["eps_sup"][i], traj["residual"][i])
            + tuple(traj["c"][i])
            for i in range(len(traj["tau"]))
        ],
    )
    return {"lam0": lam0, "n": n, "tau_end": tau_end,
            "sigma_expected": sigma_coupling(profile.params),
            "steps": traj["steps"]}


def _stage_phys(cfg: RunConfig, outdir: Path, cache: dict) -> dict:
    profile = cache["profile"]
    # default lam0 keeps the physical diffusion coefficient lam0^{2-4beta}
    # well under the aggregation scale so the run actually blows up
    lam0 = cfg.lambda0 if cfg.lambda0 is not None else 10.0 ** (-1.6 / (2.0 - 4.0 * profile.params.beta))
    # n is the resolution: the sinh-graded grid keeps the origin spacing of n
    # uniform nodes on about n/8 nodes.  The half-maximum radius starts at about
    # n/91 origin cells, so n must stay large for the 8-cell resolution floor to
    # leave a usable growth window; diffusion is implicit, so dt follows the
    # advective and reaction bounds instead of the explicit 0.125 h^2, and the
    # records on the 2.5 h^2 lattice are interpolated between step ends
    n = cfg.grid_n if cfg.grid_n is not None else 8192
    series, fit = run_phys(profile, lam0=lam0, n=n)
    write_csv(
        outdir / "phys.csv",
        ["t", "sup_norm", "mass", "half_max_radius", "dt"],
        zip(series["t"], series["sup_norm"], series["mass"],
            series["half_max_radius"], series["dt"]),
    )
    write_json(outdir / "blowup_fit.json", {**asdict(fit), "lam0": lam0})
    return {"steps": series["steps"], "nodes": len(series["grid"]),
            "dt_limits": series["dt_limits"], "dt_range": series["dt_range"],
            "fit_report": series["fit_report"]}


def _stage_heat(cfg: RunConfig, outdir: Path, cache: dict) -> None:
    hp = HeatParams(m=2)
    count = 10 if cfg.quick else 50
    suite = make_heat_suite(hp, count=count, seed=cfg.seed)
    report = heat_coercivity(hp, suite)
    write_csv(
        outdir / "heat.csv",
        ["index", "s", "quotient", "pass"],
        [(r["index"], r["s"], r["quotient"], not r["flagged"]) for r in report["records"]],
    )
    write_json(
        outdir / "heat_certificate.json",
        {"m": hp.m, "c": hp.c, "kappa": report["kappa"], "all_pass": report["all_pass"]},
    )


#: each stage writes its artifacts and returns the extra manifest fields, if any;
#: ``all`` runs them in this order
_STAGES = {
    "profile": _stage_profile,
    "portrait": _stage_portrait,
    "coercivity": _stage_coercivity,
    "renorm": _stage_renorm,
    "phys": _stage_phys,
    "heat": _stage_heat,
}

COMMANDS = (*_STAGES, "all")

#: the stages that read ``cache["profile"]``; run alone, each runs ``profile`` first
_ON_PROFILE = ("coercivity", "renorm", "phys")


def run(config: RunConfig) -> int:
    """Execute the configured stage(s), each timed into its own ``manifest_<name>.json``;
    returns the process exit code."""
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cache: dict = {}
    names = list(_STAGES) if config.command == "all" else [config.command]
    if config.command in _ON_PROFILE:
        names.insert(0, "profile")
    for name in names:
        t0 = time.perf_counter()
        try:
            extra = _STAGES[name](config, outdir, cache) or {}
        except (DomainError, ConfigParseError) as exc:
            print(f"ksdlab: stage_{name}: {exc}", file=sys.stderr)
            return 2
        except KSDLabError as exc:
            print(f"ksdlab: stage_{name}: {exc}", file=sys.stderr)
            return 3
        wall = time.perf_counter() - t0
        write_manifest(outdir / f"manifest_{name}.json", asdict(config), wall, extra=extra)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ksdlab",
        description="Self-similar blowup laboratory for aggregation-diffusion dynamics",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", help="JSON config file; flags override its values")
    ap.add_argument("--mu", type=float, default=None)
    ap.add_argument("--j0", type=int, default=None)
    ap.add_argument("--qj0", type=float, default=None)
    ap.add_argument("--lambda0", type=float, default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--grid-n", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--quick", action="store_true", default=None)
    return ap


def _is_negative_number(token: str) -> bool:
    """``token`` starts with ``-`` and ``float`` parses it: argparse's own pattern has no
    exponent, ``inf`` or ``nan``, so it reads ``-1e-3`` and ``-inf`` as options."""
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1e-3`` as ``--flag=-1e-3``, which argparse parses on every version; the
    flag's ``type`` and ``RunConfig`` then decide on the value."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and prev != "--" and "=" not in prev
                and _is_negative_number(token)):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def parse_config(argv=None) -> RunConfig:
    """Merge config file and flags (flags win) into a validated RunConfig."""
    argv = sys.argv[1:] if argv is None else argv
    ns = _build_parser().parse_args(_attach_negative_values(argv))
    base: dict = {}
    if ns.config:
        try:
            base = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigParseError(f"cannot read config {ns.config}: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigParseError("config file must hold a JSON object")
    base.update({k: v for k, v in vars(ns).items() if k != "config" and v is not None})
    return RunConfig.from_dict(base)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except ConfigParseError as exc:
        print(f"ksdlab: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
