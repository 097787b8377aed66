"""Command-line driver: config handling, exit codes, artifacts, determinism."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ksdlab
from ksdlab.cli import RunConfig, _quick_renorm_n, main, parse_config, portrait_scan
from ksdlab.errors import ConfigParseError
from ksdlab.io import fmt_float, write_csv
from ksdlab.renorm import fit_nodes


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="profile", mu=0.2, j0=7, tol=1e-9, quick=True)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigParseError):
            RunConfig.from_dict({"command": "profile", "gamma": 1.0})

    def test_validation(self):
        with pytest.raises(ConfigParseError):
            RunConfig(command="bogus")
        with pytest.raises(ConfigParseError):
            RunConfig(command="profile", tol=-1.0)
        with pytest.raises(ConfigParseError):
            RunConfig(command="profile", lambda0=0.0)
        with pytest.raises(ConfigParseError):
            RunConfig(command="profile", grid_n=8)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(ConfigParseError):
            RunConfig(command="heat", seed=-1)
        assert main(["heat", "--quick", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "ksdlab: seed must be non-negative\n"

    @pytest.mark.parametrize("key, val", [
        ("mu", "0.1"), ("tol", None), ("j0", 4.0), ("j0", True), ("seed", 1.5),
        ("quick", 1), ("out", 3), ("command", 3),
    ])
    def test_mistyped_value_rejected(self, key, val):
        with pytest.raises(ConfigParseError, match=repr(key)):
            RunConfig.from_dict({"command": "profile", key: val})

    def test_json_types_accepted(self):
        # an integer is a JSON number for a float key; null keeps an optional default
        cfg = RunConfig.from_dict({"command": "profile", "mu": 0, "j0": None, "quick": True})
        assert (cfg.mu, cfg.j0, cfg.quick) == (0, None, True)

    def test_config_hash_ignores_number_spelling(self, tmp_path):
        # a JSON integer in a float key is the same run as the flag's float
        out = tmp_path / "o"
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"mu": 0, "j0": 4}))
        written = []
        for argv in (["--config", str(cfile)], ["--mu", "0", "--j0", "4"]):
            assert main(["portrait", *argv, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest_portrait.json").read_text())
            written.append((repr(manifest["config"]["mu"]), manifest["config_hash"]))
        assert written[0] == written[1]

    def test_mistyped_config_file_exits_2(self, tmp_path, capsys):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"mu": "0.1"}))
        assert main(["profile", "--config", str(cfile), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "ksdlab: config key 'mu' must be float, not '0.1'\n"

    def test_file_then_flag_override(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"command": "profile", "mu": 0.2, "seed": 7}))
        cfg = parse_config(["profile", "--config", str(cfile), "--mu", "0.0"])
        assert cfg.mu == 0.0  # flag wins over file
        assert cfg.seed == 7  # file wins over default


class TestRun:
    def test_profile_stage(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["profile", "--mu", "0", "--j0", "4", "--out", str(out)])
        assert rc == 0
        for name in ("profile.csv", "manifest_profile.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest_profile.json").read_text())
        assert manifest["config"]["mu"] == 0.0
        assert "config_hash" in manifest

    def test_inadmissible_mu_exits_2(self, tmp_path):
        rc = main(["profile", "--mu", "0.34", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_flag_exits_2(self, tmp_path):
        rc = main(["profile", "--tol", "-1", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_portrait_rows(self):
        rows = portrait_scan(0.0, [0.30, 1.0 / 3.0, 11.0 / 24.0])
        assert [r["label"] for r in rows] == ["Trivial", "Trivial", "Nontrivial"]
        assert rows[2]["j0"] == 4

    def test_determinism(self, tmp_path):
        argv = ["portrait", "--mu", "0", "--j0", "4"]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(argv + ["--out", str(out)]) == 0
            outs.append((out / "portrait.csv").read_bytes())
        assert outs[0] == outs[1]
        assert b"\r\n" in outs[0]  # canonical line endings

    def test_profile_csv_deterministic(self, tmp_path):
        argv = ["profile", "--mu", "0", "--j0", "4"]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(argv + ["--out", str(out)]) == 0
            outs.append((out / "profile.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_profile_outputs_pinned(self, tmp_path):
        # the profile bytes since the Taylor continuation; residual_max, which the
        # inner series sets, is the seed-day value
        out = tmp_path / "out"
        assert main(["profile", "--mu", "0", "--j0", "4", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "profile.csv").read_bytes()).hexdigest()
        assert digest == "a2e8078c6c513a5751d5b59fd02f3e1bbcd3d42bbf7b46c4046d3e66d3b3c948"
        manifest = json.loads((out / "manifest_profile.json").read_text())
        assert manifest["residual_max"] == 1.1535229327286345e-08

    def test_probe_csvs_pinned(self, tmp_path):
        # bytes of both probe tables at a fixed seed; both since the quotients
        # come from per-family Gram matrices, a new quadrature order that the
        # per-probe oracle tests hold to 1e-13
        out = tmp_path / "out"
        for cmd in ("coercivity", "heat"):
            assert main([cmd, "--mu", "0", "--j0", "4", "--seed", "12345", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("coercivity.csv", "heat.csv")}
        assert digests == {
            "coercivity.csv": "d375c1138e5d2b11238e7fdaf5b5b7ee0e69baf9290753a5707250b4ac56f86c",
            "heat.csv": "a914b6d727138c88ae384debd26efd6dd90d45fb076752bfa84247f2c556502a",
        }

    def test_mu02_residual_pinned(self, tmp_path):
        out = tmp_path / "out"
        argv = ["profile", "--mu", "0.2", "--j0", "7", "--tol", "1e-8", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest_profile.json").read_text())
        assert manifest["residual_max"] == 8.194491751822852e-10

    def test_all_quick_artifacts_pinned(self, tmp_path):
        # every stage through the one stage runner: the bytes of each artifact
        # and the key list of each manifest, taken before the runner existed;
        # renorm.csv and its manifest keys since renorm steps ARS(2,2,2);
        # phys.csv since phys solves on pttrf; blowup_fit.json since it reports
        # mass_change_rel; every profile-derived artifact since the Taylor
        # continuation moved the profile tail; coercivity.csv and heat.csv
        # since the quotients come from per-family Gram matrices; phys.csv and
        # blowup_fit.json (now with stop_reason) and the phys manifest keys since
        # phys runs on the sinh-graded grid
        out = tmp_path / "out"
        argv = ["all", "--quick", "--mu", "0", "--j0", "4", "--seed", "12345", "--out", str(out)]
        assert main(argv) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if not p.name.startswith("manifest_")}
        assert digests == {
            "blowup_fit.json": "a7afdc26d7466dda6db123ef4e2aae4a2c47680aec1252f8cdf8855111b420d8",
            "coercivity.csv": "5f2372efcdbbe88f7716d57ab72fc6422b92e34de2a792fa7c1878dcf4d6d762",
            "coercivity_certificate.json":
                "27d6a622b36f333f26eae09f5b9ee9f5666fe91bdbf2bf701cdaa669a55d28d5",
            "heat.csv": "8bc1c8d0f014961ae358c01ec704df176ca17b9242a50543f8a348589bd96d5d",
            "heat_certificate.json": "54b5230bf9e9e09458bd00591fdf27607ee3f53b88741aeab42277cf39ea1f5e",
            "phys.csv": "d244873cda7dc6c35b79026044446dbd5883a4a4dcbe97c88ceda71ff0394d76",
            "portrait.csv": "9ae938e4050946aaf036207c70af0b9ad02eb1bb3704479dd444711cd24ac83d",
            "profile.csv": "a2e8078c6c513a5751d5b59fd02f3e1bbcd3d42bbf7b46c4046d3e66d3b3c948",
            "renorm.csv": "61c9fc32cbcb36f175ccd839d3825171f5a77a7c6313a837998bc63166396d34",
        }
        base = ["schema_version", "library_version", "config", "config_hash",
                "wall_time_s", "written_at"]
        keys = {p.name: list(json.loads(p.read_text())) for p in out.glob("manifest_*.json")}
        assert keys == {
            "manifest_profile.json": base + ["tail_exponent", "residual_max", "handoff_radius"],
            "manifest_portrait.json": base,
            "manifest_coercivity.json": base,
            "manifest_renorm.json": base + ["lam0", "n", "tau_end", "sigma_expected",
                                            "steps"],
            "manifest_phys.json": base + ["steps", "nodes"],
            "manifest_heat.json": base,
        }
        assert json.loads((out / "blowup_fit.json").read_text())["stop_reason"] == "resolution"
        phys_manifest = json.loads((out / "manifest_phys.json").read_text())
        assert phys_manifest["nodes"] == 1044 and phys_manifest["steps"] > 0

    def test_mu02_quick_renorm_pinned(self, tmp_path):
        # the reaction coefficient 1 - mu and the j0 + 3 = 10 mode fit at mu != 0
        out = tmp_path / "out"
        argv = ["renorm", "--quick", "--mu", "0.2", "--j0", "7", "--seed", "12345", "--out", str(out)]
        assert main(argv) == 0
        digest = hashlib.sha256((out / "renorm.csv").read_bytes()).hexdigest()
        assert digest == "5bcf46f3cd8cdf6d95e2f807067b6aad95185714c7bfcdd9097a9ae106ff3f66"

    def test_nested_profile_time(self, tmp_path):
        # coercivity alone runs the profile stage inside itself: its wall time
        # includes the profile's, and its manifest names that share
        out = tmp_path / "out"
        assert main(["coercivity", "--quick", "--mu", "0", "--j0", "4", "--out", str(out)]) == 0
        prof = json.loads((out / "manifest_profile.json").read_text())
        coer = json.loads((out / "manifest_coercivity.json").read_text())
        assert coer["nested_wall_time_s"] == {"profile": prof["wall_time_s"]}
        assert prof["wall_time_s"] <= coer["wall_time_s"]
        assert "nested_wall_time_s" not in prof

    @pytest.mark.parametrize("argv, code, prefix", [
        (["phys", "--mu", "0", "--lambda0", "0.2", "--grid-n", "512"], 3,
         "ksdlab: stage_phys: "),
        (["coercivity", "--mu", "0.2", "--j0", "6"], 2,
         "ksdlab: stage_coercivity: j0=6 below admissibility threshold"),
        # the default lam0 = 10^(-369.6) at mu=0.3 is 0.0 in float64
        (["phys", "--mu", "0.3", "--quick"], 2,
         "ksdlab: stage_phys: lam0 = 0: lam0^2 = 0 or lam0^(2 beta) = 0 underflows to 0"),
        # the constant profile Q = Q0 never falls below 1e-4 Q0, so no cut-off radius
        (["phys", "--qj0", "0", "--quick"], 2,
         "ksdlab: stage_phys: profile does not decay below 1e-4 Q0"),
    ])
    def test_stage_failure_exit_code(self, tmp_path, capsys, recwarn, argv, code, prefix):
        # a numerical failure exits 3 and a rejected parameter 2, each named
        # by the stage that raised it before numpy warns of it
        assert main(argv + ["--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(prefix)
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    def test_coercivity_weight_follows_j0(self, tmp_path):
        # the weight exponent is the least admissible one, 8 j0 + 4 = 44 at j0=5
        out = tmp_path / "out"
        assert main(["coercivity", "--quick", "--mu", "0.1", "--j0", "5", "--out", str(out)]) == 0
        cert = json.loads((out / "coercivity_certificate.json").read_text())
        assert cert["A"] == 44
        with open(out / "coercivity.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert all(math.isfinite(float(row["quotient"])) for row in rows)
        assert all(row["pass"] == "True" for row in rows)

    def _quick_renorm(self, tmp_path, j0):
        """Run ``renorm --quick`` at mu=0; return the mode columns and the grid size n."""
        out = tmp_path / "out"
        assert main(["renorm", "--quick", "--mu", "0", "--j0", str(j0), "--out", str(out)]) == 0
        with open(out / "renorm.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cols = [k for k in rows[0] if k.startswith("c")]
        assert cols == [f"c{j}" for j in range(j0 + 3)]
        assert all(math.isfinite(float(row[c])) for row in rows for c in cols)
        manifest = json.loads((out / "manifest_renorm.json").read_text())
        assert manifest["steps"] > 0
        return manifest["n"]

    def test_quick_renorm_modes_finite(self, tmp_path):
        # the quick grid must leave more nodes in the fit window than modes
        assert self._quick_renorm(tmp_path, 4) == 1024

    def test_quick_renorm_grid_follows_j0(self, tmp_path):
        # j0=10 fits 13 modes: n=1024 leaves 11 nodes in r <= 1/2, n=2048 leaves 21
        assert self._quick_renorm(tmp_path, 10) == 2048

    @pytest.mark.parametrize("j0", [8, 9, 18, 19, 38])
    def test_quick_renorm_n_is_least(self, j0):
        # the count comes from the grid make_state builds, not a closed form
        n = _quick_renorm_n(j0)
        assert fit_nodes(n) >= j0 + 3
        if n > 1024:
            assert fit_nodes(n // 2) < j0 + 3


_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestCsvDeterminism:
    @given(x=_finite)
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=-2.2250738585072009e-308)
    def test_float_round_trip(self, x):
        # 17 significant digits give back every binary64, the sign of zero included
        bits = lambda v: np.float64(v).view(np.int64)
        assert bits(float(fmt_float(x))) == bits(x)
        assert bits(float(fmt_float(np.float64(x)))) == bits(x)

    @given(rows=st.lists(st.lists(_finite, min_size=1, max_size=4), min_size=1, max_size=5))
    @example(rows=[[-0.0, 0.0, 5e-324]])
    @settings(max_examples=50)
    def test_same_rows_same_bytes(self, tmp_path_factory, rows):
        out = tmp_path_factory.getbasetemp()
        bodies = []
        for name in ("a.csv", "b.csv"):
            write_csv(out / name, ["x"] * max(map(len, rows)), rows)
            bodies.append((out / name).read_bytes())
        assert bodies[0] == bodies[1]
        assert bodies[0].count(b"\n") == bodies[0].count(b"\r\n") == len(rows) + 1


class TestThreads:
    """KSD_LAB_THREADS is applied by ``import ksdlab``, before numpy loads."""

    def _pool_after_import(self, **env_over):
        env = {k: v for k, v in os.environ.items()
               if k not in ("KSD_LAB_THREADS", "OMP_NUM_THREADS",
                            "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(ksdlab.__file__).parents[1])
        env.update(env_over)
        code = (
            "import ksdlab, os, sys; "
            "assert 'numpy' not in sys.modules; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_sets_pool_before_numpy(self):
        assert self._pool_after_import(KSD_LAB_THREADS="1") == "1"

    def test_explicit_pool_wins(self):
        assert self._pool_after_import(
            KSD_LAB_THREADS="1", OPENBLAS_NUM_THREADS="2") == "2"

    def test_unset_leaves_pool_alone(self):
        assert self._pool_after_import() == "None"


def _loaded_by_cli_import(names):
    """The modules among ``names`` that ``import ksdlab.cli`` loads in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(ksdlab.__file__).parents[1])}
    code = f"import sys, ksdlab.cli; print([m for m in {list(names)!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_mpmath_out():
    # mpmath is a test dependency only: the command line must not load it
    assert _loaded_by_cli_import(["mpmath"]) == "[]"


def test_cli_import_leaves_scipy_integrate_and_linalg_out():
    # the profile continues its own Taylor series and radial holds the graded
    # Simpson rule, so no process pays for scipy.integrate and what it pulls in;
    # radial loads LAPACK on the first solve, which only the time loops make
    names = ["scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.special"]
    assert _loaded_by_cli_import(names) == "[]"
