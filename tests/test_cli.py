"""Command-line driver: config handling, exit codes, artifacts, determinism."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ksdlab
from ksdlab import cli
from ksdlab.cli import RunConfig, main, parse_config, portrait_scan
from ksdlab.errors import ConfigParseError
from ksdlab.io import write_csv
from ksdlab.renorm import fit_nodes, quick_resolution


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="profile", mu=0.2, j0=7, tol=1e-9, quick=True)
        assert RunConfig.from_dict(asdict(cfg)) == cfg

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

    def test_flags_match_config_keys(self):
        # the flags and the config keys are two hand-written lists: a key added to one
        # and not the other fails here
        dests = {a.dest for a in cli._build_parser()._actions} - {"help", "command", "config"}
        assert dests == set(RunConfig.__dataclass_fields__) - {"command"}

    @pytest.mark.parametrize("via", ["flag", "file", "spaced"])
    @pytest.mark.parametrize("key", ["mu", "qj0", "tol", "lambda0"])
    @pytest.mark.parametrize("val", ["nan", "inf", "-inf"])
    def test_non_finite_float_exits_2(self, tmp_path, capsys, via, key, val):
        # argparse's float() and json.loads both take NaN and the infinities; spaced,
        # "-inf" reaches the flag's float() too, not argparse's option matching
        argv = [f"--{key}={val}"]
        if via == "spaced":
            argv = [f"--{key}", val]
        if via == "file":
            cfile = tmp_path / "run.json"
            cfile.write_text(json.dumps({key: float(val)}))
            argv = ["--config", str(cfile)]
        assert main(["renorm", "--quick", *argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"ksdlab: {key} must be finite, not {float(val)}\n"
        assert not (tmp_path / "o").exists()

    def test_spaced_exponent_value(self, tmp_path):
        # argparse takes "-1e-3" for an option, not a negative number; the spaced form
        # must run the same profile as the attached one
        tables = []
        for sub, argv in (("spaced", ["--qj0", "-1e-3"]), ("attached", ["--qj0=-1e-3"])):
            out = tmp_path / sub
            assert main(["profile", *argv, "--out", str(out)]) == 0
            tables.append((out / "profile.csv").read_bytes())
        assert tables[0] == tables[1]

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
        # the profile bytes since the series is evaluated in z = r^(2 j0), which moved dQ by
        # up to 4.4e-16 relative on 52 rows; residual_max, which the inner series sets, is
        # the seed-day value; the manifest names the series kept
        out = tmp_path / "out"
        assert main(["profile", "--mu", "0", "--j0", "4", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "profile.csv").read_bytes()).hexdigest()
        assert digest == "9784d00cb1d9557a0978c53669fdba4e535266daed3d488c5f55d7e3d5b4df26"
        manifest = json.loads((out / "manifest_profile.json").read_text())
        assert manifest["residual_max"] == 1.1535229327286345e-08
        assert (manifest["series_order"], manifest["series_terms"]) == (56, 32)
        assert manifest["series_radius"] == 0.9016181571029571

    def test_probe_csvs_pinned(self, tmp_path):
        # bytes of both probe tables at a fixed seed; both since the quotients
        # come from the trapezoid rule on 1001 nodes with closed-form partial masses:
        # the coercivity quotients moved by up to 1.7e-8 relative, the cumulative
        # Simpson error of the 8001-node route, the heat ones by round-off; coercivity.csv
        # since the grown series moved the profile's handoff radius
        out = tmp_path / "out"
        for cmd in ("coercivity", "heat"):
            assert main([cmd, "--mu", "0", "--j0", "4", "--seed", "12345", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("coercivity.csv", "heat.csv")}
        assert digests == {
            "coercivity.csv": "d48ac279c41f58b474fec12f0884b6e16a7b584cc9ce744bf094e492e77193a2",
            "heat.csv": "0f1262f4fa68389c75ea5c418218e60612de50b3c67d59ec08d0579c0ce4aa3a",
        }

    def test_mu02_residual_pinned(self, tmp_path):
        # since the series takes its constant terms from ProfileParams: f0 there is one ulp
        # off the 50-digit f0 at mu=0.2
        out = tmp_path / "out"
        argv = ["profile", "--mu", "0.2", "--j0", "7", "--tol", "1e-8", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest_profile.json").read_text())
        assert manifest["residual_max"] == 8.194496192714951e-10

    def test_all_quick_artifacts_pinned(self, tmp_path):
        # every stage through the one stage runner: the bytes of each artifact
        # and the key list of each manifest, taken before the runner existed;
        # renorm.csv and its manifest keys since renorm steps ARS(2,2,2);
        # phys.csv since phys solves on pttrf; blowup_fit.json since it reports
        # mass_change_rel; every profile-derived artifact since the Taylor
        # continuation moved the profile tail; coercivity.csv and heat.csv
        # since the quotients come from per-family Gram matrices; phys.csv and
        # blowup_fit.json (now with stop_reason) and the phys manifest keys since
        # phys runs on the sinh-graded grid; renorm.csv, phys.csv and blowup_fit.json
        # since both loops diffuse with radial.flux_laplacian over shell volumes;
        # phys.csv and blowup_fit.json since the phys drift reads the FV face masses;
        # the phys manifest keys since it counts the limit that set each step, and
        # since it reports what the blowup fit rests on;
        # coercivity.csv and heat.csv since the probes take the trapezoid rule on
        # 1001 nodes, and coercivity_certificate.json since its two norms sum their
        # Simpson terms as a prefix sum (last bits); every profile-derived artifact but
        # heat's since the series grows to its own truncation certificate, and the
        # profile manifest keys since it names the series kept; phys.csv and
        # blowup_fit.json since phys steps at its stability bound and interpolates the
        # lattice records, and the phys manifest keys since it reports the step range;
        # profile.csv since the series is evaluated in z = r^(2 j0) (dQ moved, by round-off)
        out = tmp_path / "out"
        argv = ["all", "--quick", "--mu", "0", "--j0", "4", "--seed", "12345", "--out", str(out)]
        assert main(argv) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if not p.name.startswith("manifest_")}
        assert digests == {
            "blowup_fit.json": "0dc456ad70fe47dcfcc0d017b0412326984f8fe002a4d8ed87317c423314d8d4",
            "coercivity.csv": "8f0473a6a63ee1fb3593c55235999068c77d728931b4d409fd26b1d22f00cae2",
            "coercivity_certificate.json":
                "fdcc444261897712d88880a58e0e99b41a91ae02d1ffac2007147304cc09adf5",
            "heat.csv": "fb034c6294b687d3237e5c1ac87e54741ba7ba05600f0c034d9db73408fc9ea5",
            "heat_certificate.json": "54b5230bf9e9e09458bd00591fdf27607ee3f53b88741aeab42277cf39ea1f5e",
            "phys.csv": "46f7ac467bd4c56a8a19274441dcd92fcd8d38f24f59f6af5bf891fe4a3adfea",
            "portrait.csv": "9ae938e4050946aaf036207c70af0b9ad02eb1bb3704479dd444711cd24ac83d",
            "profile.csv": "9784d00cb1d9557a0978c53669fdba4e535266daed3d488c5f55d7e3d5b4df26",
            "renorm.csv": "e1af23babef456b25f198ea2f51f7af30561d503404a12301833200380e60e97",
        }
        base = ["schema_version", "library_version", "config", "config_hash",
                "wall_time_s", "written_at"]
        keys = {p.name: list(json.loads(p.read_text())) for p in out.glob("manifest_*.json")}
        assert keys == {
            "manifest_profile.json": base + ["tail_exponent", "residual_max", "handoff_radius",
                                             "series_order", "series_terms", "series_radius"],
            "manifest_portrait.json": base,
            "manifest_coercivity.json": base,
            "manifest_renorm.json": base + ["lam0", "n", "tau_end", "sigma_expected",
                                            "steps"],
            "manifest_phys.json": base + ["steps", "nodes", "dt_limits", "dt_range",
                                          "fit_report"],
            "manifest_heat.json": base,
        }
        assert json.loads((out / "blowup_fit.json").read_text())["stop_reason"] == "resolution"
        phys_manifest = json.loads((out / "manifest_phys.json").read_text())
        assert phys_manifest["nodes"] == 1044 and phys_manifest["steps"] > 0

    def test_mu02_quick_renorm_pinned(self, tmp_path):
        # the reaction coefficient 1 - mu and the j0 + 3 = 10 mode fit at mu != 0;
        # renorm.csv since renorm diffuses with radial.flux_laplacian, since the
        # series grows to its own truncation certificate, and since it takes its constant
        # terms from ProfileParams, whose f0 is one ulp off the 50-digit one at mu=0.2
        # (entries moved by up to 3.7e-10 of their column's largest)
        out = tmp_path / "out"
        argv = ["renorm", "--quick", "--mu", "0.2", "--j0", "7", "--seed", "12345", "--out", str(out)]
        assert main(argv) == 0
        digest = hashlib.sha256((out / "renorm.csv").read_bytes()).hexdigest()
        assert digest == "2bd76454da515076776515922f5bf880722b340861c3296c81d24fd35fdebfaa"

    @pytest.mark.parametrize("argv", [["coercivity", "--quick"], ["renorm", "--quick"], ["phys"]],
                             ids=["coercivity", "renorm", "phys"])
    def test_profile_runs_first_as_its_own_stage(self, tmp_path, monkeypatch, argv):
        # a stage that reads the profile, run alone, runs the profile stage before it, as
        # `all` does: one solve, and two manifests that each time their own stage only
        calls = []
        solve = cli.solve_profile
        monkeypatch.setattr(cli, "solve_profile", lambda *a, **k: calls.append(a) or solve(*a, **k))
        out = tmp_path / "out"
        assert main(argv + ["--mu", "0", "--j0", "4", "--out", str(out)]) == 0
        assert len(calls) == 1
        manifests = sorted(p.name for p in out.glob("manifest_*.json"))
        assert manifests == sorted(["manifest_profile.json", f"manifest_{argv[0]}.json"])
        for name in manifests:
            assert "nested_wall_time_s" not in json.loads((out / name).read_text())

    @pytest.mark.parametrize("argv, code, prefix", [
        # the initial half-max radius is already under 8 origin cells
        (["phys", "--mu", "0", "--lambda0", "0.2", "--grid-n", "512"], 3,
         "ksdlab: stage_phys: half-max radius under 8 origin cells at 1x growth; "
         "the fit needs 10x"),
        # coercivity alone runs the profile stage first, and that is the stage that refuses j0
        (["coercivity", "--mu", "0.2", "--j0", "6"], 2,
         "ksdlab: stage_profile: j0=6 below admissibility threshold"),
        # the default lam0 = 10^(-369.6) at mu=0.3 is 0.0 in float64
        (["phys", "--mu", "0.3", "--quick"], 2,
         "ksdlab: stage_phys: lam0 = 0: lam0^2 = 0 or lam0^(2 beta) = 0 underflows to 0"),
        # the constant profile Q = Q0 never falls below 1e-4 Q0, so no cut-off radius
        (["phys", "--qj0", "0", "--quick"], 2,
         "ksdlab: stage_phys: profile does not decay below 1e-4 Q0"),
        # lam0^2 = 1e-320 is subnormal, not 0, but the peak Q0/lam0^2 overflows
        (["phys", "--mu", "0", "--lambda0", "1e-160", "--grid-n", "512"], 2,
         "ksdlab: stage_phys: lam0 = 1e-160: the initial peak Q0/lam0^2 overflows"),
        # at A=188 the flat part's largest passing power of ten is 1e-334, 0.0 in float64
        (["coercivity", "--quick", "--mu", "0.3", "--j0", "23"], 2,
         "ksdlab: stage_coercivity: flat part B = 1e-334 underflows to 0 at A=188, R1=55.7\n"),
        # the float Q(r_h) = Q0 + d_h has rounded away the deviation d_h, the datum that picks
        # the member of the scaling family, at j0=600 as at the default j0=2002 of mu=0.333
        (["profile", "--mu", "0", "--j0", "600"], 3,
         "ksdlab: stage_profile: handoff state lost the series deviation: at r_h=0.949226 "
         "the series has Q - Q0 = -6.98e-28, the float state 0\n"),
        (["profile", "--mu", "0.333"], 3,
         "ksdlab: stage_profile: handoff state lost the series deviation: at r_h=0.949798 "
         "the series has Q - Q0 = -2.73e-90, the float state 0\n"),
    ])
    def test_stage_failure_exit_code(self, tmp_path, capsys, recwarn, argv, code, prefix):
        # a numerical failure exits 3 and a rejected parameter 2, each named
        # by the stage that raised it before numpy warns of it
        assert main(argv + ["--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(prefix)
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("mu, j0, code", [
        ("0", None, 0), ("0.1", None, 0), ("0.2", None, 0), ("0.25", None, 0), ("0.3", None, 0),
        ("0.32", None, 0), ("0.33", None, 0), ("0.331", None, 0), ("0.332", None, 3),
        ("0.333", None, 3), ("0.3333333", None, 3), ("0", "300", 0), ("0", "600", 3),
    ])
    def test_profile_stage_map(self, tmp_path, capsys, mu, j0, code):
        # the profile column of the stage map: `profile --quick` at the default j0 and at
        # j0 = 300 and 600 at mu=0; from j0 near 300 the float state at the handoff loses
        # the deviation, and at mu=0.3333333 (j0 = 20,000,002) z underflows to 0 there.
        # Each cell holds its exit code, the head of its stderr line and no RuntimeWarning
        argv = ["profile", "--quick", "--mu", mu] + (["--j0", j0] if j0 else [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            assert main(argv + ["--out", str(tmp_path / "o")]) == code
        head = "ksdlab: stage_profile: handoff state lost the series deviation: at r_h="
        err = capsys.readouterr().err
        assert err[:len(head)] == (head if code else "")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_coercivity_weight_follows_j0(self, tmp_path):
        # the weight exponent is the least admissible one, 8 j0 + 4 = 44 at j0=5; the
        # bytes of the only mu != 0 probe tables hold that the profile's mu and beta
        # reach the operator; both since the series grows to its own truncation certificate,
        # and since it takes its constant terms from ProfileParams (quotients moved by up
        # to 1.7e-15 relative)
        out = tmp_path / "out"
        assert main(["coercivity", "--quick", "--mu", "0.1", "--j0", "5", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("coercivity.csv", "coercivity_certificate.json")}
        assert digests == {
            "coercivity.csv": "916837c2f5a2caeef2916f0ff56d4c6f50600fa2f4b91f6ed55fd8a4bb914838",
            "coercivity_certificate.json":
                "4f6c0b1605c57077007aa75a4acfa015e02a0dd4e66e138d3345838f782081f5",
        }
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
        n = quick_resolution(j0)
        assert fit_nodes(n) >= j0 + 3
        if n > 1024:
            assert fit_nodes(n // 2) < j0 + 3


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _fmt_float(x) -> str:
    """One field of the byte oracle: floats with 17 significant digits, the rest by ``str``."""
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    return str(x)


def _reference_csv(path, header, rows):
    """The byte oracle of ``write_csv``: ``csv.writer`` on each field's ``_fmt_float``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\r\n")
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt_float(v) for v in row])


_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf])
_text = st.text(st.sampled_from(list('ab ,"\r\n%\'\té')) | st.characters(
    exclude_categories=("Cs",), exclude_characters="\x00"), max_size=6)
_field = st.one_of(
    st.floats(), _edge_floats, st.floats().map(np.float64), _edge_floats.map(np.float64),
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans(),
    _text, st.just(""),
)


class TestCsvDeterminism:
    @given(x=_finite)
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=-2.2250738585072009e-308)
    def test_float_round_trip(self, tmp_path_factory, x):
        # 17 significant digits give back every binary64, the sign of zero included
        path = tmp_path_factory.getbasetemp() / "x.csv"
        write_csv(path, ["x", "y"], [(x, np.float64(x))])
        fields = path.read_bytes().split(b"\r\n")[1].split(b",")
        bits = lambda v: np.float64(v).view(np.int64)
        assert [bits(float(v)) for v in fields] == [bits(x)] * 2

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

    @given(header=st.lists(_text, max_size=4),
           rows=st.lists(st.lists(_field, max_size=5), max_size=6))
    @example(header=[""], rows=[[""], [], ["", ""], [np.float64(-0.0), -0.0, 5e-324]])
    @example(header=["a,b", 'q"', "x\ry", "x\ny"],
             rows=[[math.nan, math.inf, -math.inf, np.int64(-7)], [True, np.bool_(False), 3]])
    @example(header=[], rows=[])
    @settings(max_examples=200)
    def test_bytes_match_csv_writer(self, tmp_path_factory, header, rows):
        # write_csv against csv.writer, byte for byte, on ragged tables of floats, ints,
        # bools and text, rows given as an iterator
        out = tmp_path_factory.getbasetemp()
        write_csv(out / "got.csv", header, (tuple(row) for row in rows))
        _reference_csv(out / "want.csv", header, rows)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def test_package_import_has_no_side_effects():
    # `import ksdlab` leaves the environment as it found it and loads no numpy: the BLAS
    # and OpenMP pools take their sizes from the standard OMP_/OPENBLAS_/MKL_NUM_THREADS
    env = {**os.environ, "PYTHONPATH": str(Path(ksdlab.__file__).parents[1])}
    code = ("import os, sys; before = dict(os.environ); import ksdlab; "
            "print(dict(os.environ) == before, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True False"


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


def test_certify_commands_leave_scipy_out(tmp_path):
    # running, not only importing: the profile and both probes, quadrature and partial
    # masses included, load no scipy module (scipy.special alone nearly doubles a fresh
    # process's resident memory)
    env = {**os.environ, "PYTHONPATH": str(Path(ksdlab.__file__).parents[1])}
    code = (
        "import sys\n"
        "from ksdlab.cli import main\n"
        "for argv in (['profile'], ['coercivity', '--quick'], ['heat', '--quick']):\n"
        f"    assert main(argv + ['--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
