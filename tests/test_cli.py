import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import numpy as np

from phsurgery import cli
from phsurgery.config import CampaignConfig, ConfigError
from phsurgery.suites import _check


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({
        "samples": 64,
        "crossing_entries": 40,
        "cone_orbits": 8,
        "delta_sweep": [0.1, 0.01],
        "moser_steps": 200,
    }), encoding="utf-8")
    return path


class TestConfig:
    def test_defaults_mirror_worked_example(self):
        cfg = CampaignConfig()
        assert cfg.k == 4
        assert cfg.resolved_rho0() == pytest.approx(0.5)
        assert cfg.resolved_alpha() == pytest.approx(-0.75)
        assert cfg.lam == pytest.approx(math.exp(-2))
        spec = cfg.saddle_spec()
        assert spec.lam_prime == pytest.approx(math.exp(-1))

    def test_yaml_round_trip(self):
        cfg = CampaignConfig(samples=17, rho0=0.37, delta_sweep=[0.2, 0.05])
        again = CampaignConfig.from_yaml(cfg.to_yaml())
        assert again.to_dict() == cfg.to_dict()
        assert CampaignConfig.from_yaml(again.to_yaml()).to_yaml() == again.to_yaml()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            CampaignConfig.from_dict({"not_a_field": 1})

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerances"):
            CampaignConfig(tolerances={"bogus": 1.0})

    def test_volume_mode_changes_nothing_for_defaults(self):
        plain = CampaignConfig().resolved_rho0()
        vol = CampaignConfig(volume_mode=True).resolved_rho0()
        assert plain == pytest.approx(vol)


class TestCli:
    def test_homogeneous_subcommand_passes(self, small_config, tmp_path, capsys):
        out = tmp_path / "rep"
        code = cli.main(["verify-homogeneous", "--config", str(small_config),
                         "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify_homogeneous_report.json").read_text())
        assert report["passed"] is True
        assert report["schema_version"] == 1
        assert set(report["suites"]) == {"homogeneous"}
        printed = capsys.readouterr().out
        assert "[PASS]" in printed

    def test_exit_2_on_malformed_yaml(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("samples: [oops\n", encoding="utf-8")
        assert cli.main(["all", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_2_on_bad_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("samples: -3\n", encoding="utf-8")
        assert cli.main(["all", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "samples" in err

    @pytest.mark.parametrize("fields, named", [
        ({"saddle_rates": [1, 1]}, "saddle_rates"),
        ({"lam": 2.0}, "lam"),
        # lam above the saddle's contraction lam' = exp(-1), whatever rho0 is
        ({"rho0": 0.5, "lam": 0.5}, "lam"),
        ({"delta": 0.0}, "delta"),
        ({"delta_sweep": [0.1, -0.01]}, "delta_sweep"),
        # a negative step leaves every transit trapped
        ({"step": -0.01}, "step"),
        ({"samples": 2.5}, "samples"),
        ({"samples": 0.5}, "samples"),
        ({"samples": True}, "samples"),
        ({"moser_steps": 0}, "moser_steps"),
        ({"cone_orbits": 0}, "cone_orbits"),
        ({"crossing_entries": 0}, "crossing_entries"),
        # the shell (delta, 2 delta) must stay inside the unit disk
        ({"delta": 0.6}, "delta"),
        ({"delta_sweep": [0.1, 0.5]}, "delta_sweep"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        # n = 1 has no transversal block
        ({"n_values": [1]}, "n_values"),
        ({"n_values": [2.5]}, "n_values"),
        # the homogeneous suite would pass with zero checks
        ({"n_values": []}, "n_values"),
        # the shell checks compare each later delta with the first
        ({"delta_sweep": []}, "delta_sweep"),
        ({"delta_sweep": [0.1]}, "delta_sweep"),
        ({"delta_sweep": [0.1, 0.1]}, "delta_sweep"),
        ({"delta_sweep": 0.1}, "delta_sweep"),
        ({"delta_sweep": ["a", "b"]}, "delta_sweep"),
        # a tolerance is compared with measured floats
        ({"tolerances": 5}, "tolerances"),
        ({"tolerances": {"richardson": "x"}}, "tolerances"),
        ({"tolerances": {"richardson": True}}, "tolerances"),
        ({"tolerances": {"richardson": None}}, "tolerances"),
        ({"tolerances": {"richardson": float("nan")}}, "tolerances"),
        ({"tolerances": {"richardson": float("inf")}}, "tolerances"),
        # every scalar field is a finite number, every rate field a list of them
        ({"saddle_rates": 3}, "saddle_rates"),
        ({"anosov_stable": 2}, "anosov_stable"),
        # an empty block used to pass and raise inside the cones suite
        ({"anosov_unstable": []}, "anosov_unstable"),
        ({"lam": "abc"}, "lam"),
        ({"omega": "abc"}, "omega"),
        ({"delta": "abc"}, "delta"),
        ({"step": "abc"}, "step"),
        ({"moser_radius": "abc"}, "moser_radius"),
        ({"moser_radius": -1}, "moser_radius"),
        ({"moser_strength": "abc"}, "moser_strength"),
        ({"rho0": True}, "rho0"),
        ({"volume_mode": 3}, "volume_mode"),
        # the power atlas needs alpha in (-1, 0]; the blowup suite used to raise on it
        ({"alpha": 0.5}, "alpha"),
        ({"alpha": -1.0}, "alpha"),
    ])
    def test_exit_2_names_the_model_field(self, tmp_path, capsys, fields, named):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(fields), encoding="utf-8")
        assert cli.main(["verify-volume", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    @pytest.mark.parametrize("fields, subcommand, suite, failing, present", [
        # the bump profile rejects rho0 0.2 inside the suite
        ({"rho0": 0.2}, "verify-volume", "volume", "suite-error", ["suite-error"]),
        # the Richardson start point |x0| = 0.29 lies outside the Moser domain
        ({"moser_radius": 0.25, "moser_steps": 40}, "verify-moser", "moser",
         "normalization-richardson",
         ["exterior-calculus-identities", "invariant-primitive", "averaged-density-solution",
          "volume-normalization", "normalization-controls", "normalization-richardson"]),
    ])
    def test_exit_1_with_witness_instead_of_traceback(self, tmp_path, fields, subcommand,
                                                      suite, failing, present):
        cfgpath = tmp_path / "config.yaml"
        cfgpath.write_text(yaml.safe_dump(fields), encoding="utf-8")
        out = tmp_path / "rep"
        assert cli.main([subcommand, "--config", str(cfgpath), "--out", str(out)]) == 1
        report = json.loads((out / f"{subcommand.replace('-', '_')}_report.json").read_text())
        checks = {c["name"]: c for c in report["suites"][suite]["checks"]}
        assert list(checks) == present
        assert checks[failing]["passed"] is False
        assert checks[failing]["witness"]

    def test_empty_rho0_grid_fails_one_check_and_keeps_the_others(self, tmp_path):
        # valid rates for which no grid rho0 meets the volume-mode inequalities
        cfgpath = tmp_path / "config.yaml"
        cfgpath.write_text(yaml.safe_dump({
            "saddle_rates": [-1.5, 0.005], "anosov_stable": [-3.0], "lam": 0.1, "mu": 1.01,
            "rho0": 0.5, "samples": 64, "step": 0.01}), encoding="utf-8")
        out = tmp_path / "rep"
        assert cli.main(["verify-saddle", "--config", str(cfgpath), "--out", str(out)]) == 1
        report = json.loads((out / "verify_saddle_report.json").read_text())
        checks = {c["name"]: c for c in report["suites"]["saddle"]["checks"]}
        assert list(checks) == [
            "bump-contract", "slow-down-reduces-speed", "shear-bound", "rho0-selection",
            "transit-closed-forms", "distortion-uniformity", "transit-time-scaling",
            "transit-classes", "tangent-map-oracle", "richardson", "time-change-oracle"]
        selection = checks["rho0-selection"]
        assert selection["passed"] is False
        assert selection["measured"]["volume_feasible_interval"] == []
        assert "empty_grid" in selection["witness"]
        # the slow rows' transit maps have det about 1e-90: the SVD rounds their
        # smallest singular value to 0, but the inverse maps' largest is finite
        inverse = checks["distortion-uniformity"]["measured"]["inverse_distortion"]
        assert isinstance(inverse, float) and math.isfinite(inverse)

    def test_probe_leaving_the_disk_fails_two_checks_and_keeps_the_others(self, tmp_path):
        # the second probe of tangent-map-oracle reaches the unit sphere at
        # t = 0.87; the two checks that read the probes fail with the escape
        # as witness, and every other check still reports
        cfgpath = tmp_path / "config.yaml"
        cfgpath.write_text(yaml.safe_dump({
            "saddle_rates": [-1, -1, 2.5, 2.5], "anosov_unstable": [3.0], "mu": 15.0,
            "rho0": 0.5, "samples": 40, "step": 0.01, "delta_sweep": [0.1, 0.01],
            "seed": 0}), encoding="utf-8")
        out = tmp_path / "rep"
        assert cli.main(["verify-saddle", "--config", str(cfgpath), "--out", str(out)]) == 1
        report = json.loads((out / "verify_saddle_report.json").read_text())
        checks = {c["name"]: c for c in report["suites"]["saddle"]["checks"]}
        assert list(checks) == [
            "bump-contract", "slow-down-reduces-speed", "shear-bound", "rho0-selection",
            "transit-closed-forms", "distortion-uniformity", "transit-time-scaling",
            "transit-classes", "tangent-map-oracle", "richardson", "time-change-oracle"]
        for name, measured in (("tangent-map-oracle", "max_relative_error"),
                               ("richardson", "max_residual")):
            assert checks[name]["passed"] is False
            assert checks[name]["measured"][measured] == "inf"
            escape = checks[name]["witness"]["escapes"]["probes"]
            assert escape["row"] == 1 and escape["time"] == pytest.approx(0.87)
            assert np.linalg.norm(escape["point"]) >= 1.0

    def test_rk4_counters_go_to_timing_and_are_stripped(self):
        cfg = CampaignConfig(samples=64, step=0.01, delta_sweep=[0.1, 0.01, 0.001])
        report = cli.build_report(cfg, ("saddle", "volume"))
        # 307 steps of the slowest oracle transit and the crossing step; one
        # bisection of 28 steps for all crossings; the exact clock of the 3
        # probes; the exact kernel's 86 transits (2 axis rows, 68 campaign rows
        # and 8 oracle rows at each later delta) and its root finding
        assert report["timing"]["counters"] == {
            "saddle": {"rk4_iterations": 308, "row_steps": 3747, "bisection_steps": 28,
                       "clock_rows": 3, "clock_newton_iterations": 3,
                       "transit_rows": 86, "transit_root_iterations": 345}}
        assert "counters" not in report["suites"]["saddle"]
        assert "rk4_iterations" not in cli.canonical_json(cli.strip_timing(report))

    def test_exit_2_on_missing_file(self, tmp_path, capsys):
        assert cli.main(["all", "--config", str(tmp_path / "none.yaml")]) == 2

    @pytest.mark.parametrize("out", [
        "taken",            # --out names an existing file
        "taken/reports",    # --out lies under an existing file
    ])
    def test_exit_2_when_out_cannot_be_a_directory(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
        assert cli.main(["verify-volume", "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot create output directory: ")
        assert captured.out == ""  # no suite ran

    def test_forced_inadmissible_rho0_exits_1_with_witnesses(self, tmp_path, capsys):
        cfgpath = tmp_path / "bad_rho.yaml"
        cfgpath.write_text(yaml.safe_dump({
            "rho0": 1.5,  # violates the domination inequality (bound is 1.0)
            "samples": 64,
            "crossing_entries": 40,
            "cone_orbits": 8,
            "delta_sweep": [0.1, 0.01],
        }), encoding="utf-8")
        out = tmp_path / "rep"
        code = cli.main(["verify-cones", "--config", str(cfgpath), "--out", str(out)])
        assert code == 1
        report = json.loads((out / "verify_cones_report.json").read_text())
        core = next(c for c in report["suites"]["cones"]["checks"]
                    if c["name"] == "core-cone-campaign")
        assert core["passed"] is False
        assert core["witness"]["violations"], "expected violation witnesses"
        types = {v["type"] for v in core["witness"]["violations"]}
        assert "domination" in types or "u-invariance" in types
        # no admissible slow-down profile: the crossing check fails and the
        # checks after it still run
        checks = {c["name"]: c for c in report["suites"]["cones"]["checks"]}
        assert sorted(checks) == sorted([
            "core-cone-campaign", "time-symmetry", "rate-chain", "negative-controls",
            "crossing-cone-stability", "cocycle-property", "membership-invariance"])
        assert checks["crossing-cone-stability"]["passed"] is False
        assert "error" in checks["crossing-cone-stability"]["witness"]

    def test_seed_override_and_csv(self, small_config, tmp_path):
        out = tmp_path / "rep"
        code = cli.main(["verify-volume", "--config", str(small_config),
                         "--seed", "7", "--out", str(out), "--csv"])
        assert code == 0
        report = json.loads((out / "verify_volume_report.json").read_text())
        assert report["config"]["seed"] == 7
        csv_text = (out / "volume_measured.csv").read_text()
        assert "max_residual" in csv_text

    def test_csv_flattens_nested_measured_dicts(self, tmp_path):
        cfgpath = tmp_path / "saddle.yaml"
        cfgpath.write_text(yaml.safe_dump({"samples": 64, "crossing_entries": 40,
                                           "delta_sweep": [0.1, 0.01], "step": 0.01}),
                           encoding="utf-8")
        out = tmp_path / "rep"
        assert cli.main(["verify-saddle", "--config", str(cfgpath), "--out", str(out),
                         "--csv"]) == 0
        with open(out / "saddle_measured.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert not any(cell.startswith("{") for row in rows for cell in row)
        counts = {row[2]: row[3] for row in rows if row[0] == "transit-classes"
                  and row[2].startswith("class_counts[")}
        classes = ("inner->outer", "outer->inner", "outer->outer", "inner->inner", "trapped")
        assert sorted(counts) == sorted(f"class_counts[{c}]" for c in classes)
        assert all(str(int(v)) == v for v in counts.values())

    def test_reports_are_deterministic(self, tmp_path):
        cfg = CampaignConfig(samples=48, crossing_entries=30, cone_orbits=8,
                             delta_sweep=[0.1, 0.01], moser_steps=150, seed=42)
        r1 = cli.build_report(cfg, ("saddle", "volume", "homogeneous"))
        r2 = cli.build_report(cfg, ("saddle", "volume", "homogeneous"))
        assert (cli.canonical_json(cli.strip_timing(r1))
                == cli.canonical_json(cli.strip_timing(r2)))

    def test_moser_starts_outside_the_domain_are_skipped(self, tmp_path):
        # seed 5 draws transport probes whose start 0.8 p lies outside the
        # normalization domain |x| < moser_radius: the suite skips them
        cfgpath = tmp_path / "moser.yaml"
        cfgpath.write_text(yaml.safe_dump({"moser_steps": 40}), encoding="utf-8")
        out = tmp_path / "rep"
        code = cli.main(["verify-moser", "--config", str(cfgpath), "--seed", "5",
                         "--out", str(out)])
        assert code in (0, 1)
        report = json.loads((out / "verify_moser_report.json").read_text())
        assert set(report["suites"]) == {"moser"}

    def test_strict_rejects_loosened_tolerances(self, tmp_path, capsys):
        # an upper bound is loosened upwards; volume_control_min, a lower
        # bound (the volume control must exceed it; it measures 1.14), downwards
        for name, loose, tight in (("commutation", 1.0, 1e-9),
                                   ("volume_control_min", 1e-9, 0.1)):
            for value, code in ((loose, 2), (tight, 0)):
                cfgpath = tmp_path / f"{name}-{value}.yaml"
                cfgpath.write_text(yaml.safe_dump({"samples": 16, "tolerances": {name: value}}),
                                   encoding="utf-8")
                assert cli.main(["verify-volume", "--config", str(cfgpath), "--strict",
                                 "--out", str(tmp_path / f"r-{name}-{value}")]) == code
                err = capsys.readouterr().err
                assert (f"strict mode: loosened tolerances ['{name}']" in err) == (code == 2)

    def test_strict_names_a_non_numeric_tolerance(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"tolerances": {"richardson": "x"}}), encoding="utf-8")
        assert cli.main(["verify-volume", "--config", str(bad), "--strict",
                         "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: tolerances")


class TestReportValues:
    @pytest.mark.parametrize("value, text", [
        (np.float64("nan"), "nan"),
        (np.float64("inf"), "inf"),
        (np.float64("-inf"), "-inf"),
        (np.float32("nan"), "nan"),
        (float("inf"), "inf"),
    ])
    def test_non_finite_values_serialize_as_strings(self, value, text):
        check = _check("x", False, "m", {"v": value, "row": np.array([1.0, value])},
                       witness={"w": value, "nested": {"w": [value]}})
        again = json.loads(cli.canonical_json(check))
        assert again["measured"] == {"v": text, "row": [1.0, text]}
        assert again["witness"] == {"w": text, "nested": {"w": [text]}}


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code, **env):
    """stdout of `code` run by a new interpreter that imports phsurgery from src."""
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full.update(PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, "-c", code], env=full, check=True,
                          capture_output=True, text=True, timeout=120).stdout.strip()


class TestImport:
    def test_every_suite_runs_without_scipy(self):
        # the run needs only numpy and PyYAML, and the numpy submodules that
        # numpy loads on first use are loaded by the import, not by the run
        code = "\n".join([
            "import sys, phsurgery.cli",
            "from phsurgery import suites",
            "from phsurgery.config import CampaignConfig",
            "before = set(sys.modules)",
            "cfg = CampaignConfig(samples=64, crossing_entries=40, cone_orbits=8,",
            "                     delta_sweep=[0.1, 0.01], moser_steps=40, step=0.01)",
            "for run in suites.SUITE_RUNNERS.values():",
            "    run(cfg)",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'",
            "             or m.startswith('numpy.') and m not in before))",
        ])
        assert _fresh_python(code) == "[]"

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_one_blas_thread_unless_set(self, preset, expected):
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        code = "import os, phsurgery; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _fresh_python(code, **env) == expected
