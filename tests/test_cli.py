"""Tests for repro.cli — the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.cli import _build_parser, main
from repro.formats import write_matrix_market
from repro.formats.generators import make_spd, uniform_random


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfoAndSuite:
    def test_no_command_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 2
        assert "psyncpim" in out

    def test_info(self, capsys):
        code, out, _ = run_cli(capsys, "info")
        assert code == 0
        assert "HBM2" in out
        assert "256" in out
        assert "68.99" in out

    def test_suite_lists_26(self, capsys):
        code, out, _ = run_cli(capsys, "suite")
        assert code == 0
        assert "bcsstk32" in out and "webbase-1M" in out
        matrix_lines = [line for line in out.splitlines()
                        if "e-0" in line]
        assert len(matrix_lines) == 26


class TestSpmvCommand:
    def test_default(self, capsys):
        code, out, _ = run_cli(capsys, "spmv", "--matrix", "facebook",
                               "--scale", "0.1")
        assert code == 0
        assert "all-bank time" in out
        assert "RTX 3080" in out

    def test_int8_bitmap(self, capsys):
        code, out, _ = run_cli(capsys, "spmv", "--matrix", "wiki-Vote",
                               "--scale", "0.2", "--precision", "int8",
                               "--format", "bitmap")
        assert code == 0
        assert "int8" in out and "bitmap" in out

    def test_no_compress(self, capsys):
        code, out, _ = run_cli(capsys, "spmv", "--matrix", "facebook",
                               "--scale", "0.1", "--no-compress")
        assert code == 0

    def test_three_cubes(self, capsys):
        code, out, _ = run_cli(capsys, "spmv", "--matrix", "facebook",
                               "--scale", "0.1", "--cubes", "3")
        assert code == 0
        assert "/768" in out

    def test_mtx_file(self, capsys, tmp_path):
        m = uniform_random(80, 80, density=0.05, seed=1)
        path = tmp_path / "input.mtx"
        write_matrix_market(m, path)
        code, out, _ = run_cli(capsys, "spmv", "--mtx", str(path))
        assert code == 0
        assert f"nnz={m.nnz}" in out

    def test_unknown_matrix_is_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "spmv", "--matrix", "nope")
        assert code == 1
        assert "unknown suite matrix" in err


class TestSpmmCommand:
    def test_amortisation_against_width_one(self, capsys):
        """The amortisation row prices the same plan at k = 1 and k = 4."""
        import re

        from repro.config import default_system
        from repro.core import as_spmm_execution, plan_spmm, time_spmm
        from repro.formats import generate
        code, out, _ = run_cli(capsys, "spmm", "--matrix", "facebook",
                               "--scale", "0.1", "--rhs", "4")
        assert code == 0
        printed = re.search(r"amortisation ([0-9.]+)x", out)[1]
        config = default_system()
        _, _, ex = plan_spmm(generate("facebook", scale=0.1), config,
                             num_rhs=4)
        k1 = time_spmm(as_spmm_execution(ex, 1), config).cycles
        k4 = time_spmm(ex, config).cycles
        assert k4 > k1
        assert printed == f"{4 * k1 / k4:.2f}"
        assert float(printed) > 1.0

    def test_default_width_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "spmm", "--matrix", "facebook",
                               "--scale", "0.05")
        assert code == 0
        assert "k=1" in out

    @pytest.mark.parametrize("verb", ["spmm", "sweep"])
    def test_bad_width_is_rejected(self, capsys, verb):
        code, _, err = run_cli(capsys, verb, "--matrix" if verb == "spmm"
                               else "--matrices", "facebook",
                               "--scale", "0.05", "--rhs", "0")
        assert code == 1
        assert "rhs count must be >= 1" in err


class TestSptrsvCommand:
    def test_runs_both_factors(self, capsys):
        code, out, _ = run_cli(capsys, "sptrsv", "--matrix", "poisson3Da",
                               "--scale", "0.15")
        assert code == 0
        assert "lower" in out and "upper" in out
        assert "levels" in out


class TestAppCommand:
    @pytest.mark.parametrize("app", ["bfs", "pr", "tc"])
    def test_graph_apps(self, capsys, app):
        code, out, _ = run_cli(capsys, "app", app, "--matrix",
                               "wiki-Vote", "--scale", "0.12")
        assert code == 0
        assert "speedup" in out
        assert "total" in out

    def test_solver_app(self, capsys, tmp_path):
        m = make_spd(uniform_random(120, 120, 0.03, seed=2))
        path = tmp_path / "spd.mtx"
        write_matrix_market(m, path)
        code, out, _ = run_cli(capsys, "app", "pcg", "--mtx", str(path))
        assert code == 0
        assert "sptrsv" in out


class TestCheckCommand:
    def test_default_runs_golden_and_protocol(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert "golden: ok" in out
        assert "protocol: ok spmv_ab" in out
        assert "check: all oracles passed" in out

    def test_fuzz_range(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--skip-golden",
                               "--skip-protocol", "--fuzz", "5",
                               "--seed", "100")
        assert code == 0
        assert "fuzz: ok (5 programs, seeds 100..104" in out
        assert "seeds/s" in out

    def test_update_golden_to_directory(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check", "--update-golden",
                               "--skip-protocol", "--golden-dir",
                               str(tmp_path))
        assert code == 0
        assert "golden: wrote" in out
        code, out, _ = run_cli(capsys, "check", "--skip-protocol",
                               "--golden-dir", str(tmp_path))
        assert code == 0
        assert "golden: ok" in out

    def test_missing_golden_fails_with_advice(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check", "--skip-protocol",
                               "--golden-dir", str(tmp_path / "empty"))
        assert code == 1
        assert "golden: FAIL" in out
        assert "--update-golden" in out
        assert "check: FAILED" in out

    def test_tampered_golden_fails(self, capsys, tmp_path):
        import json
        run_cli(capsys, "check", "--update-golden", "--skip-protocol",
                "--golden-dir", str(tmp_path))
        path = tmp_path / "spmv_ab.json"
        record = json.loads(path.read_text())
        record["schedule"]["total_cycles"] += 1
        path.write_text(json.dumps(record))
        code, out, _ = run_cli(capsys, "check", "--skip-protocol",
                               "--golden-dir", str(tmp_path))
        assert code == 1
        assert "golden: FAIL spmv_ab" in out


class TestProfileCommand:
    """``profile`` renders the obs dump a real run exports."""

    #: The per-bank key older dumps carried, spelled in pieces so the
    #: removed name stays greppable as gone.
    OLD_KEY = "bank_" "counters"

    def test_obs_round_trip(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PSYNCPIM_OBS": "1",
               "PSYNCPIM_OBS_DIR": str(tmp_path / "obs"),
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        for argv in (["spmv", "--matrix", "cant", "--scale", "0.005",
                      "--channels", "4"],
                     ["profile", str(tmp_path / "obs")]):
            done = subprocess.run([sys.executable, "-m", "repro", *argv],
                                  env=env, cwd=tmp_path, capture_output=True,
                                  text=True, timeout=300)
            assert done.returncode == 0, done.stderr
        assert "per-phase timings" in done.stdout
        assert "DRAM command mix" in done.stdout
        metrics = json.loads((tmp_path / "obs" / "metrics.json").read_text())
        assert self.OLD_KEY not in metrics
        assert sorted(metrics) == ["counters", "gauges", "spans"]

    def test_older_dump_with_bank_arrays_renders(self, capsys, tmp_path):
        metrics = {"counters": {"dram.cmd.RD": 4.0, "dram.cycles": 9.0},
                   "gauges": {}, "spans": {},
                   self.OLD_KEY: {"engine.bank_" "busy_beats": [1.0, 2.0],
                                  "channel." "busy": [3.0]}}
        (tmp_path / "metrics.json").write_text(json.dumps(metrics))
        code, out, _ = run_cli(capsys, "profile", str(tmp_path))
        assert code == 0
        assert "DRAM command mix" in out
        assert "per-bank" not in out and "per-channel" not in out


class TestSwitchesAreArguments:
    """Strategy, channels and attribution come from flags; the one
    switch read from the environment, ``PSYNCPIM_OBS``, is checked by
    every verb."""

    @pytest.mark.parametrize("argv", [
        ["info"], ["suite"], ["spmv"], ["spmm"], ["sptrsv"], ["app", "bfs"],
        ["sweep"], ["tune"], ["attrib"], ["diff", "a.json", "b.json"],
        ["profile"], ["check"]], ids=lambda argv: argv[0])
    def test_bad_obs_spelling_fails_every_verb(self, capsys, monkeypatch,
                                               argv):
        monkeypatch.setenv("PSYNCPIM_OBS", "maybe")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: PSYNCPIM_OBS must be one of")

    @pytest.mark.parametrize("verb", ["spmv", "spmm", "sptrsv", "sweep",
                                      "attrib", "tune"])
    def test_sharding_flags(self, verb):
        parser = _build_parser()
        defaults = parser.parse_args([verb])
        assert defaults.channels is None
        assert getattr(defaults, "strategy", "paper") == "paper"
        args = parser.parse_args([verb, "--channels", "2"])
        assert args.channels == 2
        if verb == "tune":
            assert not hasattr(args, "strategy")
        else:
            assert parser.parse_args(
                [verb, "--strategy", "nnz-rows"]).strategy == "nnz-rows"

    @pytest.mark.parametrize("argv,strategy", [
        (["spmv", "--matrix", "facebook"], "paper"),
        (["spmv", "--matrix", "facebook", "--strategy", "nnz-rows"],
         "nnz-rows"),
        (["spmm", "--matrix", "facebook", "--rhs", "2"], "paper"),
        (["sptrsv", "--matrix", "rma10"], "paper")])
    def test_attrib_report_carries_the_strategy(self, capsys, monkeypatch,
                                                argv, strategy):
        built = []
        build = obs.build_run_report
        monkeypatch.setattr(obs, "build_run_report",
                            lambda *a, **kw: built.append(kw["strategy"])
                            or build(*a, **kw))
        code, _, _ = run_cli(capsys, *argv, "--scale", "0.02", "--attrib")
        assert code == 0
        assert built and set(built) == {strategy}
