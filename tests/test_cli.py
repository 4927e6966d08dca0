import json

import numpy as np
import pytest

from steershare.cli import main
from steershare.scenario import records_to_csv, sweep_curve


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBound:
    def test_two_settings(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--settings", "x,y")
        assert code == 0
        assert abs(float(out.strip()) - 1 / np.sqrt(2)) <= 1e-9

    def test_three_settings(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--settings", "x,y,z")
        assert abs(float(out.strip()) - 1 / np.sqrt(3)) <= 1e-9

    def test_bad_axis(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--settings", "x,q")
        assert code == 2
        assert "unknown axis" in err


class TestScan:
    def test_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, out, _ = run_cli(capsys, "scan", "--pairs", "2", "--grid", "6",
                               "--mode", "compare", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "lambda1,lambda2,S1,S2,S3,St1,St2,St3,region"
        assert len(lines) == 37


class TestScanErrors:
    def test_too_many_pairs_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scan", "--pairs", "4", "--grid", "3",
                               "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert err.splitlines() == ["error: pairs=4 outside supported scan range 1..3"]


class TestSweep:
    def test_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--fix", "lambda1_1=0.70710678",
                             "--vary", "lambda2_1", "--from", "0.6", "--to", "1.0",
                             "--samples", "9", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "param,S1,S2,St1,St2"
        assert len(lines) == 10

    def test_unknown_param_exits_nonzero(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--vary", "bogus_1", "--from", "0",
                               "--to", "1", "--samples", "3",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "unknown parameter" in err


    def test_out_of_range_strength_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--vary", "lambda_1", "--from", "0.5",
                               "--to", "1.5", "--samples", "5",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err.splitlines() == ["error: strengths (1.25, 1.25) outside [0, 1]"]

    @pytest.mark.parametrize("fix", ["lambda1_1=abc", "lambda1_1"])
    def test_bad_fix_exits_2(self, capsys, tmp_path, fix):
        code, _, err = run_cli(capsys, "sweep", "--fix", fix, "--vary", "lambda2_1",
                               "--from", "0", "--to", "1", "--samples", "3",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err.splitlines() == [
            f"error: --fix expects NAME=VAL with a number VAL, got {fix!r}"]

    def test_pair_beyond_pairs_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--vary", "lambda_3", "--pairs", "2",
                               "--from", "0", "--to", "1", "--samples", "3",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err.splitlines() == [
            "error: parameter 'lambda_3' addresses pair 3, beyond pairs=2"]
        assert not (tmp_path / "x.csv").exists()

    def test_fix_of_varied_parameter_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--vary", "lambda_1",
                                 "--fix", "lambda_1=0.3", "--from", "0", "--to", "1",
                                 "--samples", "3", "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: parameter 'lambda_1' is both varied and fixed"]
        assert not (tmp_path / "x.csv").exists()

    def test_fix_values_do_not_leak_between_calls(self, capsys, tmp_path):
        # The parser is built once per process; each call must still start
        # from its own defaults.
        out = tmp_path / "s.csv"
        common = ["--vary", "lambda2_1", "--from", "0", "--to", "1",
                  "--samples", "3", "--out", str(out)]
        for fix in ({"lambda1_1": 0.3}, {}, {"lambda1_1": 0.3}):
            argv = [a for k, v in fix.items() for a in ("--fix", f"{k}={v}")]
            assert run_cli(capsys, "sweep", *argv, *common)[0] == 0
            assert out.read_text() == records_to_csv(
                sweep_curve(fix, "lambda2_1", 0, 1, 3), "sweep")


class TestEllipsoids:
    def test_writes_json(self, capsys, tmp_path):
        out_file = tmp_path / "ell.json"
        code, _, _ = run_cli(capsys, "ellipsoids", "--lambda1", "0.70710678",
                             "--lambda2", "0.9", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        rec = payload[0]
        assert set(rec) == {"lambda1", "lambda2", "charlie", "ab"}
        assert set(rec["charlie"]) == {"center", "matrix", "semiaxes",
                                       "orientation", "volume"}
        assert max(rec["charlie"]["semiaxes"]) <= 1 + 1e-8


class TestRun:
    def test_config_file(self, capsys, tmp_path):
        cfg = {"mode": "nonlocal", "pairs": 2, "strengths": [0.5, 0.8],
               "charlie_directions": ["x", "-y"], "compression": "00,11"}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        out_file = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg_file),
                               "--out", str(out_file))
        assert code == 0
        assert "pair 2: S = 0.746410" in out
        payload = json.loads(out_file.read_text())
        assert payload[1]["steering_value"] == pytest.approx(0.74641016, abs=1e-8)
        assert payload[0]["state"]["qubits"] == 3


class TestRunErrors:
    def _run(self, capsys, tmp_path, text):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        return run_cli(capsys, "run", "--config", str(cfg_file))

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", "--config", str(tmp_path / "none.json"))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: cannot read config {str(tmp_path / 'none.json')!r}: "
            "No such file or directory"]

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, '{"mode": "nonlocal",')
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: config ") and "is not valid JSON" in err

    @pytest.mark.parametrize("cfg, message", [
        ({"strenghts": [0.5]}, "unknown config keys ['strenghts']"),
        ({"strengths": [[0.1, 0.2, 0.3]]}, "strength entry [0.1, 0.2, 0.3] is neither"),
        ({"strengths": [[]]}, "strength entry [] is neither"),
        ({"strengths": ["0.5"]}, "strength entry '0.5' is neither"),
        ({"strengths": [True]}, "strength entry True is neither"),
        ({"strengths": 0.5}, "config key 'strengths' must be of type list"),
        ({"pairs": "2"}, "config key 'pairs' must be of type int"),
        ([0.5], "config must be a JSON object"),
        ({"compression": "00"}, "compression '00' is not two kets"),
        ({"equal_strength": [True]}, "unknown config keys ['equal_strength']"),
        ({"pairs": -1}, "pairs=-1 outside supported range 1..4"),
        ({"pairs": 1, "strengths": [0.5, 0.8]}, "history covers 2 pairs, config has 1"),
        ({"charlie_directions": ["x", "y", "z"]}, "need one Charlie direction per setting"),
        ({"charlie_directions": [5, "x"]}, "unknown axis label 5"),
    ])
    def test_bad_config_exits_2(self, capsys, tmp_path, cfg, message):
        code, out, err = self._run(capsys, tmp_path, json.dumps(cfg))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["scan", "--grid", "3"],
        ["sweep", "--vary", "lambda_1", "--from", "0", "--to", "1", "--samples", "3"],
        ["ellipsoids", "--lambda1", "0.5", "--lambda2", "0.5"],
        ["run", "--config", "CONFIG"],
    ])
    def test_missing_directory_exits_2(self, capsys, tmp_path, argv):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"strengths": [0.5, 0.8]}))
        target = str(tmp_path / "missing" / "x.out")
        argv = [str(cfg_file) if a == "CONFIG" else a for a in argv]
        code, out, err = run_cli(capsys, *argv, "--out", target)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: cannot write {target!r}: No such file or directory"]


class TestDemo:
    def test_prints_headlines(self, capsys, monkeypatch):
        import steershare.scenario as sc
        # Shrink the grid search so the smoke test stays fast.
        original = sc.max_simultaneous_pairs
        monkeypatch.setattr(sc, "max_simultaneous_pairs",
                            lambda resolution=200: original(resolution=40))
        code, out, _ = run_cli(capsys, "demo")
        assert code == 0
        assert "C2 = 0.707107" in out
        assert "S2(2) = 0.7464" in out
        assert "0.6828" in out
        assert "(0.7071, 0.9926)" in out
