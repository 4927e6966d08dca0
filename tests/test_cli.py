import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steershare
from steershare.cli import main
from steershare.scenario import ScenarioConfig, records_to_csv, run_scenario, sweep_curve


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


def _seeded_run_configs():
    """Both modes, 1-4 pairs, final pairs given or omitted, signed x/y/z
    labels and the compression bases each mode accepts."""
    rng = np.random.default_rng(97)
    configs = []
    for k in range(48):
        mode = ("nonlocal", "local")[k % 2]
        pairs = k // 2 % 4 + 1
        given = pairs - (k // 8 % 2) if pairs > 1 else 1
        labels = ["x", "-x", "y", "-y"] + (["z", "-z"] if mode == "nonlocal" else [])
        bases = ["00,11", "11,00"] + (["01,10", "10,00"] if mode == "local" else [])
        strengths = [float(rng.uniform()) if rng.uniform() < 0.5
                     else rng.uniform(0, 1, 2).tolist() for _ in range(given)]
        configs.append({"mode": mode, "pairs": pairs, "strengths": strengths,
                        "charlie_directions": rng.choice(labels, 2).tolist(),
                        "compression": str(rng.choice(bases))})
    return configs


def _to_json_payload(results):
    return [{"pair": r.pair, "steering_value": r.steering_value,
             "state": r.state.to_json(),
             "charlie_ellipsoid": r.charlie_ellipsoid and r.charlie_ellipsoid.to_json(),
             "ab_ellipsoid": r.ab_ellipsoid and r.ab_ellipsoid.to_json()}
            for r in results]


def _python(code, *argv):
    """Run `code` in a fresh interpreter that imports this steershare."""
    env = dict(os.environ, PYTHONPATH=str(Path(steershare.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)


class TestRunOut:
    def test_text_equals_indented_json_dumps(self, capsys, tmp_path):
        cfg_file, out_file = tmp_path / "cfg.json", tmp_path / "out.json"
        configs = _seeded_run_configs()
        layouts = set()
        for cfg in configs:
            cfg_file.write_text(json.dumps(cfg))
            code, _, err = run_cli(capsys, "run", "--config", str(cfg_file),
                                   "--out", str(out_file))
            assert (code, err) == (0, "")
            payload = _to_json_payload(run_scenario(ScenarioConfig.from_json(cfg)))
            assert out_file.read_text() == json.dumps(payload, indent=2) + "\n"
            layouts.add((cfg["mode"], cfg["pairs"]))
        assert len(layouts) == 8
        assert {c["compression"] for c in configs} == {"00,11", "11,00", "01,10", "10,00"}

    def test_negative_local_strength_prints_one_stderr_line(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"mode": "local", "pairs": 2, "strengths": [-0.5]}')
        proc = _python("from steershare.cli import main; raise SystemExit(main())",
                       "run", "--config", str(cfg_file))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: strengths (-0.5, -0.5) outside [0, 1]\n"

    @pytest.mark.filterwarnings("error")  # a warning would add stderr lines
    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    @pytest.mark.parametrize("strength, shown", [
        ("NaN", "(nan, nan)"), ("Infinity", "(inf, inf)"), ("-Infinity", "(-inf, -inf)"),
        ("-0.5", "(-0.5, -0.5)"), ("1.5", "(1.5, 1.5)"), ("[0.5, NaN]", "(0.5, nan)"),
    ])
    def test_bad_strength_exits_2_before_writing(self, capsys, tmp_path, mode,
                                                 strength, shown):
        cfg_file, out_file = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_file.write_text(f'{{"mode": "{mode}", "pairs": 2, "strengths": [{strength}]}}')
        code, out, err = run_cli(capsys, "run", "--config", str(cfg_file),
                                 "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: strengths {shown} outside [0, 1]"]
        assert not out_file.exists()


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
        assert ("constant Charlie semiaxis at lambda1(1)=1/sqrt(2): 0.8536 "
                "(spread 0.00e+00 over lambda2)") in out.splitlines()
