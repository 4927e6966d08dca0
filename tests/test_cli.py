import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import steershare
from steershare import scenario
from steershare.cli import main
from steershare.scenario import PairResult, ScenarioConfig, ellipsoid_series, iter_csv, \
    run_scenario, sweep_curve
from steershare.states import DensityMatrix
from steershare.steering import SteeringEllipsoid


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

    @pytest.mark.filterwarnings("error")  # a linspace warning would add stderr lines
    @pytest.mark.parametrize("ends, shown", [
        (["--from", "inf", "--to", "1"], "start=inf"),
        (["--from", "0", "--to", "inf"], "stop=inf"),
        (["--from", "0", "--to=-inf"], "stop=-inf"),
        (["--from", "nan", "--to", "1"], "start=nan"),
    ])
    def test_non_finite_end_exits_2(self, capsys, tmp_path, ends, shown):
        out_file = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--vary", "lambda_1", "--samples", "3",
                                 *ends, "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {shown} is not a finite float"]
        assert not out_file.exists()

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

    @pytest.mark.parametrize("argv, message", [
        (["--fix", "lambda_2=0.5", "--fix", "lambda_2=0.7", "--vary", "lambda_1"],
         "--fix gives 'lambda_2' more than once"),
        (["--vary", "lambda1_1", "--fix", "lambda_1=0.5"],
         "parameters 'lambda_1' and 'lambda1_1' both set lambda1_1"),
        (["--vary", "lambda_1", "--fix", "lambda1_1=0.3"],
         "parameters 'lambda1_1' and 'lambda_1' both set lambda1_1"),
    ])
    def test_overlapping_ids_exit_2(self, capsys, tmp_path, argv, message):
        code, out, err = run_cli(capsys, "sweep", *argv, "--from", "0", "--to", "1",
                                 "--samples", "3", "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]
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
            assert out.read_text() == "".join(iter_csv(
                sweep_curve(fix, "lambda2_1", 0, 1, 3), "sweep"))


class TestSizeLimits:
    @pytest.fixture(autouse=True)
    def no_linspace(self, monkeypatch):
        # A size that passed the checks would reach np.linspace first.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linspace called for an oversized input")
        monkeypatch.setattr(np, "linspace", refuse)

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--grid", "100000000"],
         "grid resolution 100000000 outside supported range 2..800"),
        (["sweep", "--vary", "lambda_1", "--from", "0", "--to", "1",
          "--samples", "100000000000"],
         "samples=100000000000 outside supported range 2..1000000"),
    ])
    def test_oversized_exits_2_before_writing(self, capsys, tmp_path, argv, message):
        out_file = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]
        assert not out_file.exists()


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

    # (1, 1) is degenerate: Charlie's ellipsoid is flat, with volume 0.
    @pytest.mark.parametrize("lam1, lam2", [("0.70710678", "0.9"), ("0.5", "0.5"),
                                            ("0", "0"), ("1", "1")])
    def test_text_equals_indented_json_dumps(self, capsys, tmp_path, lam1, lam2):
        out_file = tmp_path / "ell.json"
        code, _, err = run_cli(capsys, "ellipsoids", "--lambda1", lam1,
                               "--lambda2", lam2, "--out", str(out_file))
        assert (code, err) == (0, "")
        records = ellipsoid_series([(float(lam1), float(lam2))])
        payload = [{"lambda1": r.lambda1, "lambda2": r.lambda2,
                    "charlie": _ellipsoid_payload(r.charlie), "ab": _ellipsoid_payload(r.ab)}
                   for r in records]
        assert out_file.read_text() == json.dumps(payload, indent=2) + "\n"


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

    def test_same_axis_marker_uses_its_bound(self, capsys, tmp_path):
        # `bound --settings x,-x` is 1: a classical strategy reaches S = 1.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"pairs": 2, "strengths": [0.5],
                                        "charlie_directions": ["x", "-x"]}))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg_file))
        assert (code, out) == (0, "pair 1: S = 0.500000 <= C2\n"
                                  "pair 2: S = 1.000000 <= C2\n")


def _seeded_run_configs():
    """Both modes, 1-4 pairs, final pairs given or omitted, signed x/y/z
    labels, and the compression key given or omitted."""
    rng = np.random.default_rng(97)
    configs = []
    for k in range(48):
        mode = ("nonlocal", "local")[k % 2]
        pairs = k // 2 % 4 + 1
        given = pairs - (k // 8 % 2) if pairs > 1 else 1
        labels = ["x", "-x", "y", "-y"] + (["z", "-z"] if mode == "nonlocal" else [])
        strengths = [float(rng.uniform()) if rng.uniform() < 0.5
                     else rng.uniform(0, 1, 2).tolist() for _ in range(given)]
        configs.append({"mode": mode, "pairs": pairs, "strengths": strengths,
                        "charlie_directions": rng.choice(labels, 2).tolist(),
                        **({"compression": "00,11"} if k % 3 else {})})
    return configs


# Where GHZ's Pauli components are nonzero in a 3-qubit matrix: the real
# diagonal (I and Z products) and anti-diagonal (X and Y-Y-X products).
_GHZ_SUPPORT = np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1]


def _ellipsoid_payload(e):
    """The `--out` JSON of one ellipsoid: orientation rows are its axes."""
    return e and {"center": e.center.tolist(), "matrix": e.matrix.tolist(),
                  "semiaxes": e.semiaxes.tolist(), "orientation": e.orientation.T.tolist(),
                  "volume": e.volume}


def _run_payload(results):
    return [{"pair": r.pair, "steering_value": r.steering_value,
             "state": {"qubits": r.state.qubits, "re": r.state.mat.real.tolist(),
                       "im": r.state.mat.imag.tolist()},
             "charlie_ellipsoid": _ellipsoid_payload(r.charlie_ellipsoid),
             "ab_ellipsoid": _ellipsoid_payload(r.ab_ellipsoid)}
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
            payload = _run_payload(run_scenario(ScenarioConfig.from_json(cfg)))
            assert out_file.read_text() == json.dumps(payload, indent=2) + "\n"
            layouts.add((cfg["mode"], cfg["pairs"]))
        assert len(layouts) == 8
        assert {(c["mode"], c.get("compression")) for c in configs} == {
            (mode, compression) for mode in ("nonlocal", "local")
            for compression in ("00,11", None)}

    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    def test_special_floats_spelled_as_json_dumps(self, capsys, tmp_path, monkeypatch,
                                                  mode):
        """NaN, +-Infinity and -0.0 in every kind of spelled field: steering
        values, state entries in the support of GHZ's Pauli components (the
        diagonal and anti-diagonal of the real part), and each ellipsoid
        field but the centre and the off-diagonal matrix entries.  The other
        slots hold a literal 0.0 (`test_literal_slot_must_hold_positive_zero`)."""
        specials = [float("nan"), float("inf"), float("-inf"), -0.0]
        rng = np.random.default_rng(41)

        def spiked(a, where):
            a = a.copy()
            slots = np.flatnonzero(where)
            idx = rng.choice(slots, min(slots.size, len(specials)), replace=False)
            a.reshape(-1)[idx] = rng.permutation(specials)[:len(idx)]
            return a

        def state(mat):  # DensityMatrix would reject non-finite entries
            dm = object.__new__(DensityMatrix)
            object.__setattr__(dm, "qubits", 3)
            object.__setattr__(dm, "mat", np.empty_like(mat))
            dm.mat.real, dm.mat.imag = spiked(mat.real, _GHZ_SUPPORT), mat.imag
            return dm

        def ell(e, volume):
            return e and SteeringEllipsoid(e.center, spiked(e.matrix, np.eye(3)),
                                           spiked(e.semiaxes, np.ones(3)),
                                           spiked(e.orientation, np.ones((3, 3))), volume)

        cfg = {"mode": mode, "pairs": 4, "strengths": [0.5, [0.3, 0.8], 0.9]}
        results = [PairResult(r.pair, x, state(r.state.mat), ell(r.charlie_ellipsoid, x),
                              ell(r.ab_ellipsoid, x))
                   for r, x in zip(run_scenario(ScenarioConfig.from_json(cfg)), specials)]
        assert (results[0].charlie_ellipsoid is None) == (mode == "local")
        monkeypatch.setattr(scenario, "run_scenario", lambda _cfg: results)
        cfg_file, out_file = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_file.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg_file),
                                 "--out", str(out_file))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "pair 1: S = nan <= C2"
        text = out_file.read_text()
        assert text == json.dumps(_run_payload(results), indent=2) + "\n"
        for word in ("NaN", "Infinity", "-Infinity", "-0.0"):
            assert word in text

    @pytest.mark.parametrize("value", [1e-300, -0.0, float("nan")])
    @pytest.mark.parametrize("field", ["re", "im", "center", "matrix"])
    def test_literal_slot_must_hold_positive_zero(self, capsys, tmp_path, monkeypatch,
                                                  field, value):
        """A float outside the support of GHZ's Pauli components is written
        as a literal 0.0, so anything but +0.0 there is a broken invariant."""
        results = run_scenario(ScenarioConfig.from_json({"pairs": 3, "strengths": [0.5, 0.8]}))
        r = results[1]
        if field in ("re", "im"):
            mat = r.state.mat.copy()
            if field == "re":
                mat.real[0, 1] = value  # off the diagonal and the anti-diagonal
            else:
                mat.imag[0, 7] = value  # an imaginary part, even on the anti-diagonal
            state = object.__new__(DensityMatrix)
            object.__setattr__(state, "qubits", 3)
            object.__setattr__(state, "mat", mat)
            results[1] = PairResult(r.pair, r.steering_value, state,
                                    r.charlie_ellipsoid, r.ab_ellipsoid)
        else:
            e = r.ab_ellipsoid
            center, matrix = e.center.copy(), e.matrix.copy()
            if field == "center":
                center[2] = value
            else:
                matrix[1, 0] = value
            results[1] = PairResult(r.pair, r.steering_value, r.state, r.charlie_ellipsoid,
                                    SteeringEllipsoid(center, matrix, e.semiaxes,
                                                      e.orientation, e.volume))
        monkeypatch.setattr(scenario, "run_scenario", lambda _cfg: results)
        cfg_file, out_file = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_file.write_text('{"pairs": 3, "strengths": [0.5, 0.8]}')
        code, out, err = run_cli(capsys, "run", "--config", str(cfg_file),
                                 "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: the run holds {value!r} "
                                    "outside the Pauli components of GHZ"]
        assert not out_file.exists()

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
        # Truncated text, arrays nested past the recursion limit, and an
        # integer past Python's 4,300-digit int-string limit.
        for text in ('{"mode": "nonlocal",', "[" * 100_000 + "]" * 100_000,
                     '{"pairs": ' + "1" * 5000 + "}"):
            code, out, err = self._run(capsys, tmp_path, text)
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
        ({"compression": "00"}, "config key 'compression' must be '00,11', got '00'"),
        ({"equal_strength": [True]}, "unknown config keys ['equal_strength']"),
        ({"pairs": -1}, "pairs=-1 outside supported range 1..4"),
        ({"pairs": 1, "strengths": [0.5, 0.8]}, "history covers 2 pairs, config has 1"),
        ({"charlie_directions": ["x", "y", "z"]}, "need one Charlie direction per setting"),
        ({"charlie_directions": [5, "x"]}, "unknown axis label 5"),
        ({"compression": "11,00"}, "config key 'compression' must be '00,11', got '11,00'"),
        ({"mode": "local", "compression": "01,10"},
         "config key 'compression' must be '00,11', got '01,10'"),
        ({"mode": "local", "compression": "00"},
         "config key 'compression' must be '00,11', got '00'"),
        ({"compression": 11}, "config key 'compression' must be of type str"),
        ({"mode": "local", "charlie_directions": ["x", "z"]},
         "local mode is only defined for x/y settings"),
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


class TestOutRewrite:
    """`--out` is rewritten in place: its bytes equal those of a fresh write."""

    def _run(self, capsys, tmp_path, cfg, out):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        return run_cli(capsys, "run", "--config", str(cfg_file), "--out", str(out))

    def test_long_run_file_rewritten_short(self, capsys, tmp_path):
        out, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
        self._run(capsys, tmp_path, {"pairs": 4, "strengths": [0.3, 0.5, 0.7]}, out)
        before = out.stat().st_size
        for path in (out, fresh):
            assert self._run(capsys, tmp_path, {"pairs": 1}, path)[0] == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert out.stat().st_size < before

    def test_large_scan_rewritten_small(self, capsys, tmp_path):
        out, fresh = tmp_path / "scan.csv", tmp_path / "fresh.csv"
        run_cli(capsys, "scan", "--grid", "30", "--out", str(out))
        before = out.stat().st_size
        for path in (out, fresh):
            assert run_cli(capsys, "scan", "--grid", "5", "--out", str(path))[0] == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert out.stat().st_size < before

    _SWEEP = ("sweep", "--vary", "lambda_1", "--from", "0", "--to", "1")

    @pytest.mark.parametrize("longer, shorter", [
        (("scan", "--grid", "30"), ("scan", "--grid", "5", "--mode", "local")),
        (_SWEEP + ("--samples", "500"), _SWEEP + ("--samples", "9", "--mode", "nonlocal")),
    ])
    def test_blocked_csv_rewritten_short(self, capsys, tmp_path, monkeypatch,
                                         longer, shorter):
        monkeypatch.setattr(scenario, "CSV_BLOCK_ROWS", 4)
        out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        assert run_cli(capsys, *longer, "--out", str(out))[0] == 0
        before = out.stat().st_size
        for path in (out, fresh):
            assert run_cli(capsys, *shorter, "--out", str(path))[0] == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert out.stat().st_size < before

    @pytest.mark.parametrize("argv", [("scan", "--grid", "1"), ("scan", "--grid", "801"),
                                      _SWEEP + ("--samples", "1")])
    def test_rejected_size_leaves_file_unchanged(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(scenario, "CSV_BLOCK_ROWS", 4)
        out = tmp_path / "out.csv"
        assert run_cli(capsys, "scan", "--grid", "6", "--out", str(out))[0] == 0
        old = out.read_bytes()
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "") and err.startswith("error: ")
        assert out.read_bytes() == old

    def test_new_file_mode_matches_open(self, capsys, tmp_path):
        with open(tmp_path / "ref.json", "w"):
            pass
        self._run(capsys, tmp_path, {"pairs": 1}, tmp_path / "new.json")
        assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "ref.json").stat().st_mode

    def test_mode_bits_survive(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("x" * 10000)
        out.chmod(0o640)
        assert self._run(capsys, tmp_path, {"pairs": 1}, out)[0] == 0
        assert out.stat().st_mode & 0o7777 == 0o640
        assert json.loads(out.read_text())[0]["pair"] == 1

    def test_symlink_rewrites_target(self, capsys, tmp_path):
        target, link, fresh = tmp_path / "target.json", tmp_path / "link.json", \
            tmp_path / "fresh.json"
        target.write_text("x" * 10000)
        link.symlink_to(target)
        for path in (link, fresh):
            assert self._run(capsys, tmp_path, {"pairs": 2}, path)[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    def test_dev_null(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, {"pairs": 1}, os.devnull)
        assert (code, err) == (0, "")
        assert out.startswith("pair 1: S = ")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_written_uncut(self, capsys, tmp_path):
        fifo, fresh = tmp_path / "fifo", tmp_path / "fresh.json"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert self._run(capsys, tmp_path, {"pairs": 2}, fifo)[0] == 0
        reader.join(timeout=30)
        self._run(capsys, tmp_path, {"pairs": 2}, fresh)
        assert got == [fresh.read_bytes()]

    @pytest.mark.skipif(os.name != "posix", reason="needs RLIMIT_FSIZE")
    def test_failed_write_leaves_no_old_tail(self, tmp_path):
        # Writes past 50 kB fail (EFBIG), so the scan stops part way through a
        # 200 kB file; as with a truncating open, only new bytes remain.
        out = tmp_path / "scan.csv"
        out.write_text("x" * 200_000)
        res = _python("import resource, signal, sys\n"
                      "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                      "resource.setrlimit(resource.RLIMIT_FSIZE, (50_000, 50_000))\n"
                      "from steershare.cli import main\n"
                      "sys.exit(main(['scan', '--grid', '100', '--out', sys.argv[1]]))",
                      str(out))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == f"error: cannot write {str(out)!r}: File too large\n"
        text = out.read_text()
        assert 0 < len(text) <= 50_000 and "x" not in text
        assert text.startswith("lambda1,lambda2,")

    def test_directory_exits_2(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, {"pairs": 1}, tmp_path)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: cannot write {str(tmp_path)!r}: Is a directory"]

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="root writes files whatever their mode bits")
    def test_read_only_file_exits_2(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("old")
        out.chmod(0o444)
        code, stdout, err = self._run(capsys, tmp_path, {"pairs": 1}, out)
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: cannot write {str(out)!r}: Permission denied"]
        assert out.read_text() == "old"


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
