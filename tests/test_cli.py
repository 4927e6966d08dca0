import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import steershare
from steershare import cli, scenario, states, steering
from steershare.cli import main
from steershare.scenario import PairResult, ScenarioConfig, ellipsoid_series, \
    run_scenario, sweep_curve
from steershare.states import DensityMatrix
from steershare.steering import DEGENERACY_TOL, SteeringEllipsoid

from oracles import stack_diagonals, stack_entries


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


class TestFloatFrames:
    """The scan CSV's float kernel spells every float as "," and "%.12g" % x,
    in [1e-4, 1) from its digit tables and elsewhere by %.12g itself."""

    @staticmethod
    def _inputs():
        ties = [j / 8192 for j in range(821, 8192, 2)]  # exact ties at 12 digits
        dyadic = [j / 2**k for k in (14, 15, 16) for j in range(2**k)]
        edges = [math.nextafter(v, to) for v in (1e-4, 1e-3, 0.01, 0.1, 1.0)
                 for to in (0.0, 2.0)]
        special = [0.0, -0.0, 1.0, 5e-324, math.nan, math.inf, -math.inf, -0.5, -1e-3,
                   -2.5e-7, 1.5, 123456.789, 1e300, 1e-4, 1e-3, 0.01, 0.1]
        uniform = np.random.default_rng(33).uniform(0.0, 1.0, 10**6)
        return len(ties), np.array([*ties, *dyadic, *edges, *special, *uniform])

    def test_bytes_equal_percent_format(self, monkeypatch):
        fallback = []
        spell = cli._percent_frames

        def counted(values, sep):
            fallback.extend(values)
            return spell(values, sep)

        monkeypatch.setattr(cli, "_percent_frames", counted)
        ties, x = self._inputs()
        step = 1 << 16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(0, len(x), step):
                part = x[i:i + step]
                got = cli._float_frames(part).tobytes().translate(None, b"\0")
                want = "".join(map(",%.12g".__mod__, part.tolist())).encode()
                if got != want:
                    pairs = zip(got.split(b",")[1:], want.split(b",")[1:], part.tolist())
                    g, w, v = next(p for p in pairs if p[0] != p[1])
                    pytest.fail(f"{v!r} spelled {g!r}, %.12g gives {w!r}")
        # Every tie went to %.12g, and most floats did not.
        assert set(x[:ties].tolist()) <= set(fallback)
        assert len(fallback) < len(x) // 10


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
            assert out.read_text() == "".join(cli._sweep_csv(
                sweep_curve(fix, "lambda2_1", 0, 1, 3)))


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


def _seeded_strength_pairs():
    rng = np.random.default_rng(34)
    exact = ["0", "1", repr(2 ** -0.5)]
    return [tuple(str(rng.choice(exact)) if rng.uniform() < 1 / 3 else repr(rng.uniform())
                  for _ in range(2)) for _ in range(50)]


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

    # (1, 1) is degenerate: Charlie's ellipsoid is flat, with volume 0.  A
    # third of the seeded strengths are 0, 1 or 2**-0.5, where semiaxes tie.
    @pytest.mark.parametrize("lam1, lam2", [("0.70710678", "0.9"), ("0.5", "0.5"),
                                            ("0", "0"), ("1", "1")] + _seeded_strength_pairs())
    def test_text_equals_indented_json_dumps(self, capsys, tmp_path, lam1, lam2):
        out_file = tmp_path / "ell.json"
        code, _, err = run_cli(capsys, "ellipsoids", "--lambda1", lam1,
                               "--lambda2", lam2, "--out", str(out_file))
        assert (code, err) == (0, "")
        (e,) = ellipsoid_series([(float(lam1), float(lam2))])
        payload = [{"lambda1": float(lam1), "lambda2": float(lam2),
                    "charlie": _ellipsoid_payload(e), "ab": _ellipsoid_payload(e)}]
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


# Strengths at which a run's components are exact: 0 and 1 leave every
# coherence exact, and at 2**-0.5 a strength and its coherence are equal.
# Runs with them give ellipsoids whose semiaxes tie.
_EXACT_STRENGTHS = [0.0, 1.0, 2 ** -0.5]


def _seeded_run_configs():
    """Both modes, 1-4 pairs, final pairs given or omitted, signed x/y/z
    labels (the same axis twice included), the compression key given or
    omitted, and about a third of the strengths from `_EXACT_STRENGTHS`."""
    rng = np.random.default_rng(97)

    def strength():
        return float(rng.choice(_EXACT_STRENGTHS)) if rng.uniform() < 1 / 3 \
            else float(rng.uniform())

    configs = []
    for k in range(480):
        mode = ("nonlocal", "local")[k % 2]
        pairs = k // 2 % 4 + 1
        given = pairs - (k // 8 % 2) if pairs > 1 else 1
        labels = ["x", "-x", "y", "-y"] + (["z", "-z"] if mode == "nonlocal" else [])
        strengths = [strength() if rng.uniform() < 0.5 else [strength(), strength()]
                     for _ in range(given)]
        configs.append({"mode": mode, "pairs": pairs, "strengths": strengths,
                        "charlie_directions": rng.choice(labels, 2).tolist(),
                        **({"compression": "00,11"} if k % 3 else {})})
    return configs


# Where GHZ's Pauli components are nonzero in a 3-qubit matrix: the real
# diagonal (I and Z products) and anti-diagonal (X and Y-Y-X products).
_GHZ_SUPPORT = np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1]


def test_ghz_support_is_the_states_support():
    assert np.array_equal(states.SUPPORT, _GHZ_SUPPORT) and not states.SUPPORT.flags.writeable


def _ellipsoid_payload(e):
    """The `--out` JSON of one ellipsoid: orientation rows are its axes."""
    return e and {"center": e.center.tolist(), "matrix": e.matrix.tolist(),
                  "semiaxes": e.semiaxes.tolist(), "orientation": e.orientation.T.tolist(),
                  "volume": e.volume}


def _run_payload(results):
    return [{"pair": r.pair, "steering_value": r.steering_value,
             "state": {"qubits": r.state.qubits, "re": r.state.mat.real.tolist(),
                       "im": r.state.mat.imag.tolist()},
             "charlie_ellipsoid": _ellipsoid_payload(r.ellipsoid),
             "ab_ellipsoid": _ellipsoid_payload(r.ellipsoid)}
            for r in results]


def _python(code, *argv):
    """Run `code` in a fresh interpreter that imports this steershare."""
    env = dict(os.environ, PYTHONPATH=str(Path(steershare.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)


class TestRunOut:
    def test_text_equals_indented_json_dumps(self, capsys, tmp_path):
        # `steershare run` spells the arrays `run_scenario` builds its
        # objects from: both must give the same text.
        cfg_file, out_file = tmp_path / "cfg.json", tmp_path / "out.json"
        configs = _seeded_run_configs()
        layouts, tied = set(), 0
        for cfg in configs:
            cfg_file.write_text(json.dumps(cfg))
            code, out, err = run_cli(capsys, "run", "--config", str(cfg_file),
                                     "--out", str(out_file))
            assert (code, err) == (0, "")
            config = ScenarioConfig.from_json(cfg)
            results = run_scenario(config)
            assert out_file.read_text() == json.dumps(_run_payload(results), indent=2) + "\n"
            assert out == "".join(
                f"pair {r.pair}: S = {r.steering_value:.6f} "
                f"{'>' if r.steering_value > config.bound else '<='} C2\n" for r in results)
            layouts.add((cfg["mode"], cfg["pairs"]))
            tied += sum(bool((np.diff(r.ellipsoid.semiaxes) >= -DEGENERACY_TOL).any())
                        for r in results if r.ellipsoid)
        assert len(layouts) == 8 and tied >= 100
        assert {(c["mode"], c.get("compression")) for c in configs} == {
            (mode, compression) for mode in ("nonlocal", "local")
            for compression in ("00,11", None)}

    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    def test_special_floats_spelled_as_json_dumps(self, capsys, tmp_path, monkeypatch,
                                                  mode):
        """NaN, +-Infinity and -0.0 in every kind of spelled field: steering
        values, state entries in the support of GHZ's Pauli components (the
        diagonal and anti-diagonal of the real part), each together with its
        mirror entry, [7-j, 7-j] or [7-j, j], which a run state holds equal
        and `--out` spells once, and each ellipsoid field but the centre and
        the off-diagonal matrix entries.  They enter through the run's float
        loop: its steering values, each pair's entries and each pair's
        ellipsoid row.
        The other slots hold a literal 0.0, which no run can leave anything
        else in (`test_literal_slot_must_hold_positive_zero`)."""
        specials = [float("nan"), float("inf"), float("-inf"), -0.0]
        rng = np.random.default_rng(41)

        def spiked(a):
            a = a.copy()
            idx = rng.choice(a.size, min(a.size, len(specials)), replace=False)
            a[idx] = rng.permutation(specials)[:len(idx)]
            return a

        def state(e):  # DensityMatrix would reject non-finite entries
            mat, j = np.zeros((8, 8), dtype=complex), np.arange(4)
            mat.real[j, j] = mat.real[7 - j, 7 - j] = e[:4]
            mat.real[j, 7 - j] = mat.real[7 - j, j] = e[4:]
            dm = object.__new__(DensityMatrix)
            object.__setattr__(dm, "qubits", 3)
            object.__setattr__(dm, "mat", mat)
            return dm

        def ell(row):  # the floats of an ellipsoid row, in its order
            return SteeringEllipsoid(np.zeros(3), np.diag(row[:3]), row[3:6],
                                     row[6:15].reshape(3, 3).T, float(row[15]))

        cfg = {"mode": mode, "pairs": 4, "strengths": [0.5, [0.3, 0.8], 0.9]}
        config = ScenarioConfig.from_json(cfg)
        _, components = scenario._run_components(config)
        entries = np.stack([spiked(e) for e in stack_entries(np.array(components))])
        rows = steering._ellipsoid_rows(stack_diagonals(np.array(components)))
        rows = np.stack([np.hstack([spiked(r[:3]), spiked(r[3:6]), spiked(r[6:15]), x])
                         for r, x in zip(rows, specials)])
        results = [PairResult(i, x, state(e), ell(r) if mode == "nonlocal" else None)
                   for i, x, e, r in zip(range(1, 5), specials, entries, rows)]
        pair_entries, pair_rows = iter(entries.tolist()), iter(rows.tolist())
        monkeypatch.setattr(scenario, "_run_components", lambda _cfg: (specials, components))
        monkeypatch.setattr(scenario, "_state_entries", lambda _c: next(pair_entries))
        monkeypatch.setattr(scenario, "_ellipsoid_row", lambda _d: next(pair_rows))
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

    # Per literal-slot field: the GHZ component of a run whose products lie
    # nearest it: ZZI on the diagonal of the state's real part, the Y-Y
    # product XYY, made of imaginary sigma_y entries, IZZ, Charlie's z
    # correlation, beside the centre (Charlie's Bloch vector), and XXX, the
    # first entry of the ellipsoid matrix's diagonal.
    _LITERAL_SOURCES = {"re": 7, "im": 3, "center": 1, "matrix": 2}

    @pytest.mark.parametrize("value", [1e-300, -0.0, float("nan")])
    @pytest.mark.parametrize("field", ["re", "im", "center", "matrix"])
    def test_literal_slot_must_hold_positive_zero(self, capsys, tmp_path, monkeypatch,
                                                  field, value):
        """A literal 0.0 slot holds +0.0 because no run gets a float there:
        a run holds only GHZ's components, whose states are +0.0 off
        `SUPPORT` and whose ellipsoids are centred and diagonal.  A value
        added to pair 2's component that moves it by less than its rounding
        (1e-300, -0.0) leaves the bytes of the run without it; a NaN is
        refused by the run's check, `states._state_entries` (exit 2, one
        `error:` line, no file)."""
        cfg_file, out_file = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_file.write_text('{"pairs": 3, "strengths": [0.5, 0.8]}')
        assert run_cli(capsys, "run", "--config", str(cfg_file), "--out", str(out_file))[0] == 0
        clean, component = out_file.read_bytes(), self._LITERAL_SOURCES[field]
        out_file.unlink()
        real = scenario._run_components

        def faulty(cfg):
            values, c = real(cfg)
            c[1][component] += value  # pair 2's, which its ellipsoid shares
            return values, c

        monkeypatch.setattr(scenario, "_run_components", faulty)
        code, out, err = run_cli(capsys, "run", "--config", str(cfg_file),
                                 "--out", str(out_file))
        if value == value:  # 1e-300, -0.0
            assert (code, err) == (0, "") and out_file.read_bytes() == clean
            return
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: negative eigenvalue nan"]
        assert not out_file.exists()

    def test_three_nonlocal_pairs_spell_75_floats(self):
        # 1 steering value, 8 distinct state entries and 16 shared ellipsoid
        # floats per pair fill 1 + 16 + 2 * 16 slots.
        floats = scenario._run_rows(ScenarioConfig.from_json({"pairs": 3,
                                                              "strengths": [0.5, 0.8]}))
        pieces, slots = cli._run_layout(3, True)
        assert len(floats) == 75 and all(type(x) is float for x in floats)
        assert len(pieces) - 1 == len(slots(range(75))) == 147

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


# Strengths a third of the pinned configs' strengths come from: 0, 1 and
# 2**-0.5 make coherences exact, 0.5 is exact, 5e-324, the least
# subnormal, squares to 0, and -0.0 lies in [0, 1] and makes -0.0 products.
_PIN_STRENGTHS = [0.0, 1.0, 2 ** -0.5, 0.5, 5e-324, -0.0]


def _pinned_run_configs():
    """600 seeded configs: both modes, 1-4 pairs, the final pair omitted in
    about a third, the z/-x directions in every fifth, and a few that fail:
    a z setting in a local run or a strength past 1."""
    rng = np.random.default_rng(3500)

    def strength():
        return float(rng.choice(_PIN_STRENGTHS)) if rng.uniform() < 1 / 3 \
            else float(rng.uniform())

    configs = []
    for k in range(600):
        mode = ("nonlocal", "local")[k % 2]
        pairs = k // 2 % 4 + 1
        given = pairs - int(rng.uniform() < 1 / 3)
        labels = ["x", "-x", "y", "-y"] + (["z", "-z"] if mode == "nonlocal" or k % 20 == 1
                                           else [])
        strengths = [strength() if rng.uniform() < 0.5 else [strength(), strength()]
                     for _ in range(given)]
        if k % 50 == 7 and strengths:
            strengths[-1] = 1.5
        configs.append({"mode": mode, "pairs": pairs, "strengths": strengths,
                        "charlie_directions": ["z", "-x"] if k % 5 == 0 and mode == "nonlocal"
                        else rng.choice(labels, 2).tolist()})
    return configs


class TestRunPin:
    def test_seeded_runs_keep_their_bytes(self, capsys, tmp_path):
        # The exit status, stdout, stderr and `--out` bytes of every pinned
        # config, hashed in turn: any moved bit of any run changes the digest.
        cfg_file, out_file = tmp_path / "cfg.json", tmp_path / "out.json"
        digest, codes = hashlib.sha256(), set()
        for cfg in _pinned_run_configs():
            cfg_file.write_text(json.dumps(cfg))
            code, out, err = run_cli(capsys, "run", "--config", str(cfg_file),
                                     "--out", str(out_file))
            text = out_file.read_bytes() if out_file.exists() else b"no file"
            out_file.unlink(missing_ok=True)
            digest.update(f"{code}\0{out}\0{err}\0".encode() + text + b"\0")
            codes.add(code)
        assert codes == {0, 2}
        assert digest.hexdigest() == \
            "d50ca4b817b7cd6fe2b5591f091f5c8e34922ddca8b5380e9f17ca3580b21234"


def _numpy_calls(call, after):
    """The numpy functions, Python or C, that `call()` calls once the code
    object `after` has first returned."""
    calls, window = [], []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is after:
            window.append(True)
        elif window and event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.split(".")[0] == "numpy":
                calls.append(f"{module}.{frame.f_code.co_name}")
        elif window and event == "c_call":  # a bound method's module is its owner's
            module = getattr(arg, "__module__", None) or type(arg.__self__).__module__
            if module.split(".")[0] == "numpy":
                calls.append(f"{module}.{arg.__name__}")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


class TestRunNoNumpy:
    def test_no_numpy_call_between_config_and_write(self, capsys, tmp_path):
        # `steershare run` computes and spells its floats in Python floats:
        # from the config parse to the written `--out` file and stdout, no
        # numpy function is called, once the layout and plan caches are
        # filled.  The probe sees the calls `run_scenario` makes.
        cfg_file, out_file = tmp_path / "cfg.json", tmp_path / "out.json"
        parsed = ScenarioConfig.from_json.__func__.__code__
        argv = ["run", "--config", str(cfg_file), "--out", str(out_file)]
        layouts = set()
        for cfg in _seeded_run_configs()[:32] + [{"pairs": 4, "strengths": [0, 1, 0]}]:
            cfg_file.write_text(json.dumps(cfg))
            assert main(argv) == 0
            assert _numpy_calls(lambda: main(argv), parsed) == []
            layouts.add((cfg.get("mode", "nonlocal"), cfg["pairs"]))
        capsys.readouterr()
        assert len(layouts) == 8
        assert "numpy.array" in _numpy_calls(lambda: run_scenario(ScenarioConfig.from_json(cfg)),
                                             parsed)


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
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
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
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
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


class TestBatchedWrites:
    """`--out` text goes to `os.write` in batches of at least
    `cli.WRITE_BATCH` bytes, each written whole however short the writes
    the system makes."""

    _ARGVS = {
        "run": ("run", "--config", "CONFIG"),
        "ellipsoids": ("ellipsoids", "--lambda1", "0.3", "--lambda2", "0.9"),
        "scan": ("scan", "--grid", "50"),  # 297 kB in 3 chunks: two batches
        "sweep": ("sweep", "--vary", "lambda_1", "--from", "0", "--to", "1",
                  "--samples", "3000"),  # 224 kB in 3 chunks: two batches
    }

    def _argv(self, tmp_path, name):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"pairs": 4, "strengths": [0.3, [0.5, 0.6], 0.7]}')
        return [str(cfg_file) if a == "CONFIG" else a for a in self._ARGVS[name]]

    def _count_writes(self, monkeypatch, most=None):
        """Patch `os.write` to take at most `most` bytes a call; returns the
        list of the byte counts it took."""
        write, taken = os.write, []

        def short_write(fd, data):
            taken.append(write(fd, data[:most]))
            return taken[-1]

        monkeypatch.setattr(cli.os, "write", short_write)
        return taken

    @pytest.mark.parametrize("name", list(_ARGVS))
    def test_seven_byte_writes_give_the_same_bytes(self, capsys, tmp_path, monkeypatch, name):
        argv, fresh, short = self._argv(tmp_path, name), tmp_path / "fresh", tmp_path / "short"
        assert run_cli(capsys, *argv, "--out", str(fresh))[0] == 0
        taken = self._count_writes(monkeypatch, most=7)
        assert run_cli(capsys, *argv, "--out", str(short))[0] == 0
        assert short.read_bytes() == fresh.read_bytes()
        assert sum(taken) == fresh.stat().st_size and max(taken) == 7

    @pytest.mark.parametrize("name", list(_ARGVS))
    def test_batches(self, capsys, tmp_path, monkeypatch, name):
        argv, out = self._argv(tmp_path, name), tmp_path / "out"
        taken = self._count_writes(monkeypatch)
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        assert sum(taken) == out.stat().st_size
        assert len(taken) == (2 if name in ("scan", "sweep") else 1)
        assert min(taken[:-1], default=cli.WRITE_BATCH) >= cli.WRITE_BATCH

    def test_grid_32_scan_writes_at_most_twice(self, capsys, tmp_path, monkeypatch):
        taken = self._count_writes(monkeypatch)
        assert run_cli(capsys, "scan", "--grid", "32", "--out", str(tmp_path / "out"))[0] == 0
        assert 1 <= len(taken) <= 2

    def test_int_steering_value_spelled_as_float(self, capsys, tmp_path, monkeypatch):
        # The text json.dumps gives the payload with 1.0, as for any float.
        real = scenario._run_components
        monkeypatch.setattr(scenario, "_run_components", lambda cfg: (
            [1] * cfg.pairs, real(cfg)[1]))
        argv, out = self._argv(tmp_path, "run"), tmp_path / "out.json"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, err) == (0, "") and stdout.count("S = 1.000000 > C2") == 4
        cfg = ScenarioConfig.from_json(json.loads(Path(argv[2]).read_text()))
        payload = [dict(item, steering_value=1.0) for item in _run_payload(run_scenario(cfg))]
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"
        assert out.read_text().count('"steering_value": 1.0,') == 4


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
