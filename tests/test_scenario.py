import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from steershare import scenario
from steershare.errors import ConfigError, ShapeError
from steershare.scenario import (
    MAX_GRID_RESOLUTION,
    MAX_SAMPLES,
    SQRT_HALF,
    ScanTable,
    ScenarioConfig,
    charlie_operator,
    ellipsoid_series,
    iter_csv,
    make_config,
    max_simultaneous_pairs,
    run_scenario,
    scan_region,
    simultaneous_window,
    sweep_curve,
)
from steershare.states import DensityMatrix
from steershare.steering import StrengthHistory, classical_bound, closed_form_local, \
    closed_form_nonlocal

from oracles import ORACLE_TOL, bloch_form, chain, compress, ellipsoid


def _csv(table, kind):
    """The whole CSV text of a table."""
    return "".join(iter_csv(table, kind))


def _kraus_chain(cfg):
    """Per pair: S, the post-update 8x8 state and the (Charlie, AB)
    ellipsoids, from the Kraus oracle, then compress + bloch_form."""
    h = cfg.strengths
    out = []
    for s, mat in chain(cfg.mode, cfg.charlie_directions, h.lambdas, h.etas, h.gammas):
        rho = DensityMatrix(3, mat)
        ells = (None, None)
        if cfg.mode == "nonlocal":
            form = bloch_form(compress(rho)[0])
            ells = (ellipsoid(form, "charlie"), ellipsoid(form, "ab"))
        out.append((s, rho, ells))
    return out


class TestScenarioConfig:
    def test_json_round_trip(self):
        cfg = make_config("nonlocal", [[0.5, 0.7], 0.8], pairs=3)
        assert cfg == ScenarioConfig.from_json({"mode": "nonlocal", "pairs": 3,
                                                "strengths": [[0.5, 0.7], 0.8]})
        assert cfg.strengths.lambdas == ((0.5, 0.7), (0.8, 0.8), (1.0, 1.0))

    def test_final_pair_defaults_sharp(self):
        cfg = ScenarioConfig.from_json({"mode": "nonlocal", "pairs": 2,
                                        "strengths": [0.5]})
        assert cfg.strengths.lambdas == ((0.5, 0.5), (1.0, 1.0))

    def test_local_mode_uses_sqrt_split(self):
        cfg = ScenarioConfig.from_json({"mode": "local", "pairs": 2,
                                        "strengths": [0.49]})
        assert cfg.strengths.etas[0] == pytest.approx((0.7, 0.7))

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json({"mode": "telepathic", "strengths": [0.5]})

    def test_pairs_accepts_numpy_integers(self):
        cfg = make_config("nonlocal", [[0.5, 0.5]], pairs=np.int64(1))
        assert cfg.pairs == 1

    @pytest.mark.parametrize("mode, directions, message", [
        ("nonlocal", ("x", "q"), "unknown axis label 'q'"),
        ("local", ("x", "z"), "local mode is only defined for x/y settings"),
    ])
    def test_directions_checked_when_built(self, mode, directions, message):
        h = StrengthHistory.local_sqrt([(0.5, 0.5)])
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(h, mode=mode, charlie_directions=directions)

    @pytest.mark.parametrize("pairs", [True, 2.0])
    def test_pairs_rejects_bool_and_float(self, pairs):
        with pytest.raises(ConfigError, match="config key 'pairs' must be of type int"):
            make_config("nonlocal", [[0.5, 0.5]], pairs=pairs)

    def test_rejects_too_many_pairs(self):
        with pytest.raises(ConfigError):
            make_config("nonlocal", [0.5] * 5)

    @pytest.mark.parametrize("first", ["x", "-x", "y", "-y", "z", "-z"])
    @pytest.mark.parametrize("second", ["x", "-x", "y", "-y", "z", "-z"])
    def test_bound_is_classical_bound_of_settings(self, first, second):
        cfg = make_config("nonlocal", [0.5], charlie_directions=(first, second))
        ops = [charlie_operator(first), charlie_operator(second)]
        assert cfg.bound == pytest.approx(classical_bound(ops), abs=1e-12)
        assert cfg.bound == (1.0 if first[-1] == second[-1] else SQRT_HALF)


class TestRunScenario:
    def test_headline_nonlocal(self):
        results = run_scenario(make_config("nonlocal", [0.5, 0.8]))
        assert results[0].steering_value == pytest.approx(0.5, abs=1e-12)
        assert results[1].steering_value == pytest.approx(0.74641016, abs=1e-8)

    def test_headline_local(self):
        results = run_scenario(make_config("local", [0.5, 0.8]))
        assert results[1].steering_value == pytest.approx(0.68284271, abs=1e-8)
        assert results[1].charlie_ellipsoid is None

    def test_single_sharp_pair(self):
        results = run_scenario(make_config("nonlocal", [1.0]))
        assert results[0].steering_value == pytest.approx(1.0, abs=1e-12)

    def test_ellipsoid_from_zero_strength_pair(self):
        result = run_scenario(make_config("nonlocal", [0.0]))[0]
        assert np.allclose(result.charlie_ellipsoid.semiaxes, 1, atol=1e-10)
        assert result.charlie_ellipsoid.volume == pytest.approx(1.0, abs=1e-10)

    def test_matches_closed_forms(self):
        cfg = make_config("nonlocal", [[0.3, 0.6], [0.7, 0.2], 0.9])
        results = run_scenario(cfg)
        for i, r in enumerate(results, start=1):
            assert r.steering_value == pytest.approx(
                closed_form_nonlocal(cfg.strengths, i), abs=1e-10)

    def test_results_compare_by_state_identity(self):
        a, b = (run_scenario(make_config("nonlocal", [0.5, 0.8])) for _ in range(2))
        assert a[0] != b[0] and a[0] == a[0]
        table = scan_region(2, 3, "compare")
        assert table == table and table != scan_region(2, 3, "compare")

    def test_matches_kraus_chain(self):
        rng = np.random.default_rng(61)
        worst = 0.0
        for trial in range(48):
            mode = ("nonlocal", "local")[trial % 2]
            labels = ("x", "-x", "y", "-y") + (("z", "-z") if mode == "nonlocal" else ())
            pairs = trial // 2 % 4 + 1
            cfg = make_config(mode, [list(rng.uniform(0, 1, 2)) for _ in range(pairs)],
                              charlie_directions=tuple(rng.choice(labels, 2)))
            for r, (s, rho, ells) in zip(run_scenario(cfg), _kraus_chain(cfg)):
                worst = max(worst, abs(r.steering_value - s),
                            np.max(np.abs(r.state.mat - rho.mat)))
                for got, want in zip((r.charlie_ellipsoid, r.ab_ellipsoid), ells):
                    if want is None:
                        assert got is None
                        continue
                    worst = max(worst, np.max(np.abs(got.matrix - want.matrix)),
                                np.max(np.abs(got.center - want.center)),
                                abs(got.volume - want.volume))
        assert worst <= ORACLE_TOL


def _cell(table, lambda1, lambda2):
    """Row index of the grid cell at (lambda1, lambda2), to 3 decimals."""
    (k,) = np.flatnonzero((np.round(table.params["lambda1"], 3) == lambda1)
                          & (np.round(table.params["lambda2"], 3) == lambda2))
    return k


class TestScanRegion:
    def test_pair_one_boundary_shared(self):
        table = scan_region(pairs=1, resolution=21, mode="compare")
        # First pair: local and nonlocal parameters coincide exactly.
        assert np.all(np.abs(table.s[0] - table.st[0]) <= 1e-14)

    def test_region_one_cell(self):
        table = scan_region(pairs=2, resolution=11, mode="compare")
        k = _cell(table, 0.5, 0.8)
        assert table.s[1][k] > SQRT_HALF >= table.st[1][k]
        assert table.region[k] == "I"

    def test_outside_all_regions(self):
        table = scan_region(pairs=2, resolution=101, mode="compare")
        k = _cell(table, 0.99, 0.99)
        assert table.s[1][k] < SQRT_HALF and table.st[1][k] < SQRT_HALF
        assert table.region[k] == ""

    def test_local_success_nested_in_nonlocal(self):
        table = scan_region(pairs=3, resolution=41, mode="compare")
        for i in (1, 2):
            assert np.all(table.s[i][table.st[i] > SQRT_HALF] > SQRT_HALF)

    def test_labels_consistent(self):
        table = scan_region(pairs=3, resolution=17, mode="compare")
        for k in range(len(table)):
            expect = []
            if table.s[1][k] > SQRT_HALF >= table.st[1][k]:
                expect.append("I")
            if table.s[2][k] > SQRT_HALF >= table.st[2][k]:
                expect.append("II")
            assert table.region[k] == "+".join(expect)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigError):
            scan_region(resolution=1)


class TestSweepCurve:
    def test_window_case_iii(self):
        table = sweep_curve({"lambda1_1": SQRT_HALF}, "lambda2_1", 0.6, 1.0, 81,
                            mode="nonlocal")
        inside = table.params["param"][(table.s[0] > SQRT_HALF)
                                       & (table.s[1] > SQRT_HALF)]
        assert min(inside) > SQRT_HALF
        assert 0.985 < max(inside) < 0.9926135

    def test_compare_includes_local(self):
        table = sweep_curve({"lambda1_1": SQRT_HALF}, "lambda2_1", 0.7, 0.9, 5)
        assert len(table) == 5
        assert len(table.s) == 2 and len(table.st) == 2
        assert all(len(col) == 5 for col in table.s + table.st)

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            sweep_curve({}, "kappa_1", 0, 1, 5)

    def test_deterministic_csv(self):
        a = _csv(sweep_curve({"lambda_1": 0.4}, "lambda2_2", 0, 1, 30),
                           "sweep")
        b = _csv(sweep_curve({"lambda_1": 0.4}, "lambda2_2", 0, 1, 30),
                           "sweep")
        assert a == b

    def test_csv_schema(self):
        table = sweep_curve({}, "lambda_1", 0, 1, 3, mode="nonlocal")
        lines = _csv(table, "sweep").splitlines()
        assert lines[0] == "param,S1,S2,St1,St2"
        assert lines[1].endswith(",,")  # St columns empty in nonlocal mode


class TestScanCsv:
    def test_schema_and_determinism(self):
        table = scan_region(pairs=3, resolution=5, mode="compare")
        text = _csv(table, "scan")
        lines = text.splitlines()
        assert lines[0] == "lambda1,lambda2,S1,S2,S3,St1,St2,St3,region"
        assert len(lines) == 26
        assert text == _csv(scan_region(pairs=3, resolution=5,
                                                  mode="compare"), "scan")


class TestGoldenOutputs:
    # sha256 digests of the CSV bytes written by the per-history closed-form
    # loops that the array kernel replaced; the kernel must reproduce them.
    def test_scan_csv_bytes(self):
        text = _csv(scan_region(3, 41, "compare"), "scan")
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "b97fab1ef4b004c6057cef807175b3707ee2f0a5e754c66733db395bdc8e36ce"

    def test_readme_sweep_csv_bytes(self):
        table = sweep_curve({"lambda1_1": 0.70710678}, "lambda2_1", 0.6, 1.0, 81)
        assert hashlib.sha256(_csv(table, "sweep").encode()).hexdigest() == \
            "0a74f248f8f53dab0de976f23fb37cd0934eb9dcc556031bc4365e9b6efadb3d"

    # Digests below were taken from the per-cell record writer that the
    # column tables replaced; the tables must reproduce its bytes.
    def test_readme_scan_csv_bytes(self):
        # `steershare scan --pairs 3 --mode compare --grid 400`: 19,373,343 bytes.
        data = _csv(scan_region(3, 400, "compare"), "scan").encode()
        assert len(data) == 19_373_343
        assert hashlib.sha256(data).hexdigest() == \
            "82f65ef2765ac0b3e468f7da79e5690bde066ee5ba259097eb742ef04c0b7eb7"

    @pytest.mark.parametrize("mode, pairs, digest", [
        ("nonlocal", 1, "7cfcafa6ab8caf4a4f82f9b7b2d44e31fb302a63f0ae8d82831f32ae0113ffb6"),
        ("nonlocal", 2, "bb7fc528b70e00afc889fa6956e5cb213d9583c77a50c75975d721b147b5d3ea"),
        ("nonlocal", 3, "13b8f8f3423761592f51f113db11c7f45e347b8f08d1be0c303eadc2dd29d3bf"),
        ("local", 1, "c5790d8f552c2a7d7193cad948c25208af9cfb15c115b92a3ce69ca2726d035a"),
        ("local", 2, "f392e56039135b7e18606e0083555c701992518f0752ecd3c0869cbe6e6a905f"),
        ("local", 3, "9e9a827b3ea04a78d58a449d914f181f0912ec4f80dc26690ff8de2790a6d56f"),
        ("compare", 1, "49a24521045c4febb6fbe554c58c94d84297537d5824cb40bad12a2fd9b02923"),
        ("compare", 2, "fe56acae1b81c14690f4d0d51f2aeeca8b34b098a5368e27691544fc598306c5"),
        ("compare", 3, "dcfc3e6bf2eed8e8832ab00c17598f7cc40526d2af98bfb8a92a95ca97e2601c"),
    ])
    def test_small_scan_csv_bytes(self, mode, pairs, digest):
        text = _csv(scan_region(pairs, 7, mode), "scan")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("mode, pairs, digest", [
        ("nonlocal", 3, "2aa6ea2d1c48847843ec4131d5f914a9e4463c90d886b02b11c2cb100492c40a"),
        ("nonlocal", 4, "2aa6ea2d1c48847843ec4131d5f914a9e4463c90d886b02b11c2cb100492c40a"),
        ("local", 3, "d3cbee8abe8dd3a68a8d27de6439113784a4afe3ccb9596d4722eb83b5cc4357"),
        ("local", 4, "d3cbee8abe8dd3a68a8d27de6439113784a4afe3ccb9596d4722eb83b5cc4357"),
    ])
    def test_one_mode_sweep_csv_bytes(self, mode, pairs, digest):
        # One mode leaves the St (nonlocal) or S (local) columns empty; the
        # sweep CSV holds pairs 1 and 2 only, so 3 and 4 pairs match.
        table = sweep_curve({"lambda1_1": 0.6, "lambda_2": 0.8}, "lambda2_1", 0, 1, 9,
                            pairs=pairs, mode=mode)
        text = _csv(table, "sweep")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_columns_are_float64_arrays(self):
        for table, rows in ((scan_region(2, 3, "compare"), 9),
                            (sweep_curve({}, "lambda_1", 0, 1, 3), 3)):
            assert len(table) == rows
            for col in [*table.params.values(), *table.s, *table.st]:
                assert isinstance(col, np.ndarray)
                assert col.dtype == np.float64 and col.shape == (rows,)
            assert table.region.shape == (rows,)
            assert all(type(label) is str for label in table.region.tolist())


def _head(table: ScanTable, rows: int) -> ScanTable:
    """The first `rows` rows of `table`."""
    return ScanTable(params={k: v[:rows] for k, v in table.params.items()},
                     s=[c[:rows] for c in table.s], st=[c[:rows] for c in table.st],
                     region=table.region[:rows])


class TestCsvBlocks:
    """`iter_csv` yields the header, then blocks of at most CSV_BLOCK_ROWS rows
    that join to the one-block text (pinned by the digests above)."""

    B = 4

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("mode", ["nonlocal", "local", "compare"])
    @pytest.mark.parametrize("kind", ["scan", "sweep"])
    def test_blocks_join_to_one_block_text(self, monkeypatch, kind, mode, rows):
        full = (scan_region(3, 5, mode) if kind == "scan" else
                sweep_curve({"lambda1_1": 0.6, "lambda_2": 0.8}, "lambda2_1", 0, 1, 9,
                            pairs=3, mode=mode))
        table = _head(full, rows)
        assert len(table) == rows < scenario.CSV_BLOCK_ROWS
        whole = _csv(table, kind)  # one block at the default size
        monkeypatch.setattr(scenario, "CSV_BLOCK_ROWS", self.B)
        chunks = list(iter_csv(table, kind))
        assert "".join(chunks) == whole
        assert len(chunks) == 1 + -(-rows // self.B)
        assert chunks[0] == whole.partition("\n")[0] + "\n"
        assert all(c.count("\n") == self.B for c in chunks[1:-1])

    @pytest.mark.parametrize("block, kind, digest", [
        (24, "scan", "dcfc3e6bf2eed8e8832ab00c17598f7cc40526d2af98bfb8a92a95ca97e2601c"),
        (40, "sweep", "0a74f248f8f53dab0de976f23fb37cd0934eb9dcc556031bc4365e9b6efadb3d"),
    ])
    def test_blocked_text_keeps_digest(self, monkeypatch, block, kind, digest):
        # 49 grid-7 scan rows and 81 README sweep rows: 2 * block + 1 each.
        table = (scan_region(3, 7, "compare") if kind == "scan" else
                 sweep_curve({"lambda1_1": 0.70710678}, "lambda2_1", 0.6, 1.0, 81))
        monkeypatch.setattr(scenario, "CSV_BLOCK_ROWS", block)
        chunks = list(iter_csv(table, kind))
        assert len(chunks) == 4
        assert hashlib.sha256("".join(chunks).encode()).hexdigest() == digest

    def test_unknown_kind_raises_on_call(self):
        with pytest.raises(ConfigError, match="unknown CSV kind 'bogus'"):
            iter_csv(scan_region(2, 3, "compare"), "bogus")
        with pytest.raises(ConfigError, match=r"a sweep CSV needs parameter columns \['param'\]"):
            iter_csv(scan_region(2, 3, "compare"), "sweep")


_HISTORY = StrengthHistory.nonlocal_history([(0.5, 0.8), (1.0, 1.0)])
_MODES = np.array(["compare", "local"])  # a numpy array is not one mode


class TestInputValidation:
    def test_sweep_rejects_out_of_range(self):
        with pytest.raises(ConfigError, match=r"strengths \(1.25, 1.25\) outside"):
            sweep_curve({}, "lambda_1", 0.5, 1.5, 5)
        with pytest.raises(ConfigError, match="outside"):
            sweep_curve({"lambda2_2": float("nan")}, "lambda_1", 0, 1, 3, mode="local")

    def test_scan_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode 'bogus'"):
            scan_region(2, 3, mode="bogus")

    def test_sweep_rejects_fixed_varied_parameter(self):
        with pytest.raises(ConfigError,
                           match="parameter 'lambda_1' is both varied and fixed"):
            sweep_curve({"lambda_1": 0.3}, "lambda_1", 0, 1, 3)

    @pytest.mark.parametrize("fixed, vary, pair", [
        ({"lambda_1": 0.5}, "lambda1_1", ("lambda_1", "lambda1_1", "lambda1_1")),
        ({"lambda1_1": 0.3}, "lambda_1", ("lambda1_1", "lambda_1", "lambda1_1")),
        ({"lambda2_2": 0.3, "lambda_2": 0.5}, "lambda1_1",
         ("lambda2_2", "lambda_2", "lambda2_2")),
    ])
    def test_sweep_rejects_overlapping_ids(self, fixed, vary, pair):
        first, second, target = pair
        with pytest.raises(ConfigError, match=f"^parameters '{first}' and '{second}' "
                                              f"both set {target}$"):
            sweep_curve(fixed, vary, 0, 1, 3)

    def test_sweep_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode 'bogus'"):
            sweep_curve({}, "lambda_1", 0, 1, 3, mode="bogus")

    @pytest.mark.parametrize("mode", ["bogus", "compare"])
    def test_max_pairs_rejects_mode(self, mode):
        with pytest.raises(ConfigError, match="mode"):
            max_simultaneous_pairs(3, mode=mode)

    @pytest.mark.parametrize("pairs", [0, 4])
    def test_scan_rejects_pair_count(self, pairs):
        with pytest.raises(ConfigError, match=f"pairs={pairs} outside"):
            scan_region(pairs, 3)

    @pytest.mark.parametrize("pairs", [0, 5])
    def test_sweep_rejects_pair_count(self, pairs):
        with pytest.raises(ConfigError, match=f"pairs={pairs} outside"):
            sweep_curve({}, "lambda_1", 0, 1, 3, pairs=pairs)

    @pytest.mark.parametrize("call, message", [
        (lambda: scan_region(pairs=2.5), "pairs=2.5 outside supported scan range 1..3"),
        (lambda: scan_region(pairs=True), "pairs=True outside supported scan range 1..3"),
        (lambda: scan_region(resolution=4.5),
         f"grid resolution 4.5 outside supported range 2..{MAX_GRID_RESOLUTION}"),
        (lambda: max_simultaneous_pairs(resolution=3.5),
         f"grid resolution 3.5 outside supported range 2..{MAX_GRID_RESOLUTION}"),
        (lambda: sweep_curve({}, "lambda_1", 0, 1, 3.5),
         f"samples=3.5 outside supported range 2..{MAX_SAMPLES}"),
        (lambda: sweep_curve({}, "lambda_1", 0, 1, 3, pairs=2.5),
         "pairs=2.5 outside supported range 1..4"),
        (lambda: closed_form_nonlocal(_HISTORY, 1.5), "pair index 1.5 outside history of 2 pairs"),
        (lambda: closed_form_nonlocal(_HISTORY, True),
         "pair index True outside history of 2 pairs"),
    ], ids=["scan-pairs-float", "scan-pairs-bool", "scan-resolution", "max-pairs-resolution",
            "sweep-samples", "sweep-pairs", "closed-form-index-float", "closed-form-index-bool"])
    def test_counts_and_indices_reject_non_integers(self, call, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call()

    def test_counts_and_indices_accept_numpy_integers(self):
        assert scan_region(np.int64(2), np.int32(4)).region.tolist() \
            == scan_region(2, 4).region.tolist()
        assert max_simultaneous_pairs(np.int16(9)) == max_simultaneous_pairs(9)
        sweep = sweep_curve({}, "lambda_1", 0, 1, np.int64(3), pairs=np.int8(2))
        assert [a.tolist() for a in sweep.s] == [a.tolist() for a in
                                                 sweep_curve({}, "lambda_1", 0, 1, 3).s]
        assert closed_form_nonlocal(_HISTORY, np.int64(2)) == closed_form_nonlocal(_HISTORY, 2)

    @pytest.mark.parametrize("fixed, start, stop, message", [
        ({"lambda1_1": "0.5"}, 0.0, 1.0, "lambda1_1='0.5' is not a number"),
        ({"lambda1_1": None}, 0.0, 1.0, "lambda1_1=None is not a number"),
        ({}, None, 1.0, "start=None is not a number"),
        ({}, 0.0, "1", "stop='1' is not a number"),
    ], ids=["fixed-string", "fixed-none", "start-none", "stop-string"])
    def test_sweep_rejects_non_numeric_values(self, fixed, start, stop, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            sweep_curve(fixed, "lambda2_1", start, stop, 3)

    @pytest.mark.parametrize("call, message", [
        (lambda: StrengthHistory((0.5,)),
         "strengths (0.5,) are not a sequence of per-pair sequences"),
        (lambda: StrengthHistory(((0.25, 0.25),), (0.5,), ((0.5, 0.5),)),
         "strengths (0.5,) are not a sequence of per-pair sequences"),
        (lambda: StrengthHistory.nonlocal_history([0.5]),
         "strengths [0.5] are not a sequence of per-pair sequences"),
        (lambda: StrengthHistory.local_sqrt([0.5]),
         "strengths [0.5] are not a sequence of per-pair sequences"),
        (lambda: sweep_curve({1: 0.5}, "lambda_1", 0, 1, 3), "unknown parameter id 1"),
        (lambda: sweep_curve({}, 3, 0, 1, 3), "unknown parameter id 3"),
        (lambda: sweep_curve(None, "lambda_1", 0, 1, 3), "fixed parameters None are not a dict"),
        (lambda: ellipsoid_series([(0.5,)]),
         "every pair needs one strength for each of its two settings"),
        (lambda: ellipsoid_series(0.5), "strengths 0.5 are not a sequence of per-pair sequences"),
        (lambda: make_config("nonlocal", [0.5], charlie_directions="xy"),
         "config key 'charlie_directions' must be of type list, got 'xy'"),
        (lambda: make_config("nonlocal", 0.5),
         "config key 'strengths' must be of type list, got 0.5"),
        (lambda: ScenarioConfig(_HISTORY, charlie_directions="xy"),
         "charlie_directions='xy' is not a tuple"),
        (lambda: ScenarioConfig(strengths=(0.5, 0.5)),
         "strengths=(0.5, 0.5) is not a StrengthHistory"),
    ], ids=["history-pair", "history-etas", "nonlocal-history", "local-sqrt",
            "sweep-fixed-id", "sweep-vary-id", "sweep-fixed-none", "ellipsoid-pair",
            "ellipsoid-scalar", "make-config-directions", "make-config-strengths",
            "config-directions", "config-strengths"])
    def test_wrong_types_raise_config_error(self, call, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, kind, message", [
        (lambda: run_scenario(None), ShapeError, "expected a ScenarioConfig, got NoneType"),
        (lambda: closed_form_nonlocal("x", 1), ShapeError,
         "expected a StrengthHistory, got str"),
        (lambda: closed_form_local(None, 1), ShapeError,
         "expected a StrengthHistory, got NoneType"),
        (lambda: classical_bound(None), ShapeError,
         "settings are not numeric square matrices of one shape"),
        (lambda: StrengthHistory(None), ConfigError,
         "strengths None are not a sequence of per-pair sequences"),
        (lambda: scan_region(2, 3, mode=_MODES), ConfigError, f"unknown mode {_MODES!r}"),
        (lambda: sweep_curve({}, "lambda_1", 0, 1, 3, mode=_MODES), ConfigError,
         f"unknown mode {_MODES!r}"),
        (lambda: max_simultaneous_pairs(3, mode=_MODES), ConfigError,
         f"unknown mode {_MODES!r}"),
        (lambda: ScenarioConfig(_HISTORY, mode=_MODES), ConfigError,
         f"mode={_MODES!r} is not a str"),
        (lambda: sweep_curve({}, "lambda_1", 10 ** 400, 1, 3), ConfigError,
         f"start={10 ** 400} is not a finite float"),
    ], ids=["run-none", "nonlocal-str", "local-none", "bound-none", "history-none",
            "scan-mode-array", "sweep-mode-array", "max-pairs-mode-array",
            "config-mode-array", "sweep-huge-int"])
    def test_junk_objects_raise_steershare_error(self, call, kind, message):
        with pytest.raises(kind) as err:
            call()
        assert str(err.value) == message

    def test_strength_check_names_first_history_then_first_pair(self):
        lam1, lam2 = [np.full(10, 0.5) for _ in range(4)], [np.full(10, 0.5) for _ in range(4)]
        lam1[0][9] = -1.0  # a later history, in an earlier pair
        lam2[3][7] = np.nan
        lam2[1][7] = 1.5
        with pytest.raises(ConfigError, match=r"^strengths \(0\.5, 1\.5\) outside \[0, 1\]$"):
            scenario._check_strengths(lam1, lam2)

    def test_strength_check_peak_memory(self):
        # A stacked float copy of 4 pairs x 2 settings x 1e5 samples is 6.4 MB.
        lam1, lam2 = ([np.full(100_000, 0.5) for _ in range(4)] for _ in range(2))

        def check():
            error = None
            tracemalloc.start()
            try:
                scenario._check_strengths(lam1, lam2)
            except ConfigError as e:
                error = str(e)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak, error

        peak, error = check()
        assert peak < 2e6 and error is None
        lam2[3][-1] = 1.5  # found only after every array is scanned
        peak, error = check()
        assert peak < 2e6 and error == "strengths (0.5, 1.5) outside [0, 1]"


WINDOW_CASES = ("unequal_local", "equal_nonlocal", "unequal_nonlocal")


class TestWindows:
    def test_published_windows(self):
        local = simultaneous_window("unequal_local")
        equal = simultaneous_window("equal_nonlocal")
        unequal = simultaneous_window("unequal_nonlocal")
        for lo, _ in (local, equal, unequal):
            assert lo == pytest.approx(SQRT_HALF, abs=1e-6)
        assert local[1] == pytest.approx(0.9174983, abs=1e-6)
        assert equal[1] == pytest.approx(0.9101797, abs=1e-6)
        assert unequal[1] == pytest.approx(0.9926134, abs=1e-6)

    def test_analytic_cross_checks(self):
        assert simultaneous_window("unequal_nonlocal")[1] == pytest.approx(
            np.sqrt(1 - (2 * np.sqrt(2) - 2 - SQRT_HALF) ** 2), abs=1e-8)
        assert simultaneous_window("equal_nonlocal")[1] == pytest.approx(
            np.sqrt(2 * np.sqrt(2) - 2), abs=1e-8)

    def test_unknown_case(self):
        with pytest.raises(ConfigError):
            simultaneous_window("adaptive")
        with pytest.raises(ConfigError, match=r"^unknown case \['equal_nonlocal'\]$"):
            simultaneous_window(["equal_nonlocal"])

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), True, False, None, "1e-9"])
    def test_rejects_non_positive_tol(self, tol):
        with pytest.raises(ConfigError, match=f"^tol={tol!r} must be a positive number$"):
            simultaneous_window("equal_nonlocal", tol=tol)

    def test_tiny_tol_stops_at_adjacent_floats(self):
        # The ends are exact, so a tol below the float spacing changes nothing.
        his = {"unequal_local": 1 - (2 * np.sqrt(2) - 2 - np.sqrt(1 - SQRT_HALF)) ** 2,
               "equal_nonlocal": np.sqrt(2 * np.sqrt(2) - 2),
               "unequal_nonlocal": np.sqrt(1 - (2 * np.sqrt(2) - 2 - SQRT_HALF) ** 2)}
        for case, hi_want in his.items():
            lo, hi = simultaneous_window(case, tol=1e-300)
            assert abs(lo - SQRT_HALF) <= 1e-15 and abs(hi - hi_want) <= 1e-15

    def test_ends_do_not_depend_on_tol(self):
        for case in WINDOW_CASES:
            ends = {simultaneous_window(case, tol) for tol in (1e-3, 1e-9, 1e-12, 1e-300)}
            assert len(ends) == 1 and ends.pop()[0] == SQRT_HALF

    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_ends_against_kraus_oracle(self, case):
        """Just inside either end both pairs of the Kraus oracle beat 1/sqrt(2);
        just below the lower end pair 1 does not, just above the upper end
        pair 2 does not."""
        mode = case.split("_")[1]
        lo, hi = simultaneous_window(case)

        def beats(l2):
            lam = [(l2 if case == "equal_nonlocal" else SQRT_HALF, l2), (1.0, 1.0)]
            roots = [tuple(np.sqrt(p)) for p in lam] if mode == "local" else None
            return [s > SQRT_HALF for s, _ in chain(mode, ("x", "-y"), lam, roots, roots)]

        assert beats(lo * (1 - 1e-9)) == [False, True]
        assert beats(lo * (1 + 1e-9)) == [True, True]
        assert beats(hi * (1 - 1e-9)) == [True, True]
        assert beats(hi * (1 + 1e-9)) == [True, False]


class TestEllipsoidSeries:
    def test_zero_strength_unit_spheres(self):
        rec = ellipsoid_series([(0.0, 0.0)])[0]
        assert np.allclose(rec.charlie.semiaxes, 1, atol=1e-10)
        assert rec.charlie.volume == pytest.approx(1.0, abs=1e-10)
        assert rec.ab.volume == pytest.approx(1.0, abs=1e-10)

    def test_fixed_first_strength_keeps_one_axis(self):
        series = ellipsoid_series([(SQRT_HALF, l2) for l2 in (0.3, 0.6, 0.9)])
        # The invariant axis lies along Bloch y; pick it by orientation.
        const = [float(r.charlie.semiaxes[np.argmax(np.abs(r.charlie.orientation[1, :]))])
                 for r in series]
        assert np.ptp(const) <= 1e-10
        assert const[0] == pytest.approx(0.85355339, abs=1e-8)

    def test_unequal_volume_decays_slower(self):
        # Along matched lambda2 sweeps, the fixed-lambda1 series keeps more volume.
        lam2s = [0.75, 0.8, 0.85, 0.9]
        unequal = ellipsoid_series([(SQRT_HALF, l2) for l2 in lam2s])
        equal = ellipsoid_series([(l2, l2) for l2 in lam2s])
        drop_unequal = unequal[0].charlie.volume - unequal[-1].charlie.volume
        drop_equal = equal[0].charlie.volume - equal[-1].charlie.volume
        assert drop_unequal < drop_equal


class TestMaxPairs:
    def test_coarse_grid_floor(self):
        assert max_simultaneous_pairs(resolution=2) >= 1

    def test_moderate_grid(self):
        assert max_simultaneous_pairs(resolution=50) == 2

    def test_local_mode(self):
        assert max_simultaneous_pairs(resolution=50, mode="local") == 2


class _Allocating(Exception):
    """Raised in place of `np.linspace`: the call passed every size check."""


class TestSizeLimits:
    """Each limit is accepted and the next size rejected, with `np.linspace`,
    the first allocation of every grid and of an unfixed sweep, replaced so
    that neither side allocates anything."""

    @pytest.fixture(autouse=True)
    def no_linspace(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise _Allocating
        monkeypatch.setattr(np, "linspace", refuse)

    @pytest.mark.parametrize("call, limit, name", [
        (lambda n: scan_region(resolution=n), MAX_GRID_RESOLUTION, "grid resolution {}"),
        (lambda n: max_simultaneous_pairs(resolution=n), MAX_GRID_RESOLUTION,
         "grid resolution {}"),
        (lambda n: sweep_curve({}, "lambda_1", 0.0, 1.0, n, pairs=4), MAX_SAMPLES,
         "samples={}"),
    ], ids=["scan_region", "max_simultaneous_pairs", "sweep_curve"])
    def test_limit_accepted_next_rejected(self, call, limit, name):
        with pytest.raises(_Allocating):
            call(limit)
        for n in (limit + 1, 10 ** 11, 1):
            message = f"{name.format(n)} outside supported range 2..{limit}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                call(n)
