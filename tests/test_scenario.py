import functools
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from steershare import cli, measurement, scenario, states, steering
from steershare.errors import ConfigError, ShapeError
from steershare.scenario import (
    MAX_GRID_RESOLUTION,
    MAX_SAMPLES,
    MAX_SERIES_SAMPLES,
    SQRT_HALF,
    ScanTable,
    ScenarioConfig,
    charlie_operator,
    ellipsoid_series,
    make_config,
    max_simultaneous_pairs,
    run_scenario,
    scan_region,
    simultaneous_window,
    sweep_curve,
)
from steershare.states import DensityMatrix
from steershare.steering import StrengthHistory, classical_bound, closed_form_local, \
    closed_form_nonlocal, closed_forms, coherence

from oracles import ORACLE_TOL, bloch_form, chain, compress, ellipsoid, region_labels, \
    run_grid_deviation, scan_csv, series_grid_deviation, stack_diagonals, stack_entries


def _scan_text(pairs, resolution, mode):
    """The whole `steershare scan` CSV text of a scan."""
    return b"".join(cli._scan_csv(scan_region(pairs, resolution, mode), resolution)).decode()


def _sweep_text(table):
    """The whole `steershare sweep` CSV text of a sweep table."""
    return "".join(cli._sweep_csv(table))


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
        assert results[1].ellipsoid is None

    def test_single_sharp_pair(self):
        results = run_scenario(make_config("nonlocal", [1.0]))
        assert results[0].steering_value == pytest.approx(1.0, abs=1e-12)

    def test_ellipsoid_from_zero_strength_pair(self):
        result = run_scenario(make_config("nonlocal", [0.0]))[0]
        assert np.allclose(result.ellipsoid.semiaxes, 1, atol=1e-10)
        assert result.ellipsoid.volume == pytest.approx(1.0, abs=1e-10)

    def test_matches_closed_forms(self):
        cfg = make_config("nonlocal", [[0.3, 0.6], [0.7, 0.2], 0.9])
        results = run_scenario(cfg)
        for i, r in enumerate(results, start=1):
            assert r.steering_value == pytest.approx(
                closed_form_nonlocal(cfg.strengths, i), abs=1e-10)

    def test_plan_cached_per_mode_and_resolved_axes(self):
        def run(mode, labels):
            run_scenario(make_config(mode, [0.5, 0.8], charlie_directions=labels))

        plans = measurement._setting_plan.cache_info
        run("nonlocal", ("x", "-y"))
        size = plans().currsize
        for labels in [(" X", "-y"), ("-x", "y "), ("x ", " -Y"), ("-X", "Y")]:
            run("nonlocal", labels)  # other spellings of x and -y
        assert plans().currsize == size
        for mode, axes in (("nonlocal", "xyz"), ("local", "xy")):
            for a, b in itertools.product(axes, repeat=2):
                run(mode, (f" {a.upper()}", f"-{b}"))
        assert plans().currsize == 13  # 9 nonlocal and 4 local axis pairs
        masks, read, sign, damping = plan = measurement._setting_plan("local", ("y", "x"))
        for x in plan:  # immutable all through, as every run shares it
            assert isinstance(x, tuple)
        assert all(isinstance(m, tuple) for m in masks)
        assert isinstance(damping, tuple) and all(isinstance(t, tuple) for t in damping)

    def test_results_compare_by_state_identity(self):
        a, b = (run_scenario(make_config("nonlocal", [0.5, 0.8])) for _ in range(2))
        assert a[0] != b[0] and a[0] == a[0]
        table = scan_region(2, 3, "compare")
        assert table == table and table != scan_region(2, 3, "compare")

    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    def test_steering_values_equal_closed_forms_bit_for_bit(self, mode):
        # Exact GHZ components evolved with the closed forms' own products:
        # every value has the closed form's bits, and every state is the
        # Kraus chain's within 1e-15.  Seeded 1-4-pair histories, about 30 %
        # of strengths 0, 1 or 1/sqrt(2), and a sharp final pair in about a
        # third of them.
        rng = np.random.default_rng(3101)
        special = [0.0, 1.0, SQRT_HALF]
        values = 0
        worst = 0.0
        for k in range(400):
            lams = [[float(rng.choice(special)) if rng.uniform() < 0.3 else float(rng.uniform())
                     for _ in range(2)] for _ in range(k % 4 + 1)]
            if k % 3 == 0:
                lams[-1] = [1.0, 1.0]
            cfg = make_config(mode, lams)
            h = cfg.strengths
            want = closed_forms(mode, h.lambdas, (h.lambdas,) if mode == "nonlocal"
                                else (h.etas, h.gammas))
            kraus = chain(mode, cfg.charlie_directions, h.lambdas, h.etas, h.gammas)
            for r, w, (_, rho) in zip(run_scenario(cfg), want, kraus, strict=True):
                assert r.steering_value.hex() == float(w).hex()
                worst = max(worst, np.max(np.abs(r.state.mat - rho)))
                values += 1
        assert values == 1000 and worst <= 1e-15

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
                got = r.ellipsoid
                for want in ells:  # Charlie's and AB's, both the one reported
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

    # (grid, lambda1, lambda2) of the cells within BOUNDARY_TOL of a boundary,
    # whose labels rounding may set: none on these grids.
    _NEAR_BOUNDARY = []

    def test_labels_follow_closed_form_boundaries(self):
        near = []
        for g in [*range(2, 85), 400]:
            grid = np.linspace(0.0, 1.0, g)
            l1, l2 = np.repeat(grid, g), np.tile(grid, g)
            want, close = region_labels(l1, l2)
            near += [(g, a, b) for a, b in zip(l1[close].tolist(), l2[close].tolist())]
            region = scan_region(3, g, "compare").region
            assert np.array_equal(region[~close], want[~close])
        assert near == self._NEAR_BOUNDARY
        # On grid 400, I and II each include the overlap.
        shares = [np.isin(region, labels).mean() for labels in (["I", "I+II"], ["II", "I+II"],
                                                                 ["I+II"])]
        assert np.round(shares, 8).tolist() == [0.0509125, 0.2569625, 0.02104375]

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
        # Pair 1 fixed and pair 3 sharp: their S and S~ are one float each,
        # which fills a column; every column holds each sample's closed forms.
        table = sweep_curve({"lambda_1": 0.4}, "lambda2_2", 0.7, 0.9, 5, pairs=3)
        assert len(table.s) == 3 and len(table.st) == 3
        for k, x in enumerate(table.params["param"].tolist()):
            lams = [(0.4, 0.4), (1.0, x), (1.0, 1.0)]
            for i in range(1, 4):
                for col, f, h in ((table.s, closed_form_nonlocal, StrengthHistory.nonlocal_history),
                                  (table.st, closed_form_local, StrengthHistory.local_sqrt)):
                    assert col[i - 1][k].hex() == f(h(lams), i).hex()

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            sweep_curve({}, "kappa_1", 0, 1, 5)

    def test_deterministic_csv(self):
        a = _sweep_text(sweep_curve({"lambda_1": 0.4}, "lambda2_2", 0, 1, 30))
        b = _sweep_text(sweep_curve({"lambda_1": 0.4}, "lambda2_2", 0, 1, 30))
        assert a == b

    def test_csv_schema(self):
        table = sweep_curve({}, "lambda_1", 0, 1, 3, mode="nonlocal")
        lines = _sweep_text(table).splitlines()
        assert lines[0] == "param,S1,S2,St1,St2"
        assert lines[1].endswith(",,")  # St columns empty in nonlocal mode


class TestScanCsv:
    def test_schema_and_determinism(self):
        text = _scan_text(3, 5, "compare")
        lines = text.splitlines()
        assert lines[0] == "lambda1,lambda2,S1,S2,S3,St1,St2,St3,region"
        assert len(lines) == 26
        assert text == _scan_text(3, 5, "compare")


class TestGoldenOutputs:
    # sha256 digests of the CSV bytes written by the per-history closed-form
    # loops that the array kernel replaced; the kernel must reproduce them.
    def test_scan_csv_bytes(self):
        text = _scan_text(3, 41, "compare")
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "b97fab1ef4b004c6057cef807175b3707ee2f0a5e754c66733db395bdc8e36ce"

    def test_readme_sweep_csv_bytes(self):
        table = sweep_curve({"lambda1_1": 0.70710678}, "lambda2_1", 0.6, 1.0, 81)
        assert hashlib.sha256(_sweep_text(table).encode()).hexdigest() == \
            "0a74f248f8f53dab0de976f23fb37cd0934eb9dcc556031bc4365e9b6efadb3d"

    # Digests below were taken from the per-cell record writer that the
    # column tables replaced; the tables must reproduce its bytes.
    def test_readme_scan_csv_bytes(self):
        # `steershare scan --pairs 3 --mode compare --grid 400`: 19,373,343 bytes.
        data = _scan_text(3, 400, "compare").encode()
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
        text = _scan_text(pairs, 7, mode)
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
        text = _sweep_text(table)
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


class TestScanTableFields:
    def test_rejects_wrong_types_and_shapes(self):
        n = np.zeros(3)
        region = np.array(["", "I", "II"])
        for params, s, st, reg in [
            ({}, [], [], [1, 2, 3]),  # a list, not a str array
            ({}, [], [], np.zeros(3)),
            ({}, [], [], region.reshape(1, 3)),
            ({"param": n[:2]}, [], [], region),
            ({"param": n.astype(np.float32)}, [], [], region),
            ({}, [n, n.reshape(3, 1)], [], region),
            ({}, [], [n.tolist()], region),
            ({}, (n,), [], region),
            ([("param", n)], [], [], region),
        ]:
            with pytest.raises(ShapeError):
                ScanTable(params, s, st, reg)
        assert len(ScanTable({"param": n}, [n, n], [], region)) == 3


def _head(table: ScanTable, rows: int) -> ScanTable:
    """The first `rows` rows of `table`."""
    return ScanTable(params={k: v[:rows] for k, v in table.params.items()},
                     s=[c[:rows] for c in table.s], st=[c[:rows] for c in table.st],
                     region=table.region[:rows])


def _check_scan_blocks(chunks: list[bytes], text: str, grid: int, cells: int) -> None:
    """`chunks`, a scan writer's output, are the header of `text`, then
    blocks that join to the rest of it, each of whole grid rows: at most
    `cells` cells, or one grid row where a row alone is longer."""
    lines = text.splitlines(keepends=True)
    assert chunks[0] == lines[0].encode()
    assert b"".join(chunks).decode() == text
    start = 1
    for chunk in chunks[1:]:
        rows = chunk.count(b"\n")
        assert rows % grid == 0 and (rows <= cells or rows == grid), (rows, grid, cells)
        assert chunk.decode() == "".join(lines[start:start + rows])
        start += rows
    assert start == len(lines)


class TestCsvBlocks:
    """Each CSV writer yields the header, then blocks that join to the whole
    text (pinned by the digests above): a sweep's of at most CSV_BLOCK_ROWS
    rows, and a scan's of whole grid rows, at most CSV_BLOCK_ROWS cells or
    one grid row where a row alone is longer."""

    B = 4

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("mode", ["nonlocal", "local", "compare"])
    @pytest.mark.parametrize("kind", ["scan", "sweep"])
    def test_blocks_join_to_one_block_text(self, monkeypatch, kind, mode, rows):
        # The first `rows` sweep rows in blocks of B, or the whole grid-5
        # scan with 5 * rows - 1 cells a block: one grid row (a row alone
        # is longer), 2, 3 or 4 rows, or all 5 in one block.
        if kind == "scan":
            table = scan_region(3, 5, mode)
            write = functools.partial(cli._scan_csv, table, 5)
        else:
            table = _head(sweep_curve({"lambda1_1": 0.6, "lambda_2": 0.8}, "lambda2_1",
                                      0, 1, 9, pairs=3, mode=mode), rows)
            write = functools.partial(cli._sweep_csv, table)
        assert len(table) < cli.CSV_BLOCK_ROWS
        if kind == "scan":
            assert len(list(write())) == 2  # one block at the default size
            monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 5 * rows - 1)
            chunks = list(write())
            _check_scan_blocks(chunks, scan_csv(table), 5, 5 * rows - 1)
            assert len(chunks) == 1 + {1: 5, 3: 3, 4: 2, 5: 2, 9: 1}[rows]
        else:
            whole = "".join(write())  # one block at the default size
            monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", self.B)
            chunks = list(write())
            assert "".join(chunks) == whole
            assert chunks[0] == whole.partition("\n")[0] + "\n"
            assert len(chunks) == 1 + -(-rows // self.B)
            assert all(c.count("\n") == self.B for c in chunks[1:-1])

    @pytest.mark.parametrize("block, kind, digest", [
        (24, "scan", "dcfc3e6bf2eed8e8832ab00c17598f7cc40526d2af98bfb8a92a95ca97e2601c"),
        (40, "sweep", "0a74f248f8f53dab0de976f23fb37cd0934eb9dcc556031bc4365e9b6efadb3d"),
    ])
    def test_blocked_text_keeps_digest(self, monkeypatch, block, kind, digest):
        # 49 grid-7 scan rows in blocks of 3, 3 and 1 grid rows (at most 24
        # cells), and 81 README sweep rows, 2 * block + 1.
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        if kind == "scan":
            table = scan_region(3, 7, "compare")
            chunks = list(cli._scan_csv(table, 7))
            _check_scan_blocks(chunks, scan_csv(table), 7, block)
        else:
            chunks = [c.encode() for c in cli._sweep_csv(sweep_curve(
                {"lambda1_1": 0.70710678}, "lambda2_1", 0.6, 1.0, 81))]
        assert len(chunks) == 4
        assert hashlib.sha256(b"".join(chunks)).hexdigest() == digest


class TestScanCsvOracle:
    """The scan writer equals the one-format-per-row oracle on every scan,
    in blocks of whole grid rows after the header."""

    @pytest.mark.parametrize("mode", ["nonlocal", "local", "compare"])
    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_scans(self, pairs, mode):
        for grid in [*range(2, 13), 84]:
            table = scan_region(pairs, grid, mode)
            chunks = list(cli._scan_csv(table, grid))
            _check_scan_blocks(chunks, scan_csv(table), grid, cli.CSV_BLOCK_ROWS)
            # 24 grid rows (2,016 cells) a block: grid 84 takes 4 blocks.
            assert len(chunks) == 1 + (4 if grid == 84 else 1)


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
        lam = [(np.full(10, 0.5), np.full(10, 0.5)) for _ in range(4)]
        lam[0][0][9] = -1.0  # a later history, in an earlier pair
        lam[3][1][7] = np.nan
        lam[1][1][7] = 1.5
        with pytest.raises(ConfigError, match=r"^strengths \(0\.5, 1\.5\) outside \[0, 1\]$"):
            scenario._check_strengths(lam)

    def test_strength_check_peak_memory(self):
        # A stacked float copy of 4 pairs x 2 settings x 1e5 samples is 6.4 MB.
        lam = [(np.full(100_000, 0.5), np.full(100_000, 0.5)) for _ in range(4)]

        def check():
            error = None
            tracemalloc.start()
            try:
                scenario._check_strengths(lam)
            except ConfigError as e:
                error = str(e)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak, error

        peak, error = check()
        assert peak < 2e6 and error is None
        lam[3][1][-1] = 1.5  # found only after every array is scanned
        peak, error = check()
        assert peak < 2e6 and error == "strengths (0.5, 1.5) outside [0, 1]"


WINDOW_CASES = ("unequal_local", "equal_nonlocal", "unequal_nonlocal")


class TestWindows:
    def test_sqrt_half_keeps_its_bits(self):
        # 1/sqrt(2) by one division of the rounded root, as numpy spells it;
        # math.sqrt(0.5) and 2**-0.5 round 1 ulp higher.
        assert type(SQRT_HALF) is float and SQRT_HALF.hex() == "0x1.6a09e667f3bccp-1"
        assert SQRT_HALF == float(1 / np.sqrt(2))
        assert math.sqrt(0.5) == 2 ** -0.5 == math.nextafter(SQRT_HALF, 1.0)

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
        (e,) = ellipsoid_series([(0.0, 0.0)])
        assert np.allclose(e.semiaxes, 1, atol=1e-10)
        assert e.volume == pytest.approx(1.0, abs=1e-10)

    def test_fixed_first_strength_keeps_one_axis(self):
        series = ellipsoid_series([(SQRT_HALF, l2) for l2 in (0.3, 0.6, 0.9)])
        # The invariant axis lies along Bloch y; pick it by orientation.
        const = [float(e.semiaxes[np.argmax(np.abs(e.orientation[1, :]))]) for e in series]
        assert np.ptp(const) <= 1e-10
        assert const[0] == pytest.approx(0.85355339, abs=1e-8)

    def test_unequal_volume_decays_slower(self):
        # Along matched lambda2 sweeps, the fixed-lambda1 series keeps more volume.
        lam2s = [0.75, 0.8, 0.85, 0.9]
        unequal = ellipsoid_series([(SQRT_HALF, l2) for l2 in lam2s])
        equal = ellipsoid_series([(l2, l2) for l2 in lam2s])
        drop_unequal = unequal[0].volume - unequal[-1].volume
        drop_equal = equal[0].volume - equal[-1].volume
        assert drop_unequal < drop_equal

    def test_bits_equal_per_sample_runs(self):
        # The one stacked pass against the reference of one pair-1 run per
        # sample: bits compared on the int64 view, which tells -0.0 from 0.0.
        rng = np.random.default_rng(67)
        special = [0.0, 1.0, SQRT_HALF, 0.5 + 1e-9, 0.5 - 1e-9, 7e-5, 5e-5, 3e-5]
        pairs = [tuple(p) for p in rng.uniform(0, 1, (200, 2)).tolist()]
        pairs += list(itertools.product(special, repeat=2)) + [(0, 1), [np.float32(0.3), 0.6]]
        series = ellipsoid_series(pairs)
        assert len(series) == len(pairs)
        for (l1, l2), e in zip(pairs, series):
            ref = run_scenario(make_config("nonlocal", [[l1, l2]], pairs=1))[0].ellipsoid
            for name in ("center", "matrix", "semiaxes", "orientation"):
                assert np.array_equal(getattr(e, name).view(np.int64),
                                      getattr(ref, name).view(np.int64)), name
            assert e.volume.hex() == ref.volume.hex()

    def test_series_keeps_its_bits(self):
        # Every array and volume of a seeded 40,000-sample series, about a
        # third of its strengths 0, 1 or 2**-0.5, hashed on its bytes, which
        # tell -0.0 from 0.0.  The digest is that of the series before it
        # came to share its kernels with the run's float loop.
        rng = np.random.default_rng(3636)
        lam = rng.uniform(0, 1, (MAX_SERIES_SAMPLES, 2))
        exact = rng.uniform(size=lam.shape) < 1 / 3
        lam[exact] = rng.choice([0.0, 1.0, 2 ** -0.5], size=exact.sum())
        series = ellipsoid_series(lam.tolist())
        digest = hashlib.sha256()
        for name in ("center", "matrix", "semiaxes", "orientation", "volume"):
            digest.update(np.array([getattr(e, name) for e in series], dtype=float).tobytes())
        assert digest.hexdigest() == "955b9b562b6cee0ca37561f3c15e645072e89f2a95bdbf28c8d1093cf602d2a3"

    def test_one_stacked_pass(self, monkeypatch):
        # No per-sample run: each kernel is called once, on all samples: a
        # run's damping, state check and T-state kernels on 8 (k,) columns,
        # then the ellipsoids of the (k, 3) diagonals.
        def refuse(*args, **kwargs):
            raise AssertionError("per-sample run")

        calls = []

        def spy(name, samples):
            real = getattr(scenario, name)
            return lambda x, *rest: calls.append((name, samples(x))) or real(x, *rest)

        # Nor is a run's float loop entered or any 8x8 state built: the
        # components are validated in closed form, as one stack.
        for name in ("make_config", "run_scenario", "ScenarioConfig", "_run_rows",
                     "_run_components", "_support_states"):
            monkeypatch.setattr(scenario, name, refuse)
        for name in ("_damped", "_state_entries", "_t_state_diagonal"):
            monkeypatch.setattr(scenario, name, spy(name, lambda c: (len(c), len(c[0]))))
        monkeypatch.setattr(scenario, "t_state_ellipsoids", spy("t_state_ellipsoids", np.shape))
        assert len(ellipsoid_series([(0.1, 0.2), (0.5, 0.8), (1.0, 1.0)])) == 3
        assert calls == [("_damped", (8, 3)), ("_state_entries", (8, 3)),
                         ("_t_state_diagonal", (8, 3)), ("t_state_ellipsoids", (3, 3))]

    def test_no_eigensolver(self, monkeypatch):
        # Runs and series validate their states in closed form, with no
        # eigvalsh and no `DensityMatrix` validation.
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(states.DensityMatrix, "__post_init__", refuse)
        for mode in ("nonlocal", "local"):
            for pairs in (1, 2, 3, 4):
                assert len(run_scenario(make_config(mode, [0.3, 0.6, 0.9][:pairs],
                                                    pairs=pairs))) == pairs
        assert len(ellipsoid_series([(0.1, 0.2), (0.5, 0.8), (1.0, 1.0)])) == 3

    def test_empty(self):
        assert ellipsoid_series([]) == []

    def test_size_limit(self):
        # The length is checked before any pair: a bad first pair is reported
        # at the limit and never reached past it.
        bad = [(2.0, 0.5)]
        with pytest.raises(ConfigError, match=re.escape("strengths (2.0, 0.5) outside")):
            ellipsoid_series(bad * MAX_SERIES_SAMPLES)
        n = MAX_SERIES_SAMPLES + 1
        message = f"series of {n} samples outside supported range 0..{MAX_SERIES_SAMPLES}"
        for pairs in (bad * n, np.full((n, 2), 2.0)):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                ellipsoid_series(pairs)

    @pytest.mark.parametrize("pairs, message", [
        ([(0.5, 1.5)], "strengths (0.5, 1.5) outside [0, 1]"),
        ([(math.nan, 0.5)], "strengths (nan, 0.5) outside [0, 1]"),
        ([(0.5, "a")], "strengths (0.5, 'a') are not all numbers"),
        ([(True, 0.5)], "strengths (True, 0.5) are not all numbers"),
    ], ids=["range", "nan", "string", "bool"])
    def test_input_errors(self, pairs, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ellipsoid_series(pairs)


def _stacked_run(cfg):
    """The steering values and (pair, 8) components of a `cfg` run by numpy
    stacked over its pairs, written apart from the run's kernels: the
    plan's masks as a (setting, party, component) bool array, each pair's
    damping np.where(mask, coherence, 1) multiplied over parties and
    averaged over settings, a cumulative product over pairs, and a mean of
    the two settings' readings."""
    masks, read, sign, _ = measurement._setting_plan(cfg.mode, cfg._axes)
    parties = 1 if cfg.mode == "nonlocal" else 2
    anti = np.array([[[m[k] >> p & 1 for m in masks] for p in range(parties)]
                     for k in range(2)], dtype=bool)
    h, lam = cfg.strengths, np.array(cfg.strengths.lambdas)
    c = coherence(lam[..., None] if cfg.mode == "nonlocal"
                  else np.stack([h.etas, h.gammas], -1))  # (pair, setting, party)
    scale = np.where(anti, c[..., None], 1.0).prod(axis=-2).sum(axis=-2) / 2
    ghz = np.array(states.GHZ_VALUES)
    after = ghz * np.cumprod(scale, axis=0)
    before = np.concatenate([ghz[None], after[:-1]])
    return (lam * np.array(sign) * before[:, read]).sum(axis=1) / len(read), after


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestFloatLoop:
    """A run computes its floats in one loop over Python floats
    (`scenario._run_rows`); the ellipsoid series calls the same kernels,
    the damping (`measurement._damped`), the state check
    (`states._state_entries`) and the T-state diagonal
    (`states._t_state_diagonal`), on (k,) numpy columns, and reads its
    ellipsoid rows with `steering._ellipsoid_rows`.  The run's components
    and steering values equal a numpy evaluation stacked over pairs, written
    apart (`_stacked_run`), and each kernel gives the same floats and
    errors on floats as on columns, compared bit for bit on the int64 view,
    which tells -0.0 from 0.0."""

    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    def test_run_floats_equal_stacked_path(self, mode):
        # Seeded 1-4-pair runs with signed directions, about 40 % of the
        # strengths 0, 1, 2**-0.5, -0.0 or 5e-324, a sharp final pair in a
        # third.
        rng = np.random.default_rng(3535)
        exact = [0.0, 1.0, 2 ** -0.5, -0.0, 5e-324]
        labels = ["x", "-x", "y", "-y"] + (["z", "-z"] if mode == "nonlocal" else [])
        zeros = members = 0
        for k in range(400):
            lams = [[float(rng.choice(exact)) if rng.uniform() < 0.4 else float(rng.uniform())
                     for _ in range(2)] for _ in range(k % 4 + 1)]
            if k % 3 == 0:
                lams[-1] = [1.0, 1.0]
            cfg = make_config(mode, lams, charlie_directions=tuple(rng.choice(labels, 2).tolist()))
            values, after = scenario._run_components(cfg)
            want_values, c = _stacked_run(cfg)
            assert np.array_equal(_bits(values), _bits(want_values))
            assert np.array_equal(_bits(after), _bits(c))
            d = stack_diagonals(c)
            stacked = [stack_entries(c), d, steering._ellipsoid_rows(d)]
            loop = [[states._state_entries(m) for m in after],
                    [states._t_state_diagonal(m) for m in after]]
            loop.append([steering._ellipsoid_row(x) for x in loop[1]])
            for got, want in zip(loop, stacked):
                assert np.array_equal(_bits(got), _bits(want))
            columns = [want_values[:, None], stacked[0]] + stacked[2:] * (mode == "nonlocal")
            rows = np.hstack(columns)
            assert np.array_equal(_bits(scenario._run_rows(cfg)), _bits(rows.ravel()))
            zeros += int(np.sum(rows == 0.0))
            assert not np.signbit(rows[rows == 0.0]).any()
            members += len(after)
        assert members == 1000 and zeros >= 100  # exact zeros, all +0.0

    def test_member_floats_and_errors_equal_stacked_ones(self):
        # States diagonal in the GHZ basis, with random or exact weights, and
        # in most of them one component moved: to 0, -0.0, +-1, +-2**-0.5,
        # +-0.5, NaN or inf, or scaled by up to 2, so that many fail.  A
        # member's entries, or its error text, equal those of the stack of
        # that member alone; its T-state diagonal and ellipsoid row equal
        # the stacked ones wherever it is finite.
        rng = np.random.default_rng(3536)
        signs = np.array(states._ENTRY_SIGNS).T  # (component, entry); weight j is [j, j] +- [j, 7-j]
        weights_to_components = 8 * np.hstack([signs[:, :4] + signs[:, 4:],
                                               signs[:, :4] - signs[:, 4:]])
        pool = [0.0, -0.0, 1.0, -1.0, 2 ** -0.5, -(2 ** -0.5), 0.5, -0.5, math.nan, math.inf]
        passed = failed = 0
        for k in range(3000):
            w = rng.dirichlet(np.ones(8)) if k % 2 else np.eye(8)[rng.integers(8, size=2)].mean(0)
            c = weights_to_components @ w
            c[0] = 1.0
            at, r = rng.integers(1, 8), rng.uniform()
            if r < 0.4:
                c[at] = rng.choice(pool)
            elif r < 0.7:
                c[at] *= rng.uniform(1.0, 2.0)
            member = c.tolist()
            try:
                with np.errstate(invalid="ignore"):  # inf times a zero coefficient
                    want = stack_entries(c[None])[0]
            except ShapeError as exc:
                with pytest.raises(ShapeError, match=f"^{re.escape(str(exc))}$"):
                    states._state_entries(member)
                failed += 1
            else:
                assert np.array_equal(_bits(states._state_entries(member)), _bits(want))
                passed += 1
            if np.isfinite(c).all():
                d = stack_diagonals(c[None])
                got = states._t_state_diagonal(member)
                assert np.array_equal(_bits(got), _bits(d[0]))
                assert np.array_equal(_bits(steering._ellipsoid_row(got)),
                                      _bits(steering._ellipsoid_rows(d)[0]))
        assert passed >= 1000 and failed >= 300


class TestWholeGridEllipsoids:
    """Closed-form semiaxes and volumes (`oracles.closed_form_semiaxes`) over
    whole strength grids, every centre exactly 0.  The grid-400 series and
    the whole grid-200 multi-pair runs are checked in CI."""

    def test_series_grid_200(self):
        semiaxes, volume = series_grid_deviation(np.linspace(0.0, 1.0, 200), 200)
        assert semiaxes <= 1e-15 and volume <= 1e-15

    @pytest.mark.parametrize("pairs", [2, 3])
    def test_run_sub_grid_40(self, pairs):
        grid = np.linspace(0.0, 1.0, 200)[::5]
        semiaxes, volume = run_grid_deviation(grid, pairs)
        assert semiaxes <= 1e-15 and volume <= 1e-15


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
