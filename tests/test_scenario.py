import hashlib
import json
import re

import numpy as np
import pytest

from steershare.errors import ConfigError
from steershare.linalg import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, kron
from steershare.measurement import UnsharpSetting
from steershare.scenario import (
    MAX_GRID_RESOLUTION,
    MAX_SAMPLES,
    SQRT_HALF,
    ScenarioConfig,
    charlie_operator,
    ellipsoid_series,
    make_config,
    max_simultaneous_pairs,
    records_to_csv,
    run_scenario,
    scan_region,
    simultaneous_window,
    sweep_curve,
)
from steershare.states import DensityMatrix, bloch_form, compress, ghz
from steershare.steering import StrengthHistory, classical_bound, closed_form_local, \
    closed_form_nonlocal, ellipsoid

from test_measurement import ORACLE_TOL, _kraus_oracle, _padded_kraus

# Per Charlie axis: L, the joint A,B direction D with <D x L> = +1 on GHZ,
# and the local (A, B) factors of D (none for z).
_AXES = {"x": (SIGMA_X, -kron(SIGMA_Y, SIGMA_Y), (SIGMA_Y, SIGMA_Y)),
         "y": (SIGMA_Y, -kron(SIGMA_Y, SIGMA_X), (SIGMA_Y, SIGMA_X)),
         "z": (SIGMA_Z, kron(SIGMA_Z, I2), None)}


def _kraus_chain(cfg):
    """Per pair: S, the post-update 8x8 state and the (Charlie, AB)
    ellipsoids, from Kraus operators (make_instrument + embed, sum K rho K^dag),
    then compress + bloch_form."""
    ops = []
    for label in cfg.charlie_directions:
        sign = -1.0 if label.startswith("-") else 1.0
        l_op, d_op, local = _AXES[label.lstrip("-")]
        ops.append((sign * l_op, sign * d_op, local))
    rho = ghz()
    out = []
    for i, lam in enumerate(cfg.strengths.lambdas):
        s = sum(x * rho.expectation(kron(d_op, l_op))
                for x, (l_op, d_op, _) in zip(lam, ops)) / len(lam)
        if cfg.mode == "nonlocal":
            branches = [_padded_kraus(UnsharpSetting(d_op, x, (0, 1)))
                        for x, (_, d_op, _) in zip(lam, ops)]
        else:
            branches = [
                [ka @ kb for ka in _padded_kraus(UnsharpSetting(a, eta, (0,)))
                 for kb in _padded_kraus(UnsharpSetting(b, gamma, (1,)))]
                for (_, _, (a, b)), eta, gamma
                in zip(ops, cfg.strengths.etas[i], cfg.strengths.gammas[i])]
        rho = DensityMatrix(3, _kraus_oracle(rho, branches))
        ells = (None, None)
        if cfg.mode == "nonlocal":
            form = bloch_form(compress(rho)[0])
            ells = (ellipsoid(form, "charlie"), ellipsoid(form, "ab"))
        out.append((s, rho, ells))
    return out


class TestScenarioConfig:
    def test_json_round_trip(self):
        cfg = make_config("nonlocal", [[0.5, 0.7], 0.8], pairs=3)
        again = ScenarioConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.strengths.lambdas == ((0.5, 0.7), (0.8, 0.8), (1.0, 1.0))

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
        a = records_to_csv(sweep_curve({"lambda_1": 0.4}, "lambda2_2", 0, 1, 30),
                           "sweep")
        b = records_to_csv(sweep_curve({"lambda_1": 0.4}, "lambda2_2", 0, 1, 30),
                           "sweep")
        assert a == b

    def test_csv_schema(self):
        table = sweep_curve({}, "lambda_1", 0, 1, 3, mode="nonlocal")
        lines = records_to_csv(table, "sweep").splitlines()
        assert lines[0] == "param,S1,S2,St1,St2"
        assert lines[1].endswith(",,")  # St columns empty in nonlocal mode


class TestScanCsv:
    def test_schema_and_determinism(self):
        table = scan_region(pairs=3, resolution=5, mode="compare")
        text = records_to_csv(table, "scan")
        lines = text.splitlines()
        assert lines[0] == "lambda1,lambda2,S1,S2,S3,St1,St2,St3,region"
        assert len(lines) == 26
        assert text == records_to_csv(scan_region(pairs=3, resolution=5,
                                                  mode="compare"), "scan")


class TestGoldenOutputs:
    # sha256 digests of the CSV bytes written by the per-history closed-form
    # loops that the array kernel replaced; the kernel must reproduce them.
    def test_scan_csv_bytes(self):
        text = records_to_csv(scan_region(3, 41, "compare"), "scan")
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "b97fab1ef4b004c6057cef807175b3707ee2f0a5e754c66733db395bdc8e36ce"

    def test_readme_sweep_csv_bytes(self):
        table = sweep_curve({"lambda1_1": 0.70710678}, "lambda2_1", 0.6, 1.0, 81)
        assert hashlib.sha256(records_to_csv(table, "sweep").encode()).hexdigest() == \
            "0a74f248f8f53dab0de976f23fb37cd0934eb9dcc556031bc4365e9b6efadb3d"

    # Digests below were taken from the per-cell record writer that the
    # column tables replaced; the tables must reproduce its bytes.
    def test_readme_scan_csv_bytes(self):
        # `steershare scan --pairs 3 --mode compare --grid 400`: 19,373,343 bytes.
        data = records_to_csv(scan_region(3, 400, "compare"), "scan").encode()
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
        text = records_to_csv(scan_region(pairs, 7, mode), "scan")
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
        text = records_to_csv(table, "sweep")
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

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_tol(self, tol):
        with pytest.raises(ConfigError, match=f"^tol={tol!r} must be a positive number$"):
            simultaneous_window("equal_nonlocal", tol=tol)

    def test_tiny_tol_stops_at_adjacent_floats(self):
        # A tol below the float spacing ends once the bracket cannot shrink.
        his = {"unequal_local": 1 - (2 * np.sqrt(2) - 2 - np.sqrt(1 - SQRT_HALF)) ** 2,
               "equal_nonlocal": np.sqrt(2 * np.sqrt(2) - 2),
               "unequal_nonlocal": np.sqrt(1 - (2 * np.sqrt(2) - 2 - SQRT_HALF) ** 2)}
        for case, hi_want in his.items():
            lo, hi = simultaneous_window(case, tol=1e-300)
            assert abs(lo - SQRT_HALF) <= 1e-15 and abs(hi - hi_want) <= 1e-15


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
