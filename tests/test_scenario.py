import hashlib
import json

import numpy as np
import pytest

from steershare.errors import ConfigError
from steershare.scenario import (
    SQRT_HALF,
    ScenarioConfig,
    ellipsoid_series,
    make_config,
    max_simultaneous_pairs,
    records_to_csv,
    run_scenario,
    scan_region,
    simultaneous_window,
    sweep_curve,
)
from steershare.steering import StrengthHistory, closed_form_local, closed_form_nonlocal


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


class TestScanRegion:
    def test_pair_one_boundary_shared(self):
        records = scan_region(pairs=1, resolution=21, mode="compare")
        for r in records:
            # First pair: local and nonlocal parameters coincide exactly.
            assert r.s[0] == pytest.approx(r.st[0], abs=1e-14)

    def test_region_one_cell(self):
        records = scan_region(pairs=2, resolution=11, mode="compare")
        lookup = {(round(r.params["lambda1"], 3), round(r.params["lambda2"], 3)): r
                  for r in records}
        cell = lookup[(0.5, 0.8)]
        assert cell.s[1] > SQRT_HALF >= cell.st[1]
        assert cell.region == "I"

    def test_outside_all_regions(self):
        records = scan_region(pairs=2, resolution=101, mode="compare")
        lookup = {(round(r.params["lambda1"], 3), round(r.params["lambda2"], 3)): r
                  for r in records}
        cell = lookup[(0.99, 0.99)]
        assert cell.s[1] < SQRT_HALF and cell.st[1] < SQRT_HALF
        assert cell.region == ""

    def test_local_success_nested_in_nonlocal(self):
        for r in scan_region(pairs=3, resolution=41, mode="compare"):
            for i in (1, 2):
                if r.st[i] > SQRT_HALF:
                    assert r.s[i] > SQRT_HALF

    def test_labels_consistent(self):
        for r in scan_region(pairs=3, resolution=17, mode="compare"):
            expect = []
            if r.s[1] > SQRT_HALF >= r.st[1]:
                expect.append("I")
            if r.s[2] > SQRT_HALF >= r.st[2]:
                expect.append("II")
            assert r.region == "+".join(expect)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigError):
            scan_region(resolution=1)


class TestSweepCurve:
    def test_window_case_iii(self):
        records = sweep_curve({"lambda1_1": SQRT_HALF}, "lambda2_1", 0.6, 1.0, 81,
                              mode="nonlocal")
        inside = [r.params["param"] for r in records
                  if r.s[0] > SQRT_HALF and r.s[1] > SQRT_HALF]
        assert min(inside) > SQRT_HALF
        assert 0.985 < max(inside) < 0.9926135

    def test_compare_includes_local(self):
        records = sweep_curve({"lambda1_1": SQRT_HALF}, "lambda2_1", 0.7, 0.9, 5)
        assert all(len(r.s) == 2 and len(r.st) == 2 for r in records)

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
        records = sweep_curve({}, "lambda_1", 0, 1, 3, mode="nonlocal")
        lines = records_to_csv(records, "sweep").splitlines()
        assert lines[0] == "param,S1,S2,St1,St2"
        assert lines[1].endswith(",,")  # St columns empty in nonlocal mode


class TestScanCsv:
    def test_schema_and_determinism(self):
        records = scan_region(pairs=3, resolution=5, mode="compare")
        text = records_to_csv(records, "scan")
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
        records = sweep_curve({"lambda1_1": 0.70710678}, "lambda2_1", 0.6, 1.0, 81)
        assert hashlib.sha256(records_to_csv(records, "sweep").encode()).hexdigest() == \
            "0a74f248f8f53dab0de976f23fb37cd0934eb9dcc556031bc4365e9b6efadb3d"

    def test_rows_hold_plain_floats(self):
        for r in scan_region(2, 3, "compare") + sweep_curve({}, "lambda_1", 0, 1, 3):
            assert all(type(v) is float for v in r.s + r.st + tuple(r.params.values()))


class TestInputValidation:
    def test_sweep_rejects_out_of_range(self):
        with pytest.raises(ConfigError, match=r"strengths \(1.25, 1.25\) outside"):
            sweep_curve({}, "lambda_1", 0.5, 1.5, 5)
        with pytest.raises(ConfigError, match="outside"):
            sweep_curve({"lambda2_2": float("nan")}, "lambda_1", 0, 1, 3, mode="local")

    def test_scan_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode 'bogus'"):
            scan_region(2, 3, mode="bogus")

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
