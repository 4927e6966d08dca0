import numpy as np
import pytest

from steershare import scenario
from steershare.errors import (
    AmbiguousSettingError,
    ConfigError,
    DegenerateSteererError,
    NotCompressibleError,
    ShapeError,
    UnsupportedSizeError,
)
from steershare.linalg import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, kron
from steershare.measurement import UnsharpSetting, local_pair_update, luders_update
from steershare.states import BlochForm, DensityMatrix, bloch_form, compress, ghz
from steershare.steering import (
    StrengthHistory,
    classical_bound,
    closed_form_local,
    closed_form_nonlocal,
    closed_forms,
    coherence,
    direction_axis,
    ellipsoid,
    ellipsoid_volume_check,
    ellipsoids,
    optimal_partner_setting,
    optimal_settings_from_ellipsoid,
    pauli_dot,
    steering_parameter,
)

from util import conditional_charlie_bloch, containment_violation, random_density

SQRT_HALF = 1 / np.sqrt(2)
YY = kron(SIGMA_Y, SIGMA_Y)
YX = kron(SIGMA_Y, SIGMA_X)
PAIR_DIRS = [-YY, YX]
CHARLIE_DIRS = [SIGMA_X, -SIGMA_Y]


def _reference_closed_form(lambdas, damping, i):
    """Per-history closed form as coherence factors multiplied by np.prod."""
    lam1, lam2 = lambdas[i - 1]
    prior = damping[: i - 1]
    prod1 = np.prod([1.0 + float(np.sqrt(1.0 - d * d)) for d, _ in prior]) if prior else 1.0
    prod2 = np.prod([1.0 + float(np.sqrt(1.0 - d * d)) for _, d in prior]) if prior else 1.0
    return float((lam2 * prod1 + lam1 * prod2) / 2 ** i)


def _nonlocal_settings(lams):
    return [UnsharpSetting(d, s, (0, 1)) for d, s in zip(PAIR_DIRS, lams)]


def _evolve_nonlocal(history, upto):
    rho = ghz()
    for j in range(upto):
        rho = luders_update(rho, _nonlocal_settings(history.lambdas[j]))
    return rho


def _evolve_local(history, upto):
    rho = ghz()
    a_dirs = [SIGMA_Y, SIGMA_Y]
    b_dirs = [SIGMA_Y, SIGMA_X]
    for j in range(upto):
        a = [UnsharpSetting(d, e, (0,)) for d, e in zip(a_dirs, history.etas[j])]
        b = [UnsharpSetting(d, g, (1,)) for d, g in zip(b_dirs, history.gammas[j])]
        rho = local_pair_update(rho, a, b)
    return rho


class TestClassicalBound:
    def test_two_settings(self):
        assert classical_bound([SIGMA_X, SIGMA_Y]) == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_single_setting(self):
        assert classical_bound([SIGMA_X]) == pytest.approx(1.0, abs=1e-12)

    def test_three_settings(self):
        assert classical_bound([SIGMA_X, SIGMA_Y, SIGMA_Z]) == pytest.approx(
            1 / np.sqrt(3), abs=1e-12)

    def test_sign_insensitive(self):
        assert classical_bound([SIGMA_X, -SIGMA_Y]) == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_too_many(self):
        with pytest.raises(UnsupportedSizeError):
            classical_bound([SIGMA_X] * 7)


class TestSteeringParameter:
    def test_sharp_ghz(self):
        assert steering_parameter(ghz(), PAIR_DIRS, [1.0, 1.0], CHARLIE_DIRS) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_strengths(self):
        assert steering_parameter(ghz(), PAIR_DIRS, [0.0, 0.0], CHARLIE_DIRS) == 0.0

    def test_headline_value(self):
        h = StrengthHistory.nonlocal_history([(0.5, 0.5), (0.8, 0.8)])
        rho = _evolve_nonlocal(h, 1)
        s = steering_parameter(rho, PAIR_DIRS, [0.8, 0.8], CHARLIE_DIRS)
        assert s == pytest.approx(0.7464101615137755, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            steering_parameter(ghz(), PAIR_DIRS, [1.0], CHARLIE_DIRS)

    def test_sign_convention_invariance(self):
        h = StrengthHistory.nonlocal_history([(0.6, 0.3)])
        rho = _evolve_nonlocal(h, 1)
        s = steering_parameter(rho, PAIR_DIRS, [0.9, 0.7], CHARLIE_DIRS)
        flipped = steering_parameter(rho, [-PAIR_DIRS[0], PAIR_DIRS[1]], [0.9, 0.7],
                                     [-CHARLIE_DIRS[0], CHARLIE_DIRS[1]])
        assert s == flipped


class TestClosedForms:
    def test_sharp_first_pair(self):
        h = StrengthHistory.nonlocal_history([(1.0, 1.0)])
        assert closed_form_nonlocal(h, 1) == pytest.approx(1.0)

    def test_fig_values(self):
        h = StrengthHistory.nonlocal_history([(0.4, 0.4), (0.8, 0.8)])
        assert closed_form_nonlocal(h, 2) == pytest.approx(0.7666060555964672, abs=1e-12)
        assert closed_form_nonlocal(h, 2) - SQRT_HALF == pytest.approx(0.0595, abs=1e-4)

    def test_three_pairs(self):
        h = StrengthHistory.nonlocal_history([(0.4, 0.4), (0.8, 0.8), (0.95, 0.95)])
        assert closed_form_nonlocal(h, 3) == pytest.approx(0.7282757528166437, abs=1e-12)

    def test_local_values(self):
        h = StrengthHistory.local_sqrt([(0.5, 0.5), (0.8, 0.8)])
        assert closed_form_local(h, 2) == pytest.approx(0.682842712474619, abs=1e-12)

    def test_local_reduces_to_nonlocal_when_gamma_matches(self):
        lams = [(0.3, 0.7), (0.6, 0.9)]
        local = StrengthHistory(tuple(lams), ((1.0, 1.0), (1.0, 1.0)),
                                tuple(tuple(p) for p in lams))
        nonloc = StrengthHistory.nonlocal_history(lams)
        for i in (1, 2):
            assert closed_form_local(local, i) == pytest.approx(
                closed_form_nonlocal(nonloc, i), abs=1e-14)

    def test_oracle_equivalence_nonlocal(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            pairs = int(rng.integers(1, 4))
            h = StrengthHistory.nonlocal_history(
                [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)])
            for i in range(1, pairs + 1):
                rho = _evolve_nonlocal(h, i - 1)
                sim = steering_parameter(rho, PAIR_DIRS, list(h.lambdas[i - 1]),
                                         CHARLIE_DIRS)
                assert abs(sim - closed_form_nonlocal(h, i)) <= 1e-10

    def test_oracle_equivalence_local(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            pairs = int(rng.integers(1, 4))
            etas = [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)]
            gammas = [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)]
            lams = [tuple(e * g for e, g in zip(pe, pg))
                    for pe, pg in zip(etas, gammas)]
            h = StrengthHistory(tuple(lams), tuple(etas), tuple(gammas))
            for i in range(1, pairs + 1):
                rho = _evolve_local(h, i - 1)
                sim = steering_parameter(rho, PAIR_DIRS, list(h.lambdas[i - 1]),
                                         CHARLIE_DIRS)
                assert abs(sim - closed_form_local(h, i)) <= 1e-10

    def test_monotone_in_prior_strengths(self):
        # Later-pair steering strictly decreases in every earlier strength.
        grid = np.linspace(0.05, 0.95, 7)
        eps = 1e-6
        for j, k in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            for base in grid:
                lams = [[0.5, 0.6], [0.4, 0.7], [0.9, 0.9]]
                lams[j][k] = base
                lo = StrengthHistory.nonlocal_history([tuple(p) for p in lams])
                lams[j][k] = base + eps
                hi = StrengthHistory.nonlocal_history([tuple(p) for p in lams])
                assert closed_form_nonlocal(hi, 3) < closed_form_nonlocal(lo, 3)

    def test_nonlocal_beats_local(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            pairs = int(rng.integers(2, 4))
            lams = [tuple(rng.uniform(0.05, 0.95, 2)) for _ in range(pairs)]
            nonloc = StrengthHistory.nonlocal_history(lams)
            local = StrengthHistory.local_sqrt(lams)
            for i in range(2, pairs + 1):
                assert closed_form_nonlocal(nonloc, i) > closed_form_local(local, i)

    def test_bad_pair_index(self):
        h = StrengthHistory.nonlocal_history([(0.5, 0.5)])
        with pytest.raises(ConfigError):
            closed_form_nonlocal(h, 2)

    def test_local_needs_gammas(self):
        with pytest.raises(ConfigError, match="eta/gamma"):
            closed_form_local(StrengthHistory.nonlocal_history([(0.5, 0.5)]), 1)

    def test_batch_kernel_bitwise_equals_scalar_wrappers(self):
        # Array batch, scalar wrappers and the per-history product formula
        # agree exactly (==), for nonlocal histories and for local ones
        # whose eta and gamma differ.
        rng = np.random.default_rng(71)
        pairs, n = 4, 60
        eta = rng.uniform(0, 1, (pairs, 2, n))
        gamma = rng.uniform(0, 1, (pairs, 2, n))
        lam = rng.uniform(0, 1, (pairs, 2, n))
        local_lam = eta * gamma
        batch = closed_forms(lam[:, 0], lam[:, 1], lam[:, 0], lam[:, 1])
        local_batch = closed_forms(local_lam[:, 0], local_lam[:, 1],
                                   gamma[:, 0], gamma[:, 1])
        for k in range(n):
            def col(a):
                return tuple((float(a[j, 0, k]), float(a[j, 1, k])) for j in range(pairs))
            h = StrengthHistory.nonlocal_history(list(col(lam)))
            hl = StrengthHistory(col(local_lam), col(eta), col(gamma))
            assert hl.etas != hl.gammas
            for i in range(1, pairs + 1):
                assert closed_form_nonlocal(h, i) == batch[i - 1][k] \
                    == _reference_closed_form(h.lambdas, h.lambdas, i)
                assert closed_form_local(hl, i) == local_batch[i - 1][k] \
                    == _reference_closed_form(hl.lambdas, hl.gammas, i)

    def test_kernel_takes_floats(self):
        values = closed_forms([0.4, 0.8, 0.95], [0.4, 0.8, 0.95],
                              [0.4, 0.8, 0.95], [0.4, 0.8, 0.95])
        assert len(values) == 3
        assert values[0] == pytest.approx(0.4)
        assert values[2] == pytest.approx(0.7282757528166437, abs=1e-12)


class TestStrengthHistory:
    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            StrengthHistory(((1.2, 0.5),))

    def test_rejects_mismatched_product(self):
        with pytest.raises(ConfigError):
            StrengthHistory(((0.5, 0.5),), ((0.9, 0.9),), ((0.9, 0.9),))

    def test_local_sqrt_consistent(self):
        h = StrengthHistory.local_sqrt([(0.49, 0.81)])
        assert h.etas[0] == pytest.approx((0.7, 0.9))


class TestEllipsoid:
    def test_compressed_ghz_is_unit_sphere(self):
        rho4, _ = compress(ghz())
        e = ellipsoid(bloch_form(rho4))
        assert np.allclose(e.center, 0, atol=1e-12)
        assert np.allclose(e.matrix, np.eye(3), atol=1e-10)
        assert np.allclose(e.semiaxes, 1, atol=1e-10)
        assert e.volume == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_point(self):
        e = ellipsoid(bloch_form(DensityMatrix(2, np.eye(4, dtype=complex) / 4)))
        assert np.allclose(e.center, 0)
        assert np.allclose(e.semiaxes, 0, atol=1e-12)
        assert e.volume == pytest.approx(0.0, abs=1e-12)

    def test_constant_semiaxis_when_first_strength_fixed(self):
        expected = (1 + coherence(SQRT_HALF)) / 2
        for lam2 in (0.2, 0.55, 0.9):
            rho = luders_update(ghz(), _nonlocal_settings([SQRT_HALF, lam2]))
            rho4, _ = compress(rho)
            e = ellipsoid(bloch_form(rho4))
            # The invariant axis lies along the Bloch y direction.
            idx = np.argmax(np.abs(e.orientation[1, :]))
            assert e.semiaxes[idx] == pytest.approx(expected, abs=1e-10)

    def test_orientation_stable_under_rounding_noise(self):
        # Eigenvectors are fixed only up to sign (and rotation within equal
        # semiaxes); the reported columns must not follow 1e-15 noise.
        rng = np.random.default_rng(71)
        for lams in rng.uniform(0, 1, (300, 2)):
            rho4, _ = compress(luders_update(ghz(), _nonlocal_settings(list(lams))))
            b = bloch_form(rho4)
            for party in ("charlie", "ab"):
                ref = ellipsoid(b, party).orientation
                assert (np.diag(ref[np.abs(ref).argmax(axis=0)]) > 0).all()
                for _ in range(3):
                    noisy = BlochForm(*(x + rng.uniform(-1e-15, 1e-15, x.shape)
                                        for x in (b.m_tilde, b.n_vec, b.T)))
                    moved = np.abs(ellipsoid(noisy, party).orientation - ref)
                    assert np.max(moved) <= 1e-6

    def test_ab_ellipsoid_matches_for_symmetric_state(self):
        rho = luders_update(ghz(), _nonlocal_settings([0.6, 0.3]))
        rho4, _ = compress(rho)
        b = bloch_form(rho4)
        ec, eab = ellipsoid(b, "charlie"), ellipsoid(b, "ab")
        assert np.allclose(np.sort(ec.semiaxes), np.sort(eab.semiaxes), atol=1e-10)

    def test_degenerate_steerer(self):
        b = BlochForm(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                      np.diag([0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateSteererError):
            ellipsoid(b)
        with pytest.raises(DegenerateSteererError):
            ellipsoid_volume_check(b)

    def test_volume_formula_matches_matrix(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            lams = rng.uniform(0, 1, 2)
            rho = luders_update(ghz(), _nonlocal_settings(list(lams)))
            rho4, _ = compress(rho)
            b = bloch_form(rho4)
            assert abs(ellipsoid_volume_check(b) - ellipsoid(b).volume) <= 1e-10

    def test_product_state_volume_zero(self):
        b = BlochForm(np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.0, 0.5]),
                      np.outer([0, 0, 0.5], [0, 0, 0.5]))
        assert ellipsoid_volume_check(b) == pytest.approx(0.0, abs=1e-12)

    def test_containment(self):
        rng = np.random.default_rng(71)
        rho = luders_update(ghz(), _nonlocal_settings([0.8, 0.35]))
        rho4, _ = compress(rho)
        e = ellipsoid(bloch_form(rho4))
        for _ in range(100):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            effect = (np.eye(2) + rng.uniform(0, 1) * pauli_dot(u)) / 2
            r = conditional_charlie_bloch(rho4, effect)
            if r is None:
                continue
            quad, residual = containment_violation(e, r)
            assert quad <= 1 + 1e-6
            assert residual <= 1e-8


def _seeded_forms():
    """Compressed post-pair-1 forms (special strengths give equal semiaxes),
    the GHZ unit sphere, and generic two-qubit forms."""
    rng = np.random.default_rng(83)
    special = [0.0, 0.5, SQRT_HALF, 1.0]
    lams = [(a, b) for a in special for b in special] + list(rng.uniform(0, 1, (20, 2)))
    forms = [bloch_form(compress(luders_update(ghz(), _nonlocal_settings(list(x))))[0])
             for x in lams]
    forms.append(bloch_form(compress(ghz())[0]))
    forms += [bloch_form(random_density(rng, 2)) for _ in range(20)]
    return forms


def _steering_rows(forms, party):
    """(m, n, T) stacks with the steering party first, as `ellipsoid` reads a form."""
    if party == "charlie":
        rows = [(b.m_tilde, b.n_vec, b.T) for b in forms]
    else:
        rows = [(b.n_vec, b.m_tilde, b.T.T) for b in forms]
    return [np.stack(x) for x in zip(*rows)]


class TestEllipsoidStack:
    @pytest.mark.parametrize("party", ["charlie", "ab"])
    def test_members_equal_single_calls(self, party):
        forms = _seeded_forms()
        stacked = ellipsoids(*_steering_rows(forms, party))
        ties = 0
        for b, got in zip(forms, stacked):
            want = ellipsoid(b, party)
            for name in ("center", "matrix", "semiaxes", "orientation"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.volume == want.volume
            ties += np.min(-np.diff(got.semiaxes)) <= 1e-9
        assert ties >= 10  # degenerate semiaxis groups are covered

    @pytest.mark.parametrize("party", ["charlie", "ab"])
    def test_matrix_and_volume(self, party):
        forms = _seeded_forms()
        for b, e in zip(forms, ellipsoids(*_steering_rows(forms, party))):
            rebuilt = e.orientation @ np.diag(e.semiaxes ** 2) @ e.orientation.T
            assert np.max(np.abs(e.matrix - rebuilt)) <= 1e-14
            if party == "ab":  # the volume check takes the steering party first
                b = BlochForm(b.n_vec, b.m_tilde, b.T.T)
            assert abs(e.volume - ellipsoid_volume_check(b)) <= 1e-12

    def test_pure_member_raises(self):
        m, n, T = _steering_rows(_seeded_forms()[:5], "charlie")
        m[3] = [0.0, 0.6, 0.8]
        with pytest.raises(DegenerateSteererError,
                           match="steering party is pure; ellipsoid degenerates"):
            ellipsoids(m, n, T)

    @pytest.mark.parametrize("shapes", [
        ((3,), (3,), (3, 3)), ((2, 3), (1, 3), (2, 3, 3)), ((2, 3), (2, 3), (2, 3)),
        ((2, 4), (2, 4), (2, 4, 4)), ((), (), ()),
    ])
    def test_bad_stack_shapes(self, shapes):
        with pytest.raises(ShapeError, match="stack shapes"):
            ellipsoids(*(np.zeros(s) for s in shapes))

    def test_unknown_party(self):
        with pytest.raises(ConfigError, match="unknown steered party"):
            ellipsoid(_seeded_forms()[0], "bob")


class TestRunScenarioErrors:
    """A run that cannot compress or whose steering party is pure at pair i
    fails with the error and message of that pair's own compression or
    ellipsoid.  (Dephasing never changes the AB populations, so either every
    pair of a run compresses or none does.)"""

    def test_compression_failure(self):
        cfg = scenario.ScenarioConfig.from_json(
            {"pairs": 3, "strengths": [0.3, 0.6], "compression": "01,10"})
        with pytest.raises(NotCompressibleError) as err:
            scenario.run_scenario(cfg)
        assert str(err.value) == "only 0.000000000000 of the state lies in " \
            "span{|01>, |10>} x C2"

    @pytest.mark.parametrize("pairs, fail_at",
                             [(p, i) for p in range(1, 5) for i in range(1, p + 1)])
    @pytest.mark.parametrize("fault", ["pure_ab_qubit", "pure_charlie", "not_compressible"])
    def test_failure_at_pair(self, monkeypatch, pairs, fail_at, fault):
        real = scenario.compressed_bloch
        calls = []

        def faulty(t, basis):
            calls.append(t)
            b = real(t, basis)
            if len(calls) != fail_at:
                return b
            if fault == "not_compressible":
                raise NotCompressibleError(f"pair {fail_at} left the span")
            pure = np.array([0.6, 0.0, 0.8])
            if fault == "pure_ab_qubit":
                return BlochForm(pure, b.n_vec, b.T)
            return BlochForm(b.m_tilde, pure, b.T)

        monkeypatch.setattr(scenario, "compressed_bloch", faulty)
        cfg = scenario.make_config("nonlocal", [0.4] * pairs)
        kind, message = (
            (NotCompressibleError, f"pair {fail_at} left the span")
            if fault == "not_compressible"
            else (DegenerateSteererError, "steering party is pure; ellipsoid degenerates"))
        with pytest.raises(kind) as err:
            scenario.run_scenario(cfg)
        assert str(err.value) == message


class TestOptimalSettings:
    def test_partner_for_x(self):
        rho4, _ = compress(ghz())
        op = optimal_partner_setting(rho4, SIGMA_X)
        assert np.max(np.abs(op - SIGMA_X)) <= 1e-10

    def test_partner_for_y(self):
        rho4, _ = compress(ghz())
        op = optimal_partner_setting(rho4, SIGMA_Y)
        assert np.max(np.abs(op + SIGMA_Y)) <= 1e-10

    def test_partner_degenerate(self):
        mixed = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
        with pytest.raises(AmbiguousSettingError):
            optimal_partner_setting(mixed, SIGMA_X)

    def test_sphere_tie_break(self):
        rho4, _ = compress(ghz())
        ops = optimal_settings_from_ellipsoid(ellipsoid(bloch_form(rho4)), 3)
        for op, expected in zip(ops, (SIGMA_X, SIGMA_Y, SIGMA_Z)):
            assert np.max(np.abs(op - expected)) <= 1e-10

    def test_post_pair_one_axes(self):
        rho = luders_update(ghz(), _nonlocal_settings([0.6, 0.6]))
        rho4, _ = compress(rho)
        ops = optimal_settings_from_ellipsoid(ellipsoid(bloch_form(rho4)), 2)
        axes = sorted(tuple(np.abs(np.round(direction_axis(op)))) for op in ops)
        assert axes == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_explicit_semiaxes(self):
        # Ellipsoid with known principal frame: rotate diag(0.81, 0.25, 0.01).
        theta = 0.4
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0],
                        [0, 0, 1]])
        O = rot @ np.diag([0.81, 0.25, 0.01]) @ rot.T
        from steershare.steering import SteeringEllipsoid, hermitian_eig
        w, v = hermitian_eig(O.astype(complex))
        e = SteeringEllipsoid(np.zeros(3), O, np.sqrt(w), v.real,
                              float(np.sqrt(np.prod(w))))
        ops = optimal_settings_from_ellipsoid(e, 2)
        expect = [rot[:, 0], rot[:, 1]]
        for op, u in zip(ops, expect):
            got = direction_axis(op)
            assert min(np.linalg.norm(got - u), np.linalg.norm(got + u)) <= 1e-10

    def test_insufficient_axes(self):
        b = bloch_form(DensityMatrix(2, np.eye(4, dtype=complex) / 4))
        with pytest.raises(AmbiguousSettingError):
            optimal_settings_from_ellipsoid(ellipsoid(b), 2)
