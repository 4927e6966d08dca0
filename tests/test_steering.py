import itertools
import re
import warnings

import numpy as np
import pytest

from steershare import scenario
from steershare.errors import (
    ConfigError,
    InvariantError,
    NotCompressibleError,
    NotHermitianError,
    ShapeError,
    UnsupportedSizeError,
)
from steershare.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from steershare.states import DensityMatrix, ghz, pauli_tensor
from steershare.steering import (
    StrengthHistory,
    classical_bound,
    closed_form_local,
    closed_form_nonlocal,
    closed_forms,
    coherence,
)

from oracles import BlochForm, bloch_form, compress, ellipsoid, ellipsoid_volume_check, \
    ellipsoids, tie_broken_axes
from util import conditional_charlie_bloch, containment_violation, pauli_dot, random_density

SQRT_HALF = 1 / np.sqrt(2)


def _reference_closed_form(lambdas, damping, i):
    """Per-history closed form as coherence factors multiplied by np.prod."""
    lam1, lam2 = lambdas[i - 1]
    prior = damping[: i - 1]
    prod1 = np.prod([1.0 + float(np.sqrt(1.0 - d * d)) for d, _ in prior]) if prior else 1.0
    prod2 = np.prod([1.0 + float(np.sqrt(1.0 - d * d)) for _, d in prior]) if prior else 1.0
    return float((lam2 * prod1 + lam1 * prod2) / 2 ** i)


def _post_pair_one(lams):
    """The 8x8 state after one nonlocal pair with strengths (lambda1, lambda2)."""
    return scenario.run_scenario(scenario.make_config("nonlocal", [list(lams)]))[0].state


def _steering_values(cfg):
    return [r.steering_value for r in scenario.run_scenario(cfg)]


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

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            classical_bound([SIGMA_X, np.array([[0, 1], [0, 0]], dtype=complex)])

    @pytest.mark.parametrize("ops", [
        [SIGMA_X, np.eye(4)],
        [np.ones((2, 3))],
        [np.ones(2), np.ones(2)],
        [np.zeros((0, 0))],
        [SIGMA_X, [[1, 0], [0]]],
        [np.array([["a", "b"], ["c", "d"]])],
    ])
    def test_rejects_mismatched_shapes(self, ops):
        with pytest.raises(ShapeError):
            classical_bound(ops)

    def test_matches_qubit_formula(self):
        # For qubit settings u_k . sigma the signed average has top
        # eigenvalue |sum_k s_k u_k| / n.
        rng = np.random.default_rng(5954)
        for n in range(1, 7):
            signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
            for _ in range(20):
                u = rng.normal(size=(n, 3))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                want = np.linalg.norm(signs @ u, axis=1).max() / n
                assert abs(classical_bound([pauli_dot(x) for x in u]) - want) <= 1e-12


class TestSteeringParameter:
    """The linear steering parameter as `run_scenario` reads it off the
    evolved state."""

    def test_sharp_ghz(self):
        # Every sharp GHZ correlator is +1, whatever the signed axis labels.
        for labels in itertools.product(("x", "-x", "y", "-y", "z", "-z"), repeat=2):
            cfg = scenario.make_config("nonlocal", [1.0], charlie_directions=labels)
            assert _steering_values(cfg) == [pytest.approx(1.0, abs=1e-12)]

    def test_zero_strengths(self):
        assert _steering_values(scenario.make_config("nonlocal", [0.0])) == [0.0]

    def test_headline_value(self):
        s = _steering_values(scenario.make_config("nonlocal", [0.5, 0.8]))[1]
        assert s == pytest.approx(0.7464101615137755, abs=1e-10)

    def test_length_mismatch(self):
        # One strength and one Charlie direction per setting, two settings.
        with pytest.raises(ConfigError):
            scenario.make_config("nonlocal", [1.0], charlie_directions=("x",))
        with pytest.raises(ConfigError):
            scenario.ScenarioConfig(StrengthHistory(((1.0,),)))

    def test_sign_convention_invariance(self):
        for mode in ("nonlocal", "local"):
            cfg = scenario.make_config(mode, [[0.6, 0.3], [0.9, 0.7]])
            flipped = scenario.make_config(mode, [[0.6, 0.3], [0.9, 0.7]],
                                           charlie_directions=("-x", "y"))
            assert _steering_values(cfg) == _steering_values(flipped)


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
            pairs = int(rng.integers(1, 5))
            h = StrengthHistory.nonlocal_history(
                [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)])
            for i, sim in enumerate(_steering_values(scenario.ScenarioConfig(h)), start=1):
                assert abs(sim - closed_form_nonlocal(h, i)) <= 1e-10

    def test_oracle_equivalence_local(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            pairs = int(rng.integers(1, 5))
            etas = [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)]
            gammas = [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)]
            lams = [tuple(e * g for e, g in zip(pe, pg))
                    for pe, pg in zip(etas, gammas)]
            h = StrengthHistory(tuple(lams), tuple(etas), tuple(gammas))
            cfg = scenario.ScenarioConfig(h, mode="local")
            for i, sim in enumerate(_steering_values(cfg), start=1):
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


class TestScalarPath:
    """One-history (float) strengths keep the array path's bits and warnings."""

    def test_coherence_of_floats_matches_numpy_bits(self):
        xs = np.random.default_rng(79).uniform(-1, 1, 10_000).tolist() + [0.0, -0.0, 1.0]
        batch = coherence(np.array(xs))
        for x, b in zip(xs, batch):
            got = coherence(x)
            assert got.hex() == float(np.sqrt(1 - x * x)).hex() == float(b).hex()

    @pytest.mark.parametrize("x", [1.5, -1.0 - 2e-16, -3.0, float("inf"), float("nan")])
    def test_coherence_outside_unit_interval_warns_as_numpy(self, x):
        def run(f):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = f()
            return value, [(w.category, str(w.message)) for w in caught]

        value, caught = run(lambda: coherence(x))
        want, want_caught = run(lambda: np.sqrt(1 - x * x))
        assert np.isnan(value) and np.isnan(want)
        assert caught == want_caught
        assert bool(caught) == (not np.isnan(x))  # NaN passes through silently

    def test_mode_closed_forms_of_floats_match_batch(self):
        rng = np.random.default_rng(83)
        n = 500
        lam = rng.uniform(0, 1, (2, 4, n))
        edge = rng.random(lam.shape) < 0.05
        lam[edge] = rng.integers(0, 2, edge.sum())  # exact 0 and 1 strengths
        pairs = rng.integers(1, 5, n)
        for mode in ("nonlocal", "local", "compare"):
            batch = {p: scenario._mode_closed_forms(mode, list(lam[0, :p]), list(lam[1, :p]))
                     for p in range(1, 5)}
            for k, p in enumerate(pairs):
                s, st = scenario._mode_closed_forms(mode, lam[0, :p, k].tolist(),
                                                    lam[1, :p, k].tolist())
                bs, bst = batch[p]
                assert len(s) == len(bs) and len(st) == len(bst)
                assert [v.hex() for v in s + st] == [float(b[k]).hex() for b in bs + bst]


class TestStrengthHistory:
    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            StrengthHistory(((1.2, 0.5),))

    @pytest.mark.parametrize("make, message", [
        (lambda: StrengthHistory((("a", "b"),)), "strengths ('a', 'b') are not all numbers"),
        (lambda: StrengthHistory(((None, 0.5),)), "strengths (None, 0.5) are not all numbers"),
        (lambda: StrengthHistory(((True, 0.5),)), "strengths (True, 0.5) are not all numbers"),
        (lambda: StrengthHistory.local_sqrt([("a", 0.5)]),
         "strengths ('a', 0.5) are not all numbers"),
        (lambda: StrengthHistory(((0.25, 0.25),), (("a", 0.5),), ((0.5, 0.5),)),
         "strengths ('a', 0.5) are not all numbers"),
    ], ids=["strings", "none", "bool", "local-sqrt", "local-etas"])
    def test_rejects_non_numeric(self, make, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make()

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
            rho4, _ = compress(_post_pair_one([SQRT_HALF, lam2]))
            e = ellipsoid(bloch_form(rho4))
            # The invariant axis lies along the Bloch y direction.
            idx = np.argmax(np.abs(e.orientation[1, :]))
            assert e.semiaxes[idx] == pytest.approx(expected, abs=1e-10)

    def test_orientation_stable_under_rounding_noise(self):
        # Eigenvectors are fixed only up to sign (and rotation within equal
        # semiaxes); the reported columns must not follow 1e-15 noise.
        rng = np.random.default_rng(71)
        for lams in rng.uniform(0, 1, (300, 2)):
            rho4, _ = compress(_post_pair_one(lams))
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
        rho4, _ = compress(_post_pair_one([0.6, 0.3]))
        b = bloch_form(rho4)
        ec, eab = ellipsoid(b, "charlie"), ellipsoid(b, "ab")
        assert np.allclose(np.sort(ec.semiaxes), np.sort(eab.semiaxes), atol=1e-10)

    def test_degenerate_steerer(self):
        b = BlochForm(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                      np.diag([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="^steering party is pure; ellipsoid degenerates$"):
            ellipsoid(b)
        with pytest.raises(ValueError, match="^steering party is pure; volume degenerates$"):
            ellipsoid_volume_check(b)

    @pytest.mark.parametrize("call, arg, kind", [
        (compress, "x", "DensityMatrix"), (bloch_form, "x", "DensityMatrix"),
        (ellipsoid, None, "BlochForm"), (ellipsoid_volume_check, ghz(), "BlochForm"),
    ], ids=["compress", "bloch_form", "ellipsoid", "ellipsoid_volume_check"])
    def test_single_state_helpers_reject_other_types(self, call, arg, kind):
        with pytest.raises(ShapeError,
                           match=f"^expected a {kind}, got {type(arg).__name__}$"):
            call(arg)

    @pytest.mark.parametrize("fields, message", [
        ((np.zeros(2), np.zeros(3), np.eye(3)), "m_tilde shape (2,), expected (3,)"),
        (("abc", "abc", "abc"), "m_tilde is a str, not a numpy array"),
        ((np.zeros(3), [0.0, 0.0, 0.0], np.eye(3)), "n_vec is a list, not a numpy array"),
        ((np.zeros(3), np.zeros(3), np.eye(3).astype(str)), "T dtype <U32 is not real"),
        ((np.zeros(3), np.zeros(3), np.eye(3) + 0j), "T dtype complex128 is not real"),
        ((np.zeros(3), np.zeros(3), np.eye(2)), "T shape (2, 2), expected (3, 3)"),
    ], ids=["short-vector", "str", "list", "str-array", "complex", "small-T"])
    @pytest.mark.parametrize("call", [ellipsoid, ellipsoid_volume_check],
                             ids=["ellipsoid", "ellipsoid_volume_check"])
    def test_malformed_bloch_form_raises_shape_error(self, call, fields, message):
        with pytest.raises(ShapeError) as err:
            call(BlochForm(*fields))
        assert str(err.value) == message

    def test_volume_formula_matches_matrix(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            lams = rng.uniform(0, 1, 2)
            rho4, _ = compress(_post_pair_one(lams))
            b = bloch_form(rho4)
            assert abs(ellipsoid_volume_check(b) - ellipsoid(b).volume) <= 1e-10

    def test_product_state_volume_zero(self):
        b = BlochForm(np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.0, 0.5]),
                      np.outer([0, 0, 0.5], [0, 0, 0.5]))
        assert ellipsoid_volume_check(b) == pytest.approx(0.0, abs=1e-12)

    def test_containment(self):
        rng = np.random.default_rng(71)
        rho4, _ = compress(_post_pair_one([0.8, 0.35]))
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
    forms = [bloch_form(compress(_post_pair_one(x))[0]) for x in lams]
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
        with pytest.raises(ValueError, match="steering party is pure; ellipsoid degenerates"):
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


def _seeded_run_stacks():
    """The Charlie and AB ellipsoids of every pair, per nonlocal run of 1-4
    pairs with signed x/y/z Charlie directions and mostly scalar strengths,
    many of them special values, so that semiaxes tie."""
    rng = np.random.default_rng(29)
    labels = ["x", "-x", "y", "-y", "z", "-z"]
    special = [0.0, 0.5, SQRT_HALF, 1.0]
    for k in range(300):
        lams = [float(rng.choice(special)) if rng.uniform() < 0.3
                else float(rng.uniform()) if rng.uniform() < 0.7
                else rng.uniform(0, 1, 2).tolist() for _ in range(k % 4 + 1)]
        cfg = scenario.make_config("nonlocal", lams,
                                   charlie_directions=rng.choice(labels, 2).tolist())
        yield [e for r in scenario.run_scenario(cfg)
               for e in (r.charlie_ellipsoid, r.ab_ellipsoid)]


class TestRunEllipsoids:
    def test_equal_compress_then_bloch_form_with_exact_centres(self):
        # GHZ dephased by nonlocal pairs keeps m~ = n = 0 exactly, so every
        # centre is an exact 0.0; read off the evolved tensor, each ellipsoid
        # also equals the one of the reported state's own compression.
        rng = np.random.default_rng(43)
        labels = ["x", "-x", "y", "-y", "z", "-z"]
        count = 0
        for directions in itertools.product(labels, repeat=2):
            for pairs in [1, 2, 3, 4] * 3:
                cfg = scenario.make_config("nonlocal", rng.uniform(0, 1, (pairs, 2)).tolist(),
                                           charlie_directions=directions)
                for r in scenario.run_scenario(cfg):
                    b = bloch_form(compress(r.state)[0])
                    for party, got in (("charlie", r.charlie_ellipsoid), ("ab", r.ab_ellipsoid)):
                        assert np.all(got.center == 0.0)
                        want = ellipsoid(b, party)
                        for name in ("center", "matrix", "semiaxes", "orientation"):
                            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) \
                                <= 1e-14, name
                        assert abs(got.volume - want.volume) <= 1e-14
                        count += 1
        assert count == 2160

    def test_bits_equal_general_oracle(self, monkeypatch):
        # The closed-form T-state ellipsoids against the general `eigh` path
        # on the very tensors the run compressed, as the run used to solve
        # them: Charlie rows (m~, n, T), then AB rows (n, m~, T^T).  Bits are
        # compared on the int64 view, which tells -0.0 from 0.0.
        compressed = []

        def spy(t):
            out = real(t)
            compressed.append(out[0])
            return out

        real = scenario.compressed_tensors
        monkeypatch.setattr(scenario, "compressed_tensors", spy)
        rng = np.random.default_rng(59)
        labels = ["x", "-x", "y", "-y", "z", "-z"]
        # Exact ties, near ties across DEGENERACY_TOL (semiaxes move by about
        # 0.6 of an offset from 0.5), and tiny strengths whose three semiaxes
        # chain: each within the tolerance of the next but not of the first.
        special = [0.0, 0.5, SQRT_HALF, 1.0, 0.5 + 1e-11, 0.5 - 1e-9, 0.5 + 2e-9,
                   0.5 + 1e-8, 7e-5, 5e-5, 3e-5]
        groups = set()
        for k in range(400):
            lams = [[float(rng.choice(special)) if rng.uniform() < 0.6 else float(rng.uniform())
                     for _ in range(2)] for _ in range(k % 4 + 1)]
            cfg = scenario.make_config("nonlocal", lams,
                                       charlie_directions=rng.choice(labels, 2).tolist())
            results = scenario.run_scenario(cfg)
            t = compressed.pop()
            m, n, T = t[:, 1:, 0], t[:, 0, 1:], t[:, 1:, 1:]
            want = ellipsoids(np.concatenate([m, n]), np.concatenate([n, m]),
                              np.concatenate([T, T.transpose(0, 2, 1)]))
            for i, r in enumerate(results):
                for got, ref in ((r.charlie_ellipsoid, want[i]), (r.ab_ellipsoid,
                                                                   want[len(results) + i])):
                    for name in ("center", "matrix", "semiaxes", "orientation"):
                        assert np.array_equal(getattr(got, name).view(np.int64),
                                              getattr(ref, name).view(np.int64)), name
                    assert got.volume.hex() == ref.volume.hex()
                gaps = -np.diff(r.charlie_ellipsoid.semiaxes)
                tied = gaps <= 1e-9
                groups.add((tuple(tied), bool(gaps.sum() <= 1e-9),
                            bool(np.any((gaps > 1e-9) & (gaps <= 1e-8)))))
        # Untied, one tied pair either way, all three tied, a chain (both
        # pairs tied, first and last not), and near misses just past the tolerance.
        assert {(False, False), (True, False), (False, True), (True, True)} <= \
            {g[0] for g in groups}
        assert ((True, True), False, False) in groups and ((True, True), True, False) in groups
        assert any(g[2] for g in groups)


class TestTieBreakOracle:
    def test_orientation_equals_per_member_oracle(self):
        stacks = list(_seeded_run_stacks())
        stacks += [[ellipsoid(b, party) for b in _seeded_forms()] for party in ("charlie", "ab")]
        members = ties = 0
        for e in itertools.chain.from_iterable(stacks):
            # One member's `eigh` gives the bits of the stacked call.
            w, v = np.linalg.eigh(e.matrix)
            semiaxes = np.sqrt(np.clip(w[::-1], 0.0, None))
            assert np.array_equal(semiaxes.view(np.int64), e.semiaxes.view(np.int64))
            want = tie_broken_axes(semiaxes, v[:, ::-1])
            lead = np.take_along_axis(want, np.abs(want).argmax(axis=0)[None], axis=0)
            want = want * np.sign(lead)
            assert np.array_equal(e.orientation.view(np.int64), want.view(np.int64))
            members += 1
            ties += np.min(-np.diff(semiaxes)) <= 1e-9
        assert ties >= 100 and members - ties >= 100  # tied and untied members covered


class TestRunScenarioErrors:
    """A run that cannot compress at pair i fails with the error and message
    of that pair's own compression.  (Dephasing never changes the AB
    populations, so either every pair of a run compresses or none does.)  A
    run whose compressed state at pair i is not a T-state has left GHZ's
    Pauli components: it fails naming pair i and the first such entry."""

    def test_compression_failure(self):
        with pytest.raises(ConfigError) as err:
            scenario.ScenarioConfig.from_json(
                {"pairs": 3, "strengths": [0.3, 0.6], "compression": "01,10"})
        assert str(err.value) == "config key 'compression' must be '00,11', got '01,10'"

    @pytest.mark.parametrize("pairs, fail_at",
                             [(p, i) for p in range(1, 5) for i in range(1, p + 1)])
    @pytest.mark.parametrize("fault", ["pure_ab_qubit", "pure_charlie", "off_diagonal_t",
                                       "not_compressible"])
    def test_failure_at_pair(self, monkeypatch, pairs, fail_at, fault):
        # The fault enters member fail_at of the run's stacked compression:
        # its input tensors or its output Bloch forms (a pure m~ or n, or a
        # T entry off the diagonal).  A not-compressible fault also enters
        # every later member, each leaking a different weight, so the
        # message names the first failing member.
        real = scenario.compressed_tensors
        if fault == "not_compressible":
            leak = np.zeros((8, 8), dtype=complex)
            leak[2, 2] = 1.0  # |010>, outside span{|00>, |11>} x C2
            leak = pauli_tensor(leak)

            def faulty(t):
                t = t.copy()
                for j in range(fail_at, len(t) + 1):
                    t[j - 1] = (1 - j / 10) * t[j - 1] + j / 10 * leak
                return real(t)
        else:
            def faulty(t):
                small, weights = real(t)
                # m~ is column 0 of a compressed tensor, Charlie's n row 0.
                k = fail_at - 1
                if fault == "pure_ab_qubit":
                    small[k, 1:, 0] = [0.6, 0.0, 0.8]
                elif fault == "pure_charlie":
                    small[k, 0, 1:] = [0.6, 0.0, 0.8]
                else:
                    small[k, 3, 2] = -1e-300
                return small, weights

        monkeypatch.setattr(scenario, "compressed_tensors", faulty)
        cfg = scenario.make_config("nonlocal", [0.4] * pairs)
        entry = {"pure_ab_qubit": "0.6 at [1, 0]", "pure_charlie": "0.6 at [0, 1]",
                 "off_diagonal_t": "-1e-300 at [3, 2]"}
        kind, message = (
            (NotCompressibleError, f"only {1 - fail_at / 10:.12f} of the state lies in "
                                   f"span{{|00>, |11>}} x C2")
            if fault == "not_compressible"
            else (InvariantError, f"pair {fail_at} is not a T-state (m~ = n = 0, T diagonal): "
                                  f"its compressed tensor holds {entry[fault]}"))
        with pytest.raises(kind) as err:
            scenario.run_scenario(cfg)
        assert str(err.value) == message

