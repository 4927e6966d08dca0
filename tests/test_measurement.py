import itertools

import numpy as np
import pytest

from steershare.errors import ConfigError, ShapeError
from steershare.linalg import I2, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, embed, kron
from steershare.measurement import (
    Instrument,
    UnsharpSetting,
    local_pair_update,
    luders_update,
    make_instrument,
)
from steershare.states import DensityMatrix, ghz, ket

from util import random_density

YY = kron(SIGMA_Y, SIGMA_Y)
YX = kron(SIGMA_Y, SIGMA_X)

AB_PAULIS = [kron(p, q) for p in (I2,) + PAULIS for q in (I2,) + PAULIS][1:]


def _random_setting(rng, acts_on=(0, 1)):
    ops = (I2,) + PAULIS
    dirs = [ops[i] for i in rng.integers(0, 4, size=len(acts_on))]
    d = dirs[0]
    for extra in dirs[1:]:
        d = kron(d, extra)
    if np.allclose(d, np.eye(d.shape[0])):
        d = kron(SIGMA_Y, SIGMA_Y) if len(acts_on) == 2 else SIGMA_Y
    sign = rng.choice([-1.0, 1.0])
    return UnsharpSetting(sign * d, float(rng.uniform(0, 1)), acts_on)


def _kraus_oracle(rho, branches):
    """(1/n) sum_k sum_K K rho K^dag over n settings' full-register Kraus sets."""
    out = sum(k @ rho.mat @ dagger(k) for branch in branches for k in branch)
    return out / len(branches)


def _padded_kraus(s, qubits=3):
    return [embed(k, s.acts_on, qubits) for k in make_instrument(s).kraus]


ORACLE_TOL = 1e-14  # channel form vs eigh-built Kraus operators, |rho| <= 1


class TestMakeInstrument:
    def test_sharp_limit_is_projective(self):
        inst = make_instrument(UnsharpSetting(SIGMA_Z, 1.0, (0,)))
        p0 = np.outer(ket("0"), ket("0"))
        p1 = np.outer(ket("1"), ket("1"))
        assert np.allclose(inst.effects[0], p0, atol=1e-12)
        assert np.allclose(inst.effects[1], p1, atol=1e-12)
        assert np.allclose(inst.kraus[0], p0, atol=1e-10)
        assert np.allclose(inst.kraus[1], p1, atol=1e-10)

    def test_zero_strength(self):
        inst = make_instrument(UnsharpSetting(YY, 0.0, (0, 1)))
        assert np.allclose(inst.effects[0], np.eye(4) / 2)
        assert np.allclose(inst.kraus[0], np.eye(4) / np.sqrt(2), atol=1e-12)

    def test_closed_form_kraus(self):
        lam = 0.6
        inst = make_instrument(UnsharpSetting(YY, lam, (0, 1)))
        alpha = (np.sqrt((1 + lam) / 2) + np.sqrt((1 - lam) / 2)) / 2
        beta = (np.sqrt((1 + lam) / 2) - np.sqrt((1 - lam) / 2)) / 2
        assert np.max(np.abs(inst.kraus[0] - (alpha * np.eye(4) + beta * YY))) <= 1e-12
        assert np.max(np.abs(inst.kraus[1] - (alpha * np.eye(4) - beta * YY))) <= 1e-12

    def test_completeness_and_consistency_random(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            s = _random_setting(rng)
            inst = make_instrument(s)
            eye = np.eye(4)
            assert np.max(np.abs(inst.effects[0] + inst.effects[1] - eye)) <= 1e-10
            for e, k in zip(inst.effects, inst.kraus):
                assert np.min(np.linalg.eigvalsh(e)) >= -1e-12
                assert np.max(np.abs(dagger(k) @ k - e)) <= 1e-10
                assert np.max(np.abs(k @ dagger(k) - e)) <= 1e-10

    def test_rejects_non_involution(self):
        with pytest.raises(ShapeError):
            UnsharpSetting(0.5 * SIGMA_Z, 0.5, (0,))

    @pytest.mark.parametrize("direction, acts_on", [
        (np.eye(4)[[0, 2, 1, 3]].astype(complex), (0, 1)),  # SWAP
        ((SIGMA_X + SIGMA_Z) / np.sqrt(2), (0,)),
    ])
    def test_rejects_involution_that_is_not_a_pauli_product(self, direction, acts_on):
        eye = np.eye(len(direction))
        assert np.max(np.abs(direction - dagger(direction))) <= 1e-15
        assert np.max(np.abs(direction @ direction - eye)) <= 1e-15
        with pytest.raises(ShapeError):
            UnsharpSetting(direction, 0.5, acts_on)

    @pytest.mark.parametrize("acts_on", [(0, 0), (-1, 0)])
    def test_rejects_bad_qubit_list(self, acts_on):
        with pytest.raises(ShapeError):
            UnsharpSetting(YY, 0.5, acts_on)

    def test_records_pauli_indices(self):
        assert UnsharpSetting(-YX, 0.5, (0, 1)).paulis == (2, 1)
        assert UnsharpSetting(kron(SIGMA_Z, I2), 0.5, (1, 2)).paulis == (3, 0)

    def test_rejects_bad_strength(self):
        with pytest.raises(ConfigError):
            UnsharpSetting(SIGMA_Z, 1.2, (0,))


class TestLudersUpdate:
    def test_zero_strength_identity(self):
        settings = [UnsharpSetting(-YY, 0.0, (0, 1)), UnsharpSetting(YX, 0.0, (0, 1))]
        out = luders_update(ghz(), settings)
        assert np.max(np.abs(out.mat - ghz().mat)) <= 1e-12

    def test_anticommuting_damps_commuting_passes(self):
        lam = 0.73
        out = luders_update(ghz(), [UnsharpSetting(YY, lam, (0, 1))])
        f = np.sqrt(1 - lam ** 2)
        damped = kron(YX, SIGMA_Y)      # sigma_y sigma_x sigma_y anticommutes with YY
        passed = kron(YY, SIGMA_X)      # sigma_y sigma_y sigma_x commutes with YY
        assert out.expectation(damped) == pytest.approx(f * ghz().expectation(damped), abs=1e-10)
        assert out.expectation(passed) == pytest.approx(ghz().expectation(passed), abs=1e-10)

    def test_two_settings_average(self):
        lam = 0.42
        settings = [UnsharpSetting(YY, lam, (0, 1)), UnsharpSetting(YX, lam, (0, 1))]
        out = luders_update(ghz(), settings)
        factor = (1 + np.sqrt(1 - lam ** 2)) / 2
        for obs in (kron(YY, SIGMA_X), kron(YX, SIGMA_Y)):
            assert out.expectation(obs) == pytest.approx(
                factor * ghz().expectation(obs), abs=1e-10)

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = random_density(rng, 3)
            settings = [_random_setting(rng) for _ in range(rng.integers(1, 4))]
            out = luders_update(rho, settings)
            assert abs(np.trace(out.mat) - 1) <= 1e-12

    def test_sharp_limit_matches_projective(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            rho = random_density(rng, 3)
            s = _random_setting(rng)
            sharp = UnsharpSetting(s.direction, 1.0, s.acts_on)
            out = luders_update(rho, [sharp])
            d = embed(s.direction, s.acts_on, 3)
            expected = np.zeros_like(rho.mat)
            for sign in (1, -1):
                p = (np.eye(8) + sign * d) / 2
                expected += p @ rho.mat @ p
            assert np.max(np.abs(out.mat - expected)) <= 1e-10

    def test_commutation_damping_law(self):
        rng = np.random.default_rng(41)
        ops = (I2,) + PAULIS
        checked = 0
        while checked < 100:
            d_ab = AB_PAULIS[rng.integers(0, len(AB_PAULIS))]
            lam = float(rng.uniform(0, 1))
            p_abc = kron(AB_PAULIS[rng.integers(0, len(AB_PAULIS))],
                         ops[rng.integers(0, 4)])
            # Commutation of D with the AB factor, checked on the padded operator.
            full_d = kron(d_ab, I2)
            comm = full_d @ p_abc - p_abc @ full_d
            anti = full_d @ p_abc + p_abc @ full_d
            before = ghz().expectation(p_abc)
            out = luders_update(ghz(), [UnsharpSetting(d_ab, lam, (0, 1))])
            after = out.expectation(p_abc)
            if np.max(np.abs(comm)) <= 1e-12:
                assert abs(after - before) <= 1e-10
            elif np.max(np.abs(anti)) <= 1e-12:
                assert abs(after - np.sqrt(1 - lam ** 2) * before) <= 1e-10
            else:
                continue
            checked += 1

    def test_matches_kraus_oracle(self):
        rng = np.random.default_rng(47)
        worst = 0.0
        for trial in range(200):
            rho = random_density(rng, 3)
            acts_on = [(0,), (1,), (0, 1)][trial % 3]
            settings = [_random_setting(rng, acts_on) for _ in range(rng.integers(1, 4))]
            expected = _kraus_oracle(rho, [_padded_kraus(s) for s in settings])
            worst = max(worst, np.max(np.abs(luders_update(rho, settings).mat - expected)))
        assert worst <= ORACLE_TOL

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            luders_update(random_density(np.random.default_rng(1), 1),
                          [UnsharpSetting(YY, 0.5, (0, 1))])


class TestLocalPairUpdate:
    def test_eigenstate_unchanged(self):
        rho = DensityMatrix(3, np.outer(ket("000"), ket("000")).astype(complex))
        a = [UnsharpSetting(SIGMA_Z, 1.0, (0,))]
        b = [UnsharpSetting(SIGMA_Z, 1.0, (1,))]
        out = local_pair_update(rho, a, b)
        assert np.max(np.abs(out.mat - rho.mat)) <= 1e-12

    def test_damping_only_from_anticommuting_party(self):
        eta, gam = 0.9, 0.55
        a = [UnsharpSetting(SIGMA_Y, eta, (0,))]
        b = [UnsharpSetting(SIGMA_Y, gam, (1,))]
        out = local_pair_update(ghz(), a, b)
        obs = kron(YX, SIGMA_Y)  # sigma_y on A commutes, sigma_x on B anticommutes
        f_gam = np.sqrt(1 - gam ** 2)
        assert out.expectation(obs) == pytest.approx(
            f_gam * ghz().expectation(obs), abs=1e-10)

    def test_full_pair_matches_closed_form(self):
        # Joint strength 0.5 per setting, split as eta = gamma = sqrt(0.5).
        eta = [np.sqrt(0.5), np.sqrt(0.5)]
        a = [UnsharpSetting(SIGMA_Y, eta[0], (0,)), UnsharpSetting(SIGMA_Y, eta[1], (0,))]
        b = [UnsharpSetting(SIGMA_Y, eta[0], (1,)), UnsharpSetting(SIGMA_X, eta[1], (1,))]
        evolved = local_pair_update(ghz(), a, b)
        # Pair-2 sharp correlators inherit one (1 + F_gamma)/2 factor each.
        factor = (1 + np.sqrt(1 - 0.5)) / 2
        assert evolved.expectation(kron(-YY, SIGMA_X)) == pytest.approx(factor, abs=1e-10)
        assert evolved.expectation(kron(YX, -SIGMA_Y)) == pytest.approx(factor, abs=1e-10)

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            rho = random_density(rng, 3)
            n = int(rng.integers(1, 3))
            a = [_random_setting(rng, (0,)) for _ in range(n)]
            b = [_random_setting(rng, (1,)) for _ in range(n)]
            out = local_pair_update(rho, a, b)
            assert abs(np.trace(out.mat) - 1) <= 1e-12

    def test_matches_kraus_oracle(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(200):
            rho = random_density(rng, 3)
            n = int(rng.integers(1, 4))
            a = [_random_setting(rng, (0,)) for _ in range(n)]
            b = [_random_setting(rng, (1,)) for _ in range(n)]
            expected = _kraus_oracle(rho, [
                [ka @ kb for ka in _padded_kraus(sa) for kb in _padded_kraus(sb)]
                for sa, sb in zip(a, b)])
            worst = max(worst, np.max(np.abs(local_pair_update(rho, a, b).mat - expected)))
        assert worst <= ORACLE_TOL

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            local_pair_update(ghz(), [UnsharpSetting(SIGMA_Y, 0.5, (0,))], [])
