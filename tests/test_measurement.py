import itertools
import math

import numpy as np
import pytest

from steershare.errors import ConfigError
from steershare.measurement import _anticommute, _damped, _setting_plan
from steershare.states import DensityMatrix, ghz, ket
from steershare.steering import StrengthHistory

from oracles import AXES, ORACLE_TOL, direction, kron_plan, make_instrument, pauli_tensor, \
    state_from_tensor, update
from util import random_density

YY = direction((2, 2))


def _random_setting(rng, qubits=(0, 1, 2)):
    """A (paulis, sign, strength) measurement: a random signed Pauli product
    on some of `qubits` of a 3-qubit register, never the identity."""
    paulis = [0, 0, 0]
    while not any(paulis):
        for q in qubits:
            paulis[q] = int(rng.integers(0, 4))
    return tuple(paulis), float(rng.choice([-1.0, 1.0])), float(rng.uniform(0, 1))


def _dephase(rho, settings):
    """The kernel's averaged update of a 3-qubit matrix, on all 64 of its
    Pauli components: settings[k] lists the (paulis, sign, strength)
    measurements of setting k, one per party.  A component's mask in a
    setting has bit p where party p's direction anticommutes with it
    (`measurement._anticommute`), and `measurement._damped` damps it by the
    mean over two settings of the product of those parties' coherences.
    One setting is passed as two equal ones, and three as the mean of
    three single-setting updates."""
    t = pauli_tensor(rho).reshape(-1).tolist()
    strings = list(itertools.product(range(4), repeat=3))
    masks, dampings = [], []
    for parties in settings:
        masks.append([sum(_anticommute(p, s) << i for i, (p, _, _) in enumerate(parties))
                      for s in strings])
        c = [math.sqrt(1 - lam ** 2) for _, _, lam in parties]
        dampings.append([math.prod(x for i, x in enumerate(c) if m >> i & 1)
                         for m in range(1 << len(c))])
    halves = [(0, 1)] if len(settings) == 2 else [(k, k) for k in range(len(settings))]
    out = sum(np.array(_damped(t, list(zip(masks[a], masks[b])), dampings[a], dampings[b]))
              for a, b in halves) / len(halves)
    return state_from_tensor(out.reshape(4, 4, 4)).mat


def _projective(rho, paulis, sign):
    """sum_pm P rho P with P = (I +- D)/2: the sharp measurement of D."""
    d = direction(paulis, sign)
    return sum(p @ rho @ p for p in ((np.eye(8) + d) / 2, (np.eye(8) - d) / 2))


class TestMakeInstrument:
    """The oracle's instrument: K+- = alpha I +- beta D."""

    def test_sharp_limit_is_projective(self):
        effects, kraus = make_instrument(direction((3,)), 1.0)
        p0 = np.outer(ket("0"), ket("0"))
        p1 = np.outer(ket("1"), ket("1"))
        for got in (effects, kraus):
            assert np.max(np.abs(got[0] - p0)) <= 1e-15
            assert np.max(np.abs(got[1] - p1)) <= 1e-15

    def test_zero_strength(self):
        effects, kraus = make_instrument(YY, 0.0)
        assert np.allclose(effects[0], np.eye(4) / 2)
        assert np.allclose(kraus[0], np.eye(4) / np.sqrt(2), atol=1e-15)

    def test_closed_form_kraus(self):
        # Hermitian PSD K with K^2 = E: the unique PSD square root of E.
        effects, kraus = make_instrument(YY, 0.6)
        for e, k in zip(effects, kraus):
            assert np.max(np.abs(k - k.conj().T)) == 0.0
            assert np.min(np.linalg.eigvalsh(k)) >= 0.0
            assert np.max(np.abs(k @ k - e)) <= 1e-15
        assert np.max(np.abs(kraus[0] @ kraus[0] + kraus[1] @ kraus[1] - np.eye(4))) <= 1e-15

    def test_completeness_and_consistency_random(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            paulis, sign, lam = _random_setting(rng)
            effects, kraus = make_instrument(direction(paulis, sign), lam)
            eye = np.eye(8)
            assert np.max(np.abs(effects[0] + effects[1] - eye)) <= 1e-15
            assert np.max(np.abs(kraus[0] @ kraus[0] + kraus[1] @ kraus[1] - eye)) <= 1e-15
            for e, k in zip(effects, kraus):
                assert np.min(np.linalg.eigvalsh(e)) >= -1e-15
                assert np.max(np.abs(k.conj().T @ k - e)) <= 1e-15
                assert np.max(np.abs(k @ k.conj().T - e)) <= 1e-15


class TestLudersUpdate:
    """The kernel on nonlocal settings, one direction each: the averaged
    Lüders update sum_pm K_pm rho K_pm."""

    def test_zero_strength_identity(self):
        out = _dephase(ghz().mat, [[((2, 2, 0), -1.0, 0.0)], [((2, 1, 0), 1.0, 0.0)]])
        assert np.max(np.abs(out - ghz().mat)) <= 1e-15

    def test_anticommuting_damps_commuting_passes(self):
        lam = 0.73
        out = _dephase(ghz().mat, [[((2, 2, 0), 1.0, lam)]])
        damped = direction((2, 1, 2))  # sigma_y sigma_x sigma_y anticommutes with YY
        passed = direction((2, 2, 1))  # sigma_y sigma_y sigma_x commutes with YY
        for obs, factor in ((damped, np.sqrt(1 - lam ** 2)), (passed, 1.0)):
            assert np.trace(out @ obs).real == pytest.approx(
                factor * np.trace(ghz().mat @ obs).real, abs=1e-15)

    def test_two_settings_average(self):
        lam = 0.42
        out = _dephase(ghz().mat, [[((2, 2, 0), 1.0, lam)], [((2, 1, 0), 1.0, lam)]])
        factor = (1 + np.sqrt(1 - lam ** 2)) / 2
        for obs in (direction((2, 2, 1)), direction((2, 1, 2))):
            assert np.trace(out @ obs).real == pytest.approx(
                factor * np.trace(ghz().mat @ obs).real, abs=1e-15)

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = random_density(rng, 3).mat
            out = _dephase(rho, [[_random_setting(rng)] for _ in range(rng.integers(1, 4))])
            assert abs(np.trace(out) - 1) <= 1e-15

    def test_sharp_limit_matches_projective(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            rho = random_density(rng, 3).mat
            paulis, sign, _ = _random_setting(rng)
            out = _dephase(rho, [[(paulis, sign, 1.0)]])
            assert np.max(np.abs(out - _projective(rho, paulis, sign))) <= 1e-15

    def test_commutation_damping_law(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            paulis, sign, lam = _random_setting(rng)
            obs = direction(tuple(int(i) for i in rng.integers(0, 4, 3)))
            d = direction(paulis, sign)
            commute = np.max(np.abs(d @ obs - obs @ d)) == 0.0
            assert commute != (np.max(np.abs(d @ obs + obs @ d)) == 0.0)
            out = _dephase(ghz().mat, [[(paulis, sign, lam)]])
            factor = 1.0 if commute else np.sqrt(1 - lam ** 2)
            assert abs(np.trace(out @ obs).real
                       - factor * np.trace(ghz().mat @ obs).real) <= 1e-15

    def test_matches_kraus_oracle(self):
        # Any signed Pauli product, on any qubits, with 1-3 settings.
        rng = np.random.default_rng(47)
        worst = 0.0
        for _ in range(200):
            rho = random_density(rng, 3).mat
            settings = [[_random_setting(rng)] for _ in range(rng.integers(1, 4))]
            worst = max(worst, np.max(np.abs(_dephase(rho, settings) - update(rho, settings))))
        assert worst <= ORACLE_TOL


class TestLocalPairUpdate:
    """The kernel on local settings: A and B each measure one qubit."""

    def test_eigenstate_unchanged(self):
        rho = np.outer(ket("000"), ket("000")).astype(complex)
        out = _dephase(rho, [[((3, 0, 0), 1.0, 1.0), ((0, 3, 0), 1.0, 1.0)]])
        assert np.max(np.abs(out - rho)) <= 1e-15

    def test_damping_only_from_anticommuting_party(self):
        eta, gam = 0.9, 0.55
        out = _dephase(ghz().mat, [[((2, 0, 0), 1.0, eta), ((0, 2, 0), 1.0, gam)]])
        obs = direction((2, 1, 2))  # sigma_y on A commutes, sigma_x on B anticommutes
        assert np.trace(out @ obs).real == pytest.approx(
            np.sqrt(1 - gam ** 2) * np.trace(ghz().mat @ obs).real, abs=1e-15)

    def test_full_pair_matches_closed_form(self):
        # Joint strength 0.5 per setting, split as eta = gamma = sqrt(0.5).
        s = np.sqrt(0.5)
        evolved = DensityMatrix(3, _dephase(ghz().mat, [
            [((2, 0, 0), 1.0, s), ((0, 2, 0), 1.0, s)],
            [((2, 0, 0), 1.0, s), ((0, 1, 0), 1.0, s)]]))
        # Pair-2 sharp correlators inherit one (1 + F_gamma)/2 factor each.
        factor = (1 + np.sqrt(1 - 0.5)) / 2
        assert np.trace(evolved.mat @ direction((2, 2, 1), -1.0)).real == pytest.approx(
            factor, abs=1e-15)
        assert np.trace(evolved.mat @ direction((2, 1, 2), -1.0)).real == pytest.approx(
            factor, abs=1e-15)

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            rho = random_density(rng, 3).mat
            out = _dephase(rho, [[_random_setting(rng, (0,)), _random_setting(rng, (1,))]
                                 for _ in range(rng.integers(1, 3))])
            assert abs(np.trace(out) - 1) <= 1e-15

    def test_matches_kraus_oracle(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(200):
            rho = random_density(rng, 3).mat
            settings = [[_random_setting(rng, (0,)), _random_setting(rng, (1,))]
                        for _ in range(rng.integers(1, 4))]
            worst = max(worst, np.max(np.abs(_dephase(rho, settings) - update(rho, settings))))
        assert worst <= ORACLE_TOL

    def test_length_mismatch(self):
        # Every pair needs an A and a B strength for each of its two settings.
        for etas, gammas in ((((0.5, 0.5),), ((0.5,),)), (((0.5,),), ((0.5,),))):
            with pytest.raises(ConfigError, match="two settings"):
                StrengthHistory(((0.25, 0.25),), etas, gammas)


class TestDampingTable:
    """The setting plan `_setting_plan`, read off Pauli bits, against
    anticommutation of full np.kron matrices (`oracles.kron_plan`), in every
    plan `ScenarioConfig` admits: its masks, read components, signs and
    damping terms.  Setting l damps the GHZ component setting k reads,
    through party p, when p's direction in setting l anticommutes with that
    component."""

    @pytest.mark.parametrize("mode, party", [("nonlocal", 0), ("local", 1)])
    def test_table_equals_kron_anticommutation(self, mode, party):
        # A label's sign changes no direction's mask, so resolved axes cover
        # every plan: 9 nonlocal and 4 local axis pairs.
        for axes in itertools.product("xyz" if mode == "nonlocal" else "xy", repeat=2):
            plan = _setting_plan(mode, axes)
            assert plan == kron_plan(mode, axes)
            for k, (r, sign) in enumerate(zip(plan[1], plan[2])):
                # The component setting k reads, times its sign, is the sharp
                # correlator <D x L>, +1 on GHZ.
                c, _, p, q = AXES[axes[k]]
                assert sign * np.trace(ghz().mat @ direction((p, q, c))).real == \
                    pytest.approx(1.0, abs=1e-15)
                assert plan[0][r][k] == 0  # its own setting leaves it alone
            assert all(type(x) is int for m in plan[0] for x in m)
            damps = set()
            for k, read_axis in enumerate(axes):
                c, _, p, q = AXES[read_axis]
                read = direction((p, q, c))
                for l, axis in enumerate(axes):
                    _, _, pl, ql = AXES[axis]
                    dirs = [(pl, ql, 0)] if mode == "nonlocal" else [(pl, 0, 0), (0, ql, 0)]
                    for who, paulis in enumerate(dirs):
                        d = direction(paulis)
                        assert np.max(np.abs(d @ read + read @ d)) == 0.0 or \
                            np.max(np.abs(d @ read - read @ d)) == 0.0
                        if np.max(np.abs(d @ read + read @ d)) == 0.0:
                            damps.add((k, l, who))
            table = plan[3]
            assert {(k, l, who) for k, terms in enumerate(table) for l, who in terms} == damps
            # What `closed_forms` relies on: a damping setting acts through one
            # party, and no setting damps the component it reads.
            for k, terms in enumerate(table):
                settings = [l for l, _ in terms]
                assert len(set(settings)) == len(settings) and k not in settings
            if axes[0] == axes[1]:
                assert table == ((), ())
            if sorted(axes) == ["x", "y"]:
                # Each setting damps the other's component only: through the
                # joint measurement (nonlocal), or through B alone (local).
                assert damps == {(0, 1, party), (1, 0, party)}
