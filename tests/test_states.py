import itertools
import json
import re

import numpy as np
import pytest

from steershare.errors import NotCompressibleError, ShapeError
from steershare.linalg import I2, PAULIS
from steershare.scenario import make_config, run_scenario
from steershare.states import (
    GHZ_TENSOR,
    DensityMatrix,
    _check_stack,
    compressed_tensors,
    from_pauli_tensors,
    ghz,
    ket,
    pauli_tensor,
)

from oracles import bloch_form, compress, direction
from util import random_density


def _expectation(rho, op):
    """Tr(rho op); with op = rho.mat, the purity."""
    return np.trace(rho.mat @ op).real


class TestGhz:
    def test_stabilizer_xxx(self):
        assert _expectation(ghz(), direction((1, 1, 1))) == pytest.approx(1.0)

    def test_stabilizer_yyx(self):
        assert _expectation(ghz(), direction((2, 2, 1))) == pytest.approx(-1.0)

    def test_maximally_mixed_marginal(self):
        # Trace out B and Charlie: rows and columns split into (A, B, C).
        marginal = np.einsum("abcdbc->ad", ghz().mat.reshape((2,) * 6))
        assert np.allclose(marginal, np.eye(2) / 2, atol=1e-12)

    def test_pure(self):
        rho = ghz()
        assert _expectation(rho, rho.mat) == pytest.approx(1.0, abs=1e-12)  # purity


class TestDensityMatrix:
    def test_rejects_unnormalized(self):
        with pytest.raises(ShapeError):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ShapeError):
            DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("qubits", [3.0, True, "3", None])
    def test_rejects_non_integer_qubits(self, qubits):
        message = f"qubits={qubits!r} outside supported range 1..3"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            DensityMatrix(qubits, ghz().mat)

    def test_numpy_integer_qubits_round_trip(self):
        rho = DensityMatrix(np.int64(2), np.eye(4) / 4)
        assert type(rho.qubits) is int and json.dumps(rho.qubits) == "2"

    def test_identity_equality_and_hash(self):
        rho = ghz()
        assert (ghz() == ghz()) is False and (rho == rho) is True
        assert len({ghz(), rho, rho}) == 2
        b = bloch_form(compress(rho)[0])
        assert b == b and b != bloch_form(compress(rho)[0])

    def test_accepts_real_matrices(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        assert _expectation(rho, rho.mat) == pytest.approx(0.5)

    @pytest.mark.parametrize("mat, message", [
        ([[1, 0], [0, 0]], "matrix is a list, not a numpy array"),
        (np.array([["1", "0"], ["0", "0"]]), "matrix dtype <U1 is not numeric"),
        (np.eye(2, dtype=bool), "matrix dtype bool is not numeric"),
    ])
    def test_rejects_non_numeric_arrays(self, mat, message):
        with pytest.raises(ShapeError) as err:
            DensityMatrix(1, mat)
        assert str(err.value) == message


def _failing(kind: str, rng) -> np.ndarray:
    """A two-qubit matrix that fails one check of `DensityMatrix`."""
    mat = random_density(rng, 2).mat.copy()
    if kind == "hermitian":
        mat[0, 1] += 1e-6
    elif kind == "trace":
        mat *= 1.001
    elif kind == "negative":
        mat = np.diag([0.6, 0.5, 0.1, -0.2]).astype(complex)
    elif kind == "nan":
        mat[1, 2] = np.nan
    return mat


def _error(call):
    """(type, message) of the error `call()` raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


_MESSAGES = {"hermitian": "density matrix is not Hermitian", "trace": "trace 1.001000000000",
             "negative": "negative eigenvalue -2.000e-01", "nan": "density matrix is not Hermitian"}
_KINDS = tuple(_MESSAGES)


class TestStackValidation:
    """A stack raises the error of its first failing member, as if each member
    were built as a `DensityMatrix` in order."""

    @pytest.mark.parametrize("size, at", [(k, i) for k in range(1, 5) for i in range(k)])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_one_failing_member(self, size, at, kind):
        rng = np.random.default_rng(10 * size + at)
        mats = np.stack([random_density(rng, 2).mat for _ in range(size)])
        mats[at] = _failing(kind, rng)
        want = _error(lambda: DensityMatrix(2, mats[at].copy()))
        assert want[0] is ShapeError
        assert want[1].startswith(_MESSAGES[kind])
        assert _error(lambda: _check_stack(mats)) == want

    @pytest.mark.parametrize("first, later", itertools.product(_KINDS, repeat=2))
    def test_first_failing_member_wins(self, first, later):
        rng = np.random.default_rng(7)
        mats = np.stack([random_density(rng, 2).mat for _ in range(4)])
        mats[1], mats[3] = _failing(first, rng), _failing(later, rng)
        assert _error(lambda: _check_stack(mats)) == \
            _error(lambda: DensityMatrix(2, mats[1].copy()))

    def test_valid_stack_passes(self):
        rng = np.random.default_rng(3)
        _check_stack(np.stack([random_density(rng, 3).mat for _ in range(4)]))

    def test_built_stack_equals_members_built_alone(self):
        rng = np.random.default_rng(5)
        t = np.stack([pauli_tensor(random_density(rng, 3).mat) for _ in range(4)])
        for rho, t_k in zip(from_pauli_tensors(t), t):
            assert rho.qubits == 3 and not rho.mat.flags.writeable
            assert np.max(np.abs(rho.mat - from_pauli_tensors(t_k[None])[0].mat)) <= 1e-15

    def test_built_stack_rejects_invalid_member(self):
        t = np.stack([GHZ_TENSOR, GHZ_TENSOR * 1.5, GHZ_TENSOR])
        assert _error(lambda: from_pauli_tensors(t)) == \
            _error(lambda: from_pauli_tensors(t[1][None]))


class TestCompress:
    def test_ghz_becomes_bell(self):
        rho4, weight = compress(ghz())
        psi = (ket("00") + ket("11")) / np.sqrt(2)
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho4.mat - np.outer(psi, psi.conj()))) <= 1e-12
        assert _expectation(rho4, rho4.mat) == pytest.approx(1.0, abs=1e-10)

    def test_post_measurement_state_stays_supported(self):
        rho = run_scenario(make_config("nonlocal", [[0.7, 0.3]]))[0].state
        _, weight = compress(rho)
        assert weight == pytest.approx(1.0, abs=1e-12)
        # Every direction a nonlocal pair measures maps span{|00>, |11>} into
        # itself: all 36 signed x/y/z Charlie direction pairs, with seeded
        # 1-4-pair histories, keep every state's weight there.
        rng = np.random.default_rng(41)
        labels = ["x", "-x", "y", "-y", "z", "-z"]
        for directions in itertools.product(labels, repeat=2):
            for pairs in [1, 2, 3, 4] * 5:
                cfg = make_config("nonlocal", rng.uniform(0, 1, (pairs, 2)).tolist(),
                                  charlie_directions=directions)
                t = np.stack([pauli_tensor(r.state.mat) for r in run_scenario(cfg)])
                _, weights = compressed_tensors(t)
                assert np.max(np.abs(weights - 1)) <= 1e-15

    def test_w_state_not_compressible(self):
        psi = (ket("001") + ket("010") + ket("100")) / np.sqrt(3)
        w = DensityMatrix(3, np.outer(psi, psi.conj()))
        with pytest.raises(NotCompressibleError):
            compress(w)


class TestPauliTensor:
    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_entries_are_pauli_expectations(self, qubits):
        rho = random_density(np.random.default_rng(qubits), qubits)
        t = pauli_tensor(rho.mat)
        for idx in itertools.product(range(4), repeat=qubits):
            want = _expectation(rho, direction(idx))
            assert abs(t[idx] - want) <= 1e-15

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_round_trip(self, qubits):
        rho = random_density(np.random.default_rng(10 + qubits), qubits)
        again = from_pauli_tensors(pauli_tensor(rho.mat)[None])[0]
        assert np.max(np.abs(again.mat - rho.mat)) <= 1e-15

    def test_ghz_tensor(self):
        # Nonzero entries: 1 at III, +1 at IZZ, ZIZ, ZZI, XXX and -1 at the
        # three Y-Y-X placements (up to float rounding of the GHZ amplitudes).
        want = np.zeros((4, 4, 4))
        for idx in [(0, 0, 0), (0, 3, 3), (3, 0, 3), (3, 3, 0), (1, 1, 1)]:
            want[idx] = 1.0
        for idx in [(1, 2, 2), (2, 1, 2), (2, 2, 1)]:
            want[idx] = -1.0
        assert np.max(np.abs(GHZ_TENSOR - want)) <= 1e-15

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            pauli_tensor(np.eye(3, dtype=complex))
        with pytest.raises(ShapeError):
            from_pauli_tensors(np.zeros((4, 4, 4, 4))[None])
        # Arguments that are not numeric numpy arrays, each with its message.
        for call, arg, message in [
            (pauli_tensor, [[1, 0], [0, 0]], "matrix is a list, not a numpy array"),
            (pauli_tensor, np.array([["1", "0"], ["0", "0"]]), "matrix dtype <U1 is not numeric"),
            (pauli_tensor, np.eye(2, dtype=bool), "matrix dtype bool is not numeric"),
            (pauli_tensor, np.array(0.5), "matrix shape () is not that of 1-3 qubits"),
            (from_pauli_tensors, [[1, 0, 0, 0]], "Pauli tensor stack is a list, not a numpy array"),
            (from_pauli_tensors, np.array([["1", "0", "0", "0"]]),
             "Pauli tensor stack dtype <U1 is not real"),
            (from_pauli_tensors, np.array([[1, 0, 0, 0j]]),
             "Pauli tensor stack dtype complex128 is not real"),
        ]:
            with pytest.raises(ShapeError) as err:
                call(arg)
            assert str(err.value) == message


class TestCompressedBloch:
    @pytest.mark.parametrize("zero, one", [("00", "11")])
    def test_matches_compress_then_bloch_form(self, zero, one):
        # A random state supported on span{|zero>, |one>} x C2, against the
        # definition t[a, c] = Tr(rho (V sigma_a V^dag) x sigma_c), where V
        # maps the compressed qubit's |0~>, |1~> to |zero>, |one>.
        small = random_density(np.random.default_rng(int(zero + one, 2)), 2).mat
        idx = [int(k + c, 2) for k in (zero, one) for c in "01"]
        mat = np.zeros((8, 8), dtype=complex)
        mat[np.ix_(idx, idx)] = small
        v = np.stack([ket(zero), ket(one)], axis=1)
        paulis = (I2,) + PAULIS
        t = np.array([[np.trace(mat @ np.kron(v @ a @ v.conj().T, c)).real for c in paulis]
                      for a in paulis])
        got = bloch_form(compress(DensityMatrix(3, mat))[0])
        for x, want in ((got.m_tilde, t[1:, 0]), (got.n_vec, t[0, 1:]), (got.T, t[1:, 1:])):
            assert np.max(np.abs(x - want)) <= 1e-15

    @pytest.mark.parametrize("kets, weight", [(("001", "010", "100"), "0.333333333333"),
                                              (("010",), "0.000000000000")])
    def test_not_compressible_message_matches_compress(self, kets, weight):
        psi = sum(ket(k) for k in kets) / np.sqrt(len(kets))
        rho = DensityMatrix(3, np.outer(psi, psi.conj()))
        with pytest.raises(NotCompressibleError) as err:
            compress(rho)
        assert str(err.value) == f"only {weight} of the state lies in span{{|00>, |11>}} x C2"


class TestCompressedTensors:
    def test_members_equal_lone_calls(self):
        # Random states supported on span{|00>, |11>} x C2.
        rng = np.random.default_rng(3)
        idx = [int(k + c, 2) for k in ("00", "11") for c in "01"]
        states = []
        for _ in range(4):
            mat = np.zeros((8, 8), dtype=complex)
            mat[np.ix_(idx, idx)] = random_density(rng, 2).mat
            states.append(DensityMatrix(3, mat))
        t = np.stack([pauli_tensor(rho.mat) for rho in states])
        small, weights = compressed_tensors(t)
        for k, rho in enumerate(states):
            alone, w = compressed_tensors(t[k][None])
            assert np.array_equal(small[k], alone[0]) and weights[k] == w[0]
            b = bloch_form(compress(rho)[0])
            assert np.max(np.abs(small[k, 1:, 0] - b.m_tilde)) <= 1e-15
            assert np.max(np.abs(small[k, 0, 1:] - b.n_vec)) <= 1e-15
            assert np.max(np.abs(small[k, 1:, 1:] - b.T)) <= 1e-15

    @pytest.mark.parametrize("size, at", [(k, i) for k in range(1, 5) for i in range(k)])
    def test_not_compressible_message_matches_compress(self, size, at):
        # Members at and after `at` leak weight out of span{|00>, |11>} x C2,
        # each a different amount.
        leak = np.zeros((8, 8), dtype=complex)
        leak[2, 2] = 1.0
        states = [ghz()] * at + [DensityMatrix(3, (1 - j / 8) * ghz().mat + j / 8 * leak)
                                 for j in range(at + 1, size + 1)]
        want = _error(lambda: compress(states[at]))
        assert want[0] is NotCompressibleError
        t = np.stack([pauli_tensor(rho.mat) for rho in states])
        assert _error(lambda: compressed_tensors(t)) == want

    @pytest.mark.parametrize("t", [GHZ_TENSOR, GHZ_TENSOR[None, 0], GHZ_TENSOR[None, None],
                                   np.zeros((2, 4, 4, 3)), GHZ_TENSOR[None].tolist(),
                                   GHZ_TENSOR[None] + 0j],
                             ids=["unstacked", "2-qubit", "4-qubit", "short-axis", "list",
                                  "complex"])
    def test_rejects_other_stacks(self, t):
        with pytest.raises(ShapeError):
            compressed_tensors(t)

    def test_compress_rejects_two_qubit_state(self):
        with pytest.raises(ShapeError):
            compress(DensityMatrix(2, np.eye(4) / 4))


class TestBlochForm:
    def test_compressed_ghz(self):
        rho4, _ = compress(ghz())
        b = bloch_form(rho4)
        assert np.allclose(b.m_tilde, 0, atol=1e-12)
        assert np.allclose(b.n_vec, 0, atol=1e-12)
        assert np.allclose(b.T, np.diag([1, -1, 1]), atol=1e-12)

    def test_maximally_mixed(self):
        b = bloch_form(DensityMatrix(2, np.eye(4, dtype=complex) / 4))
        assert np.allclose(b.m_tilde, 0) and np.allclose(b.n_vec, 0)
        assert np.allclose(b.T, 0)

    def test_product_state(self):
        rho = DensityMatrix(2, np.outer(ket("00"), ket("00")).astype(complex))
        b = bloch_form(rho)
        assert np.allclose(b.m_tilde, [0, 0, 1], atol=1e-12)
        assert np.allclose(b.n_vec, [0, 0, 1], atol=1e-12)
        assert np.allclose(b.T, np.diag([0, 0, 1]), atol=1e-12)

    def test_matches_per_pauli_expectations(self):
        # Reference: one kron'd Pauli product and one trace per coefficient.
        rng = np.random.default_rng(19)
        for _ in range(100):
            rho = random_density(rng, 2)
            b = bloch_form(rho)
            m = [_expectation(rho, np.kron(p, I2)) for p in PAULIS]
            n = [_expectation(rho, np.kron(I2, p)) for p in PAULIS]
            T = [[_expectation(rho, np.kron(p, q)) for q in PAULIS] for p in PAULIS]
            assert np.max(np.abs(b.m_tilde - m)) <= 1e-14
            assert np.max(np.abs(b.n_vec - n)) <= 1e-14
            assert np.max(np.abs(b.T - T)) <= 1e-14

    def test_bounded_invariants(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            b = bloch_form(random_density(rng, 2))
            assert np.linalg.norm(b.m_tilde) <= 1 + 1e-9
            assert np.linalg.norm(b.n_vec) <= 1 + 1e-9
            assert np.max(np.abs(b.T)) <= 1 + 1e-9
