import itertools

import numpy as np
import pytest

from steershare.errors import NotCompressibleError, ShapeError
from steershare.linalg import I2, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, kron, kron_all
from steershare.measurement import UnsharpSetting, luders_update
from steershare.states import (
    GHZ_TENSOR,
    CompressionBasis,
    DensityMatrix,
    bloch_form,
    compress,
    from_pauli_tensor,
    ghz,
    ket,
    pauli_tensor,
    reconstruct,
)

from util import random_density


class TestGhz:
    def test_stabilizer_xxx(self):
        assert ghz().expectation(kron_all(SIGMA_X, SIGMA_X, SIGMA_X)) == pytest.approx(1.0)

    def test_stabilizer_yyx(self):
        assert ghz().expectation(kron_all(SIGMA_Y, SIGMA_Y, SIGMA_X)) == pytest.approx(-1.0)

    def test_maximally_mixed_marginal(self):
        assert np.allclose(ghz().reduced({0}).mat, np.eye(2) / 2, atol=1e-12)

    def test_pure(self):
        assert ghz().purity() == pytest.approx(1.0, abs=1e-12)


class TestDensityMatrix:
    def test_rejects_unnormalized(self):
        with pytest.raises(ShapeError):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ShapeError):
            DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))

    def test_json_round_trip(self):
        rho = random_density(np.random.default_rng(2), 3)
        back = DensityMatrix.from_json(rho.to_json())
        assert back.qubits == 3
        assert np.max(np.abs(back.mat - rho.mat)) <= 1e-15


class TestCompress:
    def test_ghz_becomes_bell(self):
        rho4, weight = compress(ghz())
        psi = (ket("00") + ket("11")) / np.sqrt(2)
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho4.mat - np.outer(psi, psi.conj()))) <= 1e-12
        assert rho4.purity() == pytest.approx(1.0, abs=1e-10)

    def test_post_measurement_state_stays_supported(self):
        settings = [
            UnsharpSetting(-np.kron(SIGMA_Y, SIGMA_Y), 0.7, (0, 1)),
            UnsharpSetting(np.kron(SIGMA_Y, SIGMA_X), 0.3, (0, 1)),
        ]
        rho = luders_update(ghz(), settings)
        _, weight = compress(rho)
        assert weight == pytest.approx(1.0, abs=1e-12)

    def test_w_state_not_compressible(self):
        psi = (ket("001") + ket("010") + ket("100")) / np.sqrt(3)
        w = DensityMatrix(3, np.outer(psi, psi.conj()))
        with pytest.raises(NotCompressibleError):
            compress(w)

    def test_alternate_basis(self):
        psi = (ket("010") + ket("101")) / np.sqrt(2)
        rho = DensityMatrix(3, np.outer(psi, psi.conj()))
        rho4, weight = compress(rho, CompressionBasis("01", "10"))
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert rho4.purity() == pytest.approx(1.0, abs=1e-10)


class TestPauliTensor:
    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_entries_are_pauli_expectations(self, qubits):
        rho = random_density(np.random.default_rng(qubits), qubits)
        t = pauli_tensor(rho.mat)
        ops = (I2,) + PAULIS
        for idx in itertools.product(range(4), repeat=qubits):
            want = rho.expectation(kron_all(*(ops[i] for i in idx)))
            assert abs(t[idx] - want) <= 1e-15

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_round_trip(self, qubits):
        rho = random_density(np.random.default_rng(10 + qubits), qubits)
        again = from_pauli_tensor(pauli_tensor(rho.mat))
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
            from_pauli_tensor(np.zeros((4, 4, 4, 4)))


class TestCompressedBloch:
    @pytest.mark.parametrize("zero, one", [
        (z, o) for z, o in itertools.permutations(("00", "01", "10", "11"), 2)])
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
        t = np.array([[np.trace(mat @ kron(v @ a @ v.conj().T, c)).real for c in paulis]
                      for a in paulis])
        got = bloch_form(compress(DensityMatrix(3, mat), CompressionBasis(zero, one))[0])
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
            m = [rho.expectation(kron(p, I2)) for p in PAULIS]
            n = [rho.expectation(kron(I2, p)) for p in PAULIS]
            T = [[rho.expectation(kron(p, q)) for q in PAULIS] for p in PAULIS]
            assert np.max(np.abs(b.m_tilde - m)) <= 1e-14
            assert np.max(np.abs(b.n_vec - n)) <= 1e-14
            assert np.max(np.abs(b.T - T)) <= 1e-14

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            rho = random_density(rng, 2)
            again = reconstruct(bloch_form(rho))
            assert np.max(np.abs(again.mat - rho.mat)) <= 1e-12
            b1, b2 = bloch_form(rho), bloch_form(again)
            assert np.max(np.abs(b1.T - b2.T)) <= 1e-12

    def test_bounded_invariants(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            b = bloch_form(random_density(rng, 2))
            assert np.linalg.norm(b.m_tilde) <= 1 + 1e-9
            assert np.linalg.norm(b.n_vec) <= 1 + 1e-9
            assert np.max(np.abs(b.T)) <= 1 + 1e-9
