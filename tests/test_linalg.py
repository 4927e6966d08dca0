import numpy as np
import pytest

from steershare.errors import DimensionOverflowError, NotHermitianError, ShapeError
from steershare.linalg import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    hermitian_eig,
    kron,
    partial_trace,
)
from steershare.states import ghz, ket

from util import random_hermitian, random_psd


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal_paulis(self):
        assert np.allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_yy_on_00(self):
        # sigma_y|0> = i|1> twice: (i)^2 |11> = -|11>
        out = kron(SIGMA_Y, SIGMA_Y) @ ket("00")
        assert np.allclose(out, -ket("11"), atol=1e-14)

    def test_overflow(self):
        big = np.eye(16)
        with pytest.raises(DimensionOverflowError):
            kron(big, np.eye(8))

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c = (random_hermitian(rng, 2) for _ in range(3))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.max(np.abs(left - right)) <= 1e-14


class TestPartialTrace:
    def test_ghz_keep_charlie(self):
        out = partial_trace(ghz().mat, {2}, [2, 2, 2])
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(3)
        rho = random_psd(rng, 2)
        rho /= np.trace(rho)
        tau = random_psd(rng, 4)
        tau /= np.trace(tau)
        out = partial_trace(np.kron(rho, tau), {0}, [2, 4])
        assert np.allclose(out, rho, atol=1e-12)

    def test_ghz_keep_ab(self):
        expected = (np.outer(ket("00"), ket("00")) + np.outer(ket("11"), ket("11"))) / 2
        out = partial_trace(ghz().mat, {0, 1}, [2, 2, 2])
        assert np.allclose(out, expected, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rho = random_psd(rng, 8)
            out = partial_trace(rho, {1}, [2, 2, 2])
            assert abs(np.trace(out) - np.trace(rho)) <= 1e-12
            assert np.max(np.abs(out - dagger(out))) <= 1e-12

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(8), {0}, [2, 2])
        with pytest.raises(ShapeError):
            partial_trace(np.eye(8), set(), [2, 2, 2])


class TestHermitianEig:
    def test_sigma_z(self):
        w, v = hermitian_eig(SIGMA_Z)
        assert np.allclose(w, [1, -1])
        assert np.allclose(np.abs(v[:, 0]), [1, 0])
        assert np.allclose(np.abs(v[:, 1]), [0, 1])

    def test_xy_half(self):
        w, _ = hermitian_eig((SIGMA_X + SIGMA_Y) / 2)
        assert np.allclose(w, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)

    def test_degenerate_identity(self):
        w, v = hermitian_eig(np.eye(4, dtype=complex))
        assert np.allclose(w, np.ones(4))
        assert np.max(np.abs(dagger(v) @ v - np.eye(4))) <= 1e-10

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4, 6, 8):
            for _ in range(10):
                h = random_hermitian(rng, dim)
                w, v = hermitian_eig(h)
                assert np.all(np.diff(w) <= 1e-14)
                assert np.max(np.abs(h - (v * w) @ dagger(v))) <= 1e-10
                assert np.max(np.abs(dagger(v) @ v - np.eye(dim))) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

