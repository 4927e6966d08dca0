"""Partial traces of density matrices (`DensityMatrix.reduced`)."""

import itertools

import numpy as np
import pytest

from steershare.errors import ShapeError
from steershare.states import ghz, ket

from util import random_density


def _einsum_reduced(mat, keep, qubits):
    """Oracle: trace out every qubit not in `keep` with one einsum."""
    rows, cols = list("abc"[:qubits]), list("def"[:qubits])
    for q in range(qubits):
        if q not in keep:
            cols[q] = rows[q]
    spec = "".join(rows + cols) + "->" + "".join([rows[q] for q in keep] + [cols[q] for q in keep])
    d = 2 ** len(keep)
    return np.einsum(spec, mat.reshape((2,) * 2 * qubits)).reshape(d, d)


class TestPartialTrace:
    def test_ghz_keep_charlie(self):
        out = ghz().reduced({2})
        assert out.qubits == 1
        assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_ghz_keep_ab(self):
        expected = (np.outer(ket("00"), ket("00")) + np.outer(ket("11"), ket("11"))) / 2
        out = ghz().reduced({0, 1})
        assert out.qubits == 2
        assert np.allclose(out.mat, expected, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            out = random_density(rng, 3).reduced({1})
            assert abs(np.trace(out.mat) - 1) <= 1e-12
            assert np.max(np.abs(out.mat - out.mat.conj().T)) <= 1e-12

    def test_shape_error(self):
        for keep in (set(), {3}, {-1}, {0, 3}):
            with pytest.raises(ShapeError):
                ghz().reduced(keep)

    def test_matches_einsum_partial_trace(self):
        rng = np.random.default_rng(2303)
        for qubits in (1, 2, 3):
            for _ in range(50):
                rho = random_density(rng, qubits)
                for size in range(1, qubits + 1):
                    for keep in itertools.combinations(range(qubits), size):
                        want = _einsum_reduced(rho.mat, keep, qubits)
                        assert np.max(np.abs(rho.reduced(keep).mat - want)) <= 1e-14
