"""Shared randomized-state helpers for the test suite."""

import numpy as np

from steershare.linalg import PAULIS
from steershare.states import DensityMatrix


def random_density(rng, qubits):
    d = 2 ** qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return DensityMatrix(qubits, rho / np.trace(rho))


def pauli_dot(u):
    """The qubit operator u . sigma for a real 3-vector u."""
    return sum(c * p for c, p in zip(u, PAULIS))


def conditional_charlie_bloch(rho4, effect):
    """Charlie's Bloch vector conditioned on an AB-side effect, or None."""
    # Rows and columns split into (AB, Charlie); the AB pair is traced out.
    cond = np.einsum("ibid->bd", (np.kron(effect, np.eye(2)) @ rho4.mat).reshape(2, 2, 2, 2))
    p = np.trace(cond).real
    if p < 1e-12:
        return None
    return np.array([np.trace(cond @ s).real for s in PAULIS]) / p


def containment_violation(ell, point, axis_tol=1e-9):
    """Mahalanobis excess over 1 inside the ellipsoid; also returns the
    residual component along degenerate axes."""
    x = point - ell.center
    quad = 0.0
    residual = 0.0
    for k in range(3):
        comp = float(ell.orientation[:, k] @ x)
        if ell.semiaxes[k] > axis_tol:
            quad += (comp / ell.semiaxes[k]) ** 2
        else:
            residual = max(residual, abs(comp))
    return quad, residual
