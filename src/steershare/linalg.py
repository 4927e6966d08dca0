"""Dense complex matrix kernel for small (<= 8x8) operator algebra.

Products, tensor products, partial traces and Hermitian eigendecompositions
for qubit-register sized matrices.  Everything here is a pure function on
numpy arrays; nothing mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionOverflowError, NotHermitianError, ShapeError

MAX_DIM = 64

HERMITIAN_TOL = 1e-12

# Single-qubit operator palette.
I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return bool(np.max(np.abs(a - dagger(a))) <= tol)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, refusing products beyond the supported size."""
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > MAX_DIM:
        raise DimensionOverflowError(
            f"tensor product dimension {out_dim} exceeds limit {MAX_DIM}"
        )
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep: set[int] | list[int] | tuple[int, ...],
                  dims: list[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in `keep`.

    `dims` lists the factor dimensions in tensor order; `keep` holds the
    indices (into `dims`) of the factors to retain.  The retained factors
    keep their original relative order.
    """
    keep = sorted(set(keep))
    n = len(dims)
    if rho.shape[0] != rho.shape[1] or rho.shape[0] != int(np.prod(dims)):
        raise ShapeError(
            f"matrix of shape {rho.shape} inconsistent with factors {dims}"
        )
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ShapeError(f"keep={keep} is not a nonempty subset of 0..{n - 1}")
    t = rho.reshape(dims + dims)
    # Contract the row/column index pairs of every traced-out factor.
    for idx in reversed([i for i in range(n) if i not in keep]):
        t = np.trace(t, axis1=idx, axis2=idx + t.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d_keep, d_keep)


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a Hermitian matrix.

    Ties between equal eigenvalues are broken stably by original (ascending)
    position, so degenerate subspaces keep a deterministic but otherwise
    arbitrary basis.
    """
    if not is_hermitian(h):
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {np.max(np.abs(h - dagger(h))):.3e}"
        )
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]
