"""Dense complex matrix kernel for small (<= 8x8) operator algebra.

Products, tensor products, partial traces, Hermitian eigendecompositions
and PSD square roots for qubit-register sized matrices.  Everything here
is a pure function on numpy arrays; nothing mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionOverflowError,
    NotHermitianError,
    NotPSDError,
    ShapeError,
)

MAX_DIM = 64

HERMITIAN_TOL = 1e-12
PSD_CLAMP = 1e-10

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


def kron_all(*ops: np.ndarray) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = kron(out, op)
    return out


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


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root, clamping eigenvalues in [-1e-10, 0) to zero."""
    w, v = hermitian_eig(h)
    if w[-1] < -PSD_CLAMP:
        raise NotPSDError(f"eigenvalue {w[-1]:.3e} below PSD threshold -{PSD_CLAMP:.0e}")
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    return (s + dagger(s)) / 2


def embed(op: np.ndarray, acts_on: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Pad a k-qubit operator with identities to act on an n-qubit register.

    `acts_on` gives the register positions of the operator's tensor factors,
    in the order the operator was built.
    """
    acts_on = tuple(acts_on)
    k = len(acts_on)
    if op.shape != (2 ** k, 2 ** k):
        raise ShapeError(f"operator shape {op.shape} does not match {k} qubits")
    if len(set(acts_on)) != k or any(q < 0 or q >= n_qubits for q in acts_on):
        raise ShapeError(f"acts_on={acts_on} invalid for an {n_qubits}-qubit register")
    rest = [q for q in range(n_qubits) if q not in acts_on]
    full = kron(op, np.eye(2 ** len(rest), dtype=complex))
    # `full` is ordered acts_on + rest; permute back to register order.
    src = list(acts_on) + rest
    perm = [src.index(q) for q in range(n_qubits)]
    t = full.reshape((2,) * (2 * n_qubits))
    t = t.transpose(perm + [p + n_qubits for p in perm])
    return t.reshape(2 ** n_qubits, 2 ** n_qubits)
