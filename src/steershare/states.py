"""Qubit-register density matrices, the GHZ state, and Bloch decomposition.

Qubit order is fixed as A (leftmost) then B then Charlie; computational
basis labels are bit strings "abc".  A state is also held as its real
Pauli tensor t[a, b, ...] = Tr(rho sigma_a x sigma_b x ...), sigma_0 = I,
from which rho = 2^-n sum t[a, b, ...] sigma_a x sigma_b x ....  A
three-qubit state whose A,B pair lives in a two-dimensional subspace can
be compressed to an effective two-qubit state (compressed AB qubit tensor
Charlie) for ellipsoid analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotCompressibleError, ShapeError
from .linalg import I2, PAULIS, dagger, partial_trace

DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-9
COMPRESS_TOL = 1e-9

_BASIS = np.stack((I2,) + PAULIS)  # sigma_0..sigma_3, shape (4, 2, 2)


def _pauli_products(n: int) -> np.ndarray:
    """sigma_a x sigma_b x ... for every index tuple, shape (4,)*n + (2^n, 2^n)."""
    out = _BASIS
    for _ in range(n - 1):
        d = 2 * out.shape[-1]
        out = np.einsum("...ij,bkl->...bikjl", out, _BASIS).reshape(
            out.shape[:-2] + (4, d, d))
    return out


PAULI_PRODUCTS = {n: _pauli_products(n) for n in (1, 2, 3)}


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix over 1-3 qubits."""

    qubits: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = 2 ** self.qubits
        if not 1 <= self.qubits <= 3:
            raise ShapeError(f"qubits={self.qubits} outside supported range 1..3")
        if self.mat.shape != (d, d):
            raise ShapeError(f"matrix shape {self.mat.shape}, expected ({d}, {d})")
        if not linalg.is_hermitian(self.mat, DENSITY_HERM_TOL):
            raise ShapeError("density matrix is not Hermitian")
        if abs(np.trace(self.mat) - 1) > DENSITY_TRACE_TOL:
            raise ShapeError(f"trace {np.trace(self.mat):.12f} != 1")
        w = np.linalg.eigvalsh((self.mat + dagger(self.mat)) / 2)
        if w[0] < DENSITY_EIG_FLOOR:
            raise ShapeError(f"negative eigenvalue {w[0]:.3e}")
        self.mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return 2 ** self.qubits

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)

    def expectation(self, op: np.ndarray) -> float:
        return float(np.trace(self.mat @ op).real)

    def reduced(self, keep: set[int] | tuple[int, ...]) -> "DensityMatrix":
        keep = sorted(set(keep))
        sub = partial_trace(self.mat, keep, [2] * self.qubits)
        return DensityMatrix(len(keep), sub)

    def to_json(self) -> dict:
        return {
            "qubits": self.qubits,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DensityMatrix":
        mat = np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
        return cls(int(obj["qubits"]), mat)


@dataclass(frozen=True)
class BlochForm:
    """Bloch vectors and correlation matrix of a two-qubit state."""

    m_tilde: np.ndarray  # Bloch vector of the compressed AB qubit
    n_vec: np.ndarray    # Bloch vector of Charlie
    T: np.ndarray        # 3x3 correlation matrix


@dataclass(frozen=True)
class CompressionBasis:
    """Which two AB computational basis kets span the compressed qubit."""

    zero_ket: str = "00"
    one_ket: str = "11"

    def __post_init__(self):
        valid = {"00", "01", "10", "11"}
        if self.zero_ket not in valid or self.one_ket not in valid:
            raise ShapeError(f"kets must come from {sorted(valid)}")
        if self.zero_ket == self.one_ket:
            raise ShapeError("zero_ket and one_ket must differ")

    @classmethod
    def parse(cls, text: str) -> "CompressionBasis":
        parts = [s.strip() for s in text.split(",")]
        if len(parts) != 2:
            raise ShapeError(f"compression {text!r} is not two kets 'zero,one'")
        return cls(*parts)


def ket(label: str) -> np.ndarray:
    """Computational basis column vector from a bit-string label."""
    n = len(label)
    v = np.zeros(2 ** n, dtype=complex)
    v[int(label, 2)] = 1.0
    return v


def _ghz_projector() -> np.ndarray:
    psi = (ket("000") + ket("111")) / np.sqrt(2)
    return np.outer(psi, psi.conj())


def ghz() -> DensityMatrix:
    """The three-qubit state (|000> + |111>)/sqrt(2) as a projector."""
    return DensityMatrix(3, _ghz_projector())


def pauli_tensor(mat: np.ndarray) -> np.ndarray:
    """Real parts of Tr(mat sigma_a x sigma_b x ...) for a 1-3 qubit matrix."""
    qubits = {2: 1, 4: 2, 8: 3}.get(mat.shape[0])
    if qubits is None or mat.shape != (2 ** qubits,) * 2:
        raise ShapeError(f"matrix shape {mat.shape} is not that of 1-3 qubits")
    return np.einsum("...ij,ji->...", PAULI_PRODUCTS[qubits], mat).real


def from_pauli_tensor(t: np.ndarray) -> DensityMatrix:
    """The validated state 2^-n sum t[a, b, ...] sigma_a x sigma_b x ...."""
    qubits = t.ndim
    if not 1 <= qubits <= 3 or t.shape != (4,) * qubits:
        raise ShapeError(f"Pauli tensor shape {t.shape} is not that of 1-3 qubits")
    d = 2 ** qubits
    # t is real, so the product runs on the interleaved real and imaginary
    # parts of the operators: a real matrix-vector product, which OpenBLAS
    # keeps on one thread, where the complex one is split over threads and
    # can stall for milliseconds on a busy host.
    products = PAULI_PRODUCTS[qubits].reshape(4 ** qubits, d * d).view(float)
    mat = (t.reshape(-1) @ products).view(complex)
    return DensityMatrix(qubits, mat.reshape(d, d) / d)


# Import-time constants avoid BLAS and LAPACK calls (validating ghz() would
# call eigvalsh): their first use costs about 1 MB of resident memory, which
# processes that only evaluate closed forms never otherwise pay.
GHZ_TENSOR = pauli_tensor(_ghz_projector())
GHZ_TENSOR.setflags(write=False)


def compress(rho: DensityMatrix, basis: CompressionBasis = CompressionBasis()
             ) -> tuple[DensityMatrix, float]:
    """Project a 3-qubit state onto span{zero_ket, one_ket} x C2 and relabel.

    Returns the renormalized 4x4 density matrix (compressed AB qubit tensor
    Charlie) together with the renormalization factor (the weight retained
    by the projection).  Raises NotCompressibleError if more than
    COMPRESS_TOL of the AB marginal lies outside the two chosen kets.
    """
    if rho.qubits != 3:
        raise ShapeError("compression expects a 3-qubit state")
    # Rows and columns |zero_ket,c>, |one_ket,c> become |0~,c>, |1~,c>.
    idx = [int(label + c, 2) for label in (basis.zero_ket, basis.one_ket) for c in "01"]
    small = rho.mat[np.ix_(idx, idx)]
    weight = float(np.trace(small).real)
    if weight < 1 - COMPRESS_TOL:
        # A weight is >= 0: a rounding residue below zero (or -0.0) prints as 0.
        raise NotCompressibleError(
            f"only {max(weight, 0.0) + 0.0:.12f} of the state lies in "
            f"span{{|{basis.zero_ket}>, |{basis.one_ket}>}} x C2"
        )
    return DensityMatrix(2, small / weight), weight


def bloch_form(rho4: DensityMatrix) -> BlochForm:
    """Pauli decomposition (m~, n, T) of a (compressed) two-qubit state."""
    if rho4.qubits != 2:
        raise ShapeError("bloch_form expects a 2-qubit state")
    t = pauli_tensor(rho4.mat)
    # t[a, b] with sigma_0 = I: 1 and n in row 0, m~ in column 0, T in the rest.
    return BlochForm(t[1:, 0], t[0, 1:], t[1:, 1:])


def reconstruct(b: BlochForm) -> DensityMatrix:
    """Inverse of bloch_form: rebuild the 4x4 state from (m~, n, T)."""
    t = np.block([[np.ones((1, 1)), b.n_vec[None, :]], [b.m_tilde[:, None], b.T]])
    return from_pauli_tensor(t)
