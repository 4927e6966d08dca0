"""Qubit-register density matrices, the GHZ state, and Bloch decomposition.

Qubit order is fixed as A (leftmost) then B then Charlie; computational
basis labels are bit strings "abc".  A state is also held as its real
Pauli tensor t[a, b, ...] = Tr(rho sigma_a x sigma_b x ...), sigma_0 = I,
from which rho = 2^-n sum t[a, b, ...] sigma_a x sigma_b x ....  A
three-qubit state whose A,B pair lives in span{|00>, |11>} can be
compressed to an effective two-qubit state (compressed AB qubit tensor
Charlie) for ellipsoid analysis, by one fixed contraction of its tensor.
A run from GHZ keeps the Pauli components of GHZ (`GHZ_COMPONENTS`), as
every pair update only scales components.  Such a state is diagonal in the
GHZ basis, so a run's states are validated from their 8 components in
closed form (`check_run_tensors`) and built on the diagonal and
anti-diagonal those span (`SUPPORT`); `DensityMatrix` and `ghz()` validate
any matrix with one `eigvalsh`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, NotCompressibleError, ShapeError
from .linalg import I2, PAULIS

DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-9
COMPRESS_TOL = 1e-9


# Exact type tests first: an ABC isinstance costs about 0.5 us on a float.
def _is_int(x) -> bool:
    """A Python or numpy integer that is not a bool: counts and indices."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A Python or numpy real number that is not a bool: strengths, tolerances."""
    return type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_type(x, kind: type) -> None:
    """Raise ShapeError unless `x` is a `kind`: an argument that must be an
    instance of one of the package's classes."""
    if not isinstance(x, kind):
        raise ShapeError(f"expected a {kind.__name__}, got {type(x).__name__}")


def _check_array(x, name: str, real: bool = False) -> None:
    """Raise ShapeError unless `x` is a numpy array of numbers (of real ones
    if `real`); a bool array is not one."""
    if not isinstance(x, np.ndarray):
        raise ShapeError(f"{name} is a {type(x).__name__}, not a numpy array")
    if x.dtype.kind not in ("iuf" if real else "iufc"):
        raise ShapeError(f"{name} dtype {x.dtype} is not {'real' if real else 'numeric'}")


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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix over 1-3 qubits."""

    qubits: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not _is_int(self.qubits) or self.qubits not in (1, 2, 3):
            raise ShapeError(f"qubits={self.qubits!r} outside supported range 1..3")
        object.__setattr__(self, "qubits", int(self.qubits))  # a numpy integer too
        _check_array(self.mat, "matrix")
        d = 2 ** self.qubits
        if self.mat.shape != (d, d):
            raise ShapeError(f"matrix shape {self.mat.shape}, expected ({d}, {d})")
        if not np.abs(self.mat - self.mat.conj().T).max() <= DENSITY_HERM_TOL:  # NaN too
            raise ShapeError("density matrix is not Hermitian")
        if not abs(np.trace(self.mat) - 1) <= DENSITY_TRACE_TOL:
            raise ShapeError(f"trace {np.trace(self.mat):.12f} != 1")
        low = np.linalg.eigvalsh((self.mat + self.mat.conj().T) / 2)[0]  # finite by now
        if low < DENSITY_EIG_FLOOR:
            raise ShapeError(f"negative eigenvalue {low:.3e}")
        self.mat.setflags(write=False)


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
    _check_array(mat, "matrix")
    qubits = {(2, 2): 1, (4, 4): 2, (8, 8): 3}.get(mat.shape)
    if qubits is None:
        raise ShapeError(f"matrix shape {mat.shape} is not that of 1-3 qubits")
    return np.einsum("...ij,ji->...", PAULI_PRODUCTS[qubits], mat).real


# Import-time constants avoid BLAS and LAPACK calls (validating ghz() would
# call eigvalsh): their first use costs about 1 MB of resident memory, which
# processes that only evaluate closed forms never otherwise pay.
GHZ_TENSOR = pauli_tensor(_ghz_projector())
GHZ_TENSOR.setflags(write=False)
# The 8 Pauli components of GHZ: III, IZZ, ZIZ, ZZI, XXX and the three
# Y-Y-X placements.  Every pair update only scales components, so a run's
# tensors are zero outside them.
GHZ_COMPONENTS = GHZ_TENSOR != 0
GHZ_COMPONENTS.setflags(write=False)
# On each of those 8 products the GHZ basis (|j> +- |7-j>)/sqrt(2), j = 0..3,
# is an eigenbasis, with eigenvalues [j, j] +- [j, 7-j].  So a run state's
# eigenvalues, its GHZ-basis weights, are its flat tensor times SPECTRUM
# (Yu & Eberly, QIC 7, 459 (2007); Guhne & Seevinck, NJP 12, 053002 (2010)),
# which indexing derives with no BLAS call.
_PRODUCTS, _J = PAULI_PRODUCTS[3][GHZ_COMPONENTS].real, np.arange(4)
SPECTRUM = np.zeros((64, 8))
SPECTRUM[GHZ_COMPONENTS.reshape(64)] = np.hstack(
    [_PRODUCTS[:, _J, _J] + sign * _PRODUCTS[:, _J, 7 - _J] for sign in (1, -1)]) / 8
SPECTRUM.setflags(write=False)
# Those products are real and nonzero only on the diagonal and the
# anti-diagonal, so a run state is too: its 16 entries there are one real
# product of its tensor, all else +0.0.  The operand is a C-order copy:
# numpy multiplies a strided `.real` view outside BLAS, rounding unlike it.
SUPPORT = (PAULI_PRODUCTS[3][GHZ_COMPONENTS] != 0).any(axis=0)
SUPPORT.setflags(write=False)
_SUPPORT_PRODUCTS = PAULI_PRODUCTS[3].reshape(64, 64)[:, SUPPORT.reshape(64)].real.copy()


def check_run_tensors(t: np.ndarray) -> None:
    """Raise for the first member of a (k, 4, 4, 4) stack of run tensors (member
    j is pair j+1's) that holds an entry outside `GHZ_COMPONENTS`
    (InvariantError) or is no state: the ShapeError `DensityMatrix` raises
    for its trace, else for its least eigenvalue, read off `SPECTRUM`."""
    _check_array(t, "Pauli tensor stack", real=True)
    if t.shape[1:] != (4, 4, 4):
        raise ShapeError(f"run states expect (k, 4, 4, 4) Pauli tensors, got {t.shape}")
    flat = t.reshape(len(t), 64)
    outside = ((flat != 0) & ~GHZ_COMPONENTS.reshape(64)).any(axis=1)
    trace_ok = np.abs(flat[:, 0] - 1) <= DENSITY_TRACE_TOL
    low = (flat @ SPECTRUM).min(axis=1)
    bad = outside | ~trace_ok | ~(low >= DENSITY_EIG_FLOOR)
    if bad.any():
        k = int(bad.argmax())
        if outside[k]:
            a, b, c = np.argwhere((t[k] != 0) & ~GHZ_COMPONENTS)[0]
            raise InvariantError(f"pair {k + 1} left the Pauli components of GHZ: "
                                 f"its tensor holds {float(t[k, a, b, c])!r} at [{a}, {b}, {c}]")
        if not trace_ok[k]:
            raise ShapeError(f"trace {complex(flat[k, 0]):.12f} != 1")
        raise ShapeError(f"negative eigenvalue {low[k]:.3e}")


def from_pauli_tensors(t: np.ndarray) -> list[DensityMatrix]:
    """The states 2^-3 sum t[k, a, b, c] sigma_a x sigma_b x sigma_c of a
    (k, 4, 4, 4) stack of run tensors, validated by `check_run_tensors`,
    each built on `SUPPORT` and +0.0 elsewhere."""
    check_run_tensors(t)
    mats = np.zeros((len(t), 8, 8), dtype=complex)
    mats[:, SUPPORT] = t.reshape(len(t), 64) @ _SUPPORT_PRODUCTS / 8
    mats.setflags(write=False)
    states = []
    for mat in mats:  # validated above, so not again one by one
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "qubits", 3)
        object.__setattr__(rho, "mat", mat)
        states.append(rho)
    return states


# Every direction a nonlocal pair measures (sigma_y x sigma_y, sigma_y x
# sigma_x, sigma_z x I) maps span{|00>, |11>} into itself, so the compressed
# AB qubit is that span: |00>, |11> become |0~>, |1~>.  Its I, X, Y and Z are
# the A,B operators (II + ZZ)/2, (XX - YY)/2, (XY + YX)/2 and (ZI + IZ)/2:
# _COMPRESS_MAP[a, p, q] is the weight of sigma_p x sigma_q in the a-th.
_COMPRESS_MAP = np.zeros((4, 4, 4))
_COMPRESS_MAP[[0, 0, 1, 1, 2, 2, 3, 3], [0, 3, 1, 2, 1, 2, 3, 0], [0, 3, 1, 2, 2, 1, 0, 3]] = \
    [0.5, 0.5, 0.5, -0.5, 0.5, 0.5, 0.5, 0.5]


def compressed_tensors(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each of a (k, 4, 4, 4) stack of three-qubit Pauli tensors
    onto span{|00>, |11>} x C2 and relabel: the (k, 4, 4) tensors t[a, c]
    of the renormalized two-qubit states (compressed AB qubit tensor
    Charlie) and the (k,) weights the projection retains (entry [0, 0]
    before renormalizing).  Raises NotCompressibleError for the first
    member that keeps less than 1 - COMPRESS_TOL.  Each result is a
    principal block of a valid state over its weight, so it is not
    validated again.
    """
    _check_array(t, "Pauli tensor stack", real=True)
    if t.shape[1:] != (4, 4, 4):
        raise ShapeError(f"compression expects (k, 4, 4, 4) Pauli tensors, got {t.shape}")
    small = _COMPRESS_MAP.reshape(4, 16) @ t.reshape(-1, 16, 4)  # [k, a, c]
    weights = small[:, 0, 0]
    low = weights < 1 - COMPRESS_TOL
    if low.any():  # a weight is >= 0: a residue below zero (or -0.0) prints as 0
        raise NotCompressibleError(f"only {max(weights[low.argmax()], 0.0) + 0.0:.12f} "
                                   "of the state lies in span{|00>, |11>} x C2")
    return small / weights[:, None, None], weights
