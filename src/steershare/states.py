"""Qubit-register density matrices, the GHZ state, and run states.

Qubit order is fixed as A (leftmost) then B then Charlie; computational
basis labels are bit strings "abc".  A state is also held as its real
Pauli tensor t[a, b, ...] = Tr(rho sigma_a x sigma_b x ...), sigma_0 = I,
from which rho = 2^-n sum t[a, b, ...] sigma_a x sigma_b x ....  A run
from GHZ keeps GHZ's 8 nonzero Pauli components (`GHZ_PAULIS`, exact
values `GHZ_VALUES`), as every pair update only scales components, and
evolves them: 8 floats a pair.  Such a state is diagonal in the GHZ
basis and fixed by its components (Guhne & Seevinck, NJP 12, 053002
(2010)): each of its entries, GHZ-basis weights and compressed T-state
axes is a fixed +-1 sum of them, tabled here in Python numbers.  So a
run's states are validated in closed form (`_state_entries`), built on
the diagonal and anti-diagonal those span (`SUPPORT`) and compressed to
T-states (`_t_state_diagonal`) with no BLAS call, each written once over
8 floats, one member of a run, or 8 columns, a stack of the ellipsoid
series; `DensityMatrix` and `ghz()` validate any matrix with one
`eigvalsh`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-9


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


def _unchecked(cls: type, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, built past
    its `__post_init__` check: the package's path for values it has already
    validated as a whole stack."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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


# GHZ's 8 nonzero Pauli components sigma_a x sigma_b x sigma_c, as their
# indices (a, b, c) in row-major order (III, IZZ, XXX, XYY, YXY, YYX, ZIZ,
# ZZI), and their exact values `GHZ_VALUES`: +1, but -1 at the three Y-Y-X
# placements.  Every pair update only scales components, so a run evolves
# these 8 and nothing else.
GHZ_PAULIS = ((0, 0, 0), (0, 3, 3), (1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 0, 3), (3, 3, 0))
GHZ_VALUES = (1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0)
# The 8 component products are real and nonzero only on the diagonal and the
# anti-diagonal, `SUPPORT`, where entries j and 7-j are equal.  So a run state
# is fixed by 4 diagonal entries [j, j] and 4 anti-diagonal ones [j, 7-j],
# j = 0..3: per entry, each component times that product's +-1 (or 0) entry
# there over 8 (`_ENTRY_SIGNS`, one row an entry), summed.  The GHZ basis
# (|j> +- |7-j>)/sqrt(2) is an eigenbasis of each product, so a run state's
# eigenvalues, its GHZ-basis weights, are [j, j] +- [j, 7-j] (Yu & Eberly,
# QIC 7, 459 (2007); Guhne & Seevinck, NJP 12, 053002 (2010)).
SUPPORT = np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1]
SUPPORT.setflags(write=False)
_ENTRY_SIGNS = tuple(tuple(s / 8 for s in row) for row in (
    (1, 1, 0, 0, 0, 0, 1, 1), (1, -1, 0, 0, 0, 0, -1, 1),
    (1, -1, 0, 0, 0, 0, 1, -1), (1, 1, 0, 0, 0, 0, -1, -1),
    (0, 0, 1, -1, -1, -1, 0, 0), (0, 0, 1, 1, 1, -1, 0, 0),
    (0, 0, 1, 1, -1, 1, 0, 0), (0, 0, 1, -1, 1, 1, 0, 0)))
# Per `SUPPORT` entry [i, j], row-major, the one of the 8 it holds: diagonal
# or anti-diagonal entry min(i, 7-i).
_SUPPORT_AT = np.flatnonzero(SUPPORT)
_SPREAD = np.array([min(i, 7 - i) + 4 * (i != j) for i, j in np.argwhere(SUPPORT).tolist()])
# The compressed AB qubit is span{|00>, |11>}: its I, X, Y and Z are the A,B
# operators (II + ZZ)/2, (XX - YY)/2, (XY + YX)/2 and (ZI + IZ)/2.  So the
# diagonal of T is (XXX - YYX)/2, (XYY + YXY)/2 and (IZZ + ZIZ)/2: per axis,
# the components times one row of `_T_AXIS_SIGNS`, summed.
_T_AXIS_SIGNS = ((0.0, 0.0, 0.5, 0.0, 0.0, -0.5, 0.0, 0.0),
                 (0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0),
                 (0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0))


# A run's states are validated and compressed one member at a time on a
# run's Python floats and as one stack of (k,) columns in the ellipsoid
# series, by the same functions: `_component_sums` sums, per sign row, the
# 8 products of the components with it, zero coefficients included, in one
# written order, ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)).  So both give
# the same floats on any numpy.
def _component_sums(c, rows: tuple) -> list:
    """Per sign row, the sum of the products of the 8 GHZ components `c`
    with it: Python floats of one member, or 8 (k,) columns of a stack."""
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    return [((c0 * s0 + c1 * s1) + (c2 * s2 + c3 * s3)) + ((c4 * s4 + c5 * s5) + (c6 * s6 + c7 * s7))
            for s0, s1, s2, s3, s4, s5, s6, s7 in rows]


def _state_entries(c) -> list:
    """The 8 entries, 4 diagonal then 4 anti-diagonal (`_ENTRY_SIGNS`), of
    the state of the 8 GHZ components `c`: Python floats of one member, or
    8 (k,) columns of a stack, member j being pair j+1's.  Raises for the
    first member that is no state: the ShapeError `DensityMatrix` raises
    for its trace, the III component, else for its least GHZ-basis weight,
    diagonal minus |anti-diagonal|.  On columns, numpy warns of the NaN an
    infinite component times a zero sign gives, which the check refuses."""
    e = _component_sums(c, _ENTRY_SIGNS)
    w = [e[0] - abs(e[4]), e[1] - abs(e[5]), e[2] - abs(e[6]), e[3] - abs(e[7])]
    floor = DENSITY_EIG_FLOOR
    ok = ((abs(c[0] - 1) <= DENSITY_TRACE_TOL) & (w[0] >= floor) & (w[1] >= floor)
          & (w[2] >= floor) & (w[3] >= floor))  # NaN fails; a bool, or a column of them
    if ok is True:
        return e
    if ok is not False:  # columns: the first failing member, if any, as floats
        if ok.all():
            return e
        k = int(ok.argmin())
        c, w = [float(x[k]) for x in c], [float(x[k]) for x in w]
    if not abs(c[0] - 1) <= DENSITY_TRACE_TOL:
        raise ShapeError(f"trace {complex(c[0]):.12f} != 1")
    low = math.nan if any(x != x for x in w) else min(w)  # as numpy's min, NaN first
    raise ShapeError(f"negative eigenvalue {low:.3e}")


def _support_states(entries: np.ndarray) -> list[DensityMatrix]:
    """The run states of a (k, 8) stack of validated entries, as
    `_state_entries` gives them: each is its 8 entries on `SUPPORT`,
    mirrored entries equal, and +0.0 elsewhere."""
    mats = np.zeros((len(entries), 64), dtype=complex)
    mats[:, _SUPPORT_AT] = entries.take(_SPREAD, axis=1)
    mats = mats.reshape(-1, 8, 8)
    mats.setflags(write=False)
    # Validated above, so not again one by one.
    return [_unchecked(DensityMatrix, qubits=3, mat=mat) for mat in mats]


def _t_state_diagonal(c) -> list:
    """The diagonal of T of the compressed two-qubit state (the AB pair's
    span{|00>, |11>} as one qubit, then Charlie) of 8 nonlocal run
    components `c`, Python floats or (k,) columns as `_state_entries` takes
    them: per axis a sum of two of them over 2.  Every direction a nonlocal
    pair measures keeps ZZI = III = 1, so each state lies in that span with
    weight (III + ZZI)/2 = 1, nothing is renormalized, and m~ = n = 0 and T
    is diagonal: a T-state."""
    return _component_sums(c, _T_AXIS_SIGNS)
