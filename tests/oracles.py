"""Oracles: the Kraus-operator one for the dephasing kernel `run_scenario`
evolves with, and the general steering ellipsoid of any two-qubit state,
which `run_scenario`'s closed-form T-state ellipsoids must equal.

The Kraus oracle follows the definitions on full-register matrices and
shares no code with the package's Pauli-tensor path.  A measurement is a
signed Pauli product D, built with np.kron, and a strength lam.  Its
effects are E+- = (I +- lam D)/2 and its Kraus operators are
K+- = alpha I +- beta D with alpha +- beta = sqrt((1 +- lam)/2), the PSD
square roots of E+- since D^2 = I.  A pair's averaged update is
(1/n) sum_k sum K rho K^dag over its n settings.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from steershare.errors import ConfigError, ShapeError
from steershare.states import DensityMatrix, _check_array, _check_type, compressed_tensors, \
    from_pauli_tensors, ghz, pauli_tensor
from steershare.steering import DEGENERACY_TOL, SteeringEllipsoid

AXIS_NORM_FLOOR = 1e-8  # shorter parts of an axis in a degenerate subspace are skipped

ORACLE_TOL = 1e-14  # kernel vs Kraus sum, entrywise, for |rho| <= 1

PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))

# Per Charlie axis: Charlie's Pauli index c, and the sign and A,B Pauli
# indices of the direction D = sign sigma_p x sigma_q with
# <D x sigma_c> = +1 on GHZ.
AXES = {"x": (1, -1.0, 2, 2), "y": (2, -1.0, 2, 1), "z": (3, 1.0, 3, 0)}


def direction(paulis, sign=1.0):
    """sign * sigma_paulis[0] x sigma_paulis[1] x ..., with sigma_0 = I."""
    return sign * functools.reduce(np.kron, [PAULIS[p] for p in paulis])


def make_instrument(d, lam):
    """Effects (E+, E-) and Kraus operators (K+, K-) of measuring the
    involution d at strength lam: a float, or an array whose shape leads
    the operators' (a batch)."""
    lam = np.asarray(lam, dtype=float)[..., None, None]
    eye = np.eye(len(d))
    plus, minus = np.sqrt((1 + lam) / 2), np.sqrt((1 - lam) / 2)
    alpha, beta = (plus + minus) / 2, (plus - minus) / 2
    return ((eye + lam * d) / 2, (eye - lam * d) / 2), \
        (alpha * eye + beta * d, alpha * eye - beta * d)


def update(rho, settings):
    """(1/n) sum_k sum K rho K^dag over n settings of a register.

    settings[k] lists the (paulis, sign, strength) measurements of setting
    k, one per measuring party; each branch's K is the product of one Kraus
    operator per party.  Strengths may be arrays that batch over rho's
    leading axes.
    """
    total = 0.0
    for parties in settings:
        kraus = [make_instrument(direction(p, sign), lam)[1] for p, sign, lam in parties]
        for ks in itertools.product(*kraus):
            k = functools.reduce(np.matmul, ks)
            total = total + k @ rho @ k.conj().swapaxes(-1, -2)
    return total / len(settings)


def _axis(label):
    """(flip, c, sign, p, q) of a signed axis label: the label's sign, which
    flips L and D together, Charlie's Pauli index, and D = sign sigma_p x
    sigma_q with the flip included."""
    flip = -1.0 if label.startswith("-") else 1.0
    c, sign, p, q = AXES[label.lstrip("-")]
    return flip, c, flip * sign, p, q


def steering_value(rho, labels, lam):
    """(1/n) sum_k lam[k] <D_k x L_k>, where setting k pairs Charlie's
    signed axis L_k = labels[k] ("x", "-y", ...) with the A,B direction D_k
    of `AXES`.  Strengths may be arrays that batch over rho's leading axes."""
    s = 0.0
    for x, label in zip(lam, labels):
        flip, c, sign, p, q = _axis(label)
        corr = np.kron(direction((p, q), sign), flip * PAULIS[c])
        s = s + np.asarray(x) * np.einsum("...ij,ji->...", rho, corr).real
    return s / len(labels)


def pair_update(rho, mode, labels, lam, eta=None, gamma=None):
    """One pair's averaged update.  Setting k measures D_k of
    `steering_value` at strength lam[k] (nonlocal), or its A factor at
    strength eta[k] and its B factor at gamma[k] (local)."""
    settings = []
    for k, label in enumerate(labels):
        _, _, sign, p, q = _axis(label)
        if mode == "nonlocal":
            settings.append([((p, q, 0), sign, lam[k])])
        else:
            settings.append([((p, 0, 0), 1.0, eta[k]), ((0, q, 0), 1.0, gamma[k])])
    return update(rho, settings)


def chain(mode, labels, lambdas, etas=None, gammas=None):
    """Per pair of a run from GHZ: its steering value on the state before
    its update, and the 8x8 state after it.  lambdas[i], etas[i] and
    gammas[i] are pair i+1's strengths, as `pair_update` takes them."""
    rho, out = ghz().mat, []
    for i, lam in enumerate(lambdas):
        s = steering_value(rho, labels, lam)
        rho = pair_update(rho, mode, labels, lam,
                          *(None if x is None else x[i] for x in (etas, gammas)))
        out.append((s, rho))
    return out


def tie_broken_axes(semiaxes, orientation):
    """One ellipsoid's orientation columns with each degenerate semiaxis
    group re-based onto coordinate axes where possible: the group's
    projector applied to x, y and z in turn, Gram-Schmidt orthonormalized
    until the group is spanned."""
    out = orientation.copy()
    start = 0
    while start < 3:
        stop = start + 1
        while stop < 3 and semiaxes[start] - semiaxes[stop] <= DEGENERACY_TOL:
            stop += 1
        if stop - start > 1:
            sub = orientation[:, start:stop]
            proj = sub @ sub.T  # projector onto the degenerate subspace
            basis = []
            for axis in np.eye(3):
                cand = proj @ axis
                for b in basis:
                    cand = cand - (b @ cand) * b
                norm = np.linalg.norm(cand)
                if norm > AXIS_NORM_FLOOR:
                    basis.append(cand / norm)
                if len(basis) == stop - start:
                    break
            out[:, start:stop] = np.column_stack(basis)
        start = stop
    return out


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Bloch vectors and correlation matrix of a two-qubit state."""

    m_tilde: np.ndarray  # Bloch vector of the compressed AB qubit
    n_vec: np.ndarray    # Bloch vector of Charlie
    T: np.ndarray        # 3x3 correlation matrix

    def __post_init__(self):
        for name, shape in (("m_tilde", (3,)), ("n_vec", (3,)), ("T", (3, 3))):
            x = getattr(self, name)
            _check_array(x, name, real=True)
            if x.shape != shape:
                raise ShapeError(f"{name} shape {x.shape}, expected {shape}")


def compress(rho):
    """Project a 3-qubit state onto span{|00>, |11>} x C2 and relabel: the
    renormalized 4x4 state (compressed AB qubit tensor Charlie) and the
    weight the projection retains."""
    _check_type(rho, DensityMatrix)
    t, weights = compressed_tensors(pauli_tensor(rho.mat)[None])
    return from_pauli_tensors(t)[0], float(weights[0])


def bloch_form(rho4):
    """Pauli decomposition (m~, n, T) of a (compressed) two-qubit state."""
    _check_type(rho4, DensityMatrix)
    if rho4.qubits != 2:
        raise ShapeError("bloch_form expects a 2-qubit state")
    t = pauli_tensor(rho4.mat)  # t[a, c]: m~ in column 0, n in row 0, T in the rest
    return BlochForm(t[1:, 0], t[0, 1:], t[1:, 1:])


def ellipsoid(b, steered_party="charlie"):
    """Steering ellipsoid of one party under all measurements of the other.

    For steered_party="charlie" the A,B pair steers; for "ab" the roles are
    swapped (m~ <-> n, T -> T^T).  See `ellipsoids` for the geometry.
    """
    _check_type(b, BlochForm)
    if steered_party == "charlie":
        m, n, T = b.m_tilde, b.n_vec, b.T
    elif steered_party == "ab":
        m, n, T = b.n_vec, b.m_tilde, b.T.T
    else:
        raise ConfigError(f"unknown steered party {steered_party!r}")
    return ellipsoids(m[None], n[None], T[None])[0]


def ellipsoids(m, n, T):
    """Steering ellipsoid of each member of a stack of two-qubit Bloch forms.

    Member k's steering party has Bloch vector m[k], the steered party n[k],
    and T[k][i, j] correlates the steering party's axis i with the steered
    party's axis j; shapes (k, 3), (k, 3) and (k, 3, 3).  One real `eigh`
    solves the whole stack.  Orientation columns are canonical, so inputs
    that differ by rounding noise give the same columns: within a
    degenerate group of semiaxes they prefer the coordinate axes in order
    x, y, z (`tie_broken_axes`), and each is signed so its
    largest-magnitude component is positive.  A pure steering party
    (|m|^2 >= 1 - DEGENERACY_TOL) raises ValueError.
    """
    # Matrix-vector products round differently on strided operands: copies
    # make each member's result independent of how its rows were stacked.
    m, n, T = (np.ascontiguousarray(x, dtype=float) for x in (m, n, T))
    k = m.shape[:1]
    if m.shape != k + (3,) or n.shape != k + (3,) or T.shape != k + (3, 3):
        raise ShapeError(f"stack shapes {m.shape}, {n.shape}, {T.shape} are not "
                         f"(k, 3), (k, 3), (k, 3, 3)")
    m2 = (m[:, None, :] @ m[:, :, None])[:, 0, 0]
    if (m2 >= 1.0 - DEGENERACY_TOL).any():
        raise ValueError("steering party is pure; ellipsoid degenerates")
    gamma = 1.0 / (1.0 - m2)
    Tt = T.transpose(0, 2, 1)
    center = gamma[:, None] * (n - (Tt @ m[:, :, None])[..., 0])
    left = gamma[:, None, None] * (Tt - n[:, :, None] * m[:, None, :])
    middle = np.eye(3) + gamma[:, None, None] * (m[:, :, None] * m[:, None, :])
    O = left @ middle @ (T - m[:, :, None] * n[:, None, :])
    O = (O + O.transpose(0, 2, 1)) / 2
    w, v = np.linalg.eigh(O)
    w = np.clip(w[:, ::-1], 0.0, None)  # descending
    semiaxes = np.sqrt(w)
    axes = np.stack([tie_broken_axes(s, a) for s, a in zip(semiaxes, v[:, :, ::-1])])
    lead = np.take_along_axis(axes, np.abs(axes).argmax(axis=1)[:, None, :], axis=1)
    axes = axes * np.sign(lead)
    volume = np.sqrt(w.prod(axis=1))
    return [SteeringEllipsoid(center=c, matrix=o, semiaxes=s, orientation=a,
                              volume=float(vol))
            for c, o, s, a, vol in zip(center, O, semiaxes, axes, volume)]


def ellipsoid_volume_check(b):
    """Normalized Charlie-ellipsoid volume via the determinant formula.

    Computed as |det(T - m~ n^T)| / (1 - |m~|^2)^2; agrees with
    sqrt(det(O)) of the ellipsoid matrix.
    """
    _check_type(b, BlochForm)
    m, n, T = b.m_tilde, b.n_vec, b.T
    m2 = float(m @ m)
    if m2 >= 1.0 - DEGENERACY_TOL:
        raise ValueError("steering party is pure; volume degenerates")
    return float(abs(np.linalg.det(T - np.outer(m, n))) / (1.0 - m2) ** 2)
