"""Classical bounds, closed-form oracles, strength histories and ellipsoids.

The closed-form linear steering parameter of the two-setting GHZ scenario
is the analytic oracle for `run_scenario`, which reads the same parameter
off the evolved state as sharp-direction correlators, multiplied once by
the current pair's strength.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSteererError,
    NotHermitianError,
    ShapeError,
    UnsupportedSizeError,
)
from .states import BlochForm, _check_type, _is_int, _is_real

HERMITIAN_TOL = 1e-12
DEGENERACY_TOL = 1e-9
JOINT_STRENGTH_TOL = 1e-9
AXIS_NORM_FLOOR = 1e-8


def coherence(strength):
    """Coherence retained after an unsharp measurement, sqrt(1 - strength^2)."""
    return np.sqrt(1.0 - strength * strength)


_SEQUENCES = (tuple, list, np.ndarray)  # what a history and each of its pairs may be


def _check_pairs(*histories) -> None:
    for h in histories:
        if not isinstance(h, _SEQUENCES) or not all(isinstance(p, _SEQUENCES) for p in h):
            raise ConfigError(f"strengths {h!r} are not a sequence of per-pair sequences")


def _check_unit_interval(lambdas) -> None:
    for pair in lambdas:
        if not all(map(_is_real, pair)):
            raise ConfigError(f"strengths {pair} are not all numbers")
        if any(not 0.0 <= s <= 1.0 for s in pair):
            raise ConfigError(f"strengths {pair} outside [0, 1]")


@dataclass(frozen=True)
class StrengthHistory:
    """Per-pair, per-setting measurement strengths.

    `lambdas[j][k]` is the joint strength of setting k+1 used by pair j+1;
    every pair has two settings.
    For local-measurement comparisons `etas`/`gammas` hold the individual
    strengths of A and B; they must multiply back to the joint strengths.
    """

    lambdas: tuple[tuple[float, float], ...]
    etas: tuple[tuple[float, float], ...] | None = None
    gammas: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        _check_pairs(*(h for h in (self.lambdas, self.etas, self.gammas) if h is not None))
        _check_unit_interval(self.lambdas)
        if (self.etas is None) != (self.gammas is None):
            raise ConfigError("etas and gammas must be given together")
        rows = [self.lambdas] if self.etas is None else [self.lambdas, self.etas, self.gammas]
        if any(len(p) != 2 for h in rows for p in h):
            raise ConfigError("every pair needs one strength for each of its two settings")
        if self.etas is not None:
            if len(self.etas) != len(self.lambdas) or len(self.gammas) != len(self.lambdas):
                raise ConfigError("local strengths must cover every pair")
            _check_unit_interval(self.etas)
            _check_unit_interval(self.gammas)
            for lam, eta, gam in zip(self.lambdas, self.etas, self.gammas):
                for lk, ek, gk in zip(lam, eta, gam):
                    if abs(lk - ek * gk) > JOINT_STRENGTH_TOL:
                        raise ConfigError(
                            f"joint strength {lk} != eta*gamma = {ek * gk}"
                        )

    @property
    def pairs(self) -> int:
        return len(self.lambdas)

    @classmethod
    def nonlocal_history(cls, lambdas: list[tuple[float, float]]) -> "StrengthHistory":
        _check_pairs(lambdas)
        return cls(tuple(tuple(p) for p in lambdas))

    @classmethod
    def local_sqrt(cls, lambdas: list[tuple[float, float]]) -> "StrengthHistory":
        """Local history with eta = gamma = sqrt(lambda) for every setting."""
        _check_pairs(lambdas)
        lams = tuple(tuple(p) for p in lambdas)
        _check_unit_interval(lams)  # before np.sqrt can warn on a negative strength
        roots = tuple(tuple(float(np.sqrt(s)) for s in p) for p in lams)
        return cls(lams, roots, roots)


def classical_bound(charlie_directions: list[np.ndarray]) -> float:
    """Largest steering parameter reachable by deterministic outcome strategies.

    Maximizes the top eigenvalue of (1/n) sum_k s_k L_k over all 2^n sign
    vectors s, with one `eigvalsh` of the stack of signed averages.  The
    settings must be Hermitian square matrices of one shape.
    """
    n = len(charlie_directions)
    if not 1 <= n <= 6:
        raise UnsupportedSizeError(f"{n} settings outside supported range 1..6")
    try:
        ops = np.asarray(charlie_directions, dtype=complex)
    except (TypeError, ValueError):  # ragged or non-numeric
        ops = np.empty(0)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or ops.shape[1] == 0:
        raise ShapeError("settings are not numeric square matrices of one shape")
    deviation = np.abs(ops - ops.conj().swapaxes(1, 2)).max()
    if not deviation <= HERMITIAN_TOL:  # NaN included
        raise NotHermitianError(f"setting deviates from Hermitian by {deviation:.3e}")
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    avg = np.einsum("sk,kij->sij", signs, ops) / n
    return float(np.linalg.eigvalsh((avg + avg.conj().swapaxes(1, 2)) / 2).max())


def closed_forms(lam1, lam2, damp1, damp2) -> list:
    """Unvalidated analytic steering parameter of every pair in a sequence:
    S_i = (lam2_i prod_{j<i} (1 + c(damp1_j)) + lam1_i prod_{j<i} (1 + c(damp2_j))) / 2^i.

    Entry j of each argument is pair j+1's, a float (one history) or
    equal-shape arrays (a batch).  Damping strengths are the joint ones for
    nonlocal pairs and B's (gamma) for local ones.
    """
    out = []
    prod1 = prod2 = 1.0
    for i, (l1, l2, d1, d2) in enumerate(zip(lam1, lam2, damp1, damp2), start=1):
        out.append((l2 * prod1 + l1 * prod2) / 2 ** i)
        if i < len(lam1):  # the last pair damps no one
            prod1 = prod1 * (1.0 + coherence(d1))
            prod2 = prod2 * (1.0 + coherence(d2))
    return out


def _history_value(h: StrengthHistory, damping, i: int) -> float:
    if not _is_int(i) or not 1 <= i <= h.pairs:
        raise ConfigError(f"pair index {i} outside history of {h.pairs} pairs")
    if damping is None:
        raise ConfigError("local closed form needs eta/gamma strengths")
    # zip(*...) turns per-pair (setting 1, setting 2) rows into two columns.
    return float(closed_forms(*zip(*h.lambdas[:i]), *zip(*damping[:i]))[-1])


def closed_form_nonlocal(h: StrengthHistory, i: int) -> float:
    """Analytic two-setting steering parameter after i - 1 nonlocal pairs."""
    return _history_value(h, h.lambdas, i)


def closed_form_local(h: StrengthHistory, i: int) -> float:
    """Analytic counterpart when A and B measure locally (damping from B only)."""
    return _history_value(h, h.gammas, i)


@dataclass(frozen=True, eq=False)
class SteeringEllipsoid:
    """Geometry of the steered party's reachable Bloch vectors."""

    center: np.ndarray
    matrix: np.ndarray
    semiaxes: np.ndarray           # descending
    orientation: np.ndarray = field(repr=False)  # columns match semiaxes
    volume: float                  # normalized to the unit Bloch ball


def ellipsoid(b: BlochForm, steered_party: str = "charlie") -> SteeringEllipsoid:
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


def ellipsoids(m: np.ndarray, n: np.ndarray, T: np.ndarray) -> list[SteeringEllipsoid]:
    """Steering ellipsoid of each member of a stack of two-qubit Bloch forms.

    Member k's steering party has Bloch vector m[k], the steered party n[k],
    and T[k][i, j] correlates the steering party's axis i with the steered
    party's axis j; shapes (k, 3), (k, 3) and (k, 3, 3).  One real `eigh`
    solves the whole stack.  Orientation columns are canonical, so inputs
    that differ by rounding noise give the same columns: within a
    degenerate group of semiaxes they prefer the coordinate axes in order
    x, y, z, and each is signed so its largest-magnitude component is
    positive.
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
        raise DegenerateSteererError("steering party is pure; ellipsoid degenerates")
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
    axes = _tie_broken_axes(semiaxes, v[:, :, ::-1])
    lead = np.take_along_axis(axes, np.abs(axes).argmax(axis=1)[:, None, :], axis=1)
    axes = axes * np.sign(lead)
    volume = np.sqrt(w.prod(axis=1))
    return [SteeringEllipsoid(center=c, matrix=o, semiaxes=s, orientation=a,
                              volume=float(vol))
            for c, o, s, a, vol in zip(center, O, semiaxes, axes, volume)]


def ellipsoid_volume_check(b: BlochForm) -> float:
    """Normalized Charlie-ellipsoid volume via the determinant formula.

    Computed as |det(T - m~ n^T)| / (1 - |m~|^2)^2; agrees with
    sqrt(det(O)) of the ellipsoid matrix.
    """
    _check_type(b, BlochForm)
    m, n, T = b.m_tilde, b.n_vec, b.T
    m2 = float(m @ m)
    if m2 >= 1.0 - DEGENERACY_TOL:
        raise DegenerateSteererError("steering party is pure; volume degenerates")
    return float(abs(np.linalg.det(T - np.outer(m, n))) / (1.0 - m2) ** 2)


def _tie_broken_axes(semiaxes: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Copy of the orientation stack `vecs` with each degenerate semiaxis
    group re-based onto coordinate axes where possible.

    A group runs from a semiaxis through the later ones within
    DEGENERACY_TOL of it.  Only members with such a group are re-based, one
    at a time: the group's projector, applied to x, y and z in turn, is
    Gram-Schmidt orthonormalized until the group is spanned.
    """
    out = vecs.copy()
    for k, (s0, s1, s2) in enumerate(semiaxes.tolist()):
        if s0 - s1 <= DEGENERACY_TOL:
            start, stop = 0, 3 if s0 - s2 <= DEGENERACY_TOL else 2
        elif s1 - s2 <= DEGENERACY_TOL:
            start, stop = 1, 3
        else:
            continue
        sub = vecs[k, :, start:stop]
        proj = sub @ sub.T  # projector onto the degenerate subspace
        basis = []
        for axis in np.eye(3):
            cand = proj @ axis
            for b in basis:
                cand = cand - (b @ cand) * b
            norm = math.sqrt(cand @ cand)
            if norm > AXIS_NORM_FLOOR:
                cand = cand / norm
                out[k, :, start + len(basis)] = cand
                basis.append(cand)
            if len(basis) == stop - start:
                break
    return out
