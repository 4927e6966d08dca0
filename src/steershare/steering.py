"""Steering functionals, classical bounds, closed-form oracles and ellipsoids.

The linear steering parameter is evaluated as sharp-direction correlators
on the evolved state, multiplied once by the current pair's strength.
Closed-form expressions for the two-setting GHZ scenario serve as analytic
oracles for the full measurement pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousSettingError,
    ConfigError,
    DegenerateSteererError,
    ShapeError,
    UnsupportedSizeError,
)
from .linalg import I2, PAULIS, dagger, hermitian_eig, kron, partial_trace
from .states import BlochForm, DensityMatrix

DEGENERACY_TOL = 1e-9
AXIS_TOL = 1e-9
JOINT_STRENGTH_TOL = 1e-9
AXIS_NORM_FLOOR = 1e-8


def coherence(strength):
    """Coherence retained after an unsharp measurement, sqrt(1 - strength^2)."""
    return np.sqrt(1.0 - strength * strength)


def pauli_dot(u: np.ndarray) -> np.ndarray:
    """The qubit operator u . sigma for a real 3-vector u."""
    return sum(c * p for c, p in zip(u, PAULIS))


def direction_axis(op: np.ndarray) -> np.ndarray:
    """Bloch 3-vector of a traceless qubit involution (inverse of pauli_dot)."""
    return np.array([np.trace(op @ p).real / 2 for p in PAULIS])


def _check_unit_interval(lambdas) -> None:
    for pair in lambdas:
        if any(not 0.0 <= s <= 1.0 for s in pair):
            raise ConfigError(f"strengths {pair} outside [0, 1]")


@dataclass(frozen=True)
class StrengthHistory:
    """Per-pair, per-setting measurement strengths.

    `lambdas[j][k]` is the joint strength of setting k+1 used by pair j+1.
    For local-measurement comparisons `etas`/`gammas` hold the individual
    strengths of A and B; they must multiply back to the joint strengths.
    """

    lambdas: tuple[tuple[float, float], ...]
    etas: tuple[tuple[float, float], ...] | None = None
    gammas: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        _check_unit_interval(self.lambdas)
        if (self.etas is None) != (self.gammas is None):
            raise ConfigError("etas and gammas must be given together")
        if self.etas is not None:
            if len(self.etas) != len(self.lambdas) or len(self.gammas) != len(self.lambdas):
                raise ConfigError("local strengths must cover every pair")
            for lam, eta, gam in zip(self.lambdas, self.etas, self.gammas):
                for lk, ek, gk in zip(lam, eta, gam):
                    if not (0.0 <= ek <= 1.0 and 0.0 <= gk <= 1.0):
                        raise ConfigError("local strengths outside [0, 1]")
                    if abs(lk - ek * gk) > JOINT_STRENGTH_TOL:
                        raise ConfigError(
                            f"joint strength {lk} != eta*gamma = {ek * gk}"
                        )

    @property
    def pairs(self) -> int:
        return len(self.lambdas)

    @classmethod
    def nonlocal_history(cls, lambdas: list[tuple[float, float]]) -> "StrengthHistory":
        return cls(tuple(tuple(p) for p in lambdas))

    @classmethod
    def local_sqrt(cls, lambdas: list[tuple[float, float]]) -> "StrengthHistory":
        """Local history with eta = gamma = sqrt(lambda) for every setting."""
        lams = tuple(tuple(p) for p in lambdas)
        _check_unit_interval(lams)  # before np.sqrt can warn on a negative strength
        roots = tuple(tuple(float(np.sqrt(s)) for s in p) for p in lams)
        return cls(lams, roots, roots)


def steering_parameter(rho_evolved: DensityMatrix, pair_directions: list[np.ndarray],
                       pair_strengths: list[float],
                       charlie_directions: list[np.ndarray]) -> float:
    """(1/n) sum_k strength_k * <D_k tensor L_k> on the evolved state."""
    n = len(pair_directions)
    if len(pair_strengths) != n or len(charlie_directions) != n:
        raise ConfigError("pair directions, strengths and Charlie directions "
                          "must have equal length")
    total = 0.0
    for d_ab, lam, l_c in zip(pair_directions, pair_strengths, charlie_directions):
        total += lam * rho_evolved.expectation(kron(d_ab, l_c))
    return total / n


def classical_bound(charlie_directions: list[np.ndarray]) -> float:
    """Largest steering parameter reachable by deterministic outcome strategies.

    Maximizes the top eigenvalue of (1/n) sum_k s_k L_k over all 2^n sign
    vectors s.
    """
    n = len(charlie_directions)
    if not 1 <= n <= 6:
        raise UnsupportedSizeError(f"{n} settings outside supported range 1..6")
    best = -np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        avg = sum(s * op for s, op in zip(signs, charlie_directions)) / n
        w, _ = hermitian_eig(avg)
        best = max(best, w[0])
    return float(best)


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
    if not 1 <= i <= h.pairs:
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


@dataclass(frozen=True)
class SteeringEllipsoid:
    """Geometry of the steered party's reachable Bloch vectors."""

    center: np.ndarray
    matrix: np.ndarray
    semiaxes: np.ndarray           # descending
    orientation: np.ndarray = field(repr=False)  # columns match semiaxes
    volume: float                  # normalized to the unit Bloch ball

    def to_json(self) -> dict:
        return {
            "center": self.center.tolist(),
            "matrix": self.matrix.tolist(),
            "semiaxes": self.semiaxes.tolist(),
            "orientation": self.orientation.T.tolist(),
            "volume": self.volume,
        }


def ellipsoid(b: BlochForm, steered_party: str = "charlie") -> SteeringEllipsoid:
    """Steering ellipsoid of one party under all measurements of the other.

    For steered_party="charlie" the A,B pair steers; for "ab" the roles are
    swapped (m~ <-> n, T -> T^T).  See `ellipsoids` for the geometry.
    """
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
    axes = np.stack([_tie_broken_axes(s, vk) for s, vk in zip(semiaxes, v[:, :, ::-1])])
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
    m, n, T = b.m_tilde, b.n_vec, b.T
    m2 = float(m @ m)
    if m2 >= 1.0 - DEGENERACY_TOL:
        raise DegenerateSteererError("steering party is pure; volume degenerates")
    return float(abs(np.linalg.det(T - np.outer(m, n))) / (1.0 - m2) ** 2)


def optimal_partner_setting(rho4: DensityMatrix,
                            charlie_direction: np.ndarray) -> np.ndarray:
    """Best compressed-AB involution for a fixed Charlie direction.

    Conditions on Charlie's +1 outcome and returns the involution whose
    +1/-1 eigenvectors are the conditional AB state's eigenvectors ordered
    by descending eigenvalue.
    """
    if rho4.qubits != 2:
        raise ShapeError("expects a compressed two-qubit state")
    proj = (I2 + charlie_direction) / 2
    cond = partial_trace(rho4.mat @ kron(I2, proj), [0], [2, 2])
    p = float(np.trace(cond).real)
    if p <= DEGENERACY_TOL:
        raise AmbiguousSettingError("Charlie's +1 outcome has no weight")
    w, v = hermitian_eig((cond + dagger(cond)) / (2 * p))
    if w[0] - w[1] <= DEGENERACY_TOL:
        raise AmbiguousSettingError(
            f"conditional state degenerate (gap {w[0] - w[1]:.3e})"
        )
    return np.outer(v[:, 0], v[:, 0].conj()) - np.outer(v[:, 1], v[:, 1].conj())


def optimal_settings_from_ellipsoid(e: SteeringEllipsoid, n: int) -> list[np.ndarray]:
    """Measurement directions along the n longest principal semiaxes.

    Reads the orientation columns as `ellipsoid` leaves them.  Returns
    u . sigma involutions.
    """
    if n > int(np.sum(e.semiaxes > AXIS_TOL)):
        raise AmbiguousSettingError(
            f"only {int(np.sum(e.semiaxes > AXIS_TOL))} nondegenerate axes, "
            f"{n} requested"
        )
    return [pauli_dot(e.orientation[:, k]) for k in range(n)]


def _tie_broken_axes(semiaxes: np.ndarray, orientation: np.ndarray) -> np.ndarray:
    """Re-basis degenerate semiaxis groups onto coordinate axes where possible."""
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
