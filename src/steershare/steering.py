"""Classical bounds, closed-form oracles, strength histories and ellipsoids.

The closed-form linear steering parameter of the two-setting GHZ scenario
is the analytic oracle for `run_scenario`, which reads the same parameter
off the evolved state as sharp-direction correlators, multiplied once by
the current pair's strength.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    InvariantError,
    NotHermitianError,
    ShapeError,
    UnsupportedSizeError,
)
from .states import _check_type, _is_int, _is_real

HERMITIAN_TOL = 1e-12
DEGENERACY_TOL = 1e-9
JOINT_STRENGTH_TOL = 1e-9


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
        _check_pairs(self.lambdas, *(h for h in (self.etas, self.gammas) if h is not None))
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
    if not isinstance(charlie_directions, _SEQUENCES):
        raise ShapeError("settings are not numeric square matrices of one shape")
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


def _history_value(h: StrengthHistory, damping: str, i: int) -> float:
    """S of pair i of `h`, damped by its `damping` strengths."""
    _check_type(h, StrengthHistory)
    if not _is_int(i) or not 1 <= i <= h.pairs:
        raise ConfigError(f"pair index {i} outside history of {h.pairs} pairs")
    damping = getattr(h, damping)
    if damping is None:
        raise ConfigError("local closed form needs eta/gamma strengths")
    # zip(*...) turns per-pair (setting 1, setting 2) rows into two columns.
    return float(closed_forms(*zip(*h.lambdas[:i]), *zip(*damping[:i]))[-1])


def closed_form_nonlocal(h: StrengthHistory, i: int) -> float:
    """Analytic two-setting steering parameter after i - 1 nonlocal pairs."""
    return _history_value(h, "lambdas", i)


def closed_form_local(h: StrengthHistory, i: int) -> float:
    """Analytic counterpart when A and B measure locally (damping from B only)."""
    return _history_value(h, "gammas", i)


@dataclass(frozen=True, eq=False)
class SteeringEllipsoid:
    """Geometry of the steered party's reachable Bloch vectors."""

    center: np.ndarray
    matrix: np.ndarray
    semiaxes: np.ndarray           # descending
    orientation: np.ndarray = field(repr=False)  # columns match semiaxes
    volume: float                  # normalized to the unit Bloch ball


# Per order of the coordinate axes, the orientation whose column p is axis
# order[p]; read-only, so every ellipsoid with that order shares it.
_ORIENTATIONS = {order: np.eye(3)[:, order] for order in itertools.permutations(range(3))}
for _axes in _ORIENTATIONS.values():
    _axes.setflags(write=False)


def t_state_ellipsoids(t: np.ndarray) -> list[SteeringEllipsoid]:
    """Steering ellipsoid of each member of a (k, 4, 4) stack of compressed
    two-qubit Pauli tensors t[a, c], member j being pair j+1's state.

    Every member must be a T-state: m~ = n = 0 and T diagonal, as every
    nonlocal run from GHZ keeps them (`states.GHZ_COMPONENTS`); else this
    raises InvariantError naming the first pair that is not.  A T-state
    steers each party onto the same centred ellipsoid, with matrix
    diag(d^2) and semiaxes |d| along the coordinate axes, for d = diag(T)
    (Jevtic, Pusey, Jennings & Rudolph, PRL 113, 020402 (2014)).  Semiaxes
    are descending, in a stable sort.  A group of semiaxes within
    DEGENERACY_TOL of its first member takes its axes in the order x, y,
    z.  The volume is sqrt(prod(d^2)), taking d^2 in descending order.
    The arrays are read-only: both parties' ellipsoids are the one object.
    """
    flat = t.reshape(-1, 16)
    if np.count_nonzero(flat) != np.count_nonzero(flat[:, ::5]):  # off the diagonal
        k, a, c = np.argwhere((t != 0) & ~np.eye(4, dtype=bool))[0]
        raise InvariantError(f"pair {k + 1} is not a T-state (m~ = n = 0, T diagonal): "
                             f"its compressed tensor holds {float(t[k, a, c])!r} at [{a}, {c}]")
    d = flat[:, 5::5]  # t[1, 1], t[2, 2], t[3, 3]
    semiaxes, orientation = [], []
    for row in np.abs(d).tolist():
        axes = sorted(range(3), key=row.__getitem__, reverse=True)  # a stable sort
        s0, s1, s2 = sorted_row = [row[i] for i in axes]
        if s0 - s1 <= DEGENERACY_TOL:
            stop = 3 if s0 - s2 <= DEGENERACY_TOL else 2
            axes[:stop] = sorted(axes[:stop])
        elif s1 - s2 <= DEGENERACY_TOL:
            axes[1:] = sorted(axes[1:])
        semiaxes.append(sorted_row)
        orientation.append(_ORIENTATIONS[tuple(axes)])
    semiaxes = np.array(semiaxes)
    center = np.zeros((len(d), 3))
    matrix = np.zeros((len(d), 9))
    matrix[:, ::4] = d * d
    matrix = matrix.reshape(-1, 3, 3)
    volume = np.sqrt((semiaxes * semiaxes).prod(axis=1))  # |d| |d| is d d exactly
    for x in (center, matrix, semiaxes):
        x.setflags(write=False)
    return [SteeringEllipsoid(center=c, matrix=o, semiaxes=s, orientation=a, volume=float(v))
            for c, o, s, a, v in zip(center, matrix, semiaxes, orientation, volume)]
