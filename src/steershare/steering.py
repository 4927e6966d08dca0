"""Classical bounds, closed-form oracles, strength histories and ellipsoids.

The closed-form linear steering parameter (`closed_forms`), damped as the
setting plan `measurement._setting_plan` says, is the analytic oracle for
`run_scenario`, which reads the same parameter off the evolved state, laid
out by that plan, as sharp-direction correlators, multiplied once by the
current pair's strength.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NotHermitianError, ShapeError, UnsupportedSizeError
from .measurement import _setting_plan
from .states import _check_type, _is_int, _is_real, _unchecked

HERMITIAN_TOL = 1e-12
DEGENERACY_TOL = 1e-9
JOINT_STRENGTH_TOL = 1e-9


def coherence(strength):
    """sqrt(1 - strength^2), the coherence an unsharp measurement keeps.  A float
    in [-1, 1] stays a float (`math.sqrt` rounds as `np.sqrt`): it is faster."""
    if type(strength) is float and -1.0 <= strength <= 1.0:
        return math.sqrt(1.0 - strength * strength)
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


def _floats(history) -> tuple[tuple[float, float], ...]:
    return tuple([(float(s1), float(s2)) for s1, s2 in history])


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
        local = [h for h in (self.etas, self.gammas) if h is not None]
        if len(local) == 2 and local[1] is local[0]:
            del local[1]  # one history of A's and B's strengths: checked once
        _check_pairs(self.lambdas, *local)
        _check_unit_interval(self.lambdas)
        if (self.etas is None) != (self.gammas is None):
            raise ConfigError("etas and gammas must be given together")
        if any(len(p) != 2 for h in (self.lambdas, *local) for p in h):
            raise ConfigError("every pair needs one strength for each of its two settings")
        if local:
            if any(len(h) != len(self.lambdas) for h in local):
                raise ConfigError("local strengths must cover every pair")
            for h in local:
                _check_unit_interval(h)
            for lam, eta, gam in zip(self.lambdas, self.etas, self.gammas):
                for lk, ek, gk in zip(lam, eta, gam):
                    if abs(lk - ek * gk) > JOINT_STRENGTH_TOL:
                        raise ConfigError(
                            f"joint strength {lk} != eta*gamma = {ek * gk}"
                        )
        # Kept as Python floats, so that closed forms and runs round in float64
        # whatever kind of number each strength was given as.
        etas = None if self.etas is None else _floats(self.etas)
        object.__setattr__(self, "lambdas", _floats(self.lambdas))
        object.__setattr__(self, "gammas", etas if self.gammas is self.etas
                           else _floats(self.gammas))
        object.__setattr__(self, "etas", etas)

    @property
    def pairs(self) -> int:
        return len(self.lambdas)

    @classmethod
    def nonlocal_history(cls, lambdas: list[tuple[float, float]]) -> "StrengthHistory":
        _check_pairs(lambdas)
        return cls(tuple(tuple(p) for p in lambdas))

    @classmethod
    def local_sqrt(cls, lambdas: list[tuple[float, float]]) -> "StrengthHistory":
        """Local history with eta = gamma = sqrt(lambda) for every setting.
        Each strength is checked once, as `nonlocal_history` checks it: the
        root of a float in [0, 1] lies in [0, 1] and squares back to it within
        rounding, so the roots need no check."""
        h = cls.nonlocal_history(lambdas)
        roots = tuple([(math.sqrt(a), math.sqrt(b)) for a, b in h.lambdas])
        object.__setattr__(h, "etas", roots)
        object.__setattr__(h, "gammas", roots)
        return h


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


def closed_forms(mode: str, lam, damp) -> list:
    """Unvalidated analytic steering parameter of every pair in a sequence:
    S_i = sum_k lam[i-1][k] prod_{j<i} sum_l f_lk^(j) / n^i over n settings,
    where f_lk^(j), the damping by pair j's setting l of the component that
    setting k reads, is the coherence of the one party's strength that the
    x, -y `_setting_plan` names for k and l (1 if none).  `lam[j][k]` is pair
    j+1's strength in setting k and `damp[q][j][l]` party q's, the joint one
    (nonlocal) or A's and B's (local): floats, or arrays of one shape."""
    table = _setting_plan(mode, ("x", "y"))[3]
    n, last = len(table), len(lam)
    out, prod, others = [], [1.0] * n, range(1, n)
    for i, own in enumerate(lam, start=1):
        x = c = None  # frees the last pair's coherences; x is a strength, c its coherence
        value = own[0] * prod[0]  # in place below: only arrays made here, and + and * commute
        for k in others:
            value += own[k] * prod[k]
        value /= n ** i
        out.append(value)
        if i < last:  # the last pair damps no one
            for k, terms in enumerate(table):
                factor = float(n - len(terms))  # the settings that leave k's component alone
                for l, party in terms:  # a strength that serves two settings: one coherence
                    if (strength := damp[party][i - 1][l]) is not x:
                        x, c = strength, coherence(strength)
                    factor = factor + c
                factor *= prod[k]
                prod[k] = factor
    return out


def _history_value(h: StrengthHistory, mode: str, i: int) -> float:
    """S of pair i of `h`, damped as in `mode`."""
    _check_type(h, StrengthHistory)
    if not _is_int(i) or not 1 <= i <= h.pairs:
        raise ConfigError(f"pair index {i} outside history of {h.pairs} pairs")
    damp = (h.lambdas,) if mode == "nonlocal" else (h.etas, h.gammas)
    if damp[-1] is None:
        raise ConfigError("local closed form needs eta/gamma strengths")
    return float(closed_forms(mode, h.lambdas[:i], damp)[-1])


def closed_form_nonlocal(h: StrengthHistory, i: int) -> float:
    """Analytic steering parameter after i - 1 nonlocal pairs."""
    return _history_value(h, "nonlocal", i)


def closed_form_local(h: StrengthHistory, i: int) -> float:
    """Analytic counterpart when A and B measure locally."""
    return _history_value(h, "local", i)


@dataclass(frozen=True, eq=False)
class SteeringEllipsoid:
    """Geometry of the steered party's reachable Bloch vectors."""

    center: np.ndarray
    matrix: np.ndarray
    semiaxes: np.ndarray           # descending
    orientation: np.ndarray = field(repr=False)  # columns match semiaxes
    volume: float                  # normalized to the unit Bloch ball

    def __post_init__(self):
        # Types and shapes only, so the check reads no value.
        for name, shape in (("center", (3,)), ("matrix", (3, 3)), ("semiaxes", (3,)),
                            ("orientation", (3, 3))):
            x = getattr(self, name)
            if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == shape):
                raise ShapeError(f"{name} is not a float64 array of shape {shape}")
        if not _is_real(self.volume):
            raise ShapeError("volume is not a real number")


# Row a: coordinate axis a, a column of an orientation.
_UNIT = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
# Per order of the coordinate axes, the orientation whose column p is axis
# order[p], keyed by 9 order[0] + 3 order[1] + order[2]; read-only, so every
# ellipsoid with that order shares it.
_ORIENTATIONS = {9 * a + 3 * b + c: np.eye(3)[:, [a, b, c]]
                 for a, b, c in itertools.permutations(range(3))}
for _axes in _ORIENTATIONS.values():
    _axes.setflags(write=False)


def _ellipsoid_row(d: list[float]) -> list[float]:
    """The ellipsoid row of one T-state diagonal `d` of 3 floats: the 16
    floats of its ellipsoid that `--out` spells, the matrix diagonal d^2, the
    semiaxes, the orientation column by column and the volume (see
    `t_state_ellipsoids`).  Runs read one row per pair, the ellipsoid series
    a stack of them (`_ellipsoid_rows`)."""
    d0, d1, d2 = d
    a = [abs(d0), abs(d1), abs(d2)]
    axes = sorted(range(3), key=a.__getitem__, reverse=True)  # a stable sort
    s0, s1, s2 = a[axes[0]], a[axes[1]], a[axes[2]]
    lo, hi = int(s0 - s1 > DEGENERACY_TOL), 2 + (s1 - s2 <= DEGENERACY_TOL)
    if hi - lo > 1:  # a tie group takes its axes in the order x, y, z
        axes[lo:hi] = sorted(axes[lo:hi])
    a0, a1, a2 = axes
    return [d0 * d0, d1 * d1, d2 * d2, s0, s1, s2, *_UNIT[a0], *_UNIT[a1], *_UNIT[a2],
            math.sqrt(s0 * s0 * (s1 * s1) * (s2 * s2))]


def _ellipsoid_rows(d: np.ndarray) -> np.ndarray:
    """The (k, 16) ellipsoid rows of a (k, 3) stack of T-state diagonals `d`,
    streamed into one array row by row."""
    rows = itertools.chain.from_iterable(map(_ellipsoid_row, d.tolist()))
    return np.fromiter(rows, dtype=float, count=16 * len(d)).reshape(-1, 16)


def t_state_ellipsoids(d: np.ndarray) -> list[SteeringEllipsoid]:
    """Steering ellipsoid of each T-state of a (k, 3) stack of diagonals d of
    T, member j being pair j+1's compressed state (`states._t_state_diagonal`).

    A T-state, m~ = n = 0 and T = diag(d), steers each party onto the same
    centred ellipsoid, with matrix diag(d^2) and semiaxes |d| along the
    coordinate axes (Jevtic, Pusey, Jennings & Rudolph, PRL 113, 020402
    (2014)).  Semiaxes are descending, in a stable sort.  A tie group, a
    run of semiaxes each within DEGENERACY_TOL of the next, takes its axes
    in the order x, y, z.  The volume is sqrt(prod(d^2)), taking d^2 in
    descending order.  These are read off d as its ellipsoid rows
    (`_ellipsoid_rows`), and built from those (`_row_ellipsoids`): both
    parties' ellipsoids are the one object.
    """
    return _row_ellipsoids(_ellipsoid_rows(d))


def _row_ellipsoids(rows: np.ndarray) -> list[SteeringEllipsoid]:
    """The ellipsoids of a (k, 16) stack of ellipsoid rows, built past their
    field check, centred and with the diagonal matrix the rows give; their
    arrays are read-only, and ellipsoids whose semiaxes lie along the same
    axes share one orientation (`_ORIENTATIONS`)."""
    k = len(rows)
    center, matrix = np.zeros((k, 3)), np.zeros((k, 9))
    matrix[:, ::4] = rows[:, :3]
    matrix = matrix.reshape(-1, 3, 3)
    semiaxes = rows[:, 3:6].copy()  # keeps 3 floats an ellipsoid, not its whole row
    for x in (center, matrix, semiaxes):
        x.setflags(write=False)
    order = rows[:, 6:15].reshape(-1, 3, 3).argmax(axis=2)  # the axis of each unit column
    keys = (order * [9, 3, 1]).sum(axis=1).tolist()
    return [_unchecked(SteeringEllipsoid, center=c, matrix=m, semiaxes=s,
                       orientation=_ORIENTATIONS[key], volume=v)
            for c, m, s, key, v in zip(center, matrix, semiaxes, keys, rows[:, 15].tolist())]
