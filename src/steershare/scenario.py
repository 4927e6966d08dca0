"""Declarative scenarios, the sweep/scan harness and the simultaneous-steering
windows.

The canonical scenario starts from the GHZ state with two measurement
settings per pair: Charlie's x pairs with -(sigma_y x sigma_y) on A,B and
his -y with +(sigma_y x sigma_x), signs chosen (`measurement._AXIS_TABLE`)
so that every sharp correlator is +1.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import PAULIS
from .measurement import _AXIS_TABLE, _damped, _setting_plan
from .states import GHZ_VALUES, DensityMatrix, _check_type, _is_int, _is_real, \
    _state_entries, _support_states, _t_state_diagonal
from .steering import SteeringEllipsoid, StrengthHistory, _SEQUENCES, _ellipsoid_row, \
    _row_ellipsoids, closed_forms, coherence, t_state_ellipsoids

SQRT_HALF = 1 / math.sqrt(2)  # 0x1.6a09e667f3bccp-1; math.sqrt(0.5) is 1 ulp above

def charlie_operator(label: str) -> np.ndarray:
    sign, axis = _resolve_axis(label)
    return sign * PAULIS[_AXIS_TABLE[axis][0] - 1]


def _resolve_axis(label: str) -> tuple[float, str]:
    sign = 1.0
    axis = label.strip().lower() if isinstance(label, str) else ""
    if axis.startswith("-"):
        sign, axis = -1.0, axis[1:]
    if axis not in _AXIS_TABLE:
        raise ConfigError(f"unknown axis label {label!r}")
    return sign, axis


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of a sequential-measurement experiment."""

    strengths: StrengthHistory
    mode: str = "nonlocal"
    charlie_directions: tuple[str, ...] = ("x", "-y")

    def __post_init__(self):
        for name, kind in (("strengths", StrengthHistory), ("mode", str),
                           ("charlie_directions", tuple)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name}={getattr(self, name)!r} is not a {kind.__name__}")
        if self.mode not in ("nonlocal", "local"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 1 <= self.pairs <= 4:
            raise ConfigError(f"pairs={self.pairs} outside supported range 1..4")
        if len(self.charlie_directions) != 2:  # one per setting of a pair
            raise ConfigError("need one Charlie direction per setting")
        if self.mode == "local" and self.strengths.gammas is None:
            raise ConfigError("local mode needs eta/gamma strengths")
        axes = tuple([_resolve_axis(label)[1] for label in self.charlie_directions])
        if self.mode == "local" and "z" in axes:
            raise ConfigError("local mode is only defined for x/y settings")
        object.__setattr__(self, "_axes", axes)  # resolved once; not a field

    @property
    def pairs(self) -> int:
        return self.strengths.pairs

    @property
    def bound(self) -> float:
        """Classical bound of the two Charlie settings (`classical_bound`):
        C2 = 1/sqrt(2) for two different axes, 1 for one axis."""
        return SQRT_HALF if self._axes[0] != self._axes[1] else 1.0

    @classmethod
    def from_json(cls, obj: dict) -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(obj) - set(_CONFIG_TYPES))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; "
                              f"expected a subset of {sorted(_CONFIG_TYPES)}")
        for key, value in obj.items():
            kind = _CONFIG_TYPES[key]
            if not (_is_int(value) if kind is int else isinstance(value, kind)):
                raise ConfigError(f"config key {key!r} must be of type {kind.__name__}, "
                                  f"got {value!r}")
        # The one span every nonlocal setting keeps (see `states._t_state_diagonal`).
        if obj.get("compression", "00,11") != "00,11":
            raise ConfigError(f"config key 'compression' must be '00,11', "
                              f"got {obj['compression']!r}")
        pairs = int(obj.get("pairs", 2))
        if not 1 <= pairs <= 4:
            raise ConfigError(f"pairs={pairs} outside supported range 1..4")
        lambdas = [_strength_entry(entry) for entry in obj.get("strengths", [])]
        if len(lambdas) > pairs:
            raise ConfigError(f"history covers {len(lambdas)} pairs, config has {pairs}")
        lambdas += [(1.0, 1.0)] * (pairs - len(lambdas))  # final pair defaults to sharp
        mode = obj.get("mode", "nonlocal")
        if mode == "local":
            history = StrengthHistory.local_sqrt(lambdas)
        else:
            history = StrengthHistory.nonlocal_history(lambdas)
        return cls(
            strengths=history,
            mode=mode,
            charlie_directions=tuple(obj.get("charlie_directions", ("x", "-y"))),
        )


_CONFIG_TYPES = {"mode": str, "pairs": int, "strengths": list,
                 "charlie_directions": list, "compression": str}


def _strength_entry(entry) -> tuple[float, float]:
    """A pair's (lambda1, lambda2) from a scalar, [lam] or [lam1, lam2] entry."""
    lam = list(entry) if isinstance(entry, (list, tuple, np.ndarray)) else [entry]
    if not 1 <= len(lam) <= 2 or not all(_is_real(x) for x in lam):
        raise ConfigError(f"strength entry {entry!r} is neither a number nor "
                          f"a list of one or two numbers")
    return float(lam[0]), float(lam[-1])


def make_config(mode: str, lambdas: list, pairs: int | None = None,
                charlie_directions: tuple[str, ...] = ("x", "-y")) -> ScenarioConfig:
    """Convenience constructor; scalar entries mean equal strengths per pair.
    Arguments are type-checked as `ScenarioConfig.from_json` checks keys."""
    lambdas, directions = (list(x) if isinstance(x, _SEQUENCES) else x
                           for x in (lambdas, charlie_directions))
    return ScenarioConfig.from_json({
        "mode": mode,
        "strengths": lambdas,  # checked first: pairs stays None when it is no list
        "pairs": len(lambdas) if pairs is None and isinstance(lambdas, list) else pairs,
        "charlie_directions": directions,
    })


@dataclass(frozen=True)
class PairResult:
    """Outcome of one observer pair within a sequential run."""

    pair: int
    steering_value: float
    state: DensityMatrix = field(repr=False)
    # Charlie's and the AB pair's steering ellipsoid, one for a T-state; None
    # in local runs, whose Kraus operators leak out of the compression span.
    ellipsoid: SteeringEllipsoid | None = field(repr=False, default=None)

    def __post_init__(self):
        # Types only, so the check reads no value.
        if not _is_int(self.pair):
            raise ShapeError("pair is not an integer")
        if not _is_real(self.steering_value):
            raise ShapeError("steering_value is not a real number")
        _check_type(self.state, DensityMatrix)
        if self.ellipsoid is not None:
            _check_type(self.ellipsoid, SteeringEllipsoid)


def run_scenario(cfg: ScenarioConfig) -> list[PairResult]:
    """Full sequential simulation of the configured scenario.

    Pair i's steering value is evaluated on the state evolved through
    pairs 1..i-1, with pair i's own strengths as prefactors; the reported
    state and ellipsoids are post-update.  Every pair update only scales
    the state's Pauli components, each by the mean over settings of the
    coherences of the parties whose direction anticommutes with it, so the
    run evolves GHZ's 8 components, exact +-1 at the start, pair by pair
    (`measurement._damped`) as the cached setting plan of its mode and pair
    of Charlie axes (`measurement._setting_plan`) lays out, and reads each
    steering value off one of them.  Each state's 4 distinct diagonal and
    4 distinct anti-diagonal entries are one fixed +-1/8 sum of its
    components; the state is validated by its trace and least GHZ-basis
    weight, diagonal minus |anti-diagonal| (`states._state_entries`), with
    no eigensolver, and built on `states.SUPPORT`.  In a nonlocal run
    every state compresses to a T-state, whose diagonal is three two-term
    sums of components (`states._t_state_diagonal`), and the ellipsoids of
    every pair are read off those (`t_state_ellipsoids`).  A run of at most
    4 pairs computes all of these in one loop over Python floats
    (`_run_rows`), which `steershare run` spells from and this builds its
    objects from; the ellipsoid series calls the same three kernels on
    (k,) numpy columns.  No step calls BLAS, so a run's bits do not depend
    on the BLAS kernel.
    """
    rows = np.array(_run_rows(cfg)).reshape(cfg.pairs, -1)
    ells = _row_ellipsoids(rows[:, 9:]) if cfg.mode == "nonlocal" else [None] * cfg.pairs
    return [PairResult(pair=i, steering_value=v, state=state, ellipsoid=ell)
            for i, v, state, ell in zip(range(1, cfg.pairs + 1), rows[:, 0].tolist(),
                                        _support_states(rows[:, 1:9]), ells)]


def _run_rows(cfg: ScenarioConfig) -> list[float]:
    """The floats of a `cfg` run, pair by pair: the steering value, the
    state's 8 entries (`states._state_entries`), validated, and in a
    nonlocal run, whose every state is a T-state with one ellipsoid, its
    16-float row (`steering._ellipsoid_row`): 25 floats a pair in a
    nonlocal run and 9 in a local one, in Python floats, with no numpy call."""
    values, after = _run_components(cfg)
    ellipsoids = cfg.mode == "nonlocal"
    rows = []
    for value, c in zip(values, after):
        rows.append(float(value))  # a float, whatever number it came as
        rows += _state_entries(c)
        if ellipsoids:
            rows += _ellipsoid_row(_t_state_diagonal(c))
    return rows


def _run_components(cfg: ScenarioConfig) -> tuple[list[float], list[list[float]]]:
    """The steering values and the 8 GHZ components after each pair of a
    `cfg` run (see `run_scenario`), not yet validated, in Python floats:
    per pair, per setting, the damping of each party mask, the product of
    its parties' coherences, and the components damped by them
    (`_damped`)."""
    _check_type(cfg, ScenarioConfig)
    masks, (r0, r1), (sign0, sign1), _ = _setting_plan(cfg.mode, cfg._axes)
    h = cfg.strengths
    if cfg.mode == "nonlocal":  # per pair and setting, the damping of each mask
        damping = [[(1.0, coherence(x)) for x in pair] for pair in h.lambdas]
    else:
        damping = [[(1.0, a, b, a * b) for a, b in zip(map(coherence, etas), map(coherence, gammas))]
                   for etas, gammas in zip(h.etas, h.gammas)]
    values, after, c = [], [], GHZ_VALUES
    for (l0, l1), (f0, f1) in zip(h.lambdas, damping):
        # numpy's two-term sum starts from 0.0, so a -0.0 sum is +0.0.
        values.append(((l0 * sign0) * c[r0] + (l1 * sign1) * c[r1] + 0.0) / 2)
        c = _damped(c, masks, f0, f1)
        after.append(c)
    return values, after


@dataclass(frozen=True, eq=False)
class ScanTable:
    """Scan or sweep output as columns, one row per history.

    `params` maps each parameter name to its float64 array; `s` and `st`
    hold one float64 array per pair (`[]` where the mode leaves them out);
    `region` holds each row's activation label.
    """

    params: dict[str, np.ndarray]
    s: list[np.ndarray]
    st: list[np.ndarray]
    region: np.ndarray

    def __post_init__(self):
        # Types and shapes only, so the check reads no value of any column.
        region = self.region
        if not (isinstance(region, np.ndarray) and region.dtype.kind == "U"
                and region.ndim == 1):
            raise ShapeError("region is not a 1-D numpy str array")
        for name, kind in (("params", dict), ("s", list), ("st", list)):
            if not isinstance(getattr(self, name), kind):
                raise ShapeError(f"{name} is not a {kind.__name__}")
        for column in (*self.params.values(), *self.s, *self.st):
            if not (isinstance(column, np.ndarray) and column.dtype == np.float64
                    and column.shape == region.shape):
                raise ShapeError(f"a column is not a 1-D float64 array of {len(region)} rows")

    def __len__(self) -> int:
        return len(self.region)


_REGION_LABELS = np.array(["", "I", "II", "I+II"])


def _mode_closed_forms(mode: str, lam: list) -> tuple[list, list]:
    """Nonlocal S and local S~ of every pair, each [] where `mode` leaves it out,
    for strengths laid out as `closed_forms` takes them; local pairs split
    lambda as eta = gamma = sqrt(lambda), a Python float's root a float."""
    if not isinstance(mode, str) or mode not in ("nonlocal", "local", "compare"):
        raise ConfigError(f"unknown mode {mode!r}")
    s = closed_forms("nonlocal", lam, (lam,)) if mode != "local" else []
    if mode == "nonlocal":
        return s, []
    root = {id(x): math.sqrt(x) if type(x) is float else np.sqrt(x)
            for pair in lam[:-1] for x in pair}  # the last pair damps no one
    roots = [tuple([root[id(x)] for x in pair]) for pair in lam[:-1]]  # one root per strength
    return s, closed_forms("local", lam, (roots, roots))


def _table(mode: str, lam: list, params: dict) -> ScanTable:
    """Closed forms of every history, i.e. of every element of the pair
    strength arrays (a float strength is shared by every history, and an S
    that is one float fills a column), with activation labels: I (II) marks
    pair 2 (pair 3) steering nonlocally only."""
    n = len(next(iter(params.values())))
    s, st = ([v if isinstance(v, np.ndarray) else np.full(n, v) for v in group]
             for group in _mode_closed_forms(mode, lam))
    code = np.zeros(n, dtype=np.uint8)  # one byte a history, and so each shifted flag
    for k, (a, b) in enumerate(zip(s[1:3], st[1:3])):
        code |= ((a > SQRT_HALF) & (SQRT_HALF >= b)).view(np.uint8) << k
    return ScanTable(params=params, s=s, st=st, region=_REGION_LABELS[code])


# Size limits, checked before anything is allocated.  At the limit the
# largest call of each kind peaks in `steershare scan`/`sweep`, which write
# the text in blocks, at about 98 MiB RSS (a 3-pair compare scan) and
# 122 MiB (a 4-pair compare sweep, whatever its fixed ids: each is one
# float); an `ellipsoid_series` call, which builds no 8x8 state, peaks at
# about 79 MiB, 36 MiB above its input list.
MAX_GRID_RESOLUTION = 800
MAX_SAMPLES = 1_000_000
MAX_SERIES_SAMPLES = 40_000


def _grid_strengths(resolution: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-pair strengths of every grid cell, row-major over (lambda1, lambda2),
    equal for both settings; pair 3 is sharp."""
    if not _is_int(resolution) or not 2 <= resolution <= MAX_GRID_RESOLUTION:
        raise ConfigError(f"grid resolution {resolution} outside supported "
                          f"range 2..{MAX_GRID_RESOLUTION}")
    grid = np.linspace(0.0, 1.0, resolution)
    l1, l2 = np.repeat(grid, resolution), np.tile(grid, resolution)
    return [(a, a) for a in (l1, l2, np.ones_like(l1))]


def scan_region(pairs: int = 3, resolution: int = 400, mode: str = "compare"
                ) -> ScanTable:
    """Equal-strength region scan over (lambda^(1), lambda^(2)).

    Pair 3 (when present) measures sharply.  Rows are emitted row-major
    over the grid.
    """
    if not _is_int(pairs) or not 1 <= pairs <= 3:
        raise ConfigError(f"pairs={pairs} outside supported scan range 1..3")
    lam = _grid_strengths(resolution)
    return _table(mode, lam[:pairs], {"lambda1": lam[0][0], "lambda2": lam[1][0]})


def _check_strengths(lam: list) -> None:
    """Reject strengths outside [0, 1] or NaN, naming the first bad history's
    first bad pair.  `lam[j][k]` is pair j+1's strength of setting k: a 1-D
    float array, or a float every history shares; each distinct one is
    checked once, where it lies: no stacked copy."""
    distinct = {id(a): a for pair in lam for a in pair}.values()
    bad = np.zeros(max(map(np.size, distinct)), dtype=bool)
    for a in distinct:
        bad |= np.logical_not((a >= 0.0) & (a <= 1.0))
    if bad.any():
        k = bad.argmax()
        pair = next(p for p in lam if not all(0.0 <= _at(a, k) <= 1.0 for a in p))
        raise ConfigError(f"strengths {tuple(float(_at(a, k)) for a in pair)} outside [0, 1]")


def _at(a, k: int):
    """History k's strength of `a`, an array over histories or one float."""
    return a[k] if isinstance(a, np.ndarray) else a


_PARAM_RE = re.compile(r"^lambda([12]?)_([1-4])$")


def sweep_curve(fixed: dict[str, float], vary: str, start: float, stop: float,
                samples: int, pairs: int = 2, mode: str = "compare"
                ) -> ScanTable:
    """Sweep one strength parameter, reporting S (and S~ when comparing).

    Parameter ids: lambda1_i / lambda2_i address setting 1/2 of pair i,
    lambda_i sets both settings of pair i.  Unset pairs default to sharp.
    """
    if not isinstance(fixed, dict):
        raise ConfigError(f"fixed parameters {fixed!r} are not a dict")
    for name in list(fixed) + [vary]:
        if not isinstance(name, str) or not _PARAM_RE.match(name):
            raise ConfigError(f"unknown parameter id {name!r}")
    if vary in fixed:
        raise ConfigError(f"parameter {vary!r} is both varied and fixed")
    for name, v in [*fixed.items(), ("start", start), ("stop", stop)]:
        if not _is_real(v):
            raise ConfigError(f"{name}={v!r} is not a number")
    for name, v in (("start", start), ("stop", stop)):
        if not abs(v) <= sys.float_info.max:  # before linspace warns or overflows
            raise ConfigError(f"{name}={v!r} is not a finite float")
    if not _is_int(samples) or not 2 <= samples <= MAX_SAMPLES:
        raise ConfigError(f"samples={samples} outside supported range 2..{MAX_SAMPLES}")
    if not _is_int(pairs) or not 1 <= pairs <= 4:
        raise ConfigError(f"pairs={pairs} outside supported range 1..4")
    for name in list(fixed) + [vary]:
        if int(name[-1]) > pairs:
            raise ConfigError(f"parameter {name!r} addresses pair {name[-1]}, "
                              f"beyond pairs={pairs}")
    # lambdaK_i sets setting K of pair i; lambda_i sets both settings.
    owner = {}
    for name in list(fixed) + [vary]:
        setting, pair = _PARAM_RE.match(name).groups()
        for k in setting or "12":
            other = owner.setdefault((k, pair), name)
            if other != name:
                raise ConfigError(f"parameters {other!r} and {name!r} both set "
                                  f"lambda{k}_{pair}")
    # A fixed or sharp strength is one float, which every sample shares.
    params = {name: float(v) for name, v in fixed.items()}
    params[vary] = values = np.linspace(start, stop, samples)
    lam = [tuple([params.get(f"lambda{k}_{i}", params.get(f"lambda_{i}", 1.0)) for k in "12"])
           for i in range(1, pairs + 1)]
    _check_strengths(lam)
    return _table(mode, lam, {"param": values})


def ellipsoid_series(strength_pairs: list[tuple[float, float]]) -> list[SteeringEllipsoid]:
    """One steering ellipsoid per sample, Charlie's and AB's alike, of the post-pair-1
    state (a nonlocal x/-y pair 1), in one stacked numpy pass: a run's damping,
    state check and T-state kernels, called once on (k,) columns."""
    return t_state_ellipsoids(_series_diagonals(strength_pairs))


def _series_diagonals(strength_pairs: list[tuple[float, float]]) -> np.ndarray:
    """The (k, 3) T-state diagonals whose ellipsoids `ellipsoid_series` gives."""
    if isinstance(strength_pairs, _SEQUENCES) and len(strength_pairs) > MAX_SERIES_SAMPLES:
        raise ConfigError(f"series of {len(strength_pairs)} samples outside supported "
                          f"range 0..{MAX_SERIES_SAMPLES}")
    lam = np.array(StrengthHistory.nonlocal_history(strength_pairs).lambdas,
                   dtype=float).reshape(-1, 2)
    f0, f1 = ((1.0, coherence(lam[:, k])) for k in (0, 1))
    c = _damped([np.full(len(lam), x) for x in GHZ_VALUES],
                _setting_plan("nonlocal", ("x", "y"))[0], f0, f1)
    with np.errstate(invalid="ignore"):  # the check refuses an inf component's NaN
        _state_entries(c)  # as a run validates its states, none of which is built
    return np.stack(_t_state_diagonal(c), axis=1)


def max_simultaneous_pairs(resolution: int = 200, mode: str = "nonlocal") -> int:
    """Largest number of pairs that beat the bound anywhere on the strength grid."""
    if isinstance(mode, str) and mode == "compare":
        raise ConfigError("max_simultaneous_pairs counts one mode, 'nonlocal' or 'local'")
    s, st = _mode_closed_forms(mode, _grid_strengths(resolution))
    count = sum(v > SQRT_HALF for v in s or st)
    return int(count.max(initial=0))


# Both window ends are exact.  Pair 1's S = (lambda1 + lambda2)/2 passes
# 1/sqrt(2) at lambda2 = 1/sqrt(2) in every case.  Pair 2 is sharp, so its
# S = (2 + c1 + c2)/4, with c = coherence of pair 1's damping strengths,
# passes 1/sqrt(2) where c1 + c2 = 2 sqrt(2) - 2.  Damping is by lambda
# (nonlocal) or by B's gamma = sqrt(lambda) (local, c = sqrt(1 - lambda)).
_R = 2 * math.sqrt(2) - 2
_WINDOW_UPPER = {
    "unequal_local": 1.0 - (_R - math.sqrt(1.0 - SQRT_HALF)) ** 2,
    "equal_nonlocal": math.sqrt(_R),
    "unequal_nonlocal": coherence(_R - SQRT_HALF),
}


def simultaneous_window(case: str, tol: float = 1e-9) -> tuple[float, float]:
    """Range of lambda2^(1) where pairs 1 and 2 both steer Charlie.

    Cases: "unequal_local" and "unequal_nonlocal" fix lambda1^(1) at
    1/sqrt(2) and sweep lambda2^(1); "equal_nonlocal" sweeps both pair-1
    strengths together.  Pair 2 measures sharply.  The ends are the exact
    closed forms, so they meet every precision `tol` (> 0, not a bool).
    """
    if not isinstance(case, str) or case not in _WINDOW_UPPER:
        raise ConfigError(f"unknown case {case!r}")
    if not (_is_real(tol) and tol > 0):
        raise ConfigError(f"tol={tol!r} must be a positive number")
    return SQRT_HALF, _WINDOW_UPPER[case]
