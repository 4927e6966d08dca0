"""Declarative scenarios, the sweep/scan harness and the simultaneous-steering
windows.

The canonical scenario starts from the GHZ state with two measurement
settings per pair.  Signs are absorbed into the stored directions so that
every sharp correlator evaluates to +1 (outcome relabeling only): Charlie's
x setting pairs with -(sigma_y x sigma_y) on A,B and his -y setting with
+(sigma_y x sigma_x).
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .linalg import PAULIS
from .measurement import anticommuting, dephasing_scale
from .states import GHZ_TENSOR, DensityMatrix, _check_type, _is_int, _is_real, \
    compressed_tensors, from_pauli_tensors
from .steering import (
    SteeringEllipsoid,
    StrengthHistory,
    _SEQUENCES,
    closed_forms,
    coherence,
    t_state_ellipsoids,
)

SQRT_HALF = float(1 / np.sqrt(2))

# Per axis: Charlie's Pauli index c and the signed A,B Pauli product
# sign * sigma_p x sigma_q paired with it, as (c, sign, p, q).  Signs are
# fixed so the sharp GHZ correlator <D x L> = sign * t[p, q, c] is +1.  A
# label's own sign flips D and L together, which changes neither that
# correlator nor the dephasing channel of D.
_AXIS_TABLE = {"x": (1, -1.0, 2, 2), "y": (2, -1.0, 2, 1), "z": (3, 1.0, 3, 0)}


def _setting_masks(mode: str, p: int, q: int) -> np.ndarray:
    """Anticommutation masks of the directions one setting measures, one per
    measuring party (see `dephasing_scale`): sigma_p x sigma_q jointly, or
    sigma_p on A and sigma_q on B locally."""
    dirs = [(p, q, 0)] if mode == "nonlocal" else [(p, 0, 0), (0, q, 0)]
    return np.stack([anticommuting(d) for d in dirs])


# sigma_z x I does not split into local A and B factors.
_MASKS = {(mode, axis): _setting_masks(mode, p, q)
          for axis, (_, _, p, q) in _AXIS_TABLE.items()
          for mode in ("nonlocal", "local") if mode == "nonlocal" or axis != "z"}


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
        axes = [_resolve_axis(label)[1] for label in self.charlie_directions]
        if self.mode == "local" and "z" in axes:
            raise ConfigError("local mode is only defined for x/y settings")

    @property
    def pairs(self) -> int:
        return self.strengths.pairs

    @property
    def bound(self) -> float:
        """Classical bound of the two Charlie settings (`classical_bound`):
        C2 = 1/sqrt(2) for two different axes, 1 for one axis."""
        axes = {_resolve_axis(label)[1] for label in self.charlie_directions}
        return SQRT_HALF if len(axes) == 2 else 1.0

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
        # The one span every nonlocal setting keeps (see `states.compressed_tensors`).
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
    # Ellipsoids need the compressed two-qubit form; local Kraus operators
    # leak out of the compression span, leaving them undefined (None).  A
    # nonlocal run's states are T-states, which steer both parties onto the
    # same ellipsoid: both fields hold that one (read-only) object.
    charlie_ellipsoid: SteeringEllipsoid | None = field(repr=False, default=None)
    ab_ellipsoid: SteeringEllipsoid | None = field(repr=False, default=None)


def run_scenario(cfg: ScenarioConfig) -> list[PairResult]:
    """Full sequential simulation of the configured scenario.

    Pair i's steering value is evaluated on the state evolved through
    pairs 1..i-1, with pair i's own strengths as prefactors; the reported
    state and ellipsoids are post-update.  The run evolves the state's
    Pauli tensor: every pair update multiplies it by a fixed factor
    (`dephasing_scale`), so the tensor after pair i is the GHZ tensor
    times the product of the factors of pairs 1..i.  The reported states
    are built and validated as one stack (`from_pauli_tensors`).  In a
    nonlocal run, one contraction of the tensors compresses every pair's
    state (`compressed_tensors`), and the ellipsoids of every pair are read
    off the diagonals of the compressed T-states (`t_state_ellipsoids`).
    """
    _check_type(cfg, ScenarioConfig)
    axes = [_resolve_axis(lbl)[1] for lbl in cfg.charlie_directions]
    lam = np.array(cfg.strengths.lambdas)  # (pair, setting)
    if cfg.mode == "nonlocal":
        c = coherence(lam)[..., None]
    else:
        c = coherence(np.stack([cfg.strengths.etas, cfg.strengths.gammas], axis=-1))
    anti = np.stack([_MASKS[cfg.mode, axis] for axis in axes])
    after = GHZ_TENSOR * np.cumprod(dephasing_scale(anti, c), axis=0)
    before = np.concatenate([GHZ_TENSOR[None], after[:-1]])
    charlie, sign, p, q = zip(*(_AXIS_TABLE[a] for a in axes))
    values = (lam * sign * before[:, p, q, charlie]).mean(axis=1)
    states = from_pauli_tensors(after)
    ells = [None] * cfg.pairs
    if cfg.mode == "nonlocal":
        ells = t_state_ellipsoids(compressed_tensors(after)[0])
    return [PairResult(pair=i + 1, steering_value=float(values[i]), state=state,
                       charlie_ellipsoid=ell, ab_ellipsoid=ell)
            for i, (state, ell) in enumerate(zip(states, ells))]


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

    def __len__(self) -> int:
        return len(self.region)


_REGION_LABELS = np.array(["", "I", "II", "I+II"])


def _mode_closed_forms(mode: str, lam1: list, lam2: list) -> tuple[list, list]:
    """Nonlocal S and local S~ of every pair, each [] where `mode` leaves it out.

    Strengths are floats or equal-shape arrays, as for `closed_forms`;
    local pairs split lambda as eta = gamma = sqrt(lambda)."""
    if not isinstance(mode, str) or mode not in ("nonlocal", "local", "compare"):
        raise ConfigError(f"unknown mode {mode!r}")
    s = closed_forms(lam1, lam2, lam1, lam2) if mode != "local" else []
    st = (closed_forms(lam1, lam2, [np.sqrt(x) for x in lam1], [np.sqrt(x) for x in lam2])
          if mode != "nonlocal" else [])
    return s, st


def _table(mode: str, lam1: list, lam2: list, params: dict) -> ScanTable:
    """Closed forms of every history, i.e. of every element of the pair
    strength arrays, with activation labels: I (II) marks pair 2 (pair 3)
    steering nonlocally only."""
    s, st = _mode_closed_forms(mode, lam1, lam2)
    code = np.zeros_like(lam1[0], dtype=np.intp)
    for k, (a, b) in enumerate(zip(s[1:3], st[1:3])):
        code |= ((a > SQRT_HALF) & (SQRT_HALF >= b)) << k
    return ScanTable(params=params, s=s, st=st, region=_REGION_LABELS[code])


# Size limits, checked before anything is allocated.  At the limit the
# largest call of each kind peaks in `steershare scan`/`sweep`, which write
# the text in blocks, at about 120 MiB RSS (a 3-pair compare scan) and
# 215 MiB (a 4-pair compare sweep).
MAX_GRID_RESOLUTION = 800
MAX_SAMPLES = 1_000_000


def _grid_strengths(resolution: int) -> list[np.ndarray]:
    """Per-pair strengths of every grid cell, row-major over (lambda1, lambda2);
    pair 3 is sharp."""
    if not _is_int(resolution) or not 2 <= resolution <= MAX_GRID_RESOLUTION:
        raise ConfigError(f"grid resolution {resolution} outside supported "
                          f"range 2..{MAX_GRID_RESOLUTION}")
    grid = np.linspace(0.0, 1.0, resolution)
    l1, l2 = np.repeat(grid, resolution), np.tile(grid, resolution)
    return [l1, l2, np.ones_like(l1)]


def scan_region(pairs: int = 3, resolution: int = 400, mode: str = "compare"
                ) -> ScanTable:
    """Equal-strength region scan over (lambda^(1), lambda^(2)).

    Pair 3 (when present) measures sharply.  Rows are emitted row-major
    over the grid.
    """
    if not _is_int(pairs) or not 1 <= pairs <= 3:
        raise ConfigError(f"pairs={pairs} outside supported scan range 1..3")
    lams = _grid_strengths(resolution)
    return _table(mode, lams[:pairs], lams[:pairs],
                  {"lambda1": lams[0], "lambda2": lams[1]})


def _check_strengths(lam1: list, lam2: list) -> None:
    """Reject strengths outside [0, 1] or NaN, naming the first bad history's
    first bad pair.  Entry j of each list is pair j+1's 1-D float array; each
    is checked where it lies, so no stacked copy is made."""
    bad = np.zeros(len(lam1[0]), dtype=bool)
    for a in (*lam1, *lam2):
        bad |= ~((a >= 0.0) & (a <= 1.0))
    if bad.any():
        k = bad.argmax()
        pair = next(p for p in zip(lam1, lam2) if not all(0.0 <= a[k] <= 1.0 for a in p))
        raise ConfigError(f"strengths {tuple(float(a[k]) for a in pair)} outside [0, 1]")


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
    params = {name: np.full(samples, float(v)) for name, v in fixed.items()}
    params[vary] = values = np.linspace(start, stop, samples)
    both = [params.get(f"lambda_{i}", np.ones(samples)) for i in range(1, pairs + 1)]
    lam1 = [params.get(f"lambda1_{i}", b) for i, b in enumerate(both, start=1)]
    lam2 = [params.get(f"lambda2_{i}", b) for i, b in enumerate(both, start=1)]
    _check_strengths(lam1, lam2)
    return _table(mode, lam1, lam2, {"param": values})


@dataclass(frozen=True)
class EllipsoidRecord:
    lambda1: float
    lambda2: float
    charlie: SteeringEllipsoid
    ab: SteeringEllipsoid


def ellipsoid_series(strength_pairs: list[tuple[float, float]]) -> list[EllipsoidRecord]:
    """Charlie/AB steering ellipsoids of the post-pair-1 state per sample."""
    out = []
    for l1, l2 in StrengthHistory.nonlocal_history(strength_pairs).lambdas:
        cfg = make_config("nonlocal", [[l1, l2]], pairs=1)
        result = run_scenario(cfg)[0]
        out.append(EllipsoidRecord(l1, l2, result.charlie_ellipsoid,
                                   result.ab_ellipsoid))
    return out


def max_simultaneous_pairs(resolution: int = 200, mode: str = "nonlocal") -> int:
    """Largest number of pairs that beat the bound anywhere on the strength grid."""
    if isinstance(mode, str) and mode == "compare":
        raise ConfigError("max_simultaneous_pairs counts one mode, 'nonlocal' or 'local'")
    lams = _grid_strengths(resolution)
    s, st = _mode_closed_forms(mode, lams, lams)
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


# Per CSV kind: parameter columns, the number of S (and of St) columns, and
# whether the region label is written.
_CSV_LAYOUT = {"scan": (("lambda1", "lambda2"), 3, True),
               "sweep": (("param",), 2, False)}

# Rows per CSV text block: a block's text and `tolist` copies stay a few
# hundred kB, while per-block overhead stays far below the formatting cost.
CSV_BLOCK_ROWS = 2048


def iter_csv(table: ScanTable, kind: str) -> Iterator[str]:
    """Deterministic CSV for scan ("lambda1,lambda2,...") or sweep rows, as
    the header line and then blocks of at most `CSV_BLOCK_ROWS` rows.

    The layout is checked when this is called, before any text is made.
    """
    if kind not in _CSV_LAYOUT:
        raise ConfigError(f"unknown CSV kind {kind!r}")
    names, width, with_region = _CSV_LAYOUT[kind]
    if not set(names) <= table.params.keys():
        raise ConfigError(f"a {kind} CSV needs parameter columns {list(names)}, "
                          f"the table has {list(table.params)}")
    header = [*names, *(f"{p}{i}" for p in ("S", "St") for i in range(1, width + 1))]
    cols = [table.params[n] for n in names]
    fields = ["%.12g"] * len(names)
    for group in (table.s, table.st):
        group = group[:width]
        cols += group
        fields += ["%.12g"] * len(group) + [""] * (width - len(group))
    if with_region:
        header.append("region")
        cols.append(table.region)
        fields.append("%s")
    # One %-format per row; tolist gives Python floats, printed to 12 significant digits.
    row = ",".join(fields) + "\n"
    step = CSV_BLOCK_ROWS

    def blocks() -> Iterator[str]:
        yield ",".join(header) + "\n"
        for i in range(0, len(table), step):
            yield "".join(map(row.__mod__, zip(*(c[i:i + step].tolist() for c in cols))))

    return blocks()
