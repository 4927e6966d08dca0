"""The three benchmark workloads: seeded inputs, one call each, and checks.

Every workload is a closed loop with one caller.  It is run as whole
rounds; a round is a fixed list of slots whose cost class does not depend
on the seed, while the seed draws the values inside each slot and the
order of the slots.  That keeps the composition of a run, and so its
median call, the same from seed to seed.

Each operation makes one top-level call into steershare's public entry
points (`cli.main` or `scenario.simultaneous_window`), and its output is
checked against `reference`, which shares no code with the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# The sizes and mixes below are synthetic: they spread the cost of a call
# over the range the program is used at, with one fixed slot per workload
# for the middle of that range or for a use the project README documents.
# The documented scan (`--grid 400`, the CLI default) is left out: one such
# call takes 10-17 s and 177 MB here, too long for a speed calibration
# taken beside it to follow the host (README, "Inputs and seeds").

# Scan grid sizes: one slot per stratum, drawn uniformly from [lo, hi).
# The middle slot is fixed so the median call is always the same grid;
# the last slot is large so the record list shows in peak RSS.
SCAN_STRATA = ((6, 12), (12, 18), (18, 24), (24, 30), (32, 33),
               (34, 40), (40, 46), (46, 52), (80, 88))

# (mode, pairs) -> configs per round.  The counts put the median call in
# the middle of one cost class, not on the edge between two.  One of the
# nonlocal 2-pair configs is README_RUN.
RUN_COMPOSITION = {("local", 1): 3, ("nonlocal", 1): 3,
                   ("local", 2): 4, ("nonlocal", 2): 4,
                   ("local", 3): 4, ("nonlocal", 3): 2,
                   ("local", 4): 2, ("nonlocal", 4): 2}
# The `steershare run` example config of the project README.
README_RUN = {"mode": "nonlocal", "pairs": 2, "strengths": [0.5, 0.8],
              "charlie_directions": ["x", "-y"], "compression": "00,11"}

WINDOW_CASES = ("unequal_local", "equal_nonlocal", "unequal_nonlocal")
# log10(tol) strata for window solves; one solve per case and stratum.
# The program's default tol, 1e-9, lies in the second.
TOL_STRATA = ((-12.0, -10.4), (-10.4, -8.8), (-8.8, -7.2), (-7.2, -5.6),
              (-5.6, -4.0))
# Sweep sample counts; one sweep per stratum, besides README_SWEEP.
SWEEP_STRATA = ((3, 10), (10, 18), (18, 26), (26, 34))
# The `steershare sweep` example of the project README: fixed, varied
# parameter, range, samples; 2 pairs, compare mode (the defaults).
README_SWEEP = ({"lambda1_1": 0.70710678}, "lambda2_1", 0.6, 1.0, 81)

RUN_S_TOL = 1e-10       # simulated vs closed-form S
STATE_TOL = 1e-10       # Hermiticity and trace of the output state
EIG_FLOOR = -1e-9       # smallest eigenvalue allowed in the output state
GEOMETRY_TOL = 1e-9     # ellipsoid volume identity and semiaxes <= 1
WINDOW_SLACK = 1e-13    # float error of bisection beyond tol / 2


@dataclass
class Result:
    """What one call produced: exit code, captured streams, output file."""

    rc: int
    stdout: str = ""
    stderr: str = ""
    path: Path | None = None  # the file the call wrote, if it succeeded
    value: object = None

    @property
    def text(self) -> str:
        return self.path.read_text() if self.path else ""

    @property
    def out_bytes(self) -> int:
        return len(self.stdout.encode()) + (self.path.stat().st_size if self.path else 0)

    def rewritten(self, text: str) -> Result:
        """This result with its output file replaced by a copy holding `text`."""
        path = self.path.with_name("corrupt-" + self.path.name)
        path.write_text(text)
        return Result(self.rc, self.stdout, self.stderr, path)


def run_cli(argv: list[str], out_path: Path | None) -> Result:
    """One in-process `steershare.cli.main` call with captured streams."""
    from steershare import cli  # looked up per call so tracing sees it

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    path = out_path if rc == 0 and out_path.exists() else None
    return Result(rc, out.getvalue(), err.getvalue(), path)


def _cli_failure(res: Result) -> str | None:
    if res.rc != 0:
        return f"exit {res.rc}: {res.stderr.strip()[:200]}"
    if res.path is None:
        return "no output file"
    return None


def _parse_csv(text: str, header: str, rows: int) -> tuple[list[list[str]], str | None]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], f"header {lines[:1]!r}"
    if len(lines) != rows + 1:
        return [], f"{len(lines) - 1} rows, expected {rows}"
    table = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    if any(len(r) != width for r in table):
        return [], "ragged CSV row"
    return table, None


def _check_values(got: np.ndarray, want: np.ndarray, name: str) -> str | None:
    """Compare one column of printed values to the reference."""
    ok = ref.matches_12_digits(got, want)
    if not ok.all():
        k = int(np.argmin(ok))
        return f"{name} row {k + 1}: {float(got[k])!r} vs reference {float(want[k])!r}"
    return None


def _check_column(cells: list[str], want: np.ndarray | None, name: str) -> str | None:
    """Compare one CSV column to the reference; None means empty column."""
    if want is None:
        return None if all(c == "" for c in cells) else f"{name} should be empty"
    try:
        got = np.array(cells, dtype=float)
    except ValueError:
        return f"{name} has a non-numeric cell"
    return _check_values(got, want, name)


def _corrupt_cell(text: str, row: int, col: int) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) * (1 + 1e-6) + 1e-6:.12g}"
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


class CliOp:
    """One `steershare` command line writing to `self.out`."""

    items = 1
    argv: list[str]
    out: Path

    def prepare(self) -> None:
        """Write the call's input files; runs outside the timed call."""

    def call(self) -> Result:
        return run_cli(self.argv, self.out)


class ScanOp(CliOp):
    """`steershare scan --pairs 3 --mode compare --grid G`: G*G cells."""

    HEADER = "lambda1,lambda2,S1,S2,S3,St1,St2,St3,region"

    def __init__(self, grid: int, out: Path):
        self.grid, self.out = grid, out
        self.items = grid * grid
        self.argv = ["scan", "--pairs", "3", "--mode", "compare",
                     "--grid", str(grid), "--out", str(out)]

    def check(self, res: Result) -> str | None:
        """Streams the CSV: the region column line by line, the numbers
        through numpy, so the check holds no table of Python strings and
        the process's peak memory stays the program's."""
        fail = _cli_failure(res)
        if fail:
            return fail
        if res.stdout != f"wrote {self.items} rows to {self.out}\n":
            return f"stdout {res.stdout[:80]!r}"
        axis = np.linspace(0.0, 1.0, self.grid)
        l1, l2 = np.repeat(axis, self.grid), np.tile(axis, self.grid)
        lam = np.stack([l1, l2, np.ones_like(l1)])
        s = ref.closed_form(lam, lam, local=False)
        st = ref.closed_form(lam, lam, local=True)
        labels, skip = ref.region_labels(s, st), ref.near_bound(s, st)
        with res.path.open() as fh:
            if fh.readline() != self.HEADER + "\n":
                return "bad header"
            rows = 0
            for k, line in enumerate(fh):
                rows += 1
                if line.count(",") != 8:
                    return f"row {k + 1} does not have 9 cells"
                got = line.rstrip("\n").rsplit(",", 1)[1]
                if k < self.items and got != labels[k] and not skip[k]:
                    return f"region row {k + 1}: {got!r} vs reference {str(labels[k])!r}"
        if rows != self.items:
            return f"{rows} rows, expected {self.items}"
        try:
            table = np.loadtxt(res.path, delimiter=",", skiprows=1, usecols=range(8),
                               ndmin=2)
        except ValueError as exc:
            return f"non-numeric cell: {exc}"
        for j, (name, want) in enumerate(zip(self.HEADER.split(","), [l1, l2, *s, *st])):
            fail = _check_values(table[:, j], want, name)
            if fail:
                return fail
        return None

    def corrupt(self, res: Result) -> Result:
        row = len(res.text.splitlines()) // 2
        return res.rewritten(_corrupt_cell(res.text, row, 3))


class RunOp(CliOp):
    """`steershare run --config C --out O`: one item per pair step."""

    def __init__(self, config: dict, cfg_path: Path, out: Path):
        self.config, self.cfg_path, self.out = config, cfg_path, out
        self.items = config["pairs"]
        self.argv = ["run", "--config", str(cfg_path), "--out", str(out)]

    def prepare(self) -> None:
        self.cfg_path.write_text(json.dumps(self.config))

    def _strengths(self) -> np.ndarray:
        """(pairs, 2) strengths as the config means them."""
        lams = [(e, e) if isinstance(e, float) else tuple(e)
                for e in self.config["strengths"]]
        lams += [(1.0, 1.0)] * (self.items - len(lams))  # final pair sharp
        return np.array(lams, dtype=float)

    def check(self, res: Result) -> str | None:
        fail = _cli_failure(res)
        if fail:
            return fail
        local = self.config["mode"] == "local"
        lam = self._strengths()
        want = ref.closed_form(lam[:, :1], lam[:, 1:], local)[:, 0]
        try:
            payload = json.loads(res.text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if [p.get("pair") for p in payload] != list(range(1, self.items + 1)):
            return "pairs missing or out of order"
        lines = res.stdout.splitlines()
        if len(lines) != self.items or not all(
                line.startswith(f"pair {i + 1}: S = ") for i, line in enumerate(lines)):
            return f"stdout {res.stdout[:80]!r}"
        for i, p in enumerate(payload):
            fail = self._check_pair(p, want[i], local)
            if fail:
                return f"pair {i + 1}: {fail}"
        return None

    @staticmethod
    def _check_pair(p: dict, want_s: float, local: bool) -> str | None:
        if abs(p["steering_value"] - want_s) > RUN_S_TOL:
            return f"S = {p['steering_value']!r}, reference {float(want_s)!r}"
        state = p["state"]
        rho = np.array(state["re"]) + 1j * np.array(state["im"])
        if state["qubits"] != 3 or rho.shape != (8, 8):
            return "state is not a 3-qubit density matrix"
        if np.max(np.abs(rho - rho.conj().T)) > STATE_TOL:
            return "state is not Hermitian"
        if abs(np.trace(rho) - 1) > STATE_TOL:
            return f"state trace {np.trace(rho)!r}"
        if np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] < EIG_FLOOR:
            return "state has a negative eigenvalue"
        if local:
            if p["charlie_ellipsoid"] is not None or p["ab_ellipsoid"] is not None:
                return "local mode reported an ellipsoid"
            return None
        m, n, T, weight = ref.compressed_bloch(rho)
        if abs(weight - 1) > GEOMETRY_TOL:
            return f"weight {weight!r} outside the 00/11 block"
        for key, vol in (("charlie_ellipsoid", ref.ellipsoid_volume(m, n, T)),
                         ("ab_ellipsoid", ref.ellipsoid_volume(n, m, T.T))):
            ell = p[key]
            if ell is None:
                return f"{key} missing"
            if abs(ell["volume"] - vol) > GEOMETRY_TOL:
                return f"{key} volume {ell['volume']!r}, reference {vol!r}"
            if max(ell["semiaxes"]) > 1 + GEOMETRY_TOL:
                return f"{key} semiaxis {max(ell['semiaxes'])!r} > 1"
        return None

    def corrupt(self, res: Result) -> Result:
        payload = json.loads(res.text)
        payload[-1]["steering_value"] += 1e-6
        return res.rewritten(json.dumps(payload))


class WindowOp:
    """`scenario.simultaneous_window(case, tol)`: one item."""

    items = 1

    def __init__(self, case: str, tol: float):
        self.case, self.tol = case, tol

    def prepare(self) -> None:
        """Nothing to write: the call takes its inputs as arguments."""

    def call(self) -> Result:
        from steershare import scenario

        return Result(0, value=scenario.simultaneous_window(self.case, tol=self.tol))

    def check(self, res: Result) -> str | None:
        lo, hi = res.value
        limit = self.tol + WINDOW_SLACK
        for name, got, want in (("lower", lo, ref.BOUND),  # in every case
                                ("upper", hi, ref.window_upper(self.case))):
            if not abs(got - want) <= limit:
                return (f"{self.case} tol={self.tol:.3g}: {name} end {got!r}, "
                        f"analytic {want!r}")
        return None

    def corrupt(self, res: Result) -> Result:
        lo, hi = res.value
        return Result(0, value=(lo, hi + 10 * self.tol + 1e-9))


class SweepOp(CliOp):
    """`steershare sweep --fix ... --vary V --from A --to B --samples N`."""

    HEADER = "param,S1,S2,St1,St2"

    def __init__(self, fixed: dict[str, float], vary: str, start: float,
                 stop: float, samples: int, pairs: int, mode: str, out: Path):
        self.fixed, self.vary = fixed, vary
        self.start, self.stop, self.samples = start, stop, samples
        self.pairs, self.mode, self.out = pairs, mode, out
        self.argv = ["sweep"]
        for name, value in fixed.items():
            self.argv += ["--fix", f"{name}={value!r}"]
        self.argv += ["--vary", vary, "--from", repr(start), "--to", repr(stop),
                      "--samples", str(samples), "--pairs", str(pairs),
                      "--mode", mode, "--out", str(out)]

    def _strengths(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pairs, samples) strengths of setting 1 and 2; unset pairs sharp."""
        lam = np.ones((2, self.pairs, v.size))
        params = {**self.fixed, self.vary: None}  # None: the swept values
        for name, value in params.items():
            setting, pair = name[len("lambda"):].split("_")
            col = v if value is None else value
            for k in ((0, 1) if setting == "" else (int(setting) - 1,)):
                lam[k, int(pair) - 1] = col
        return lam[0], lam[1]

    def check(self, res: Result) -> str | None:
        fail = _cli_failure(res)
        if fail:
            return fail
        if res.stdout != f"wrote {self.samples} rows to {self.out}\n":
            return f"stdout {res.stdout[:80]!r}"
        table, fail = _parse_csv(res.text, self.HEADER, self.samples)
        if fail:
            return fail
        cols = list(zip(*table))
        v = np.linspace(self.start, self.stop, self.samples)
        lam1, lam2 = self._strengths(v)
        s = st = [None, None]
        if self.mode in ("nonlocal", "compare"):
            s = ref.closed_form(lam1, lam2, local=False)[:2]
        if self.mode in ("local", "compare"):
            st = ref.closed_form(lam1, lam2, local=True)[:2]
        for name, cells, want in zip(self.HEADER.split(","), cols, [v, *s, *st]):
            fail = _check_column(cells, want, name)
            if fail:
                return fail
        return None

    def corrupt(self, res: Result) -> Result:
        col = 1 if self.mode != "local" else 3
        return res.rewritten(_corrupt_cell(res.text, 1, col))


class ScanGrid:
    """Batch closed forms: equal-strength 3-pair compare scans to CSV."""

    name = "scan-grid"
    trace_rounds = 1

    def __init__(self, rng: random.Random, tmp: Path):
        self.rng, self.tmp = rng, tmp

    def round(self) -> list:
        grids = [self.rng.randrange(lo, hi) for lo, hi in SCAN_STRATA]
        self.rng.shuffle(grids)
        return [ScanOp(g, self.tmp / f"scan-{k}.csv") for k, g in enumerate(grids)]


class RunHistories:
    """Density-matrix runs of seeded configs through `steershare run`."""

    name = "run-histories"
    trace_rounds = 4

    def __init__(self, rng: random.Random, tmp: Path):
        self.rng, self.tmp = rng, tmp

    def _strength(self):
        """A scalar (both settings equal) or an explicit pair."""
        if self.rng.random() < 0.5:
            return self.rng.random()
        return [self.rng.random(), self.rng.random()]

    def round(self) -> list:
        slots = [key for key, count in RUN_COMPOSITION.items() for _ in range(count)]
        slots.remove(("nonlocal", 2))
        slots.append(README_RUN)
        self.rng.shuffle(slots)
        ops = []
        for k, slot in enumerate(slots):
            if slot is README_RUN:
                config = README_RUN
            else:
                mode, pairs = slot
                # One config in three omits the final pair, which defaults to sharp.
                given = pairs - 1 if self.rng.random() < 1 / 3 else pairs
                config = {"mode": mode, "pairs": pairs,
                          "strengths": [self._strength() for _ in range(given)]}
            ops.append(RunOp(config, self.tmp / f"cfg-{k}.json",
                             self.tmp / f"run-{k}.json"))
        return ops


class PointQueries:
    """Scalar closed forms: window bisections interleaved with short sweeps."""

    name = "point-queries"
    trace_rounds = 4

    def __init__(self, rng: random.Random, tmp: Path):
        self.rng, self.tmp = rng, tmp

    def _sweep(self, samples: int, out: Path) -> SweepOp:
        rng = self.rng
        pairs = rng.choice((2, 3, 4))
        # Each pair is addressed either as lambda_i or by setting, never both,
        # so no id overrides another.
        ids = []
        for i in range(1, pairs + 1):
            ids += [f"lambda_{i}"] if rng.random() < 0.3 else \
                [f"lambda1_{i}", f"lambda2_{i}"]
        vary = rng.choice(ids)
        others = [x for x in ids if x != vary]
        fixed = {x: rng.random() for x in rng.sample(others, rng.randint(0, min(3, len(others))))}
        start, stop = rng.random(), rng.random()
        mode = rng.choice(("compare", "nonlocal", "local"))
        return SweepOp(fixed, vary, start, stop, samples, pairs, mode, out)

    def round(self) -> list:
        ops = [WindowOp(case, 10 ** self.rng.uniform(lo, hi))
               for case in WINDOW_CASES for lo, hi in TOL_STRATA]
        ops += [self._sweep(self.rng.randrange(lo, hi), self.tmp / f"sweep-{k}.csv")
                for k, (lo, hi) in enumerate(SWEEP_STRATA)]
        ops.append(SweepOp(*README_SWEEP, pairs=2, mode="compare",
                           out=self.tmp / "sweep-readme.csv"))
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (ScanGrid, RunHistories, PointQueries)}
