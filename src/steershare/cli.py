"""Command-line interface for scans, sweeps, ellipsoids and bounds."""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import stat
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import scenario
from .errors import ConfigError, SteershareError
from .states import SUPPORT, _SPREAD
from .steering import _ellipsoid_rows, classical_bound


def _parse_fix(items: list[str]) -> dict[str, float]:
    fixed = {}
    for item in items:
        name, _, value = item.partition("=")
        if name in fixed:
            raise ConfigError(f"--fix gives {name!r} more than once")
        try:
            fixed[name] = float(value)
        except ValueError:
            raise ConfigError(f"--fix expects NAME=VAL with a number VAL, "
                              f"got {item!r}") from None
    return fixed


# `--out` text is written in batches of at least this many bytes, the last
# one excepted: a `run` file is one write, and a scan or sweep holds at most
# one batch of its text at a time.
WRITE_BATCH = 1 << 16


def _write_out(path: str, chunks: Iterable[bytes]) -> None:
    """Write the bytes of `chunks` in turn to `path`, joined into batches of
    at least `WRITE_BATCH` bytes.  Truncating a file that still holds data
    costs more than writing it, so a regular file is overwritten in place
    and then cut to the written length."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            batch, size = [], 0
            for chunk in chunks:
                batch.append(chunk)
                size += len(chunk)
                if size >= WRITE_BATCH:
                    _write_all(fd, b"".join(batch))
                    batch, size = [], 0
                    del chunk  # not held while the next chunk is made
            if batch:
                _write_all(fd, b"".join(batch))
        finally:  # a failed write too leaves no old bytes after the new ones
            try:
                st = os.fstat(fd)
                if stat.S_ISREG(st.st_mode):
                    end = os.lseek(fd, 0, os.SEEK_CUR)
                    if st.st_size > end:
                        os.ftruncate(fd, end)
            finally:
                os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from None


def _write_all(fd: int, data: bytes) -> None:
    """Write all of `data` to `fd`, however short the writes the system makes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


# Both `--out` files hold `json.dumps(payload, indent=2)` and a newline.  Any
# indent puts json on its pure-Python encoder, so the text is a layout: the
# indented skeleton payload split at a "%s" string per float, joined with
# the floats that one C-level `json.dumps` of the flat float list spells.  A
# run state is built on `SUPPORT` and a T-state ellipsoid is centred with a
# diagonal matrix, so the layout holds a literal 0.0 for every other float:
# a state's entries off its support, every imaginary part, and an
# ellipsoid's centre and off-diagonal matrix entries.  An ellipsoid's
# orientation is written one axis per row.  A run state's support entries
# j and 7-j are equal by construction, so a state spells 8 floats, the
# entries [j, j] and then [j, 7-j], j = 0..3, that `states._state_entries`
# returns, and `states._SPREAD` picks one of them for each `SUPPORT` slot,
# row-major.  An ellipsoid spells the 16 floats of its row
# (`steering._ellipsoid_row`), in slot order; a T-state steers both parties
# onto one ellipsoid, so its floats fill the slots of both.
_ELLIPSOID = {"center": [0.0] * 3,
              "matrix": [["%s" if i == j else 0.0 for j in range(3)] for i in range(3)],
              "semiaxes": ["%s"] * 3, "orientation": [["%s"] * 3] * 3, "volume": "%s"}


def _layout(skeleton) -> list[str]:
    """The `--out` text of `skeleton`, split at each "%s" string."""
    return (json.dumps(skeleton, indent=2) + "\n").split('"%s"')


def _fill(pieces: list[str], floats: list[float], slots: operator.itemgetter) -> str:
    """`pieces` with slot k, between pieces k and k+1, filled by the k-th float
    that `slots` picks from `floats`, each float spelled once as json spells
    it, NaN and Infinity included."""
    out = [""] * (2 * len(pieces) - 1)
    out[::2] = pieces
    out[1::2] = slots(json.dumps(floats)[1:-1].split(", "))
    return "".join(out)


def _slots(records: int, pattern: list[int]) -> operator.itemgetter:
    """`_fill` slots of `records` records of `max(pattern) + 1` floats each:
    in turn, the floats of a record that `pattern` picks."""
    width = max(pattern) + 1
    return operator.itemgetter(*[r * width + k for r in range(records) for k in pattern])


def _shared_ellipsoid(start: int) -> list[int]:
    """The slot pattern of an ellipsoid whose floats start at record float
    `start` and fill the slots of both parties' ellipsoids."""
    return [*range(start, start + len(_layout(_ELLIPSOID)) - 1)] * 2


def cmd_demo(_args) -> None:
    c2 = scenario.SQRT_HALF
    print(f"two-setting classical bound C2 = {c2:.6f}")

    results = scenario.run_scenario(scenario.make_config("nonlocal", [0.5, 0.8]))
    local = scenario.run_scenario(scenario.make_config("local", [0.5, 0.8]))
    print(f"lambda(1)=0.5, lambda(2)=0.8:  S2(2) = {results[1].steering_value:.4f}"
          f"  (local S~2(2) = {local[1].steering_value:.4f})")

    lams = [(x, x) for x in (0.4, 0.8, 0.95)]
    (_, s2, s3), (_, st2, st3) = scenario._mode_closed_forms("compare", lams)
    print(f"lambda = 0.4 / 0.8 / 0.95:  S2(2) = {s2:.4f}, S2(3) = {s3:.4f}, "
          f"S~2(2) = {st2:.4f}, S~2(3) = {st3:.4f}")

    for case in ("unequal_local", "equal_nonlocal", "unequal_nonlocal"):
        lo, hi = scenario.simultaneous_window(case)
        print(f"simultaneous steering window, {case}: ({lo:.4f}, {hi:.4f})")

    series = scenario.ellipsoid_series([(scenario.SQRT_HALF, l2)
                                        for l2 in (0.75, 0.85, 0.95)])
    axes = [max(e.semiaxes) for e in series]
    spread = round(max(axes) - min(axes), 12)  # rounding noise prints as 0.00e+00
    print(f"constant Charlie semiaxis at lambda1(1)=1/sqrt(2): "
          f"{axes[0]:.4f} (spread {spread:.2e} over lambda2)")

    best = scenario.max_simultaneous_pairs(resolution=200)
    print(f"max pairs sharing steering simultaneously (grid 200x200): {best}")


# Rows per sweep CSV block, and cells per scan CSV block: a block's text and
# its copies stay a few hundred kB, while per-block overhead stays far below
# the formatting cost.
CSV_BLOCK_ROWS = 2048


# Both CSV writers yield the header line and then blocks of rows.  Every
# float is printed with %.12g, and the S (or St) columns of a mode that
# leaves them out are empty.
#
# The scan writer builds each block as a matrix of uint32 words, one row of
# words per CSV row, and drops the NUL bytes that pad its fields.  A float
# field is a frame of `_FRAME` words: its separator, then its text, the
# longest %.12g text ("-1.23456789012e-308") included.
_FRAME = 5


def _percent_frames(values: list[float], sep: str) -> np.ndarray:
    """The (n, `_FRAME`) words of `sep` and "%.12g" % v for each of `values`."""
    fmt = sep + "%.12g"
    text = np.array([fmt % v for v in values], dtype=f"S{4 * _FRAME}")
    return text.view(np.uint32).reshape(-1, _FRAME)


@functools.cache
def _digit_words() -> np.ndarray:
    """Word g spells the 4-digit group g, g < 10**4, with its leading zeros;
    word 10**4 + g spells it with its trailing zeros blanked."""
    g = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    ascii_ = digits + np.uint8(ord("0"))
    blanked = np.where(trailing, np.uint8(0), ascii_)
    return np.concatenate([ascii_, blanked]).view(np.uint32).ravel()


_ZERO_POINT = np.frombuffer(b",0.\0", np.uint32)[0]
# Per count of zeros after the point: the scale to the 12-digit mantissa,
# and from it to the 16 digits after the point.
_SCALE = np.array([1e12, 1e13, 1e14, 1e15])
_SHIFT = np.array([10**4, 10**3, 10**2, 10], dtype=np.int64)


def _float_frames(x: np.ndarray) -> np.ndarray:
    """The (n, `_FRAME`) words of "," and "%.12g" % v for each v of the 1-D
    float64 array `x`.  A float in [1e-4, 1) with z zeros after its point
    is spelled "0." and 16 digits, read off m = x * 10**(12 + z), its
    12-digit mantissa: m < 2**40, so m is within 2**-13 of the exact
    product, and rounding it to an integer rounds as %.12g does unless m
    lies within 1e-3 of a tie.  Those, rounded mantissas outside
    [10**11, 10**12) (where %.12g carries into the next exponent) and every
    float outside [1e-4, 1) are spelled by %.12g itself."""
    words = _digit_words()
    fixed = (x >= 1e-4) & (x < 1.0)  # NaN is not
    zeros = (x < 0.1).view(np.int8)
    zeros += x < 0.01
    zeros += x < 0.001
    m = np.where(fixed, x, 0.5)
    m *= _SCALE[zeros]
    digits = np.rint(m)
    m -= digits
    fixed &= (np.abs(m, out=m) < 0.499) & (digits >= 1e11) & (digits < 1e12)
    digits = digits.astype(np.int64)
    digits *= _SHIFT[zeros]  # the 16 digits after "0."
    out = np.empty((len(x), _FRAME), np.uint32)
    out[:, 0] = _ZERO_POINT
    # From the last 4-digit group to the first: a group's word comes from
    # the blanked half of the table while every later group is 0.
    blank = np.ones(len(x), dtype=bool)
    for col in range(_FRAME - 1, 0, -1):
        digits, group = np.divmod(digits, 10_000)
        np.add(group, 10_000, out=group, where=blank)
        blank &= group == 10_000
        out[:, col] = words[group]
    other = np.flatnonzero(~fixed)
    if other.size:
        out[other] = _percent_frames(x[other].tolist(), ",")
    return out


def _scan_csv(table: scenario.ScanTable, resolution: int) -> Iterator[bytes]:
    """The CSV bytes of `table`, which `scan_region` built on a grid of
    `resolution` points, in blocks of whole grid rows: at most
    `CSV_BLOCK_ROWS` cells, or one grid row where a row alone is longer.
    Row k*r + j holds lambda1 = grid[k] and lambda2 = grid[j], so lambda2 is
    spelled once per scan.  Pair 1's strengths are lambda1, so lambda1, S1
    and St1 are spelled once per grid row; the other S and St columns go
    through `_float_frames`, in one call per block."""
    r = resolution
    yield b"lambda1,lambda2,S1,S2,S3,St1,St2,St3,region\n"
    # Word offsets: lambda1, lambda2, then per group its first column (one
    # frame per grid row), its other columns and one word of the commas of
    # the columns the mode leaves out; then the region label.
    per_row = [(0, _percent_frames(table.params["lambda1"][::r].tolist(), ""))]
    cells, commas, at = [], [], 2 * _FRAME
    for group in (table.s, table.st):
        if group:
            per_row.append((at, _percent_frames(group[0][::r].tolist(), ",")))
            at += _FRAME
            for column in group[1:]:
                cells.append((at, column))
                at += _FRAME
        if len(group) < 3:
            commas.append((at, "," * (3 - len(group))))
            at += 1
    width = table.region.dtype.itemsize // 4  # UCS-4 code points per label
    rows = max(1, min(r, CSV_BLOCK_ROWS // r))
    buf = np.zeros((rows, r, at + (width + 5) // 4), np.uint32)  # "," label "\n"
    buf[:, :, _FRAME:2 * _FRAME] = _percent_frames(table.params["lambda2"][:r].tolist(), ",")
    for a, text in commas:
        buf[:, :, a] = np.frombuffer(text.encode().ljust(4, b"\0"), np.uint32)[0]
    label = buf.view(np.uint8)[:, :, 4 * at:]
    label[:, :, 0], label[:, :, 1 + width] = ord(","), ord("\n")
    for k in range(0, r, rows):
        block, n = buf[:r - k], min(rows, r - k) * r
        for a, frames in per_row:
            block[:, :, a:a + _FRAME] = frames[k:k + rows, None]
        if cells:
            spelled = _float_frames(np.stack([c[k * r:k * r + n] for _, c in cells], axis=1)
                                    .ravel()).reshape(len(block), r, len(cells), _FRAME)
            for j, (a, _) in enumerate(cells):
                block[:, :, a:a + _FRAME] = spelled[:, :, j]
            del spelled  # not held while the block is written
        # Labels are ASCII: each code point is one byte.
        label[:len(block), :, 1:1 + width] = \
            table.region[k * r:k * r + n].view(np.uint32).reshape(len(block), r, width)
        yield block.tobytes().translate(None, b"\0")


def cmd_scan(args) -> None:
    table = scenario.scan_region(pairs=args.pairs, resolution=args.grid,
                                 mode=args.mode)
    _write_out(args.out, _scan_csv(table, args.grid))
    print(f"wrote {len(table)} rows to {args.out}")


def _sweep_csv(table: scenario.ScanTable) -> Iterator[str]:
    """The CSV of `sweep_curve`'s `table`, pairs 1 and 2, in blocks of at
    most `CSV_BLOCK_ROWS` rows, one %-format per row."""
    yield "param,S1,S2,St1,St2\n"
    cols, fields = [table.params["param"]], ["%.12g"]
    for group in (table.s[:2], table.st[:2]):
        cols += group
        fields += ["%.12g"] * len(group) + [""] * (2 - len(group))
    row = ",".join(fields) + "\n"
    step = CSV_BLOCK_ROWS
    for i in range(0, len(table), step):
        yield "".join(map(row.__mod__, zip(*(c[i:i + step].tolist() for c in cols))))


def cmd_sweep(args) -> None:
    table = scenario.sweep_curve(_parse_fix(args.fix), args.vary, args.from_,
                                 args.to, args.samples, pairs=args.pairs,
                                 mode=args.mode)
    _write_out(args.out, map(str.encode, _sweep_csv(table)))
    print(f"wrote {len(table)} rows to {args.out}")


def cmd_ellipsoids(args) -> None:
    (row,) = _ellipsoid_rows(scenario._series_diagonals([(args.lambda1, args.lambda2)]))
    semiaxes, volume = row[3:6], row[15]
    record = {"lambda1": "%s", "lambda2": "%s", "charlie": _ELLIPSOID, "ab": _ELLIPSOID}
    floats = [float(args.lambda1), float(args.lambda2), *row.tolist()]
    slots = _slots(1, [0, 1, *_shared_ellipsoid(2)])
    _write_out(args.out, [_fill(_layout([record]), floats, slots).encode()])
    print(f"Charlie semiaxes: {np.round(semiaxes, 6).tolist()}, "
          f"volume {volume:.6f} -> {args.out}")


def cmd_bound(args) -> None:
    labels = [s.strip() for s in args.settings.split(",")]
    ops = [scenario.charlie_operator(lbl) for lbl in labels]
    print(f"{classical_bound(ops):.12f}")


@functools.cache
def _run_layout(pairs: int, with_ellipsoids: bool) -> tuple[list[str], operator.itemgetter]:
    """The `run --out` layout of `pairs` results and its `_fill` slots over
    the rows of a run's floats: per pair the steering value, the state's 8
    spelled entries, then the 16 floats of the ellipsoid its Charlie and AB
    slots share.  A run's states are 3-qubit and its pair numbers count
    from 1."""
    ell, shared = (_ELLIPSOID, _shared_ellipsoid(1 + 8)) if with_ellipsoids else (None, [])
    re = [["%s" if x else 0.0 for x in row] for row in SUPPORT.tolist()]
    return _layout([{"pair": i, "steering_value": "%s",
                     "state": {"qubits": 3, "re": re, "im": [[0.0] * 8] * 8},
                     "charlie_ellipsoid": ell, "ab_ellipsoid": ell}
                    for i in range(1, pairs + 1)]), \
        _slots(pairs, [0, *(1 + _SPREAD).tolist(), *shared])


def cmd_run(args) -> None:
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc.strerror}") from None
    # ValueError covers JSONDecodeError, UnicodeDecodeError and integers past
    # Python's digit limit; RecursionError, arrays nested too deep.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {args.config!r} is not valid JSON: {exc}") from None
    cfg = scenario.ScenarioConfig.from_json(obj)
    rows = scenario._run_rows(cfg)
    if args.out:
        pieces, slots = _run_layout(cfg.pairs, cfg.mode == "nonlocal")
        _write_out(args.out, [_fill(pieces, rows, slots).encode()])
    bound, width = cfg.bound, len(rows) // cfg.pairs  # a pair's floats start with its S
    sys.stdout.write("".join([f"pair {i}: S = {v:.6f} {'>' if v > bound else '<='} C2\n"
                              for i, v in enumerate(rows[::width], start=1)]))


class _Parser(argparse.ArgumentParser):
    """Reports a flag error as one `error:` line on stderr, as `main` reports
    the rest; subparsers inherit the class.  `commands` maps each command
    name of the top-level parser to its own parser."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="steershare",
        description="Sequential unsharp-measurement steering-sharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("demo", help="print the headline scenario numbers")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("scan", help="equal-strength region scan to CSV")
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--mode", choices=("nonlocal", "local", "compare"),
                   default="compare")
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sweep", help="sweep one strength parameter to CSV")
    p.add_argument("--fix", action="append", default=[], metavar="NAME=VAL")
    p.add_argument("--vary", required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--mode", choices=("nonlocal", "local", "compare"),
                   default="compare")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ellipsoids", help="post-pair-1 steering ellipsoids to JSON")
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ellipsoids)

    p = sub.add_parser("bound", help="classical bound for Charlie's settings")
    p.add_argument("--settings", required=True, metavar="x,y[,z]")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("run", help="run a scenario config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    return parser


_parser = functools.cache(build_parser)  # parse_args leaves the parser unchanged


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    # The top-level parser classifies every argument before it hands those
    # after a command name to that command's parser, so only an argv that
    # names no command first (none, -h, an unknown one) goes through it.
    command = parser.commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        args.func(args)
    except SteershareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
