"""Command-line interface for scans, sweeps, ellipsoids and bounds."""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from collections.abc import Iterable

import numpy as np

from . import scenario
from .errors import ConfigError, InvariantError, SteershareError
from .states import GHZ_COMPONENTS, PAULI_PRODUCTS
from .steering import classical_bound


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


def _write_out(path: str, chunks: Iterable[str], newline: str | None = None) -> None:
    """Write the strings of `chunks` in turn to `path` as `open(path, "w")`
    would.  Truncating a file that still holds data costs more than writing
    it, so a regular file is overwritten in place and then cut to the
    written length."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline=newline) as fh:
            try:
                fh.writelines(chunks)
                fh.flush()
            finally:  # a failed write too leaves no old bytes after the new ones
                st = os.fstat(fd)
                if stat.S_ISREG(st.st_mode):
                    end = os.lseek(fd, 0, os.SEEK_CUR)
                    if st.st_size > end:
                        os.ftruncate(fd, end)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from None


# Both `--out` files hold `json.dumps(payload, indent=2)` and a newline.  Any
# indent puts json on its pure-Python encoder, so the text is a layout, the
# indented skeleton payload with a `%s` slot per float, filled by one
# C-level `json.dumps` of the flat float list.  A run never leaves the Pauli
# components of GHZ, so the layout holds a literal 0.0 where those leave a
# float zero: a state's entries outside their support (every imaginary part
# among them) and a T-state ellipsoid's centre and off-diagonal matrix
# entries.  Each such float is checked to be +0.0 before the rest are
# spelled.  An ellipsoid's orientation is written one axis per row.
_SUPPORT = PAULI_PRODUCTS[3][GHZ_COMPONENTS]
_SUPPORT_RE, _SUPPORT_IM = ((part != 0).any(axis=0) for part in (_SUPPORT.real, _SUPPORT.imag))
# Positions in a state's float view (real and imaginary part of each entry
# in turn, row-major): those spelled, in slot order, and the literal rest.
_STATE_SPELLED, _STATE_LITERAL = (
    np.concatenate([2 * np.flatnonzero(re), 2 * np.flatnonzero(im) + 1])
    for re, im in ((_SUPPORT_RE, _SUPPORT_IM), (~_SUPPORT_RE, ~_SUPPORT_IM)))
_ELLIPSOID = {"center": [0.0] * 3,
              "matrix": [["%s" if i == j else 0.0 for j in range(3)] for i in range(3)],
              "semiaxes": ["%s"] * 3, "orientation": [["%s"] * 3] * 3, "volume": "%s"}
_OFF_DIAGONAL = ~np.eye(3, dtype=bool).ravel()


def _ellipsoid_floats(e) -> tuple[list, list]:
    """The floats of ellipsoid `e` as arrays: those spelled, in `_ELLIPSOID`
    slot order, and those its literal 0.0 slots stand for."""
    return ([e.matrix.diagonal(), e.semiaxes, e.orientation.T.ravel(), (e.volume,)],
            [e.center, e.matrix.reshape(-1)[_OFF_DIAGONAL]])


def _checked(spelled: list, literal: list, what: str) -> list:
    """`spelled`, once every float of the arrays `literal`, which the layout
    writes as a literal 0.0, is +0.0 (else InvariantError)."""
    x = np.concatenate(literal)
    bits = x.view(np.int64)  # tells -0.0 from 0.0
    if bits.any():
        raise InvariantError(f"{what} holds {float(x[bits != 0][0])!r} "
                             "outside the Pauli components of GHZ")
    return spelled


def _layout(skeleton) -> str:
    """The `--out` text of `skeleton` with a bare `%s` for each "%s" string."""
    return json.dumps(skeleton, indent=2).replace('"%s"', "%s") + "\n"


def _fill(layout: str, parts: list) -> str:
    """`layout` with its slots filled, in order, by the floats of the arrays
    `parts`, each spelled as json spells it, NaN and Infinity included."""
    return layout % tuple(json.dumps(np.concatenate(parts).tolist())[1:-1].split(", "))


def cmd_demo(_args) -> None:
    c2 = scenario.SQRT_HALF
    print(f"two-setting classical bound C2 = {c2:.6f}")

    results = scenario.run_scenario(scenario.make_config("nonlocal", [0.5, 0.8]))
    local = scenario.run_scenario(scenario.make_config("local", [0.5, 0.8]))
    print(f"lambda(1)=0.5, lambda(2)=0.8:  S2(2) = {results[1].steering_value:.4f}"
          f"  (local S~2(2) = {local[1].steering_value:.4f})")

    lams = [0.4, 0.8, 0.95]
    (_, s2, s3), (_, st2, st3) = scenario._mode_closed_forms("compare", lams, lams)
    print(f"lambda = 0.4 / 0.8 / 0.95:  S2(2) = {s2:.4f}, S2(3) = {s3:.4f}, "
          f"S~2(2) = {st2:.4f}, S~2(3) = {st3:.4f}")

    for case in ("unequal_local", "equal_nonlocal", "unequal_nonlocal"):
        lo, hi = scenario.simultaneous_window(case)
        print(f"simultaneous steering window, {case}: ({lo:.4f}, {hi:.4f})")

    series = scenario.ellipsoid_series([(scenario.SQRT_HALF, l2)
                                        for l2 in (0.75, 0.85, 0.95)])
    axes = [max(r.charlie.semiaxes) for r in series]
    spread = round(max(axes) - min(axes), 12)  # rounding noise prints as 0.00e+00
    print(f"constant Charlie semiaxis at lambda1(1)=1/sqrt(2): "
          f"{axes[0]:.4f} (spread {spread:.2e} over lambda2)")

    best = scenario.max_simultaneous_pairs(resolution=200)
    print(f"max pairs sharing steering simultaneously (grid 200x200): {best}")


def cmd_scan(args) -> None:
    table = scenario.scan_region(pairs=args.pairs, resolution=args.grid,
                                 mode=args.mode)
    _write_out(args.out, scenario.iter_csv(table, "scan"), newline="")
    print(f"wrote {len(table)} rows to {args.out}")


def cmd_sweep(args) -> None:
    table = scenario.sweep_curve(_parse_fix(args.fix), args.vary, args.from_,
                                 args.to, args.samples, pairs=args.pairs,
                                 mode=args.mode)
    _write_out(args.out, scenario.iter_csv(table, "sweep"), newline="")
    print(f"wrote {len(table)} rows to {args.out}")


def cmd_ellipsoids(args) -> None:
    r = scenario.ellipsoid_series([(args.lambda1, args.lambda2)])[0]
    record = {"lambda1": "%s", "lambda2": "%s", "charlie": _ELLIPSOID, "ab": _ELLIPSOID}
    (charlie, charlie_zeros), (ab, ab_zeros) = map(_ellipsoid_floats, (r.charlie, r.ab))
    parts = _checked([(r.lambda1, r.lambda2), *charlie, *ab], charlie_zeros + ab_zeros,
                     "an ellipsoid")
    _write_out(args.out, [_fill(_layout([record]), parts)])
    print(f"Charlie semiaxes: {np.round(r.charlie.semiaxes, 6).tolist()}, "
          f"volume {r.charlie.volume:.6f} -> {args.out}")


def cmd_bound(args) -> None:
    labels = [s.strip() for s in args.settings.split(",")]
    ops = [scenario.charlie_operator(lbl) for lbl in labels]
    print(f"{classical_bound(ops):.12f}")


@functools.cache
def _run_layout(pairs: int, with_ellipsoids: bool) -> str:
    """The `run --out` layout of `pairs` results, filled in `_run_floats`
    order.  A run's states are 3-qubit and its pair numbers count from 1."""
    ell = _ELLIPSOID if with_ellipsoids else None
    re, im = ([["%s" if x else 0.0 for x in row] for row in s.tolist()]
              for s in (_SUPPORT_RE, _SUPPORT_IM))
    return _layout([{"pair": i, "steering_value": "%s",
                     "state": {"qubits": 3, "re": re, "im": im},
                     "charlie_ellipsoid": ell, "ab_ellipsoid": ell}
                    for i in range(1, pairs + 1)])


def _run_floats(results, with_ellipsoids: bool) -> list:
    """Per pair the steering value, the state's spelled real then imaginary
    entries, then the Charlie and AB ellipsoids' spelled floats, once every
    float of the run's literal slots is checked to be +0.0."""
    parts, literal = [], []
    for r in results:
        floats = r.state.mat.reshape(-1).view(float)
        parts += [(r.steering_value,), floats[_STATE_SPELLED]]
        literal.append(floats[_STATE_LITERAL])
        if with_ellipsoids:
            for e in (r.charlie_ellipsoid, r.ab_ellipsoid):
                spelled, zeros = _ellipsoid_floats(e)
                parts += spelled
                literal += zeros
    return _checked(parts, literal, "the run")


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
    results = scenario.run_scenario(cfg)
    if args.out:
        # Nonlocal runs give every pair both ellipsoids, local runs none.
        with_ellipsoids = results[0].charlie_ellipsoid is not None
        _write_out(args.out, [_fill(_run_layout(len(results), with_ellipsoids),
                                    _run_floats(results, with_ellipsoids))])
    bound = cfg.bound
    for r in results:
        marker = ">" if r.steering_value > bound else "<="
        print(f"pair {r.pair}: S = {r.steering_value:.6f} {marker} C2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steershare",
        description="Sequential unsharp-measurement steering-sharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except SteershareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
