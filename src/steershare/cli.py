"""Command-line interface for scans, sweeps, ellipsoids and bounds."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import scenario
from .errors import ConfigError, SteershareError
from .steering import classical_bound, closed_forms


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


def _write_out(path: str, text: str, newline: str | None = None) -> None:
    try:
        with open(path, "w", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from None


def _indented_json(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, indent=2)` for str-keyed dicts, lists and JSON scalars.

    Any indent sends `json` to its pure-Python encoder, item by item; here
    a list of floats is one C-level join of `float.__repr__`, the text json
    writes for a finite float.  `pad` is a newline and the indent of the
    line `obj` starts on.
    """
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, dict) and obj:
        body = sep.join([encode_basestring_ascii(k) + ": " + _indented_json(v, inner)
                         for k, v in obj.items()])
        return "{" + inner + body + pad + "}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return json.dumps(obj)
    body = "n"
    if type(obj[0]) is float:
        try:
            body = sep.join(map(float.__repr__, obj))
        except TypeError:  # an item after the first is no float
            pass
    if "n" in body:  # not all floats, or a nan/inf, which json spells NaN/Infinity
        body = sep.join([_indented_json(v, inner) for v in obj])
    return "[" + inner + body + pad + "]"


def cmd_demo(_args) -> None:
    c2 = scenario.SQRT_HALF
    print(f"two-setting classical bound C2 = {c2:.6f}")

    results = scenario.run_scenario(scenario.make_config("nonlocal", [0.5, 0.8]))
    local = scenario.run_scenario(scenario.make_config("local", [0.5, 0.8]))
    print(f"lambda(1)=0.5, lambda(2)=0.8:  S2(2) = {results[1].steering_value:.4f}"
          f"  (local S~2(2) = {local[1].steering_value:.4f})")

    lams, gammas = [0.4, 0.8, 0.95], np.sqrt([0.4, 0.8, 0.95])
    _, s2, s3 = closed_forms(lams, lams, lams, lams)
    _, st2, st3 = closed_forms(lams, lams, gammas, gammas)
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
    _write_out(args.out, scenario.records_to_csv(table, "scan"), newline="")
    print(f"wrote {len(table)} rows to {args.out}")


def cmd_sweep(args) -> None:
    table = scenario.sweep_curve(_parse_fix(args.fix), args.vary, args.from_,
                                 args.to, args.samples, pairs=args.pairs,
                                 mode=args.mode)
    _write_out(args.out, scenario.records_to_csv(table, "sweep"), newline="")
    print(f"wrote {len(table)} rows to {args.out}")


def cmd_ellipsoids(args) -> None:
    records = scenario.ellipsoid_series([(args.lambda1, args.lambda2)])
    _write_out(args.out, _indented_json([r.to_json() for r in records]) + "\n")
    r = records[0]
    print(f"Charlie semiaxes: {np.round(r.charlie.semiaxes, 6).tolist()}, "
          f"volume {r.charlie.volume:.6f} -> {args.out}")


def cmd_bound(args) -> None:
    labels = [s.strip() for s in args.settings.split(",")]
    ops = [scenario.charlie_operator(lbl) for lbl in labels]
    print(f"{classical_bound(ops):.12f}")


def cmd_run(args) -> None:
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {args.config!r} is not valid JSON: {exc}") from None
    cfg = scenario.ScenarioConfig.from_json(obj)
    results = scenario.run_scenario(cfg)
    payload = []
    for r in results:
        payload.append({
            "pair": r.pair,
            "steering_value": r.steering_value,
            "state": r.state.to_json(),
            "charlie_ellipsoid":
                r.charlie_ellipsoid.to_json() if r.charlie_ellipsoid else None,
            "ab_ellipsoid":
                r.ab_ellipsoid.to_json() if r.ab_ellipsoid else None,
        })
    if args.out:
        _write_out(args.out, _indented_json(payload) + "\n")
    for r in results:
        marker = ">" if r.steering_value > cfg.bound else "<="
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
