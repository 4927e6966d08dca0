"""The error contract of the library and of the CLI.

Every public callable, given one junk argument in an otherwise valid call,
returns normally or raises `SteershareError`; every command line, however
malformed, exits 0, or exits 2 with exactly one `error:` line on stderr.
"""

import collections
import contextlib
import inspect
import io
import json
import math
import random
import sys
import warnings

import numpy as np
import pytest

import steershare
from steershare import cli
from steershare.errors import SteershareError


def _junk():
    """A fresh junk palette: each value once, so no call sees another's mutation."""
    return [None, "", "junk",
            True, 7, -7, 0.25, math.nan, math.inf, -math.inf, 1 + 2j, b"x",
            [], (), {}, [[0.5, [0.5]], [1.0]], [[0.5, 0.5], [0.5, 0.5]],
            np.empty(0), np.zeros((2, 2)), np.eye(8), np.float64(0.5), np.int64(3),
            np.bool_(True), object()]


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])


def _valid_call(name):
    """Small valid keyword arguments for every parameter of `steershare.<name>`."""
    history = steershare.StrengthHistory
    return {
        "DensityMatrix": lambda: {"qubits": 1, "mat": np.eye(2) / 2},
        "ghz": lambda: {},
        "SteeringEllipsoid": lambda: {"center": np.zeros(3), "matrix": np.eye(3),
                                      "semiaxes": np.ones(3), "orientation": np.eye(3),
                                      "volume": 1.0},
        "StrengthHistory": lambda: {"lambdas": ((0.5, 0.5),), "etas": ((0.5, 1.0),),
                                    "gammas": ((1.0, 0.5),)},
        "classical_bound": lambda: {"charlie_directions": [_X, _Y]},
        "closed_form_local": lambda: {"h": history.local_sqrt([(0.5, 0.8), (1.0, 1.0)]),
                                      "i": 2},
        "closed_form_nonlocal": lambda: {"h": history.nonlocal_history([(0.5, 0.8), (1.0, 1.0)]),
                                         "i": 2},
        "ScanTable": lambda: {"params": {"param": np.zeros(2)}, "s": [np.zeros(2)],
                              "st": [], "region": np.array(["", "I"])},
        "PairResult": lambda: {"pair": 1, "steering_value": 0.5, "state": steershare.ghz(),
                               "ellipsoid": None},
        "ScenarioConfig": lambda: {"strengths": history.local_sqrt([(0.5, 0.8)]),
                                   "mode": "local", "charlie_directions": ("x", "-y")},
        "ellipsoid_series": lambda: {"strength_pairs": [(0.5, 0.8)]},
        "make_config": lambda: {"mode": "nonlocal", "lambdas": [0.5, [0.3, 0.8]], "pairs": 3,
                                "charlie_directions": ("x", "-y")},
        "max_simultaneous_pairs": lambda: {"resolution": 5, "mode": "local"},
        "run_scenario": lambda: {"cfg": steershare.make_config("nonlocal", [0.5, 0.8])},
        "scan_region": lambda: {"pairs": 2, "resolution": 4, "mode": "compare"},
        "simultaneous_window": lambda: {"case": "equal_nonlocal", "tol": 1e-9},
        "sweep_curve": lambda: {"fixed": {"lambda1_1": 0.7}, "vary": "lambda2_1",
                                "start": 0.0, "stop": 1.0, "samples": 3, "pairs": 2,
                                "mode": "compare"},
    }[name]()


@pytest.mark.parametrize("name", steershare.__all__)
def test_junk_argument_returns_or_raises_steershare_error(name):
    func = getattr(steershare, name)
    params = list(inspect.signature(func).parameters)
    assert sorted(params) == sorted(_valid_call(name))
    raw = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        func(**_valid_call(name))
        for param in params:
            for k, junk in enumerate(_junk()):
                try:
                    func(**{**_valid_call(name), param: junk})
                except SteershareError:
                    pass
                except Exception as exc:  # a warning too, raised as an error
                    raw.append(f"{param}=junk[{k}] {junk!r}: {type(exc).__name__}: {exc}")
    assert raw == []


# Public types that check their fields: given one junk field in an otherwise
# valid call, each raises SteershareError, unless the junk value is listed
# here as a valid value of that field.
# A NaN is listed as `math.nan`, the object the palette holds, as it equals
# no value.  `PairResult` is public as `steershare.scenario.PairResult`.
_REALS = [7, -7, 0.25, math.nan, math.inf, -math.inf, np.float64(0.5), np.int64(3)]
_CHECKED_FIELDS = {
    "ScanTable": {"params": [{}], "s": [[]], "st": [[]]},
    "SteeringEllipsoid": {"volume": _REALS},
    "PairResult": {"pair": [7, -7, np.int64(3)], "steering_value": _REALS, "ellipsoid": [None]},
}


@pytest.mark.parametrize("name", list(_CHECKED_FIELDS))
def test_checked_type_rejects_junk_field(name):
    cls = getattr(steershare, name, None) or getattr(steershare.scenario, name)
    built = []
    for param in inspect.signature(cls).parameters:
        valid = _CHECKED_FIELDS[name].get(param, [])
        for k, junk in enumerate(_junk()):
            if any(type(junk) is type(v) and (junk is v or junk == v) for v in valid):
                continue
            try:
                cls(**{**_valid_call(name), param: junk})
            except SteershareError:
                continue
            built.append(f"{param}=junk[{k}] {junk!r}")
    assert built == []


# Fuzz values per flag kind, as (valid, wrong): out of range, of the wrong
# type, or not a number at all.
_PAIRS = (["1", "2", "3"], ["0", "4", "-1", "07", "x", "", "1.5", "1e3"])
_GRIDS = (["2", "3", "6", "11"], ["1", "0", "-4", "801", "x", "nan"])
_SAMPLES = (["2", "3", "9"], ["1", "0", "-2", "1000001", "x", "2.0"])
_MODES = (["nonlocal", "local", "compare"], ["both", "", "Local"])
_STRENGTHS = (["0", "1", "0.5", "0.70710678", "-0.0", "1e-3", ".25"],
              ["1.5", "-0.5", "nan", "inf", "-inf", "1e308", "-1e308", "1e400", "x", "",
               "0x1p-1"])
_SETTINGS = (["x,y", "x,y,z", "x,-x", "-y, Z", "x", "x,y,z,-x,-y,-z"],
             ["", ",", "q", "x,,y", "x,y,z,x,y,z,x"])
_LABELS = (["x", "-x", "y", "-y", "z", "-z"], ["w", "", 5, None])
_ENTRIES = ([0.0, 1.0, 0.5, [0.3], [0.2, 0.9]],
            [-0.1, 1.5, "0.5", None, True, [], [0.1, 0.2, 0.3]])


def _argv(rng, tmp_path):
    """One seeded command line: a command's flags in random order, each
    wrong with a probability drawn per line (often 0), some then left out,
    left without a value, or followed by a stray argument."""
    bad = rng.choice([0.0, 0.0, 0.05, 0.3])

    def pick(kind):
        return rng.choice(kind[rng.random() < bad])

    out = str(pick(([tmp_path / "out"], [tmp_path, tmp_path / "missing" / "out"])))
    command = rng.choice(["scan", "sweep", "ellipsoids", "bound", "run"])
    if command == "scan":
        flags = [("--pairs", pick(_PAIRS)), ("--mode", pick(_MODES)),
                 ("--grid", pick(_GRIDS)), ("--out", out)]
    elif command == "sweep":
        pairs = pick((["1", "2", "3", "4"], ["0", "5", "x"]))
        span = int(pairs) if pairs in ("1", "2", "3", "4") else 2
        names = ([f"lambda{k}_{i}" for k in ("", "1", "2") for i in range(1, span + 1)],
                 [f"lambda_{span + 1}", "lambda3_1", "foo", ""])
        flags = [("--fix", f"{pick(names)}={pick(_STRENGTHS)}") for _ in range(rng.randint(0, 2))]
        flags += [("--vary", pick(names)), ("--from", pick(_STRENGTHS)),
                  ("--to", pick(_STRENGTHS)), ("--samples", pick(_SAMPLES)),
                  ("--pairs", pairs), ("--mode", pick(_MODES)), ("--out", out)]
    elif command == "ellipsoids":
        flags = [("--lambda1", pick(_STRENGTHS)), ("--lambda2", pick(_STRENGTHS)),
                 ("--out", out)]
    elif command == "bound":
        flags = [("--settings", pick(_SETTINGS))]
    else:
        config = tmp_path / "cfg.json"
        pairs = rng.randint(1, 4)
        cfg = {"mode": pick((["nonlocal", "nonlocal", "local"], ["bogus", 1])),
               "pairs": pick(([pairs], [0, 5, "2", 2.0, None])),
               "strengths": [pick(_ENTRIES) for _ in range(rng.randint(0, pairs))],
               "charlie_directions": [pick(_LABELS) for _ in range(pick(([2], [1, 3])))],
               "compression": pick((["00,11"], ["11,00", 0]))}
        cfg = {k: v for k, v in cfg.items() if rng.random() < 0.7}
        if rng.random() < bad:
            cfg["strenghts"] = []  # an unknown key
        text = pick(([json.dumps(cfg)], ["", "{", "[]", "null", '{"pairs": 1e999}']))
        config.write_text(text)
        flags = [("--config", str(pick(([config], [tmp_path, tmp_path / "none.json"]))))]
        if rng.random() < 0.7:
            flags.append(("--out", out))
    flags = [f for f in flags if rng.random() >= bad / 3]
    rng.shuffle(flags)
    argv = [command]
    for flag, value in flags:
        if rng.random() < bad / 10:
            argv.append(flag)  # no value
        elif value.startswith("-") and rng.random() < 0.5:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if rng.random() < bad / 10:
        argv.append(rng.choice(["--bogus", "extra", "-x"]))
    return argv


def _main(argv):
    """`cli.main(argv)` in-process: its exit status and stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue().splitlines()


_FLAG_ERRORS = [
    # A bad number, a missing required flag, a missing value and a stray
    # argument for every command that has them.
    ["demo", "--grid", "3"], ["demo", "x"],
    ["scan", "--grid", "x", "--out", "f.csv"], ["scan", "--pairs", "3"], ["scan", "--out"],
    ["sweep", "--vary", "lambda_1", "--from", "0", "--to", "1", "--samples", "2.5",
     "--out", "f.csv"], ["sweep", "--samples", "3"], ["sweep", "--vary"],
    # argparse reads a negative number with an exponent as a flag.
    ["sweep", "--vary", "lambda_1", "--from", "-1e-3", "--to", "1", "--samples", "3",
     "--out", "f.csv"],
    ["ellipsoids", "--lambda1", "0.5", "--lambda2", "x", "--out", "f.json"],
    ["ellipsoids", "--lambda1", "0.5", "--out", "f.json"], ["ellipsoids", "--lambda1"],
    ["bound"], ["bound", "--settings"], ["bound", "--settings", "x,y", "z"],
    ["run"], ["run", "--config"], ["run", "--config", "c.json", "--out"],
    ["sweeps"],  # an unknown command
    [],  # no command
]


@pytest.mark.parametrize("argv", _FLAG_ERRORS, ids=lambda argv: " ".join(argv) or "no command")
def test_flag_error_is_one_line(argv):
    code, err = _main(argv)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_negative_value_after_equals_parses(tmp_path):
    code, err = _main(["sweep", "--vary", "lambda_1", "--from=-1e-3", "--to", "1",
                       "--samples", "3", "--out", str(tmp_path / "f.csv")])
    assert (code, err) == (2, ["error: strengths (-0.001, -0.001) outside [0, 1]"])


def test_seeded_cli_fuzz(tmp_path):
    rng = random.Random(20240)
    seen = collections.Counter()
    for _ in range(2000):
        argv = _argv(rng, tmp_path)
        code, err = _main(argv)
        assert (code, err) == (0, []) or (code == 2 and len(err) == 1
                                          and err[0].startswith("error: ")), (argv, code, err)
        seen[argv[0], code] += 1
    # Every command both runs and fails, many times over.
    assert len(seen) == 10 and min(seen.values()) >= 25, seen


def _full_parse(argv):
    """The reference for `cli.main`, which dispatches on the command name:
    the top-level parser parses every argv, then the command runs."""
    args = cli._parser().parse_args(argv)
    try:
        args.func(args)
    except SteershareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _outcome(main, argv, out):
    """Exit status, stdout, stderr and the bytes left at `out` by `main(argv)`."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), out.is_file() and out.read_bytes()


def test_dispatch_matches_full_parse(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    fixed = [
        ["-h"], ["--help"], ["run", "-h"], ["sweep", "--help"], ["run", "--h"],
        ["run", "--con", str(config)],  # an abbreviated flag
        ["run", "--config", str(config), "--o", str(out)],
        ["sweep", "--vary", "lambda_1", "--from=-1e-3", "--to", "1", "--samples", "3",
         "--out", str(out)],
        ["sweep", "--vary", "lambda_1", "--from=1e-3", "--to", "1", "--samples", "3",
         "--out", str(out)],
        ["run", "--", "--config", str(config)], ["--", "run", "--config", str(config)],
        ["run", "--config", str(config), "--"], ["bound", "--settings=x,y", "--", "z"],
        ["Run"], ["-x"], ["--bogus", "run"],
    ]
    config.write_text('{"mode": "local", "pairs": 3}')
    for argv in fixed + _FLAG_ERRORS:
        assert _outcome(cli.main, argv, out) == _outcome(_full_parse, argv, out), argv
    rng = random.Random(2029)
    codes = collections.Counter()
    for _ in range(400):
        argv = _argv(rng, tmp_path)  # rewrites cfg.json for a run
        got = _outcome(cli.main, argv, out)
        assert got == _outcome(_full_parse, argv, out), argv
        codes[got[0]] += 1
    assert codes[0] >= 100 and codes[2] >= 100, codes
