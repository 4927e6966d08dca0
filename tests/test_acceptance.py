"""Acceptance suite: one test per headline criterion, each reporting pass/fail."""

import numpy as np

from steershare.cli import main
from steershare.scenario import (
    SQRT_HALF,
    ScenarioConfig,
    ellipsoid_series,
    make_config,
    max_simultaneous_pairs,
    run_scenario,
    simultaneous_window,
)
from steershare.states import ghz
from steershare.steering import (
    StrengthHistory,
    closed_forms,
    closed_form_local,
    closed_form_nonlocal,
)

from oracles import bloch_form, chain, compress, direction, ellipsoid, ellipsoid_volume_check, \
    make_instrument, pair_update, steering_value, update
from util import conditional_charlie_bloch, containment_violation, pauli_dot, random_density

LABELS = ("x", "-y")  # Charlie's default directions


def _report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_classical_bound(capsys):
    code = main(["bound", "--settings", "x,y"])
    printed = float(capsys.readouterr().out.strip())
    ok = code == 0 and abs(printed - 0.707107) <= 5e-7 \
        and abs(printed - 1 / np.sqrt(2)) <= 1e-9
    with capsys.disabled():
        _report("two-setting classical bound = 0.707107", ok)


def test_criterion_2_headline_values(capsys):
    s = run_scenario(make_config("nonlocal", [0.5, 0.8]))[1].steering_value
    st = run_scenario(make_config("local", [0.5, 0.8]))[1].steering_value
    with capsys.disabled():
        _report("pair-2 steering at 0.5/0.8: S = 0.7464",
                abs(s - 0.7464) <= 1e-4)
        _report("pair-2 steering at 0.5/0.8: S~ = 0.6828",
                abs(st - 0.6828) <= 1e-4)


def test_criterion_3_three_pair_profile(capsys):
    lams = [(0.4, 0.4), (0.8, 0.8), (0.95, 0.95)]
    h = StrengthHistory.nonlocal_history(lams)
    hl = StrengthHistory.local_sqrt(lams)
    values = (closed_form_nonlocal(h, 2), closed_form_nonlocal(h, 3),
              closed_form_local(hl, 2), closed_form_local(hl, 3))
    # Exact evaluations; the published two-decimal values are 0.77/0.73/0.71/0.61.
    expected = (0.7666060555964672, 0.7282757528166437,
                0.7098386676965934, 0.6099523512356140)
    rounded = (0.77, 0.73, 0.71, 0.61)
    with capsys.disabled():
        for got, exact, two_dp, label in zip(values, expected, rounded,
                                             ("S2(2)", "S2(3)", "S~2(2)", "S~2(3)")):
            _report(f"0.4/0.8/0.95 profile: {label} = {exact:.4f} (~{two_dp})",
                    abs(got - exact) <= 1e-3 and round(got, 2) == two_dp)


def test_criterion_4_simultaneous_windows(capsys):
    cases = {
        "unequal_local": (0.917,
                          1 - (2 * np.sqrt(2) - 2 - np.sqrt(1 - SQRT_HALF)) ** 2),
        "equal_nonlocal": (0.910, np.sqrt(2 * np.sqrt(2) - 2)),
        "unequal_nonlocal": (0.993, np.sqrt(
            1 - (2 * np.sqrt(2) - 2 - SQRT_HALF) ** 2)),
    }
    with capsys.disabled():
        for case, (published, analytic) in cases.items():
            lo, hi = simultaneous_window(case, tol=1e-7)
            ok = (abs(lo - SQRT_HALF) <= 5e-4
                  and abs(hi - published) <= 5e-4
                  and abs(hi - analytic) <= 1e-15)
            _report(f"window {case}: (1/sqrt(2), {published})", ok)


def test_criterion_5_oracle_equivalence(capsys):
    """`run_scenario` and the 8x8 Kraus oracle, each against the closed forms."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        pairs = int(rng.integers(1, 4))
        if trial % 2 == 0:
            h = StrengthHistory.nonlocal_history(
                [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)])
            mode, closed = "nonlocal", closed_form_nonlocal
        else:
            etas = [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)]
            gammas = [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)]
            lams = [tuple(e * g for e, g in zip(pe, pg))
                    for pe, pg in zip(etas, gammas)]
            h = StrengthHistory(tuple(lams), tuple(etas), tuple(gammas))
            mode, closed = "local", closed_form_local
        runs = run_scenario(ScenarioConfig(strengths=h, mode=mode))
        kraus = chain(mode, LABELS, h.lambdas, h.etas, h.gammas)
        for i, (r, (s, _)) in enumerate(zip(runs, kraus), start=1):
            worst = max(worst, abs(r.steering_value - closed(h, i)), abs(s - closed(h, i)))
    with capsys.disabled():
        _report(f"oracle equivalence over 200 histories (worst {worst:.2e})",
                worst <= 1e-10)


def test_criterion_5_whole_grid_oracle(capsys):
    """Every cell of the 200x200 scan grid, simulated on 8x8 matrices by the
    Kraus oracle, against the array closed forms.  Pair 1's strength runs
    along grid rows and pair 2's along columns, so pair 1 updates 200
    states and pair 2 all 40,000 cells, in one broadcast batch each."""
    grid = np.linspace(0.0, 1.0, 200)
    lams = [grid[:, None], grid[None, :], np.ones((1, 1))]
    worst = {}
    for mode in ("nonlocal", "local"):
        damp = lams if mode == "nonlocal" else [np.sqrt(x) for x in lams]
        closed = closed_forms(lams, lams, damp, damp)
        rho = ghz().mat
        dev = 0.0
        for i, (lam, d, want) in enumerate(zip(lams, damp, closed)):
            # Both settings have strength lam; local pairs split it as eta = gamma = d.
            sim = steering_value(rho, LABELS, (lam, lam))
            dev = max(dev, float(np.max(np.abs(sim - want))))
            if i < len(lams) - 1:  # the last pair damps no one
                rho = pair_update(rho, mode, LABELS, (lam, lam), (d, d), (d, d))
        worst[mode] = dev
    with capsys.disabled():
        _report("whole 200x200 grid, 3 pairs, 8x8 batch vs closed forms "
                f"(worst nonlocal {worst['nonlocal']:.2e}, "
                f"local {worst['local']:.2e})", max(worst.values()) <= 1e-12)


def _closed_form_semiaxes(lams):
    """Per pair of a nonlocal run with default directions, the descending
    semiaxes of both ellipsoids: prod_{j<=i} (1+c2_j)/2, (1+c1_j)/2 and
    (c1_j+c2_j)/2 with c = sqrt(1 - lambda^2).  The run stays in the span of
    GHZ's Pauli components, so m~ = n = 0 and T is diagonal."""
    c = np.sqrt(1 - np.asarray(lams) ** 2)  # (pair, setting)
    axes = np.stack([1 + c[:, 1], 1 + c[:, 0], c[:, 0] + c[:, 1]], axis=1) / 2
    return -np.sort(-np.cumprod(axes, axis=0), axis=1)


def test_criterion_6_ellipsoid_suite(capsys):
    checks = []

    rho4, _ = compress(ghz())
    sphere = ellipsoid(bloch_form(rho4))
    checks.append(("compressed GHZ ellipsoid is the unit sphere",
                   np.allclose(sphere.semiaxes, 1, atol=1e-10)
                   and abs(sphere.volume - 1) <= 1e-10))

    # One principal semiaxis stays at 0.8536 when the first strength is
    # fixed at 1/sqrt(2); it lies along the Bloch y axis (the published
    # figure text calls it x, but its own damping formulas put it on y).
    series = ellipsoid_series([(SQRT_HALF, l2) for l2 in (0.1, 0.4, 0.7, 0.95)])
    const_axes = []
    for rec in series:
        idx = int(np.argmax(np.abs(rec.charlie.orientation[1, :])))
        const_axes.append(float(rec.charlie.semiaxes[idx]))
    checks.append(("constant 0.8536 semiaxis for any second strength",
                   all(abs(a - 0.8536) <= 5e-4 for a in const_axes)
                   and np.ptp(const_axes) <= 1e-10))

    rng = np.random.default_rng(113)
    worst_vol = 0.0
    for _ in range(25):
        lams = rng.uniform(0, 1, 2)
        rho = run_scenario(make_config("nonlocal", [list(lams)]))[0].state
        b = bloch_form(compress(rho)[0])
        worst_vol = max(worst_vol,
                        abs(ellipsoid_volume_check(b) - ellipsoid(b).volume))
    checks.append(("volume determinant formula matches sqrt(det(O))",
                   worst_vol <= 1e-10))

    sampled = 0
    ok_contain = True
    states = []
    for lams in ((0.8, 0.35), (0.5, 0.5), (1.0, 0.6), (0.25, 0.9), (1.0, 1.0)):
        rho = run_scenario(make_config("nonlocal", [list(lams)]))[0].state
        states.append(compress(rho)[0])
    while sampled < 500:
        rho4 = states[sampled % len(states)]
        ell = ellipsoid(bloch_form(rho4))
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        effect = (np.eye(2) + rng.uniform(0, 1) * pauli_dot(u)) / 2
        r = conditional_charlie_bloch(rho4, effect)
        if r is None:
            continue
        quad, residual = containment_violation(ell, r)
        ok_contain &= quad <= 1 + 1e-6 and residual <= 1e-8
        sampled += 1
    checks.append(("conditional states contained over 500 samples", ok_contain))

    # 300 seeded runs of 1-4 pairs with unequal strengths, some sharp, and
    # the demo and README `ellipsoids` strengths.
    rng = np.random.default_rng(131)
    worst_closed = 0.0
    runs = []
    for k in range(300):
        lams = rng.uniform(0, 1, (k % 4 + 1, 2))
        lams[rng.uniform(0, 1, lams.shape) < 0.1] = 1.0
        runs.append((lams, [(r.charlie_ellipsoid, r.ab_ellipsoid)
                            for r in run_scenario(make_config("nonlocal", lams.tolist()))]))
    for l1, l2 in [(SQRT_HALF, 0.75), (SQRT_HALF, 0.85), (SQRT_HALF, 0.95), (0.70710678, 0.9)]:
        rec = ellipsoid_series([(l1, l2)])[0]
        runs.append(([(l1, l2)], [(rec.charlie, rec.ab)]))
    # The longest two semiaxes, prod (1+c2)/2 and prod (1+c1)/2, lie along
    # Bloch x and y: the ellipsoid-optimal settings are the fixed x/-y ones.
    xy = {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)}
    on_xy = total = 0
    for lams, ells in runs:
        for want, pair in zip(_closed_form_semiaxes(lams), ells):
            for e in pair:
                worst_closed = max(worst_closed, np.max(np.abs(e.center)),
                                   np.max(np.abs(e.semiaxes - want)),
                                   abs(e.volume - np.prod(want)))
                on_xy += {tuple(np.abs(u).tolist()) for u in e.orientation[:, :2].T} == xy
                total += 1
    checks.append((f"closed-form ellipsoids over 304 runs: centre 0, semiaxes, volume "
                   f"(worst {worst_closed:.2e})", worst_closed <= 1e-12))
    checks.append((f"x/-y settings ellipsoid-optimal: two longest semiaxes exactly along "
                   f"+-x and +-y in {on_xy} of {total} ellipsoids", on_xy == total))

    with capsys.disabled():
        for name, ok in checks:
            _report(name, ok)


def test_criterion_7_max_sharing(capsys):
    best = max_simultaneous_pairs(resolution=200)
    with capsys.disabled():
        _report("grid search (200x200): at most two pairs share steering",
                best == 2)


def test_criterion_8_instrument_properties(capsys):
    """The dephasing kernel against the Kraus instrument of the oracle."""
    from test_measurement import _dephase, _projective, _random_setting

    rng = np.random.default_rng(127)
    ok_complete = ok_trace = ok_sharp = ok_damping = True
    for case in range(120):
        paulis, sign, lam = _random_setting(rng)
        effects, kraus = make_instrument(direction(paulis, sign), lam)
        ok_complete &= max(np.max(np.abs(effects[0] + effects[1] - np.eye(8))),
                           np.max(np.abs(kraus[0] @ kraus[0] + kraus[1] @ kraus[1]
                                         - np.eye(8)))) <= 1e-10

        rho = random_density(rng, 3).mat
        for out in (_dephase(rho, [[(paulis, sign, lam)]]), update(rho, [[(paulis, sign, lam)]])):
            ok_trace &= abs(np.trace(out) - 1) <= 1e-12

        sharp = [[(paulis, sign, 1.0)]]
        projective = _projective(rho, paulis, sign)
        for out in (_dephase(rho, sharp), update(rho, sharp)):
            ok_sharp &= np.max(np.abs(out - projective)) <= 1e-10

    for _ in range(100):
        paulis, sign, lam = _random_setting(rng)
        d = direction(paulis, sign)
        obs = direction(tuple(int(i) for i in rng.integers(0, 4, 3)))
        factor = 1.0 if np.max(np.abs(d @ obs - obs @ d)) == 0.0 else np.sqrt(1 - lam ** 2)
        before = np.trace(ghz().mat @ obs).real
        for out in (_dephase(ghz().mat, [[(paulis, sign, lam)]]),
                    update(ghz().mat, [[(paulis, sign, lam)]])):
            ok_damping &= abs(np.trace(out @ obs).real - factor * before) <= 1e-10

    with capsys.disabled():
        _report("instrument completeness over randomized settings", ok_complete)
        _report("trace preservation over randomized updates", ok_trace)
        _report("sharp-limit agreement with projective update", ok_sharp)
        _report("commutation damping law over randomized observables", ok_damping)
