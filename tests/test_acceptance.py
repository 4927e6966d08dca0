"""Acceptance suite: one test per headline criterion, each reporting pass/fail."""

import numpy as np

from steershare.cli import main
from steershare.linalg import I2, SIGMA_X, SIGMA_Y, kron
from steershare.measurement import UnsharpSetting, local_pair_update, luders_update
from steershare.scenario import (
    SQRT_HALF,
    ellipsoid_series,
    make_config,
    max_simultaneous_pairs,
    run_scenario,
    simultaneous_window,
)
from steershare.states import bloch_form, compress, ghz
from steershare.steering import (
    StrengthHistory,
    closed_forms,
    closed_form_local,
    closed_form_nonlocal,
    ellipsoid,
    ellipsoid_volume_check,
    pauli_dot,
    steering_parameter,
)

from util import conditional_charlie_bloch, containment_violation

YY = kron(SIGMA_Y, SIGMA_Y)
YX = kron(SIGMA_Y, SIGMA_X)
PAIR_DIRS = [-YY, YX]
CHARLIE_DIRS = [SIGMA_X, -SIGMA_Y]


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
                  and abs(hi - analytic) <= 1e-6)
            _report(f"window {case}: (1/sqrt(2), {published})", ok)


def test_criterion_5_oracle_equivalence(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        pairs = int(rng.integers(1, 4))
        if trial % 2 == 0:
            h = StrengthHistory.nonlocal_history(
                [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)])
            closed = closed_form_nonlocal
            rho = ghz()
            for i in range(1, pairs + 1):
                sim = steering_parameter(rho, PAIR_DIRS, list(h.lambdas[i - 1]),
                                         CHARLIE_DIRS)
                worst = max(worst, abs(sim - closed(h, i)))
                rho = luders_update(rho, [
                    UnsharpSetting(d, s, (0, 1))
                    for d, s in zip(PAIR_DIRS, h.lambdas[i - 1])])
        else:
            etas = [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)]
            gammas = [tuple(rng.uniform(0, 1, 2)) for _ in range(pairs)]
            lams = [tuple(e * g for e, g in zip(pe, pg))
                    for pe, pg in zip(etas, gammas)]
            h = StrengthHistory(tuple(lams), tuple(etas), tuple(gammas))
            rho = ghz()
            for i in range(1, pairs + 1):
                sim = steering_parameter(rho, PAIR_DIRS, list(h.lambdas[i - 1]),
                                         CHARLIE_DIRS)
                worst = max(worst, abs(sim - closed_form_local(h, i)))
                a = [UnsharpSetting(d, e, (0,))
                     for d, e in zip((SIGMA_Y, SIGMA_Y), h.etas[i - 1])]
                b = [UnsharpSetting(d, g, (1,))
                     for d, g in zip((SIGMA_Y, SIGMA_X), h.gammas[i - 1])]
                rho = local_pair_update(rho, a, b)
    with capsys.disabled():
        _report(f"oracle equivalence over 200 histories (worst {worst:.2e})",
                worst <= 1e-10)


def _phased_permutation(d):
    """D as row i -> (perm[i], phase[i]): D[i, perm[i]] = phase[i], zero elsewhere."""
    perm = np.abs(d).argmax(axis=1)
    return perm, d[np.arange(len(d)), perm]


def _dephase_batch(rho, d, c):
    """((1+c)/2) rho + ((1-c)/2) D rho D for a stack of states, D applied as
    a phased index permutation: (D rho D)[i, j] = v[i] rho[p[i], p[j]] v*[j]."""
    perm, v = _phased_permutation(d)
    out = rho[:, perm[:, None], perm]
    out *= np.outer(v, v.conj()) * ((1 - c) / 2)[:, None, None]
    out += ((1 + c) / 2)[:, None, None] * rho
    return out


def _pair_update_batch(rho, settings, c):
    """Mean over settings of the channels of each setting's directions, in turn."""
    total = np.zeros_like(rho)
    for dirs in settings:
        out = rho
        for d in dirs:
            out = _dephase_batch(out, d, c)
        total += out
    return total / len(settings)


def test_criterion_5_whole_grid_oracle(capsys):
    """Every cell of the 200x200 scan grid, simulated on 8x8 matrices in one
    batch, against the array closed forms."""
    grid = np.linspace(0.0, 1.0, 200)
    lams = [np.repeat(grid, 200), np.tile(grid, 200), np.ones(200 * 200)]
    corr = [kron(d, l) for d, l in zip(PAIR_DIRS, CHARLIE_DIRS)]
    settings = {
        "nonlocal": [[kron(d, I2)] for d in PAIR_DIRS],
        "local": [[kron(kron(SIGMA_Y, I2), I2), kron(kron(I2, d), I2)]
                  for d in (SIGMA_Y, SIGMA_X)],
    }
    worst = {}
    for mode, dirs in settings.items():
        damp = lams if mode == "nonlocal" else [np.sqrt(x) for x in lams]
        closed = closed_forms(lams, lams, damp, damp)
        rho = np.broadcast_to(ghz().mat, (len(lams[0]), 8, 8))
        dev = 0.0
        for i, (lam, d, want) in enumerate(zip(lams, damp, closed)):
            # Both settings have strength lam: S = lam * mean_k <D_k x L_k>.
            sim = lam * sum(np.einsum("nij,ji->n", rho, op).real for op in corr) / 2
            dev = max(dev, float(np.max(np.abs(sim - want))))
            if i < len(lams) - 1:  # the last pair damps no one
                rho = _pair_update_batch(rho, dirs, np.sqrt(1 - d * d))
        worst[mode] = dev
    with capsys.disabled():
        _report("whole 200x200 grid, 3 pairs, 8x8 batch vs closed forms "
                f"(worst nonlocal {worst['nonlocal']:.2e}, "
                f"local {worst['local']:.2e})", max(worst.values()) <= 1e-12)


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
        rho = luders_update(ghz(), [UnsharpSetting(d, s, (0, 1))
                                    for d, s in zip(PAIR_DIRS, lams)])
        b = bloch_form(compress(rho)[0])
        worst_vol = max(worst_vol,
                        abs(ellipsoid_volume_check(b) - ellipsoid(b).volume))
    checks.append(("volume determinant formula matches sqrt(det(O))",
                   worst_vol <= 1e-10))

    sampled = 0
    ok_contain = True
    states = []
    for lams in ((0.8, 0.35), (0.5, 0.5), (1.0, 0.6), (0.25, 0.9), (1.0, 1.0)):
        rho = luders_update(ghz(), [UnsharpSetting(d, s, (0, 1))
                                    for d, s in zip(PAIR_DIRS, lams)])
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

    with capsys.disabled():
        for name, ok in checks:
            _report(name, ok)


def test_criterion_7_max_sharing(capsys):
    best = max_simultaneous_pairs(resolution=200)
    with capsys.disabled():
        _report("grid search (200x200): at most two pairs share steering",
                best == 2)


def test_criterion_8_instrument_properties(capsys):
    from test_measurement import _random_setting

    rng = np.random.default_rng(127)
    from steershare.measurement import make_instrument
    from steershare.linalg import I2, PAULIS, embed
    from util import random_density

    ok_complete = ok_trace = ok_sharp = ok_damping = True
    checked_damping = 0
    for case in range(120):
        s = _random_setting(rng)
        inst = make_instrument(s)
        ok_complete &= np.max(np.abs(inst.effects[0] + inst.effects[1]
                                     - np.eye(4))) <= 1e-10

        rho = random_density(rng, 3)
        out = luders_update(rho, [s])
        ok_trace &= abs(np.trace(out.mat) - 1) <= 1e-12

        sharp = UnsharpSetting(s.direction, 1.0, s.acts_on)
        d = embed(s.direction, s.acts_on, 3)
        projective = np.zeros_like(rho.mat)
        for sign in (1, -1):
            p = (np.eye(8) + sign * d) / 2
            projective += p @ rho.mat @ p
        ok_sharp &= np.max(np.abs(luders_update(rho, [sharp]).mat
                                  - projective)) <= 1e-10

    ops = (I2,) + PAULIS
    while checked_damping < 100:
        s = _random_setting(rng)
        p_ab = kron(ops[rng.integers(0, 4)], ops[rng.integers(0, 4)])
        p_abc = kron(p_ab, ops[rng.integers(0, 4)])
        comm = s.direction @ p_ab - p_ab @ s.direction
        anti = s.direction @ p_ab + p_ab @ s.direction
        before = ghz().expectation(p_abc)
        after = luders_update(ghz(), [s]).expectation(p_abc)
        if np.max(np.abs(comm)) <= 1e-12:
            ok_damping &= abs(after - before) <= 1e-10
        elif np.max(np.abs(anti)) <= 1e-12:
            f = np.sqrt(1 - s.strength ** 2)
            ok_damping &= abs(after - f * before) <= 1e-10
        else:
            continue
        checked_damping += 1

    with capsys.disabled():
        _report("instrument completeness over randomized settings", ok_complete)
        _report("trace preservation over randomized updates", ok_trace)
        _report("sharp-limit agreement with projective update", ok_sharp)
        _report("commutation damping law over randomized observables", ok_damping)
