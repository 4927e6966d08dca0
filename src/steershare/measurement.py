"""The averaged sequential state update of unsharp dichotomic measurements.

A measurement setting is a direction operator D, a signed Pauli product,
with a strength lambda in [0, 1].  Its instrument has effects
E_pm = (I +/- lambda D)/2 and Kraus operators K_pm = sqrt(E_pm).  The
averaged non-selective update sums K rho K over outcomes and averages
uniformly over the settings of a pair.  As D^2 = I, that sum is the
dephasing channel ((1+c)/2) rho + ((1-c)/2) D rho D with
c = sqrt(1 - lambda^2).  On the state's Pauli tensor (see `states`) the
channel keeps the components that commute with D and multiplies those that
anticommute with it by c; runs and the ellipsoid series apply it in that
form to GHZ's 8 components (`_damped`), and the tests hold it to the Kraus
sum.  Charlie's settings, the A,B directions paired with them
(`_AXIS_TABLE`) and the plan of a pair of settings (`_setting_plan`: what
each damps and reads, in Python numbers) are tabled here once; runs, the
ellipsoid series and `steering.closed_forms` read that plan.
"""

from __future__ import annotations

import functools

from .states import GHZ_PAULIS

# Per Pauli index 0..3 (I, X, Y, Z), its bits (x, z): sigma = X^x Z^z up to
# a phase.  Two Pauli strings anticommute iff their symplectic product,
# sum over qubits of x z' + z x', is odd.
_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _anticommute(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether sigma_a[0] x sigma_a[1] x ... and the string of `b`
    anticommute."""
    return sum(_BITS[p][0] * _BITS[q][1] + _BITS[p][1] * _BITS[q][0] for p, q in zip(a, b)) % 2 == 1


# Per axis: Charlie's Pauli index c and the signed A,B Pauli product
# sign * sigma_p x sigma_q paired with it, as (c, sign, p, q).  Signs are
# fixed so the sharp GHZ correlator <D x L> = sign * t[p, q, c] is +1.  A
# label's own sign flips D and L together, which changes neither that
# correlator nor the dephasing channel of D.
_AXIS_TABLE = {"x": (1, -1.0, 2, 2), "y": (2, -1.0, 2, 1), "z": (3, 1.0, 3, 0)}


@functools.cache
def _setting_plan(mode: str, axes: tuple[str, ...]) -> tuple:
    """The plan of a `mode` run whose settings measure Charlie along the
    resolved `axes`, in Python numbers.  The measuring parties are A,B
    jointly, measuring sigma_p x sigma_q (nonlocal), or A measuring sigma_p
    and B sigma_q (local).  Per GHZ component, for each setting, the
    parties whose direction anticommutes with it, and so damps it, as a bit
    mask, bit i for party i (`_damped`); the component t[p, q, c] each setting
    reads, and that reading's sign; and per setting k the (setting l, party)
    pairs whose direction damps the component k reads, in setting then
    party order (`steering.closed_forms`).  Cached: every run shares it."""
    rows = [_AXIS_TABLE[axis] for axis in axes]
    parties = [[(p, q, 0)] if mode == "nonlocal" else [(p, 0, 0), (0, q, 0)]
               for _, _, p, q in rows]
    masks = tuple(tuple(sum(_anticommute(d, pauli) << i for i, d in enumerate(directions))
                        for directions in parties) for pauli in GHZ_PAULIS)
    read = tuple(GHZ_PAULIS.index((p, q, c)) for c, _, p, q in rows)
    damping = tuple(tuple((l, i) for l, mask in enumerate(masks[r])
                          for i in range(len(parties[l])) if mask >> i & 1) for r in read)
    return masks, read, tuple(sign for _, sign, _, _ in rows), damping


def _damped(c, masks: tuple, f0: tuple, f1: tuple) -> list:
    """One pair's averaged update of the 8 GHZ components `c`, Python floats
    of one member or (k,) columns of a stack: each component times the mean
    over the two settings of its damping, `f0[m]` in setting 1 and `f1[m]`
    in setting 2 for its mask m (`_setting_plan`), the product of the
    coherences of the parties in m, 1 if none."""
    return [x * ((f0[a] + f1[b]) / 2) for x, (a, b) in zip(c, masks)]
