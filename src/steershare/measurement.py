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
form (`dephasing_scale`, and per pair in Python floats in a run), and the
tests hold it to the Kraus sum.  Charlie's
settings, the A,B directions paired with them (`_AXIS_TABLE`) and the plan
of a pair of settings (`_run_plan`: what each damps and reads) are tabled here
once; runs (in Python numbers, `_float_plan`), the ellipsoid series and
`steering.closed_forms` read that plan.
"""

from __future__ import annotations

import functools

import numpy as np

from .states import GHZ_COMPONENTS

# _ANTI[i, j]: whether the single-qubit Paulis sigma_i and sigma_j anticommute.
_ANTI = np.array([[i != 0 and j != 0 and i != j for j in range(4)] for i in range(4)])


def anticommuting(paulis: tuple[int, ...]) -> np.ndarray:
    """Boolean mask over an n-qubit Pauli tensor of the components that
    anticommute with sigma_paulis[0] x sigma_paulis[1] x ...: those that
    anticommute on an odd number of qubits."""
    n = len(paulis)
    mask = np.zeros((4,) * n, dtype=bool)
    for q, p in enumerate(paulis):
        mask ^= _ANTI[p].reshape((1,) * q + (4,) + (1,) * (n - q - 1))
    return mask


def dephasing_scale(anti: np.ndarray, c) -> np.ndarray:
    """Factor by which one pair's averaged update multiplies a Pauli tensor.

    `anti[k, j]` masks the components that anticommute with the direction
    of party j in setting k, over a whole tensor or a list of its
    components, and `c[..., k, j]` is that measurement's coherence
    sqrt(1 - strength^2).  Setting k multiplies the masked
    components by c once per party; the update averages over settings.
    Leading axes of `c` batch over pairs.
    """
    axis = 1 - anti.ndim  # parties, then settings, counted from the end
    c = np.asarray(c)[(...,) + (None,) * (anti.ndim - 2)]
    return np.where(anti, c, 1.0).prod(axis=axis).sum(axis=axis) / len(anti)  # numpy's mean


# Per axis: Charlie's Pauli index c and the signed A,B Pauli product
# sign * sigma_p x sigma_q paired with it, as (c, sign, p, q).  Signs are
# fixed so the sharp GHZ correlator <D x L> = sign * t[p, q, c] is +1.  A
# label's own sign flips D and L together, which changes neither that
# correlator nor the dephasing channel of D.
_AXIS_TABLE = {"x": (1, -1.0, 2, 2), "y": (2, -1.0, 2, 1), "z": (3, 1.0, 3, 0)}


@functools.cache
def _run_plan(mode: str, axes: tuple[str, ...]) -> tuple:
    """For a `mode` run whose settings measure Charlie along the resolved
    `axes`: the anticommutation masks of each setting's directions over the 8
    components (`dephasing_scale`'s `anti`), one per measuring party:
    sigma_p x sigma_q jointly, or sigma_p on A and sigma_q on B; the component
    t[p, q, c] each setting reads, and that reading's sign; and per setting k
    the (setting l, party) pairs whose direction damps the component k reads
    (`steering.closed_forms`).  Read-only, as every run shares them."""
    charlie, sign, p, q = map(np.array, zip(*map(_AXIS_TABLE.get, axes)))
    anti = np.stack([np.stack([anticommuting(d)[GHZ_COMPONENTS] for d in (
        [(a, b, 0)] if mode == "nonlocal" else [(a, 0, 0), (0, b, 0)])]) for a, b in zip(p, q)])
    read = (GHZ_COMPONENTS.cumsum() - 1).reshape(4, 4, 4)[p, q, charlie]
    damping = tuple(tuple(map(tuple, np.argwhere(anti[..., r]).tolist())) for r in read)
    for x in (anti, read, sign):
        x.setflags(write=False)
    return anti, read, sign, damping


@functools.cache
def _float_plan(mode: str, axes: tuple[str, ...]) -> tuple:
    """The setting plan `_run_plan` of a `mode` run along the resolved
    `axes`, in the Python numbers a run's float loop reads: per component,
    for each setting, the parties whose direction damps it as a bit mask,
    bit p for party p; the components the settings read; and their signs."""
    anti, read, sign, _ = _run_plan(mode, axes)
    masks = sum(anti[:, p] * (1 << p) for p in range(anti.shape[1]))  # (setting, component)
    return tuple(zip(*masks.tolist())), tuple(read.tolist()), tuple(sign.tolist())
