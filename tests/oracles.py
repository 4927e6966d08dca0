"""Oracles: the Kraus-operator one for the dephasing kernel `run_scenario`
evolves with, and the per-member loop of the ellipsoid tie-break.

The Kraus oracle follows the definitions on full-register matrices and
shares no code with the package's Pauli-tensor path.  A measurement is a
signed Pauli product D, built with np.kron, and a strength lam.  Its
effects are E+- = (I +- lam D)/2 and its Kraus operators are
K+- = alpha I +- beta D with alpha +- beta = sqrt((1 +- lam)/2), the PSD
square roots of E+- since D^2 = I.  A pair's averaged update is
(1/n) sum_k sum K rho K^dag over its n settings.
"""

import functools
import itertools

import numpy as np

from steershare.states import ghz
from steershare.steering import AXIS_NORM_FLOOR, DEGENERACY_TOL

ORACLE_TOL = 1e-14  # kernel vs Kraus sum, entrywise, for |rho| <= 1

PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))

# Per Charlie axis: Charlie's Pauli index c, and the sign and A,B Pauli
# indices of the direction D = sign sigma_p x sigma_q with
# <D x sigma_c> = +1 on GHZ.
AXES = {"x": (1, -1.0, 2, 2), "y": (2, -1.0, 2, 1), "z": (3, 1.0, 3, 0)}


def direction(paulis, sign=1.0):
    """sign * sigma_paulis[0] x sigma_paulis[1] x ..., with sigma_0 = I."""
    return sign * functools.reduce(np.kron, [PAULIS[p] for p in paulis])


def make_instrument(d, lam):
    """Effects (E+, E-) and Kraus operators (K+, K-) of measuring the
    involution d at strength lam: a float, or an array whose shape leads
    the operators' (a batch)."""
    lam = np.asarray(lam, dtype=float)[..., None, None]
    eye = np.eye(len(d))
    plus, minus = np.sqrt((1 + lam) / 2), np.sqrt((1 - lam) / 2)
    alpha, beta = (plus + minus) / 2, (plus - minus) / 2
    return ((eye + lam * d) / 2, (eye - lam * d) / 2), \
        (alpha * eye + beta * d, alpha * eye - beta * d)


def update(rho, settings):
    """(1/n) sum_k sum K rho K^dag over n settings of a register.

    settings[k] lists the (paulis, sign, strength) measurements of setting
    k, one per measuring party; each branch's K is the product of one Kraus
    operator per party.  Strengths may be arrays that batch over rho's
    leading axes.
    """
    total = 0.0
    for parties in settings:
        kraus = [make_instrument(direction(p, sign), lam)[1] for p, sign, lam in parties]
        for ks in itertools.product(*kraus):
            k = functools.reduce(np.matmul, ks)
            total = total + k @ rho @ k.conj().swapaxes(-1, -2)
    return total / len(settings)


def _axis(label):
    """(flip, c, sign, p, q) of a signed axis label: the label's sign, which
    flips L and D together, Charlie's Pauli index, and D = sign sigma_p x
    sigma_q with the flip included."""
    flip = -1.0 if label.startswith("-") else 1.0
    c, sign, p, q = AXES[label.lstrip("-")]
    return flip, c, flip * sign, p, q


def steering_value(rho, labels, lam):
    """(1/n) sum_k lam[k] <D_k x L_k>, where setting k pairs Charlie's
    signed axis L_k = labels[k] ("x", "-y", ...) with the A,B direction D_k
    of `AXES`.  Strengths may be arrays that batch over rho's leading axes."""
    s = 0.0
    for x, label in zip(lam, labels):
        flip, c, sign, p, q = _axis(label)
        corr = np.kron(direction((p, q), sign), flip * PAULIS[c])
        s = s + np.asarray(x) * np.einsum("...ij,ji->...", rho, corr).real
    return s / len(labels)


def pair_update(rho, mode, labels, lam, eta=None, gamma=None):
    """One pair's averaged update.  Setting k measures D_k of
    `steering_value` at strength lam[k] (nonlocal), or its A factor at
    strength eta[k] and its B factor at gamma[k] (local)."""
    settings = []
    for k, label in enumerate(labels):
        _, _, sign, p, q = _axis(label)
        if mode == "nonlocal":
            settings.append([((p, q, 0), sign, lam[k])])
        else:
            settings.append([((p, 0, 0), 1.0, eta[k]), ((0, q, 0), 1.0, gamma[k])])
    return update(rho, settings)


def chain(mode, labels, lambdas, etas=None, gammas=None):
    """Per pair of a run from GHZ: its steering value on the state before
    its update, and the 8x8 state after it.  lambdas[i], etas[i] and
    gammas[i] are pair i+1's strengths, as `pair_update` takes them."""
    rho, out = ghz().mat, []
    for i, lam in enumerate(lambdas):
        s = steering_value(rho, labels, lam)
        rho = pair_update(rho, mode, labels, lam,
                          *(None if x is None else x[i] for x in (etas, gammas)))
        out.append((s, rho))
    return out


def tie_broken_axes(semiaxes, orientation):
    """One ellipsoid's orientation columns with each degenerate semiaxis
    group re-based onto coordinate axes where possible: the group's
    projector applied to x, y and z in turn, Gram-Schmidt orthonormalized
    until the group is spanned.  `ellipsoids` must give these columns, up to
    its sign convention, bit for bit."""
    out = orientation.copy()
    start = 0
    while start < 3:
        stop = start + 1
        while stop < 3 and semiaxes[start] - semiaxes[stop] <= DEGENERACY_TOL:
            stop += 1
        if stop - start > 1:
            sub = orientation[:, start:stop]
            proj = sub @ sub.T  # projector onto the degenerate subspace
            basis = []
            for axis in np.eye(3):
                cand = proj @ axis
                for b in basis:
                    cand = cand - (b @ cand) * b
                norm = np.linalg.norm(cand)
                if norm > AXIS_NORM_FLOOR:
                    basis.append(cand / norm)
                if len(basis) == stop - start:
                    break
            out[:, start:stop] = np.column_stack(basis)
        start = stop
    return out
