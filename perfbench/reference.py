"""Independent reference for checking steershare outputs.

Nothing here imports steershare: every value is recomputed from the
paper's formulas so that a fault in the program cannot hide in its own
oracle.

- Closed form, for pair i after pairs 1..i-1 (two settings per pair):
  S_i = (l2_i * prod_j (1 + c1_j) + l1_i * prod_j (1 + c2_j)) / 2**i
  with c = sqrt(1 - d**2); d = lambda for nonlocal pairs and
  d = sqrt(lambda) for local pairs (eta = gamma = sqrt(lambda)).
- Window endpoints: the lower end is 1/sqrt(2) in every case; the upper
  ends solve S_2 = 1/sqrt(2) with pair 2 sharp.
- Bloch form (m, n, T) of the 00/11 block of a three-qubit state, and the
  ellipsoid volume |det(T - m n^T)| / (1 - |m|^2)**2.
"""

from __future__ import annotations

import numpy as np

BOUND = 1 / np.sqrt(2)

_PAULIS = np.array([[[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]],
                    [[1, 0], [0, -1]]], dtype=complex)

# Rows/columns |a b c> of the three-qubit state with a b in {00, 11}:
# |000>, |001>, |110>, |111> are the compressed |0~ c>, |1~ c>.
_BLOCK = [0b000, 0b001, 0b110, 0b111]


def closed_form(lam1: np.ndarray, lam2: np.ndarray, local: bool) -> np.ndarray:
    """Steering parameter of every pair for a batch of strength histories.

    `lam1`, `lam2` have shape (pairs, N): setting-1 and setting-2 strengths
    of pair j+1 in row j.  Returns S with the same shape.
    """
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
    d1, d2 = (np.sqrt(lam1), np.sqrt(lam2)) if local else (lam1, lam2)
    c1 = np.sqrt(1.0 - d1 * d1)
    c2 = np.sqrt(1.0 - d2 * d2)
    ones = np.ones_like(lam1[:1])
    # Damping seen by pair i: product over the pairs before it.
    p1 = np.cumprod(np.concatenate([ones, 1.0 + c1[:-1]]), axis=0)
    p2 = np.cumprod(np.concatenate([ones, 1.0 + c2[:-1]]), axis=0)
    i = np.arange(1, lam1.shape[0] + 1, dtype=float)[:, None]
    return (lam2 * p1 + lam1 * p2) / 2.0 ** i


def region_labels(s: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Activation labels of scan rows: "I" (pair 2) and "II" (pair 3)
    where the nonlocal pair steers and the local one does not.

    `s`, `st` have shape (3, N).
    """
    flag2 = (s[1] > BOUND) & (st[1] <= BOUND)
    flag3 = (s[2] > BOUND) & (st[2] <= BOUND)
    return np.array(["", "I", "II", "I+II"])[flag2 + 2 * flag3]


def near_bound(s: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Rows where a pair-2/3 value sits within 1e-12 of the bound, so its
    label is decided by rounding rather than physics."""
    vals = np.concatenate([s[1:3], st[1:3]])
    return np.any(np.abs(vals - BOUND) <= 1e-12, axis=0)


def window_upper(case: str) -> float:
    """Analytic upper end of the simultaneous-steering window."""
    r = 2 * np.sqrt(2) - 2
    if case == "unequal_local":
        return float(1 - (r - np.sqrt(1 - BOUND)) ** 2)
    if case == "equal_nonlocal":
        return float(np.sqrt(r))
    if case == "unequal_nonlocal":
        return float(np.sqrt(1 - (r - BOUND) ** 2))
    raise ValueError(f"unknown case {case!r}")


def compressed_bloch(rho8: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(m, n, T, weight) of the renormalized 00/11 block of a 3-qubit state."""
    block = rho8[np.ix_(_BLOCK, _BLOCK)]
    weight = float(np.trace(block).real)
    t = (block / weight).reshape(2, 2, 2, 2)  # (a, c, a', c')
    m = np.einsum("acbc,kba->k", t, _PAULIS).real
    n = np.einsum("acad,kdc->k", t, _PAULIS).real
    T = np.einsum("acbd,kba,ldc->kl", t, _PAULIS, _PAULIS).real
    return m, n, T, weight


def ellipsoid_volume(m: np.ndarray, n: np.ndarray, T: np.ndarray) -> float:
    """Normalized volume of the ellipsoid steered by the party with Bloch
    vector `m` (use (n, m, T.T) for the other direction)."""
    return float(abs(np.linalg.det(T - np.outer(m, n))) / (1.0 - m @ m) ** 2)


def matches_12_digits(cells: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Whether each printed value is `ref` rounded to 12 significant digits.

    Allows half a unit in the 12th digit plus a few ulps, so a reference
    that differs from the program in the last bit still matches.
    """
    ref = np.asarray(ref, dtype=float)
    mag = np.abs(ref)
    exp = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
    tol = np.where(mag > 0, 0.5 * 10.0 ** (exp - 11) + 4e-16 * mag, 1e-300)
    return np.abs(cells - ref) <= tol
