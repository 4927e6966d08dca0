"""Unsharp dichotomic measurements and the averaged sequential state update.

A measurement setting is a direction operator D, a signed Pauli product,
with a strength lambda in [0, 1].  Its instrument has effects
E_pm = (I +/- lambda D)/2 and Hermitian PSD Kraus operators K_pm = sqrt(E_pm)
(`make_instrument`).  The averaged non-selective update sums K rho K over
outcomes and averages uniformly over the settings of a pair.  As D^2 = I,
that sum is the dephasing channel ((1+c)/2) rho + ((1-c)/2) D rho D with
c = sqrt(1 - lambda^2).  On the state's Pauli tensor (see `states`) the
channel keeps the components that commute with D and multiplies those that
anticommute with it by c; the updates apply it in that form
(`dephasing_scale`), and the tests hold it to the Kraus sum built by
`make_instrument`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import psd_sqrt
from .states import PAULI_PRODUCTS, DensityMatrix, from_pauli_tensor, pauli_tensor

INVOLUTION_TOL = 1e-10

# _ANTI[i, j]: whether the single-qubit Paulis sigma_i and sigma_j anticommute.
_ANTI = np.array([[i != 0 and j != 0 and i != j for j in range(4)] for i in range(4)])


@dataclass(frozen=True)
class UnsharpSetting:
    """A dichotomic direction operator, a signed Pauli product, with a
    measurement strength.  `paulis` holds the Pauli index (0 = I) of each
    qubit in `acts_on`."""

    direction: np.ndarray = field(repr=False)
    strength: float
    acts_on: tuple[int, ...] = (0, 1)
    paulis: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        k = len(self.acts_on)
        if not 1 <= k <= 3 or self.direction.shape != (2 ** k, 2 ** k):
            raise ShapeError(
                f"direction shape {self.direction.shape} does not match "
                f"acts_on={self.acts_on}"
            )
        if len(set(self.acts_on)) != k or min(self.acts_on) < 0:
            raise ShapeError(f"acts_on={self.acts_on} must name distinct qubits")
        coeff = pauli_tensor(self.direction) / 2 ** k
        idx = np.unravel_index(np.argmax(np.abs(coeff)), coeff.shape)
        sign = 1.0 if coeff[idx] > 0 else -1.0
        product = PAULI_PRODUCTS[k][idx]
        if np.max(np.abs(self.direction - sign * product)) > INVOLUTION_TOL:
            raise ShapeError("direction must be a signed Pauli product")
        object.__setattr__(self, "paulis", tuple(int(i) for i in idx))
        if not 0.0 <= self.strength <= 1.0:
            raise ConfigError(f"strength {self.strength} outside [0, 1]")


@dataclass(frozen=True)
class Instrument:
    """Effects and Kraus operators of one unsharp dichotomic measurement."""

    effects: tuple[np.ndarray, np.ndarray]
    kraus: tuple[np.ndarray, np.ndarray]


def make_instrument(s: UnsharpSetting) -> Instrument:
    d = s.direction.shape[0]
    eye = np.eye(d, dtype=complex)
    e_plus = (eye + s.strength * s.direction) / 2
    e_minus = (eye - s.strength * s.direction) / 2
    return Instrument((e_plus, e_minus), (psd_sqrt(e_plus), psd_sqrt(e_minus)))


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
    of party j in setting k, and `c[..., k, j]` is that measurement's
    coherence sqrt(1 - strength^2).  Setting k multiplies the masked
    components by c once per party; the update averages over settings.
    Leading axes of `c` batch over pairs.
    """
    axis = 1 - anti.ndim  # parties, then settings, counted from the end
    c = np.asarray(c)[(...,) + (None,) * (anti.ndim - 2)]
    return np.where(anti, c, 1.0).prod(axis=axis).mean(axis=axis)


def _register_mask(s: UnsharpSetting, qubits: int) -> np.ndarray:
    if any(q >= qubits for q in s.acts_on):
        raise ShapeError(f"setting acts on {s.acts_on}, state has {qubits} qubits")
    paulis = [0] * qubits
    for q, p in zip(s.acts_on, s.paulis):
        paulis[q] = p
    return anticommuting(tuple(paulis))


def _update(rho: DensityMatrix, settings: list[list[UnsharpSetting]]) -> DensityMatrix:
    """Averaged update where setting k measures every direction in settings[k]."""
    anti = [[_register_mask(s, rho.qubits) for s in parties] for parties in settings]
    c = [[np.sqrt(1 - s.strength ** 2) for s in parties] for parties in settings]
    return from_pauli_tensor(pauli_tensor(rho.mat) * dephasing_scale(np.array(anti), c))


def luders_update(rho: DensityMatrix, settings: list[UnsharpSetting]) -> DensityMatrix:
    """Averaged post-measurement state for one pair's nonlocal settings.

    Equals (1/n) sum_k sum_pm K_pm^(k) rho K_pm^(k)dag with each Kraus
    operator identity-padded onto the full register.
    """
    if not settings:
        raise ConfigError("at least one setting is required")
    return _update(rho, [[s] for s in settings])


def local_pair_update(rho: DensityMatrix, a_settings: list[UnsharpSetting],
                      b_settings: list[UnsharpSetting]) -> DensityMatrix:
    """Averaged update when A and B measure locally, aligned by setting index.

    For setting k both parties' instruments act jointly; they commute, living
    on different qubits, so the four branches are A's channel then B's.
    """
    if len(a_settings) != len(b_settings) or not a_settings:
        raise ConfigError(
            f"need equally many A and B settings, got {len(a_settings)} and "
            f"{len(b_settings)}"
        )
    return _update(rho, [[sa, sb] for sa, sb in zip(a_settings, b_settings)])
