"""Unsharp dichotomic measurements and the averaged sequential state update.

A measurement setting is a unit-involution direction operator D (a signed
Pauli product) with a strength lambda in [0, 1].  Its instrument has effects
E_pm = (I +/- lambda D)/2 and Hermitian PSD Kraus operators K_pm = sqrt(E_pm)
(`make_instrument`).  The averaged non-selective update sums K rho K over
outcomes and averages uniformly over the settings of a pair.  As D^2 = I,
that sum is the dephasing channel ((1+c)/2) rho + ((1-c)/2) D rho D with
c = sqrt(1 - lambda^2); the updates evaluate this form, and the tests hold
it to the Kraus sum built by `make_instrument`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import embed, is_hermitian, psd_sqrt
from .states import DensityMatrix

INVOLUTION_TOL = 1e-10


@dataclass(frozen=True)
class UnsharpSetting:
    """A dichotomic direction operator with a measurement strength."""

    direction: np.ndarray = field(repr=False)
    strength: float
    acts_on: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        d = self.direction.shape[0]
        if self.direction.shape != (d, d) or d != 2 ** len(self.acts_on):
            raise ShapeError(
                f"direction shape {self.direction.shape} does not match "
                f"acts_on={self.acts_on}"
            )
        if not is_hermitian(self.direction, INVOLUTION_TOL):
            raise ShapeError("direction must be Hermitian")
        if np.max(np.abs(self.direction @ self.direction - np.eye(d))) > INVOLUTION_TOL:
            raise ShapeError("direction must square to the identity")
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


def _dephase(mat: np.ndarray, s: UnsharpSetting, qubits: int) -> np.ndarray:
    """sum_pm K_pm mat K_pm for one setting, in the dephasing-channel form."""
    c = np.sqrt(1 - s.strength ** 2)
    d = embed(s.direction, s.acts_on, qubits)
    return (1 + c) / 2 * mat + (1 - c) / 2 * (d @ mat @ d)


def luders_update(rho: DensityMatrix, settings: list[UnsharpSetting]) -> DensityMatrix:
    """Averaged post-measurement state for one pair's nonlocal settings.

    Equals (1/n) sum_k sum_pm K_pm^(k) rho K_pm^(k)dag with each Kraus
    operator identity-padded onto the full register.
    """
    if not settings:
        raise ConfigError("at least one setting is required")
    out = np.zeros_like(rho.mat)
    for s in settings:
        if any(q >= rho.qubits for q in s.acts_on):
            raise ShapeError(f"setting acts on {s.acts_on}, state has {rho.qubits} qubits")
        out += _dephase(rho.mat, s, rho.qubits)
    return DensityMatrix(rho.qubits, out / len(settings))


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
    out = np.zeros_like(rho.mat)
    for sa, sb in zip(a_settings, b_settings):
        out += _dephase(_dephase(rho.mat, sa, rho.qubits), sb, rho.qubits)
    return DensityMatrix(rho.qubits, out / len(a_settings))
