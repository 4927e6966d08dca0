"""Oracles: the Kraus-operator one for the dephasing kernel `run_scenario`
evolves with, the general steering ellipsoid of any two-qubit state,
which `run_scenario`'s closed-form T-state ellipsoids must equal, the
closed-form semiaxes of nonlocal runs with whole-grid checks against
them, and the one-format-per-row scan CSV text, which the grid-row
writer of `steershare scan` must equal.  Also the Pauli tensor of any 1-3-qubit
matrix and the state of any such tensor (the package builds only run
states, from their 8 GHZ components), the compression of any three-qubit
state onto span{|00>, |11>} x C2 (the package compresses only run states,
in closed form), `eigvalsh` of run states, which their closed-form
GHZ-basis weights must equal, and the full build of run states over their
8 component products, which their support build must equal within
rounding.  Also the run kernels on (k, 8) stacks, as the ellipsoid series
calls them, and the closed-form boundaries of the scan's region labels.

The Kraus oracle follows the definitions on full-register matrices and
shares no code with the package's Pauli-tensor path.  A measurement is a
signed Pauli product D, built with np.kron, and a strength lam.  Its
effects are E+- = (I +- lam D)/2 and its Kraus operators are
K+- = alpha I +- beta D with alpha +- beta = sqrt((1 +- lam)/2), the PSD
square roots of E+- since D^2 = I.  A pair's averaged update is
(1/n) sum_k sum K rho K^dag over its n settings.
"""

import contextlib
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from steershare import scenario
from steershare.errors import ConfigError, ShapeError
from steershare.scenario import SQRT_HALF, ellipsoid_series, make_config, run_scenario
from steershare.states import GHZ_PAULIS, SUPPORT, DensityMatrix, _check_array, _check_type, \
    _state_entries, _support_states, _t_state_diagonal, ghz
from steershare.steering import DEGENERACY_TOL, SteeringEllipsoid

AXIS_NORM_FLOOR = 1e-8  # shorter parts of an axis in a degenerate subspace are skipped

ORACLE_TOL = 1e-14  # kernel vs Kraus sum, entrywise, for |rho| <= 1
COMPRESS_TOL = 1e-9  # weight a state may keep outside the compression span

PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))

# Per Charlie axis: Charlie's Pauli index c, and the sign and A,B Pauli
# indices of the direction D = sign sigma_p x sigma_q with
# <D x sigma_c> = +1 on GHZ.
AXES = {"x": (1, -1.0, 2, 2), "y": (2, -1.0, 2, 1), "z": (3, 1.0, 3, 0)}


def direction(paulis, sign=1.0):
    """sign * sigma_paulis[0] x sigma_paulis[1] x ..., with sigma_0 = I."""
    return sign * functools.reduce(np.kron, [PAULIS[p] for p in paulis])


@functools.cache
def _products(qubits):
    """Every sigma_a x sigma_b x ... of `qubits` qubits, in row-major index
    order: shape (4**qubits, 2**qubits, 2**qubits)."""
    return np.stack([direction(idx) for idx in itertools.product(range(4), repeat=qubits)])


# Every sigma_a x sigma_b x ..., shape (4,)*n + (2^n, 2^n), for n = 1..3.
PAULI_PRODUCTS = {n: _products(n).reshape((4,) * n + (2 ** n,) * 2) for n in (1, 2, 3)}
# The mask over a three-qubit Pauli tensor of GHZ's 8 components, `GHZ_PAULIS`.
GHZ_COMPONENTS = np.zeros((4, 4, 4), dtype=bool)
GHZ_COMPONENTS[tuple(zip(*GHZ_PAULIS))] = True
GHZ_COMPONENTS.setflags(write=False)


def pauli_tensor(mat):
    """Real parts of Tr(mat sigma_a x sigma_b x ...) for a 1-3 qubit matrix."""
    _check_array(mat, "matrix")
    qubits = {(2, 2): 1, (4, 4): 2, (8, 8): 3}.get(mat.shape)
    if qubits is None:
        raise ShapeError(f"matrix shape {mat.shape} is not that of 1-3 qubits")
    return np.einsum("...ij,ji->...", PAULI_PRODUCTS[qubits], mat).real


def state_from_tensor(t):
    """The `DensityMatrix` 2^-n sum t[a, b, ...] sigma_a x sigma_b x ... of an
    n-qubit Pauli tensor of shape (4,)*n, n = 1..3, which validates it."""
    return DensityMatrix(t.ndim, np.tensordot(t.reshape(-1), _products(t.ndim), 1) / 2 ** t.ndim)


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


def kron_plan(mode, axes):
    """The setting plan `measurement._setting_plan` of a `mode` run along
    the resolved `axes`, from full np.kron matrices.  Setting k measures
    its A,B direction of `AXES` jointly (nonlocal), or its A factor on A
    and its B factor on B (local); a direction damps a GHZ component when
    they anticommute, D P + P D = 0.  Per component, for each setting, the
    mask of its damping parties, bit p for party p; the component each
    setting reads, its direction times Charlie's Pauli, and the sign of
    `AXES`; and per setting k the (setting l, party) pairs that damp the
    component k reads."""
    comps = [tuple(i) for i in np.argwhere(GHZ_COMPONENTS).tolist()]
    rows = [AXES[axis] for axis in axes]
    parties = [[direction((p, q, 0))] if mode == "nonlocal"
               else [direction((p, 0, 0)), direction((0, q, 0))] for _, _, p, q in rows]

    def damps(d, comp):
        product = direction(comp)
        anti = not np.any(d @ product + product @ d)
        assert anti or not np.any(d @ product - product @ d)  # Pauli strings commute or anticommute
        return anti

    masks = tuple(tuple(sum(damps(d, comp) << i for i, d in enumerate(ds)) for ds in parties)
                  for comp in comps)
    read = tuple(comps.index((p, q, c)) for c, _, p, q in rows)
    damping = tuple(tuple((l, i) for l, ds in enumerate(parties) for i, d in enumerate(ds)
                          if damps(d, comps[r])) for r in read)
    return masks, read, tuple(sign for _, sign, _, _ in rows), damping


def tie_broken_axes(semiaxes, orientation):
    """One ellipsoid's orientation columns with each degenerate semiaxis
    group, a run of semiaxes each within DEGENERACY_TOL of the next,
    re-based onto coordinate axes where possible: the group's projector
    applied to x, y and z in turn, Gram-Schmidt orthonormalized until the
    group is spanned."""
    out = orientation.copy()
    start = 0
    while start < 3:
        stop = start + 1
        while stop < 3 and semiaxes[stop - 1] - semiaxes[stop] <= DEGENERACY_TOL:
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


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Bloch vectors and correlation matrix of a two-qubit state."""

    m_tilde: np.ndarray  # Bloch vector of the compressed AB qubit
    n_vec: np.ndarray    # Bloch vector of Charlie
    T: np.ndarray        # 3x3 correlation matrix

    def __post_init__(self):
        for name, shape in (("m_tilde", (3,)), ("n_vec", (3,)), ("T", (3, 3))):
            x = getattr(self, name)
            _check_array(x, name, real=True)
            if x.shape != shape:
                raise ShapeError(f"{name} shape {x.shape}, expected {shape}")


class NotCompressibleError(ValueError):
    """State has weight outside the compression span{|00>, |11>} x C2."""


# The compressed AB qubit is span{|00>, |11>}: |00>, |11> become |0~>, |1~>.
# Its I, X, Y and Z are the A,B operators (II + ZZ)/2, (XX - YY)/2,
# (XY + YX)/2 and (ZI + IZ)/2: _COMPRESS_MAP[a, p, q] is the weight of
# sigma_p x sigma_q in the a-th.
_COMPRESS_MAP = np.zeros((4, 4, 4))
_COMPRESS_MAP[[0, 0, 1, 1, 2, 2, 3, 3], [0, 3, 1, 2, 1, 2, 3, 0], [0, 3, 1, 2, 2, 1, 0, 3]] = \
    [0.5, 0.5, 0.5, -0.5, 0.5, 0.5, 0.5, 0.5]


def compressed_tensors(t):
    """Project each of a (k, 4, 4, 4) stack of three-qubit Pauli tensors
    onto span{|00>, |11>} x C2 and relabel: the (k, 4, 4) tensors t[a, c]
    of the renormalized two-qubit states (compressed AB qubit tensor
    Charlie) and the (k,) weights the projection retains (entry [0, 0]
    before renormalizing).  Raises NotCompressibleError for the first
    member that keeps less than 1 - COMPRESS_TOL."""
    _check_array(t, "Pauli tensor stack", real=True)
    if t.shape[1:] != (4, 4, 4):
        raise ShapeError(f"compression expects (k, 4, 4, 4) Pauli tensors, got {t.shape}")
    small = _COMPRESS_MAP.reshape(4, 16) @ t.reshape(-1, 16, 4)  # [k, a, c]
    weights = small[:, 0, 0]
    low = weights < 1 - COMPRESS_TOL
    if low.any():  # a weight is >= 0: a residue below zero (or -0.0) prints as 0
        raise NotCompressibleError(f"only {max(weights[low.argmax()], 0.0) + 0.0:.12f} "
                                   "of the state lies in span{|00>, |11>} x C2")
    return small / weights[:, None, None], weights


def compress(rho):
    """Project a 3-qubit state onto span{|00>, |11>} x C2 and relabel: the
    renormalized 4x4 state (compressed AB qubit tensor Charlie) and the
    weight the projection retains."""
    _check_type(rho, DensityMatrix)
    t, weights = compressed_tensors(pauli_tensor(rho.mat)[None])
    return state_from_tensor(t[0]), float(weights[0])


def bloch_form(rho4):
    """Pauli decomposition (m~, n, T) of a (compressed) two-qubit state."""
    _check_type(rho4, DensityMatrix)
    if rho4.qubits != 2:
        raise ShapeError("bloch_form expects a 2-qubit state")
    t = pauli_tensor(rho4.mat)  # t[a, c]: m~ in column 0, n in row 0, T in the rest
    return BlochForm(t[1:, 0], t[0, 1:], t[1:, 1:])


def ellipsoid(b, steered_party="charlie"):
    """Steering ellipsoid of one party under all measurements of the other.

    For steered_party="charlie" the A,B pair steers; for "ab" the roles are
    swapped (m~ <-> n, T -> T^T).  See `ellipsoids` for the geometry.
    """
    _check_type(b, BlochForm)
    if steered_party == "charlie":
        m, n, T = b.m_tilde, b.n_vec, b.T
    elif steered_party == "ab":
        m, n, T = b.n_vec, b.m_tilde, b.T.T
    else:
        raise ConfigError(f"unknown steered party {steered_party!r}")
    return ellipsoids(m[None], n[None], T[None])[0]


def ellipsoids(m, n, T):
    """Steering ellipsoid of each member of a stack of two-qubit Bloch forms.

    Member k's steering party has Bloch vector m[k], the steered party n[k],
    and T[k][i, j] correlates the steering party's axis i with the steered
    party's axis j; shapes (k, 3), (k, 3) and (k, 3, 3).  One real `eigh`
    solves the whole stack.  Orientation columns are canonical, so inputs
    that differ by rounding noise give the same columns: within a
    degenerate group of semiaxes they prefer the coordinate axes in order
    x, y, z (`tie_broken_axes`), and each is signed so its
    largest-magnitude component is positive.  A pure steering party
    (|m|^2 >= 1 - DEGENERACY_TOL) raises ValueError.
    """
    # Matrix-vector products round differently on strided operands: copies
    # make each member's result independent of how its rows were stacked.
    m, n, T = (np.ascontiguousarray(x, dtype=float) for x in (m, n, T))
    k = m.shape[:1]
    if m.shape != k + (3,) or n.shape != k + (3,) or T.shape != k + (3, 3):
        raise ShapeError(f"stack shapes {m.shape}, {n.shape}, {T.shape} are not "
                         f"(k, 3), (k, 3), (k, 3, 3)")
    m2 = (m[:, None, :] @ m[:, :, None])[:, 0, 0]
    if (m2 >= 1.0 - DEGENERACY_TOL).any():
        raise ValueError("steering party is pure; ellipsoid degenerates")
    gamma = 1.0 / (1.0 - m2)
    Tt = T.transpose(0, 2, 1)
    center = gamma[:, None] * (n - (Tt @ m[:, :, None])[..., 0])
    left = gamma[:, None, None] * (Tt - n[:, :, None] * m[:, None, :])
    middle = np.eye(3) + gamma[:, None, None] * (m[:, :, None] * m[:, None, :])
    O = left @ middle @ (T - m[:, :, None] * n[:, None, :])
    O = (O + O.transpose(0, 2, 1)) / 2
    w, v = np.linalg.eigh(O)
    w = np.clip(w[:, ::-1], 0.0, None)  # descending
    semiaxes = np.sqrt(w)
    axes = np.stack([tie_broken_axes(s, a) for s, a in zip(semiaxes, v[:, :, ::-1])])
    lead = np.take_along_axis(axes, np.abs(axes).argmax(axis=1)[:, None, :], axis=1)
    axes = axes * np.sign(lead)
    volume = np.sqrt(w.prod(axis=1))
    return [SteeringEllipsoid(center=c, matrix=o, semiaxes=s, orientation=a,
                              volume=float(vol))
            for c, o, s, a, vol in zip(center, O, semiaxes, axes, volume)]


def ellipsoid_volume_check(b):
    """Normalized Charlie-ellipsoid volume via the determinant formula.

    Computed as |det(T - m~ n^T)| / (1 - |m~|^2)^2; agrees with
    sqrt(det(O)) of the ellipsoid matrix.
    """
    _check_type(b, BlochForm)
    m, n, T = b.m_tilde, b.n_vec, b.T
    m2 = float(m @ m)
    if m2 >= 1.0 - DEGENERACY_TOL:
        raise ValueError("steering party is pure; volume degenerates")
    return float(abs(np.linalg.det(T - np.outer(m, n))) / (1.0 - m2) ** 2)


def closed_form_semiaxes(lams):
    """Per pair of a nonlocal run with default directions, the descending
    semiaxes of both ellipsoids: prod_{j<=i} (1+c2_j)/2, (1+c1_j)/2 and
    (c1_j+c2_j)/2 with c = sqrt(1 - lambda^2).  The run stays in the span of
    GHZ's Pauli components, so m~ = n = 0 and T is diagonal.  `lams` is
    (pair, setting), or (..., pair, setting) for a batch of runs."""
    c = np.sqrt(1 - np.asarray(lams) ** 2)
    axes = np.stack([1 + c[..., 1], 1 + c[..., 0], c[..., 0] + c[..., 1]], axis=-1) / 2
    return -np.sort(-np.cumprod(axes, axis=-2), axis=-1)


def closed_form_deviation(ells, want):
    """Worst |semiaxes - want| and |volume - prod(want)| of a list of
    ellipsoids and the (k, 3) closed-form semiaxes `want` (see
    `closed_form_semiaxes`); every centre must be exactly 0."""
    assert all(np.all(e.center == 0.0) for e in ells)
    semiaxes = np.array([e.semiaxes for e in ells]).reshape(-1, 3)
    volume = np.array([e.volume for e in ells])
    return (float(np.max(np.abs(semiaxes - want))),
            float(np.max(np.abs(volume - want.prod(axis=1)))))


def series_grid_deviation(grid, rows):
    """`closed_form_deviation` of `ellipsoid_series` over every pair-1
    strength (lambda1, lambda2) of grid x grid, `rows` grid rows per call
    (which bounds memory); both parties share one ellipsoid."""
    worst = (0.0, 0.0)
    for i in range(0, len(grid), rows):
        lams = np.stack(np.broadcast_arrays(grid[i:i + rows, None], grid), axis=-1)
        lams = lams.reshape(-1, 1, 2)  # (run, pair, setting)
        dev = closed_form_deviation(ellipsoid_series(lams[:, 0].tolist()),
                                    closed_form_semiaxes(lams)[:, 0])
        worst = tuple(map(max, worst, dev))
    return worst


def run_grid_deviation(grid, pairs):
    """`closed_form_deviation` of the ellipsoid of every pair of `run_scenario`
    (Charlie's and AB's alike), over the equal-strength nonlocal histories
    (lambda1, lambda2, sharp)[:pairs] of grid x grid, one grid row at a time."""
    worst = (0.0, 0.0)
    for l1 in grid.tolist():
        ells, lams = [], []
        for l2 in grid.tolist():
            ells += [r.ellipsoid for r in run_scenario(make_config("nonlocal", [l1, l2],
                                                                   pairs=pairs))]
            lams.append([[l1, l1], [l2, l2], [1.0, 1.0]][:pairs])
        want = closed_form_semiaxes(lams).reshape(-1, 3)
        worst = tuple(map(max, worst, closed_form_deviation(ells, want)))
    return worst


def least_weights(mats):
    """The least GHZ-basis weight [j, j] - |[j, 7-j]|, j = 0..3, of each of a
    (k, 8, 8) stack of run states: the eigenvalues of each 2x2 block
    [[d, a], [a, d]] that the basis vectors (|j> +- |7-j>)/sqrt(2) span."""
    j = np.arange(4)
    return (mats.real[:, j, j] - np.abs(mats.real[:, j, 7 - j])).min(axis=1)


def spectrum_deviation(results):
    """Worst gap, over the states of a list of `PairResult`s, between the
    least eigenvalue by np.linalg.eigvalsh of the built 8x8 state and its
    least GHZ-basis weight (`least_weights`)."""
    mats = np.stack([r.state.mat for r in results])
    return float(np.max(np.abs(np.linalg.eigvalsh(mats)[:, 0] - least_weights(mats))))


def run_spectrum_deviation(grid, pairs, mode):
    """`spectrum_deviation` of every state of `run_scenario` over the
    equal-strength histories (lambda1, lambda2, sharp)[:pairs] of grid x grid
    in `mode`, one grid row at a time."""
    return max(spectrum_deviation([r for l2 in grid.tolist() for r in run_scenario(
        make_config(mode, [l1, l2][:pairs], pairs=pairs))]) for l1 in grid.tolist())


@contextlib.contextmanager
def run_components():
    """Within the block, the list of every (k, 8) stack of GHZ components
    that a run's float loop (`scenario._run_components`) hands on to be
    validated and built, one stack per run, in call order."""
    seen, real = [], scenario._run_components

    def spy(cfg):
        values, after = real(cfg)
        seen.append(np.array(after).reshape(-1, 8))
        return values, after

    scenario._run_components = spy
    try:
        yield seen
    finally:
        scenario._run_components = real


def stack_entries(c):
    """The (k, 8) state entries of a (k, 8) stack of GHZ components by the
    package's one run-state check (`states._state_entries`) on its
    columns, raising as it raises."""
    return np.stack(_state_entries(list(c.T)), axis=1).reshape(-1, 8)


def stack_diagonals(c):
    """The (k, 3) T-state diagonals of a (k, 8) stack of nonlocal run
    components by `states._t_state_diagonal` on its columns."""
    return np.stack(_t_state_diagonal(list(c.T)), axis=1).reshape(-1, 3)


def from_ghz_components(c):
    """The states 2^-3 sum_i c[k, i] P_i of a (k, 8) numpy stack of GHZ
    components, P_i the i-th product of `GHZ_PAULIS`, validated by
    `stack_entries` and built on `SUPPORT` as a run builds its states."""
    _check_array(c, "GHZ component stack", real=True)
    if c.ndim != 2 or c.shape[1] != 8:
        raise ShapeError(f"run states expect (k, 8) GHZ components, got {c.shape}")
    return _support_states(stack_entries(c))


def full_product_states(c):
    """The (k, 8, 8) states 2^-3 sum_i c[k, i] P_i of a (k, 8) stack of GHZ
    components, P_i the i-th product of `GHZ_COMPONENTS`: every product
    summed in full, with numpy's complex arithmetic."""
    return np.einsum("ki,iab->kab", c, PAULI_PRODUCTS[3][GHZ_COMPONENTS]) / 8


def support_faults(mats, want):
    """For the (k, 8, 8) run states `mats` and oracle states `want`: the
    number of floats off `SUPPORT` or imaginary whose int64 view is not 0
    (+0.0), the number of real parts whose bits differ from those of their
    mirror entry ([j, j] and [7-j, 7-j], [j, 7-j] and [7-j, j]), and the
    worst entrywise |mats - want|."""
    bits = np.ascontiguousarray(mats).view(np.int64).reshape(-1, 8, 8, 2)
    re = bits[..., 0]
    off = np.count_nonzero(bits[..., 1]) + np.count_nonzero(re[:, ~SUPPORT])
    return int(off), int(np.count_nonzero(re != re[:, ::-1, ::-1])), \
        float(np.max(np.abs(mats - want), initial=0.0))


def run_support_faults(grid, pairs, mode):
    """`support_faults` of every state of `run_scenario` on the
    equal-strength histories (lambda1, lambda2, sharp)[:pairs] of grid x grid
    in `mode`, one grid row at a time, against the Kraus `chain`: the two
    counts summed, the worst gap."""
    off = unlike = 0
    worst = 0.0
    for l1 in grid.tolist():
        mats = np.stack([r.state.mat for l2 in grid.tolist() for r in run_scenario(
            make_config(mode, [l1, l2][:pairs], pairs=pairs))]).reshape(len(grid), pairs, 8, 8)
        lams = [np.full(len(grid), l1), grid, np.ones(len(grid))][:pairs]
        roots = [np.sqrt(x) for x in lams] if mode == "local" else None
        steps = chain(mode, ("x", "-y"), [(x, x) for x in lams],
                      *([[(r, r) for r in roots]] * 2 if roots else []))
        want = np.stack([rho for _, rho in steps], axis=1)
        faults = support_faults(mats.reshape(-1, 8, 8), want.reshape(-1, 8, 8))
        off, unlike, worst = off + faults[0], unlike + faults[1], max(worst, faults[2])
    return off, unlike, worst


def boundary_forms(l1, l2):
    """S2, S3, S~2 and S~3 of the equal-strength scan histories (l1, l2,
    sharp): S2 = l2 (1 + c(l1))/2 and S3 = (1 + c(l1))(1 + c(l2))/4 with
    c(x) = sqrt(1 - x^2), and S~2, S~3 alike with c~(x) = sqrt(1 - x), the
    coherence a local pair keeps at eta = gamma = sqrt(x)."""
    forms = []
    for c in (lambda x: np.sqrt(1 - x * x), lambda x: np.sqrt(1 - x)):
        forms += [l2 * (1 + c(l1)) / 2, (1 + c(l1)) * (1 + c(l2)) / 4]
    return tuple(forms)


BOUNDARY_TOL = 1e-12  # cells this close to C2 in a boundary form: rounding may set the label


def region_labels(l1, l2):
    """The scan's region label of each history (l1, l2, sharp) by
    `boundary_forms`: I (II) where pair 2 (pair 3) steers nonlocally, S > C2,
    but not locally, S~ <= C2.  Also the mask of cells within BOUNDARY_TOL
    of C2 in any form."""
    s2, s3, st2, st3 = forms = boundary_forms(l1, l2)
    only = [(s > SQRT_HALF) & (st <= SQRT_HALF) for s, st in ((s2, st2), (s3, st3))]
    near = np.min([np.abs(x - SQRT_HALF) for x in forms], axis=0) <= BOUNDARY_TOL
    return np.array(["", "I", "II", "I+II"])[only[0] + 2 * only[1]], near


def scan_csv(table):
    """The scan CSV text of `table` as one %-format per row over all its
    rows, as the row-by-row writer made it before `cli._scan_csv` came to
    build blocks of grid rows as word matrices with a digit-table kernel:
    every float printed with %.12g, every region label with %s, and empty S
    (or St) columns where the mode leaves them out."""
    cols = [table.params["lambda1"], table.params["lambda2"]]
    fields = ["%.12g"] * 2
    for group in (table.s[:3], table.st[:3]):
        cols += group
        fields += ["%.12g"] * len(group) + [""] * (3 - len(group))
    cols.append(table.region)
    row = ",".join(fields + ["%s"]) + "\n"
    header = "lambda1,lambda2,S1,S2,S3,St1,St2,St3,region\n"
    return header + "".join(row % r for r in zip(*(c.tolist() for c in cols)))
