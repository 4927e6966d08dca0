import itertools
import json
import re
import warnings

import numpy as np
import pytest

from steershare import measurement, scenario, states
from steershare.errors import ShapeError
from steershare.linalg import I2, PAULIS
from steershare.scenario import make_config, run_scenario
from steershare.states import GHZ_VALUES, DensityMatrix, ghz, ket

from oracles import GHZ_COMPONENTS, PAULI_PRODUCTS, NotCompressibleError, bloch_form, chain, \
    compress, compressed_tensors, direction, from_ghz_components, full_product_states, \
    pauli_tensor, run_components, stack_diagonals, stack_entries, state_from_tensor, \
    support_faults
from util import random_density


def _expectation(rho, op):
    """Tr(rho op); with op = rho.mat, the purity."""
    return np.trace(rho.mat @ op).real


class TestGhz:
    def test_stabilizer_xxx(self):
        assert _expectation(ghz(), direction((1, 1, 1))) == pytest.approx(1.0)

    def test_stabilizer_yyx(self):
        assert _expectation(ghz(), direction((2, 2, 1))) == pytest.approx(-1.0)

    def test_maximally_mixed_marginal(self):
        # Trace out B and Charlie: rows and columns split into (A, B, C).
        marginal = np.einsum("abcdbc->ad", ghz().mat.reshape((2,) * 6))
        assert np.allclose(marginal, np.eye(2) / 2, atol=1e-12)

    def test_pure(self):
        rho = ghz()
        assert _expectation(rho, rho.mat) == pytest.approx(1.0, abs=1e-12)  # purity


class TestDensityMatrix:
    def test_rejects_unnormalized(self):
        with pytest.raises(ShapeError):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ShapeError):
            DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("qubits", [3.0, True, "3", None])
    def test_rejects_non_integer_qubits(self, qubits):
        message = f"qubits={qubits!r} outside supported range 1..3"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            DensityMatrix(qubits, ghz().mat)

    def test_numpy_integer_qubits_round_trip(self):
        rho = DensityMatrix(np.int64(2), np.eye(4) / 4)
        assert type(rho.qubits) is int and json.dumps(rho.qubits) == "2"

    def test_identity_equality_and_hash(self):
        rho = ghz()
        assert (ghz() == ghz()) is False and (rho == rho) is True
        assert len({ghz(), rho, rho}) == 2
        b = bloch_form(compress(rho)[0])
        assert b == b and b != bloch_form(compress(rho)[0])

    def test_accepts_real_matrices(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        assert _expectation(rho, rho.mat) == pytest.approx(0.5)

    @pytest.mark.parametrize("mat, message", [
        ([[1, 0], [0, 0]], "matrix is a list, not a numpy array"),
        (np.array([["1", "0"], ["0", "0"]]), "matrix dtype <U1 is not numeric"),
        (np.eye(2, dtype=bool), "matrix dtype bool is not numeric"),
    ])
    def test_rejects_non_numeric_arrays(self, mat, message):
        with pytest.raises(ShapeError) as err:
            DensityMatrix(1, mat)
        assert str(err.value) == message


def _failing(kind: str, rng) -> np.ndarray:
    """A two-qubit matrix that fails one check of `DensityMatrix` (or, for
    any other `kind`, a valid one)."""
    mat = random_density(rng, 2).mat.copy()
    if kind == "hermitian":
        mat[0, 1] += 1e-6
    elif kind == "trace":
        mat *= 1.001
    elif kind == "negative":
        mat = np.diag([0.6, 0.5, 0.1, -0.2]).astype(complex)
    elif kind == "nan":
        mat[1, 2] = np.nan
    return mat


def _error(call):
    """(type, message) of the error `call()` raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


_MESSAGES = {"hermitian": "density matrix is not Hermitian", "trace": "trace 1.001000000000",
             "negative": "negative eigenvalue -2.000e-01", "nan": "density matrix is not Hermitian"}
_KINDS = tuple(_MESSAGES)


class TestStackValidation:
    """Matrices validated one by one as `DensityMatrix`, in order: valid ones
    build, and the first invalid one raises its own ShapeError text."""

    @pytest.mark.parametrize("size, at", [(k, i) for k in range(1, 5) for i in range(k)])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_one_failing_member(self, size, at, kind):
        rng = np.random.default_rng(10 * size + at)
        mats = [random_density(rng, 2).mat for _ in range(size)]
        mats[at] = _failing(kind, rng)
        for mat in mats[:at]:
            DensityMatrix(2, mat)
        kind_error = _error(lambda: DensityMatrix(2, mats[at]))
        assert kind_error[0] is ShapeError
        assert kind_error[1].startswith(_MESSAGES[kind])

    @pytest.mark.parametrize("first, later", itertools.product(_KINDS, repeat=2))
    def test_first_failing_member_wins(self, first, later):
        rng = np.random.default_rng(7)
        mats = [random_density(rng, 2).mat for _ in range(4)]
        mats[1], mats[3] = _failing(first, rng), _failing(later, rng)
        assert _error(lambda: [DensityMatrix(2, m) for m in mats]) == \
            (ShapeError, _error(lambda: DensityMatrix(2, mats[1]))[1])

    @pytest.mark.parametrize("kinds", itertools.combinations(_KINDS, 2), ids="-".join)
    def test_checks_run_in_order(self, kinds):
        # Hermiticity (NaN fails it), then trace, then eigenvalues: a matrix
        # with two faults raises the text of the earlier check.
        rng = np.random.default_rng(9)
        mat = _failing("negative" if "negative" in kinds else "none", rng)
        if "trace" in kinds:
            mat *= 1.001
        if "hermitian" in kinds:
            mat[0, 1] += 1e-6
        if "nan" in kinds:
            mat[1, 2] = np.nan
        first = min(kinds, key=("hermitian", "nan", "trace", "negative").index)
        kind, message = _error(lambda: DensityMatrix(2, mat))
        assert kind is ShapeError and message.startswith(_MESSAGES[first])

    def test_valid_stack_passes(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            assert not DensityMatrix(3, random_density(rng, 3).mat.copy()).mat.flags.writeable

    def test_built_stack_equals_members_built_alone(self):
        rng = np.random.default_rng(5)
        c = np.stack([_ghz_diagonal(rng.dirichlet(np.ones(8)))[1] for _ in range(4)])
        for rho, c_k in zip(from_ghz_components(c), c):
            assert rho.qubits == 3 and not rho.mat.flags.writeable
            assert np.max(np.abs(rho.mat - from_ghz_components(c_k[None])[0].mat)) <= 1e-15

    def test_empty_stack_builds_no_states(self):
        assert from_ghz_components(np.zeros((0, 8))) == []

    def test_built_stack_rejects_invalid_member(self):
        c = np.array([GHZ_VALUES]) * [[1.0], [1.5], [1.0]]
        assert _error(lambda: from_ghz_components(c)) == \
            _error(lambda: from_ghz_components(c[1][None]))


def _ghz_basis():
    """The GHZ basis (|j> + |7-j>)/sqrt(2) and then (|j> - |7-j>)/sqrt(2),
    j = 0..3, as rows: the order of the weights diagonal + anti-diagonal,
    then diagonal - anti-diagonal."""
    kets = [ket(format(j, "03b")) for j in range(8)]
    return np.array([(kets[j] + sign * kets[7 - j]) / np.sqrt(2)
                     for sign in (1, -1) for j in range(4)])


def _ghz_diagonal(weights):
    """The matrix with GHZ-basis weights `weights` and its 8 GHZ components."""
    basis = _ghz_basis()
    mat = (basis.T * weights) @ basis.conj()
    return mat, pauli_tensor(mat)[GHZ_COMPONENTS]


# Per fault of a run state's components: the ShapeError `DensityMatrix`
# raises for it.  "outside": a component outside [-1, 1], the range of a
# Pauli expectation, which leaves a GHZ-basis weight below 0.
_RUN_FAILURES = {
    "outside": (ShapeError, "negative eigenvalue -3.125e-02"),
    "trace": (ShapeError, "trace 1.001000000000+0.000000000000j != 1"),
    "negative": (ShapeError, "negative eigenvalue -1.235e-01"),
}


def _failing_run_components(kind, worse=False):
    """GHZ components that fail one check of `states._state_entries`, the
    more so if `worse`, and the matrix they stand for, which `DensityMatrix`
    rejects with the same text."""
    weights = np.full(8, 1 / 8)
    if kind == "negative":
        weights[[2, 5]] = 1 / 4 + 0.123456 * (1 + worse), -0.123456 * (1 + worse)
    mat, c = _ghz_diagonal(weights * (1 + 0.001 * (1 + worse) if kind == "trace" else 1.0))
    if kind == "outside":
        c = np.eye(8)[0] + (1.25 + worse) * np.eye(8)[2]  # I/8 with XXX = 1.25
        mat = full_product_states(c[None])[0]
    return c, mat


class TestRunTensors:
    """Closed-form validation of run states from their 8 GHZ components by
    one check, `states._state_entries`, on a run's floats per pair or on
    the columns of a stack (`oracles.stack_entries`): a state's eigenvalues
    are its GHZ-basis weights, its diagonal entries plus or minus its
    anti-diagonal ones (`states._ENTRY_SIGNS`).  Faults enter as component
    values: a trace (III) off 1, or a component outside [-1, 1] or a
    weight below 0."""

    def test_spectrum_holds_ghz_basis_eigenvalues(self):
        # Each component product maps GHZ basis vector j (and 4+j) to 8 times
        # its [j, j] + [j, 7-j] (and [j, j] - [j, 7-j]) entries times itself.
        basis, signs = _ghz_basis(), np.array(states._ENTRY_SIGNS).T  # (component, entry)
        for row, idx in enumerate(np.argwhere(GHZ_COMPONENTS)):
            for k, v in enumerate(basis):
                j, sign = k % 4, 1 - 2 * (k // 4)
                want = 8 * (signs[row, j] + sign * signs[row, 4 + j])
                assert np.array_equal(direction(idx) @ v, want * v)
        assert np.count_nonzero(signs) == 32 and set(np.abs(signs).ravel()) == {0.0, 0.125}
        assert isinstance(states._ENTRY_SIGNS, tuple)
        assert all(isinstance(row, tuple) and all(type(x) is float for x in row)
                   for row in states._ENTRY_SIGNS)

    def test_sign_tables_are_product_entries(self):
        # Each row of `_ENTRY_SIGNS` holds one entry of the 8 component
        # products over 8: [j, j], then [j, 7-j].  Each row of
        # `_T_AXIS_SIGNS` sums them to the compressed AB qubit's Pauli on
        # span{|00>, |11>} tensor Charlie's.  Zeros are +0.0, as the sums'
        # bits of a run with exact zero components depend on it.
        products = PAULI_PRODUCTS[3][GHZ_COMPONENTS]
        j = np.arange(4)
        want = np.vstack([products[:, j, j].T, products[:, j, 7 - j].T]) / 8
        entries = np.array(states._ENTRY_SIGNS)
        assert np.array_equal(entries, want.real) and not want.imag.any()
        iso = np.zeros((4, 2))
        iso[0, 0] = iso[3, 1] = 1.0  # |00> and |11> as the compressed qubit's |0> and |1>
        t_signs = np.array(states._T_AXIS_SIGNS)
        for axis, row in zip(range(1, 4), t_signs):
            sigma = PAULI_PRODUCTS[1][axis]
            assert np.array_equal(np.einsum("i,iab->ab", row, products),
                                  np.kron(iso @ sigma @ iso.T, sigma))
        for table in (entries, t_signs):
            assert not np.signbit(table[table == 0.0]).any()
        assert all(type(x) is float for row in states._T_AXIS_SIGNS for x in row)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("at", [1, 2, 7])
    def test_non_finite_component_fails_alike_as_floats_and_columns(self, value, at):
        # Warnings as errors: an infinite component times a zero sign is a
        # NaN entry, which numpy warns of on a column, and the ellipsoid
        # series and a run refuse it with the same text as one member's
        # floats.  The component enters through the one damping kernel.
        c = [1.0] + [0.0] * 7
        c[at] = value
        want = (ShapeError, "negative eigenvalue nan")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _error(lambda: states._state_entries(c)) == want
            real = measurement._damped

            def faulty(c, *args):
                c = real(c, *args)
                c[at] = c[at] + value
                return c

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(scenario, "_damped", faulty)
                assert _error(lambda: scenario.ellipsoid_series([(0.5, 0.8)] * 3)) == want
                for mode in ("nonlocal", "local"):
                    assert _error(lambda: run_scenario(make_config(mode, [0.5, 0.8]))) == want

    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    def test_closed_form_min_eigenvalue_equals_eigvalsh(self, mode, monkeypatch):
        # The least GHZ-basis weight of each state a run validates, pair by
        # pair, against eigvalsh of the state the run builds from it.
        seen = []
        real = scenario._state_entries
        monkeypatch.setattr(scenario, "_state_entries",
                            lambda c: seen.append(real(c)) or seen[-1])
        rng = np.random.default_rng(91)
        worst = 0.0
        for pairs in [1, 2, 3, 4] * 100:
            results = run_scenario(make_config(mode, rng.uniform(0, 1, (pairs, 2)).tolist()))
            entries = np.array(seen)
            seen.clear()
            closed = (entries[:, :4] - np.abs(entries[:, 4:])).min(axis=1)
            for r, low in zip(results, closed):
                worst = max(worst, abs(np.linalg.eigvalsh(r.state.mat)[0] - low))
        assert worst <= 1e-15

    @pytest.mark.parametrize("kind", ["trace", "negative"])
    def test_error_text_of_density_matrix(self, kind):
        c, mat = _failing_run_components(kind)
        want = _error(lambda: DensityMatrix(3, mat))
        assert want == _RUN_FAILURES[kind]
        assert _error(lambda: stack_entries(c[None])) == want

    @pytest.mark.parametrize("at", [0, 1, 3])
    @pytest.mark.parametrize("idx", [(2, 1.25), (5, -1.5), (1, 3.0)])
    def test_entry_outside_components_names_its_pair(self, at, idx):
        # Component idx[0] of pair at+1 set to idx[1], outside [-1, 1]: the
        # stack raises the text of that pair's own state.
        c = np.stack([GHZ_VALUES] * 4)
        c[at, idx[0]] = idx[1]
        want = _error(lambda: DensityMatrix(3, full_product_states(c[at][None])[0]))
        assert want[1].startswith("negative eigenvalue -")
        assert _error(lambda: stack_entries(c)) == want

    @pytest.mark.parametrize("first, later", itertools.product(_RUN_FAILURES, repeat=2))
    def test_first_failing_member_wins(self, first, later):
        c = np.stack([_ghz_diagonal(np.full(8, 1 / 8))[1]] * 4)
        c[1], c[3] = _failing_run_components(first)[0], _failing_run_components(later, True)[0]
        assert _error(lambda: stack_entries(c)) == _RUN_FAILURES[first]

    def test_valid_and_empty_stacks_pass(self):
        rng = np.random.default_rng(12)
        c = np.stack([_ghz_diagonal(rng.dirichlet(np.ones(8)))[1] for _ in range(5)])
        assert stack_entries(c).shape == (5, 8)
        assert stack_entries(np.zeros((0, 8))).shape == (0, 8)

    @pytest.mark.parametrize("c, message", [
        ([list(GHZ_VALUES)], "GHZ component stack is a list, not a numpy array"),
        (np.array([["1"] * 8]), "GHZ component stack dtype <U1 is not real"),
        (np.array([GHZ_VALUES]) + 0j, "GHZ component stack dtype complex128 is not real"),
        (np.array(GHZ_VALUES), "run states expect (k, 8) GHZ components, got (8,)"),
        (np.zeros((1, 4, 4, 4)), "run states expect (k, 8) GHZ components, got (1, 4, 4, 4)"),
    ])
    def test_rejects_other_stacks(self, c, message):
        # The input checks of the oracle's stack build; the package's check
        # takes only a run's own floats or columns.
        assert _error(lambda: from_ghz_components(c)) == (ShapeError, message)


# Where each GHZ component lands in a compressed tensor: the AB
# populations II and ZZ on [0, 0], ZI and IZ on [3, 3], XX and YY on [1, 1],
# XY and YX on [2, 2], each with Charlie's matching Pauli.
_LANDS = {(0, 0, 0): 0, (3, 3, 0): 0, (0, 3, 3): 3, (3, 0, 3): 3,
          (1, 1, 1): 1, (2, 2, 1): 1, (1, 2, 2): 2, (2, 1, 2): 2}


class TestRunStateSupport:
    """A run state is built on `SUPPORT` alone, its mirrored entries equal by
    construction, within rounding of the full 64-product build and of the
    Kraus chain, and its compression is diagonal: the facts that let
    `states._state_entries` be the one check of a run's invariant."""

    def test_states_match_full_product_to_1e15_on_support_and_zero_off_it(self):
        rng = np.random.default_rng(2028)
        special = [0.0, 1.0, 5e-324, 1e-310, 7e-5]
        runs = 0
        for mode in ("nonlocal", "local"):
            labels = ["x", "-x", "y", "-y"] + (["z", "-z"] if mode == "nonlocal" else [])
            for k in range(400):
                lams = [[float(rng.choice(special)) if rng.uniform() < 0.3 else rng.uniform()
                         for _ in range(2)] for _ in range(k % 4 + 1)]
                cfg = make_config(mode, lams,
                                  charlie_directions=tuple(rng.choice(labels, 2).tolist()))
                with run_components() as seen:
                    results = run_scenario(cfg)
                mats = np.stack([r.state.mat for r in results])
                h = cfg.strengths
                kraus = np.stack([rho for _, rho in chain(mode, cfg.charlie_directions,
                                                          h.lambdas, h.etas, h.gammas)])
                off, unlike, gap = support_faults(mats, kraus)
                assert (off, unlike) == (0, 0) and gap <= 1e-15
                assert np.max(np.abs(mats - full_product_states(seen[0]))) <= 1e-15
                runs += 1
        assert runs == 800

    @pytest.mark.parametrize("component", [tuple(i) for i in np.argwhere(GHZ_COMPONENTS).tolist()])
    def test_ghz_component_compresses_onto_one_diagonal_entry(self, component):
        # 2 III alone compresses to [0, 0] = 1 with weight 1, the least a
        # compression accepts; the component adds to one diagonal entry,
        # whose T entry `states._t_state_diagonal` gives from the component alone.
        row = np.flatnonzero(GHZ_COMPONENTS).tolist().index(np.ravel_multi_index(component, (4,) * 3))
        value = GHZ_VALUES[row]
        t = np.zeros((4, 4, 4))
        t[0, 0, 0] = 2.0
        t[component] += value / 2
        small = compressed_tensors(t[None])[0][0]
        land = _LANDS[component]
        assert np.flatnonzero(small.view(np.int64)).tolist() == sorted({0, 5 * land})
        alone = np.zeros((1, 8))
        alone[0, row] = value
        assert np.array_equal(stack_diagonals(alone)[0], 2 * small.diagonal()[1:])


class TestCompress:
    def test_ghz_becomes_bell(self):
        rho4, weight = compress(ghz())
        psi = (ket("00") + ket("11")) / np.sqrt(2)
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho4.mat - np.outer(psi, psi.conj()))) <= 1e-12
        assert _expectation(rho4, rho4.mat) == pytest.approx(1.0, abs=1e-10)

    def test_post_measurement_state_stays_supported(self):
        rho = run_scenario(make_config("nonlocal", [[0.7, 0.3]]))[0].state
        _, weight = compress(rho)
        assert weight == pytest.approx(1.0, abs=1e-12)
        # Every direction a nonlocal pair measures maps span{|00>, |11>} into
        # itself: all 36 signed x/y/z Charlie direction pairs, with seeded
        # 1-4-pair histories, keep every state's weight there.
        rng = np.random.default_rng(41)
        labels = ["x", "-x", "y", "-y", "z", "-z"]
        for directions in itertools.product(labels, repeat=2):
            for pairs in [1, 2, 3, 4] * 5:
                cfg = make_config("nonlocal", rng.uniform(0, 1, (pairs, 2)).tolist(),
                                  charlie_directions=directions)
                t = np.stack([pauli_tensor(r.state.mat) for r in run_scenario(cfg)])
                _, weights = compressed_tensors(t)
                assert np.max(np.abs(weights - 1)) <= 1e-15

    def test_w_state_not_compressible(self):
        psi = (ket("001") + ket("010") + ket("100")) / np.sqrt(3)
        w = DensityMatrix(3, np.outer(psi, psi.conj()))
        with pytest.raises(NotCompressibleError):
            compress(w)


class TestPauliTensor:
    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_entries_are_pauli_expectations(self, qubits):
        rho = random_density(np.random.default_rng(qubits), qubits)
        t = pauli_tensor(rho.mat)
        for idx in itertools.product(range(4), repeat=qubits):
            want = _expectation(rho, direction(idx))
            assert abs(t[idx] - want) <= 1e-15

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_round_trip(self, qubits):
        rho = random_density(np.random.default_rng(10 + qubits), qubits)
        again = state_from_tensor(pauli_tensor(rho.mat))
        assert np.max(np.abs(again.mat - rho.mat)) <= 1e-15

    def test_ghz_tensor(self):
        # Nonzero entries: 1 at III, +1 at IZZ, ZIZ, ZZI, XXX and -1 at the
        # three Y-Y-X placements, exactly in `GHZ_VALUES` and up to float
        # rounding of the GHZ amplitudes in the projector's tensor.
        want = np.zeros((4, 4, 4))
        for idx in [(0, 0, 0), (0, 3, 3), (3, 0, 3), (3, 3, 0), (1, 1, 1)]:
            want[idx] = 1.0
        for idx in [(1, 2, 2), (2, 1, 2), (2, 2, 1)]:
            want[idx] = -1.0
        assert np.max(np.abs(pauli_tensor(ghz().mat) - want)) <= 1e-15
        assert np.array_equal(GHZ_COMPONENTS, want != 0)
        assert GHZ_VALUES == tuple(want[GHZ_COMPONENTS].tolist())
        assert all(type(x) is float for x in GHZ_VALUES) and not GHZ_COMPONENTS.flags.writeable

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            pauli_tensor(np.eye(3, dtype=complex))
        with pytest.raises(ShapeError):
            from_ghz_components(np.zeros((4, 4, 4, 4))[None])
        # Arguments that are not numeric numpy arrays, each with its message.
        for call, arg, message in [
            (pauli_tensor, [[1, 0], [0, 0]], "matrix is a list, not a numpy array"),
            (pauli_tensor, np.array([["1", "0"], ["0", "0"]]), "matrix dtype <U1 is not numeric"),
            (pauli_tensor, np.eye(2, dtype=bool), "matrix dtype bool is not numeric"),
            (pauli_tensor, np.array(0.5), "matrix shape () is not that of 1-3 qubits"),
            (from_ghz_components, [[1, 0, 0, 0]], "GHZ component stack is a list, not a numpy array"),
            (from_ghz_components, np.array([["1", "0", "0", "0"]]),
             "GHZ component stack dtype <U1 is not real"),
            (from_ghz_components, np.array([[1, 0, 0, 0j]]),
             "GHZ component stack dtype complex128 is not real"),
        ]:
            with pytest.raises(ShapeError) as err:
                call(arg)
            assert str(err.value) == message


class TestCompressedBloch:
    @pytest.mark.parametrize("zero, one", [("00", "11")])
    def test_matches_compress_then_bloch_form(self, zero, one):
        # A random state supported on span{|zero>, |one>} x C2, against the
        # definition t[a, c] = Tr(rho (V sigma_a V^dag) x sigma_c), where V
        # maps the compressed qubit's |0~>, |1~> to |zero>, |one>.
        small = random_density(np.random.default_rng(int(zero + one, 2)), 2).mat
        idx = [int(k + c, 2) for k in (zero, one) for c in "01"]
        mat = np.zeros((8, 8), dtype=complex)
        mat[np.ix_(idx, idx)] = small
        v = np.stack([ket(zero), ket(one)], axis=1)
        paulis = (I2,) + PAULIS
        t = np.array([[np.trace(mat @ np.kron(v @ a @ v.conj().T, c)).real for c in paulis]
                      for a in paulis])
        got = bloch_form(compress(DensityMatrix(3, mat))[0])
        for x, want in ((got.m_tilde, t[1:, 0]), (got.n_vec, t[0, 1:]), (got.T, t[1:, 1:])):
            assert np.max(np.abs(x - want)) <= 1e-15

    @pytest.mark.parametrize("kets, weight", [(("001", "010", "100"), "0.333333333333"),
                                              (("010",), "0.000000000000")])
    def test_not_compressible_message_matches_compress(self, kets, weight):
        psi = sum(ket(k) for k in kets) / np.sqrt(len(kets))
        rho = DensityMatrix(3, np.outer(psi, psi.conj()))
        with pytest.raises(NotCompressibleError) as err:
            compress(rho)
        assert str(err.value) == f"only {weight} of the state lies in span{{|00>, |11>}} x C2"


_GHZ_TENSOR = np.zeros((4, 4, 4))
_GHZ_TENSOR[GHZ_COMPONENTS] = GHZ_VALUES


class TestCompressedTensors:
    def test_members_equal_lone_calls(self):
        # Random states supported on span{|00>, |11>} x C2.
        rng = np.random.default_rng(3)
        idx = [int(k + c, 2) for k in ("00", "11") for c in "01"]
        states = []
        for _ in range(4):
            mat = np.zeros((8, 8), dtype=complex)
            mat[np.ix_(idx, idx)] = random_density(rng, 2).mat
            states.append(DensityMatrix(3, mat))
        t = np.stack([pauli_tensor(rho.mat) for rho in states])
        small, weights = compressed_tensors(t)
        for k, rho in enumerate(states):
            alone, w = compressed_tensors(t[k][None])
            assert np.array_equal(small[k], alone[0]) and weights[k] == w[0]
            b = bloch_form(compress(rho)[0])
            assert np.max(np.abs(small[k, 1:, 0] - b.m_tilde)) <= 1e-15
            assert np.max(np.abs(small[k, 0, 1:] - b.n_vec)) <= 1e-15
            assert np.max(np.abs(small[k, 1:, 1:] - b.T)) <= 1e-15

    @pytest.mark.parametrize("size, at", [(k, i) for k in range(1, 5) for i in range(k)])
    def test_not_compressible_message_matches_compress(self, size, at):
        # Members at and after `at` leak weight out of span{|00>, |11>} x C2,
        # each a different amount.
        leak = np.zeros((8, 8), dtype=complex)
        leak[2, 2] = 1.0
        states = [ghz()] * at + [DensityMatrix(3, (1 - j / 8) * ghz().mat + j / 8 * leak)
                                 for j in range(at + 1, size + 1)]
        want = _error(lambda: compress(states[at]))
        assert want[0] is NotCompressibleError
        t = np.stack([pauli_tensor(rho.mat) for rho in states])
        assert _error(lambda: compressed_tensors(t)) == want

    @pytest.mark.parametrize("t", [_GHZ_TENSOR, _GHZ_TENSOR[None, 0], _GHZ_TENSOR[None, None],
                                   np.zeros((2, 4, 4, 3)), _GHZ_TENSOR[None].tolist(),
                                   _GHZ_TENSOR[None] + 0j],
                             ids=["unstacked", "2-qubit", "4-qubit", "short-axis", "list",
                                  "complex"])
    def test_rejects_other_stacks(self, t):
        with pytest.raises(ShapeError):
            compressed_tensors(t)

    def test_compress_rejects_two_qubit_state(self):
        with pytest.raises(ShapeError):
            compress(DensityMatrix(2, np.eye(4) / 4))


class TestBlochForm:
    def test_compressed_ghz(self):
        rho4, _ = compress(ghz())
        b = bloch_form(rho4)
        assert np.allclose(b.m_tilde, 0, atol=1e-12)
        assert np.allclose(b.n_vec, 0, atol=1e-12)
        assert np.allclose(b.T, np.diag([1, -1, 1]), atol=1e-12)

    def test_maximally_mixed(self):
        b = bloch_form(DensityMatrix(2, np.eye(4, dtype=complex) / 4))
        assert np.allclose(b.m_tilde, 0) and np.allclose(b.n_vec, 0)
        assert np.allclose(b.T, 0)

    def test_product_state(self):
        rho = DensityMatrix(2, np.outer(ket("00"), ket("00")).astype(complex))
        b = bloch_form(rho)
        assert np.allclose(b.m_tilde, [0, 0, 1], atol=1e-12)
        assert np.allclose(b.n_vec, [0, 0, 1], atol=1e-12)
        assert np.allclose(b.T, np.diag([0, 0, 1]), atol=1e-12)

    def test_matches_per_pauli_expectations(self):
        # Reference: one kron'd Pauli product and one trace per coefficient.
        rng = np.random.default_rng(19)
        for _ in range(100):
            rho = random_density(rng, 2)
            b = bloch_form(rho)
            m = [_expectation(rho, np.kron(p, I2)) for p in PAULIS]
            n = [_expectation(rho, np.kron(I2, p)) for p in PAULIS]
            T = [[_expectation(rho, np.kron(p, q)) for q in PAULIS] for p in PAULIS]
            assert np.max(np.abs(b.m_tilde - m)) <= 1e-14
            assert np.max(np.abs(b.n_vec - n)) <= 1e-14
            assert np.max(np.abs(b.T - T)) <= 1e-14

    def test_bounded_invariants(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            b = bloch_form(random_density(rng, 2))
            assert np.linalg.norm(b.m_tilde) <= 1 + 1e-9
            assert np.linalg.norm(b.n_vec) <= 1 + 1e-9
            assert np.max(np.abs(b.T)) <= 1 + 1e-9
