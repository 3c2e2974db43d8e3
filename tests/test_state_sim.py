import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gate_helpers import apply_ms, apply_rotation, sampled_expectation
from pcelabs.pauli_algebra import PauliString
from pcelabs import state_sim
from pcelabs.state_sim import (
    AnsatzSpec,
    expectations_batch,
    inverse_turns,
    pauli_tables,
    run_ansatz_batch,
    step_tables,
    turn,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_1Q = {"X": X, "Y": Y, "Z": Z}


def dense_pauli(label: str) -> np.ndarray:
    # leftmost letter is qubit 0, which is the least significant index
    # bit, so it goes rightmost in the kron product
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(np.eye(2) if ch == "I" else PAULI_1Q[ch], out)
    return out


def embed_1q(mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    # bit q of the index is qubit q, so qubit 0 sits rightmost in the product
    out = np.array([[1.0 + 0j]])
    for q in range(n - 1, -1, -1):
        out = np.kron(out, mat if q == qubit else np.eye(2))
    return out


def random_state(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("qubit", [0, 1, 2])
def test_rotation_matches_dense_exponential(axis, qubit, rng):
    n, theta = 3, 0.7321
    psi = random_state(rng, n)
    sigma = PAULI_1Q[axis.upper()]
    u = expm(-0.5j * theta * embed_1q(sigma, qubit, n))
    np.testing.assert_allclose(apply_rotation(psi, axis, qubit, theta), u @ psi, atol=1e-12)


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2)])
def test_ms_matches_dense_exponential(pair, rng):
    n, theta = 3, -1.234
    psi = random_state(rng, n)
    xx = embed_1q(X, pair[0], n) @ embed_1q(X, pair[1], n)
    u = expm(-0.5j * theta * xx)
    np.testing.assert_allclose(apply_ms(psi, pair[0], pair[1], theta), u @ psi, atol=1e-12)


def test_param_counts():
    assert AnsatzSpec(4, 15).param_count == 150
    assert AnsatzSpec(3, 4).param_count == 28


def test_brick_pairs_alternate_and_wrap():
    spec = AnsatzSpec(4, 2)
    assert spec.brick_pairs(0) == [(0, 1), (2, 3)]
    assert spec.brick_pairs(1) == [(1, 2), (3, 0)]
    odd = AnsatzSpec(5, 2)
    assert odd.brick_pairs(0) == [(0, 1), (2, 3)]
    assert odd.brick_pairs(1) == [(1, 2), (3, 4)]


def test_gate_program_shape():
    spec = AnsatzSpec(4, 3)
    program = spec.gate_program()
    # perm[0] of a generator table is its X mask: one qubit for RX and RY,
    # two for MS
    weights = np.bitwise_count(program.perms[:, 0])
    rotations = np.count_nonzero(weights == 1)
    ms_gates = np.count_nonzero(weights == 2)
    assert rotations == 4 * 2 * 3
    assert ms_gates == 6
    # gate g turns by theta[g]: one angle per gate
    assert rotations + ms_gates == len(program.perms) == spec.param_count
    assert program.coeffs.shape == program.perms.shape


def gate_by_gate(spec, theta):
    """The circuit output one gate at a time: RX and RY on every qubit, then
    the layer's bricks."""
    psi = np.eye(1 << spec.n, dtype=complex)[0]  # |0...0>
    k = 0
    for layer in range(spec.layers):
        for axis in ("x", "y"):
            for q in range(spec.n):
                psi = apply_rotation(psi, axis, q, theta[k])
                k += 1
        for a, b in spec.brick_pairs(layer):
            psi = apply_ms(psi, a, b, theta[k])
            k += 1
    assert k == spec.param_count
    return psi


def test_ansatz_against_dense_reference(rng):
    """Whole-circuit check: gate-by-gate dense linear algebra."""
    spec = AnsatzSpec(3, 2)
    theta = rng.uniform(-np.pi, np.pi, spec.param_count)
    want = gate_by_gate(spec, theta)
    np.testing.assert_allclose(run_ansatz_batch(spec, theta)[0], want, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fused_forward_matches_gate_by_gate(n, rows, rng):
    """One turn per RX.RY pair gives the gate-by-gate state, with a lone
    qubit outside every brick (odd n) and with the wrap pair (even n)."""
    spec = AnsatzSpec(n, 4)
    thetas = rng.uniform(-np.pi, np.pi, (rows, spec.param_count))
    for state, theta in zip(run_ansatz_batch(spec, thetas), thetas):
        np.testing.assert_allclose(state, gate_by_gate(spec, theta), atol=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_forward_pass_turns_once_per_qubit_and_brick(n, monkeypatch):
    """A layer is n fused rotations and its bricks: n L + M turns in all."""
    spec = AnsatzSpec(n, 5)
    calls = []
    real = state_sim.turn
    monkeypatch.setattr(state_sim, "turn", lambda *args: calls.append(real(*args)))
    run_ansatz_batch(spec, np.zeros((2, spec.param_count)))
    bricks = sum(len(spec.brick_pairs(layer)) for layer in range(spec.layers))
    assert len(calls) == n * spec.layers + bricks


def test_each_turn_is_undone_by_its_inverse(rng):
    """The inverse of every turn is (conj d, conj(w)[perm]), and a turn
    followed by it gives the identity."""
    spec = AnsatzSpec(4, 2)
    thetas = rng.uniform(-np.pi, np.pi, (3, spec.param_count))
    perms, diags, weights = step_tables(spec, thetas)
    _, inverse = inverse_turns(spec, thetas)
    for perm, diag, weight, (undo_diag, undo_weight) in zip(perms, diags, weights, inverse):
        np.testing.assert_array_equal(undo_diag, diag.conj())
        np.testing.assert_array_equal(undo_weight, weight[:, perm].conj())
        psi = np.stack([random_state(rng, 4) for _ in range(3)])
        state = psi.copy()
        turn(state, perm, weight, diag)
        turn(state, perm, undo_weight, undo_diag)
        np.testing.assert_allclose(state, psi, rtol=0, atol=1e-15)


def test_inverse_turns_fill_every_copy_of_an_out_with_more_axes(rng):
    """The sweep keeps each inverse table once for psi and once for lam:
    an out of shape (T, 2, 2, B, 2^n) holds the (T, 2, B, 2^n) tables in
    both copies."""
    spec = AnsatzSpec(3, 2)
    thetas = rng.uniform(-np.pi, np.pi, (2, spec.param_count))
    _, inverse = inverse_turns(spec, thetas)
    out = np.full((len(inverse), 2, 2, *inverse.shape[2:]), np.nan, dtype=complex)
    inverse_turns(spec, thetas, out)
    for copy in range(2):
        np.testing.assert_array_equal(out[:, :, copy], inverse)


def test_step_tables_follow_the_angle_values(rng):
    """The tables kept from the last step are not reused once its angle
    matrix has changed in place."""
    spec = AnsatzSpec(3, 2)
    thetas = rng.uniform(-np.pi, np.pi, (2, spec.param_count))
    run_ansatz_batch(spec, thetas)
    thetas[1, 4] += 0.5
    np.testing.assert_allclose(
        run_ansatz_batch(spec, thetas)[1], gate_by_gate(spec, thetas[1]), atol=1e-12
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_ansatz_preserves_norm(seed):
    spec = AnsatzSpec(4, 3)
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, spec.param_count)
    psi = run_ansatz_batch(spec, theta)[0]
    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12


def test_norm_check_catches_a_drift_of_5e6(monkeypatch):
    """One turn table scaled by 1 + 5e-6 moves every norm by 5e-6: within
    numpy's default rtol of 1e-5, but beyond the 1e-9 the check names."""
    spec = AnsatzSpec(4, 2)
    theta = np.random.default_rng(3).uniform(-np.pi, np.pi, spec.param_count)
    run_ansatz_batch(spec, theta)
    real = state_sim.step_tables

    def drifting(spec, thetas):
        perms, diags, weights = real(spec, thetas)
        diags, weights = diags.copy(), weights.copy()  # the real tables are cached
        diags[0] *= 1 + 5e-6
        weights[0] *= 1 + 5e-6
        return perms, diags, weights

    monkeypatch.setattr(state_sim, "step_tables", drifting)
    with pytest.raises(AssertionError, match="1e-9"):
        run_ansatz_batch(spec, theta)


def test_run_ansatz_batch_matches_loop(rng):
    spec = AnsatzSpec(3, 3)
    thetas = rng.uniform(-np.pi, np.pi, (5, spec.param_count))
    batch = run_ansatz_batch(spec, thetas)
    for b in range(5):
        np.testing.assert_allclose(batch[b], run_ansatz_batch(spec, thetas[b])[0], atol=1e-12)


@pytest.mark.parametrize("label", ["ZII", "IXI", "YYZ", "XYZ", "IIY"])
def test_expectation_matches_dense_quadratic_form(label, rng):
    psi = random_state(rng, 3)
    p = PauliString.from_label(label)
    want = np.vdot(psi, dense_pauli(label) @ psi).real
    assert expectations_batch(psi, [p])[0, 0] == pytest.approx(want, abs=1e-12)


def test_expectations_batch_matches_loop(rng):
    paulis = [PauliString.from_label(s) for s in ["XIZ", "ZZY", "IYI"]]
    states = np.stack([random_state(rng, 3) for _ in range(4)])
    batch = expectations_batch(states, paulis)
    assert batch.shape == (4, 3)
    for b in range(4):
        for i, p in enumerate(paulis):
            want = expectations_batch(states[b], [p])[0, 0]
            assert batch[b, i] == pytest.approx(want, abs=1e-12)


def test_expectations_batch_takes_one_pauli_list_per_row(rng):
    lists = [["XIZ", "ZZY"], ["IYI", "XXX"], ["ZII", "IZZ"]]
    paulis = [[PauliString.from_label(s) for s in labels] for labels in lists]
    states = np.stack([random_state(rng, 3) for _ in range(3)])
    tables = pauli_tables(paulis, 8)
    assert tables.perms.shape == tables.coeffs.shape == (3, 2, 8)
    batch = expectations_batch(states, tables)
    for b in range(3):
        np.testing.assert_array_equal(batch[b], expectations_batch(states[b], paulis[b])[0])


def test_sampled_expectation_on_eigenstate(rng):
    # |000> is a Z eigenstate: finite shots still give exactly +1
    psi = np.eye(8, dtype=complex)[0]
    p = PauliString.from_label("ZZI")
    assert sampled_expectation(psi, p, 64, rng) == 1.0


def test_sampled_expectation_converges(rng):
    psi = random_state(rng, 3)
    p = PauliString.from_label("XYZ")
    exact = expectations_batch(psi, [p])[0, 0]
    est = np.mean([sampled_expectation(psi, p, 4096, rng) for _ in range(32)])
    assert abs(est - exact) < 4 / np.sqrt(4096 * 32)


def test_sampled_expectation_deterministic_per_seed():
    spec = AnsatzSpec(3, 1)
    psi = run_ansatz_batch(spec, np.linspace(-1, 1, spec.param_count))[0]
    p = PauliString.from_label("XZY")
    a = sampled_expectation(psi, p, 100, np.random.default_rng(9))
    b = sampled_expectation(psi, p, 100, np.random.default_rng(9))
    assert a == b


def test_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec(1, 3)
    with pytest.raises(ValueError):
        AnsatzSpec(3, 0)
