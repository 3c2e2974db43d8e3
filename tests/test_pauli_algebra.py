import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sampler_oracle
from pcelabs import pauli_algebra
from pcelabs.pauli_algebra import (
    MAX_QUBITS,
    _score_candidates,
    _sym_parity_array,
    PauliString,
    SetSamplingError,
    sample_anticommuting_set,
    sample_commuting_set,
)
from sampler_oracle import commutes, mub_partition

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(p: PauliString) -> np.ndarray:
    # leftmost label symbol is qubit 0, the least significant index bit
    out = np.array([[1.0 + 0j]])
    for ch in p.to_label():
        out = np.kron(SINGLE[ch], out)
    return out


def labels(n, min_weight=1):
    alphabet = st.sampled_from("IXYZ")
    return st.lists(alphabet, min_size=n, max_size=n).map("".join).filter(
        lambda s: sum(c != "I" for c in s) >= min_weight
    )


@given(labels(3))
def test_label_round_trip(label):
    assert PauliString.from_label(label).to_label() == label


def test_identity_rejected():
    with pytest.raises(ValueError):
        PauliString.from_label("III")


@given(labels(3), labels(3))
def test_commutes_matches_dense_matrices(la, lb):
    p, q = PauliString.from_label(la), PauliString.from_label(lb)
    bracket = dense(p) @ dense(q) - dense(q) @ dense(p)
    assert commutes(p, q) == bool(np.allclose(bracket, 0))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mub_partition_properties(n):
    """2^n + 1 classes of 2^n - 1 mutually commuting strings that
    together cover every nonidentity string exactly once."""
    classes = mub_partition(n)
    assert len(classes) == 2**n + 1
    seen = set()
    for cls in classes:
        assert len(cls) == 2**n - 1
        members = list(cls)
        for i, p in enumerate(members):
            for q in members[i + 1 :]:
                assert commutes(p, q)
        seen.update((p.x_mask, p.z_mask) for p in members)
    assert len(seen) == 4**n - 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mub_classes_are_closed_under_products(n):
    # each class with identity forms a group: product of two members
    # lands back in the class
    for cls in mub_partition(n):
        codes = {(p.x_mask, p.z_mask) for p in cls}
        members = list(cls)
        for p in members:
            for q in members:
                prod = (p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask)
                if prod != (0, 0):
                    assert prod in codes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_anticommuting_reaches_cap(n, rng):
    cap = 2 * n + 1
    s = sample_anticommuting_set(n, cap, rng)
    assert s.strict_count == cap
    for i in range(cap):
        for j in range(i + 1, cap):
            assert not commutes(s[i], s[j])


@pytest.mark.parametrize("n", [2, 3])
def test_anticommuting_beyond_cap_fills_with_fallback(n, rng):
    count = 2 * n + 4
    s = sample_anticommuting_set(n, count, rng)
    assert len(s) == count
    assert s.strict_count == 2 * n + 1
    strict = s.paulis[: s.strict_count]
    for i, p in enumerate(strict):
        for q in strict[i + 1 :]:
            assert not commutes(p, q)


def test_commuting_strict_cap(rng):
    n = 3
    s = sample_commuting_set(n, 2**n - 1, rng)
    assert s.strict_count == 2**n - 1
    for i, p in enumerate(s.paulis):
        for q in s.paulis[i + 1 :]:
            assert commutes(p, q)


def test_commuting_overflow_uses_fallback(rng):
    n = 2
    s = sample_commuting_set(n, 6, rng)
    assert len(s) == 6
    assert s.strict_count == 3


def test_sampling_is_deterministic_per_seed():
    a = sample_anticommuting_set(4, 13, np.random.default_rng(5))
    b = sample_anticommuting_set(4, 13, np.random.default_rng(5))
    assert [p.to_label() for p in a] == [p.to_label() for p in b]


def test_distinct_seeds_usually_differ():
    a = sample_anticommuting_set(4, 13, np.random.default_rng(1))
    b = sample_anticommuting_set(4, 13, np.random.default_rng(2))
    assert [p.to_label() for p in a] != [p.to_label() for p in b]


def test_count_validation(rng):
    with pytest.raises(ValueError):
        sample_anticommuting_set(3, 0, rng)
    with pytest.raises(ValueError):
        sample_commuting_set(0, 1, rng)
    for sampler in (sample_anticommuting_set, sample_commuting_set):
        with pytest.raises(ValueError, match="qubit count must be in"):
            sampler(MAX_QUBITS + 1, 5, rng)


GOLDEN_SETS = json.loads((Path(__file__).parent / "data" / "pce_golden.json").read_text())["sampler"]
SAMPLERS = {"anticommuting": sample_anticommuting_set, "commuting": sample_commuting_set}


@pytest.mark.parametrize(
    "case", GOLDEN_SETS, ids=lambda c: f"N{c['N']}-{c['mode']}-seed{c['seed']}"
)
def test_samplers_match_golden_sets(case):
    # the set and the generator state it leaves behind are both pinned
    rng = np.random.default_rng(case["seed"])
    assert SAMPLERS[case["mode"]](4, case["N"], rng).to_dict() == case["set"]
    assert int(rng.integers(2**62)) == case["next_draw"]


@pytest.mark.parametrize("want", [0, 1])
def test_score_candidates_matches_per_string_loop(want, rng):
    n = 3
    accepted = [(int(x), int(z)) for x, z in rng.integers(0, 1 << n, (9, 2)) if x or z]
    codes = np.arange(1, 1 << (2 * n), dtype=np.int64)
    loop = np.zeros(codes.size, dtype=np.int64)
    for x_mask, z_mask in accepted:
        loop += _sym_parity_array(codes, x_mask, z_mask, n) == want
    np.testing.assert_array_equal(_score_candidates(n, accepted, want, codes), loop)


@pytest.mark.parametrize("want", [0, 1])
@pytest.mark.parametrize("n, distinct, pairs", [(2, 2, 2), (3, 2, 3), (4, 3, 5), (5, 3, 100)])
def test_scan_candidates_matches_per_string_loop(n, distinct, pairs, want, rng):
    """The scan keeps, in code order, every string but the accepted ones
    whose parity against each accepted string is ``want``.  The 100 pairs
    at N = 5 repeat 3 strings, so the scan spans two chunks and still
    finds strings."""
    strings = [(int(x), int(z)) for x, z in rng.integers(0, 1 << n, (distinct, 2)) if x or z]
    accepted = [strings[i] for i in rng.integers(len(strings), size=pairs)]
    loop = []
    for code in range(1, 1 << (2 * n)):
        x, z = code >> n, code & ((1 << n) - 1)
        parities = [(bin(x & zm).count("1") + bin(z & xm).count("1")) % 2 for xm, zm in accepted]
        if (x, z) not in accepted and all(p == want for p in parities):
            loop.append(code)
    assert pauli_algebra._scan_candidates(n, accepted, want).tolist() == loop
    if n == 5:
        assert loop


def grown(grow, n, count, seed, mode):
    """A sampler's set (or the error it raised) and the next draw after it."""
    rng = np.random.default_rng(seed)
    try:
        out = grow(n, count, rng, mode).to_dict()
    except (SetSamplingError, ValueError) as err:
        out = repr(err)
    return out, int(rng.integers(2**62))


@pytest.mark.parametrize("mode", ["anticommuting", "commuting"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_sampler_matches_one_draw_at_a_time(n, mode):
    """Drawing candidates in blocks leaves the set and the generator state
    as drawing them one at a time does, below and above the strict cap."""
    strict_cap = (1 << n) - 1 if mode == "commuting" else 2 * n + 1
    counts = {1, 2, strict_cap - 1, strict_cap, strict_cap + 1, strict_cap + 3, 13, 45}
    for count in sorted(counts):
        for seed in range(15):
            want = grown(sampler_oracle.grow_set, n, count, seed, mode)
            assert grown(pauli_algebra._grow_set, n, count, seed, mode) == want, (count, seed)


@pytest.mark.parametrize("cap", [3, 20, 100, 700])
def test_block_sampler_fails_where_one_draw_at_a_time_fails(cap, monkeypatch):
    """Under a small attempt cap both samplers raise at the same point of
    the stream, or finish with the same set; every cap here makes some
    of the draws fail."""
    monkeypatch.setattr(pauli_algebra, "ATTEMPT_CAP", cap)
    failures = 0
    for n, mode, seed in itertools.product([2, 3, 4], ["anticommuting", "commuting"], range(5)):
        want = grown(sampler_oracle.grow_set, n, 2 * n + 3, seed, mode)
        assert grown(pauli_algebra._grow_set, n, 2 * n + 3, seed, mode) == want, (n, mode, seed)
        failures += isinstance(want[0], str)
    assert failures > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mub_code_table_matches_field_arithmetic(n):
    """Each table entry is the member a of class m, (a, G(m * a))."""
    table = pauli_algebra._mub_codes(n)
    size = 1 << n
    for m in range(size):
        for a in range(1, size):
            z = sampler_oracle._apply_bit_matrix(
                pauli_algebra._trace_gram_rows(n), pauli_algebra._gf_mul(m, a, n)
            )
            assert table[m, a] == (a << n) | z
    assert table[size, 1:].tolist() == list(range(1, size))
