import collections
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import sampler_oracle
from pcelabs import pauli_algebra
from pcelabs.pauli_algebra import (
    MAX_QUBITS,
    _score_candidates,
    _sym_parity_array,
    PauliString,
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
    assert sampler_oracle.scan_candidates(n, accepted, want).tolist() == loop
    if n == 5:
        assert loop


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mub_code_table_matches_field_arithmetic(n):
    """Each table entry is the member a of class m, (a, G(m * a))."""
    table = sampler_oracle.mub_codes(n)
    size = 1 << n
    for m in range(size):
        for a in range(1, size):
            z = sampler_oracle.apply_bit_matrix(
                sampler_oracle.trace_gram_rows(n), sampler_oracle.gf_mul(m, a, n)
            )
            assert table[m, a] == (a << n) | z
    assert table[size, 1:].tolist() == list(range(1, size))


def codes_of(labels_):
    return [(p.x_mask << p.n) | p.z_mask for p in map(PauliString.from_label, labels_)]


def sym_parity(a, b, n):
    low = (1 << n) - 1
    return ((a >> n & b & low).bit_count() + (a & low & b >> n).bit_count()) & 1


def ordered_outcomes(grow, n, count, mode, seed, draws):
    rng = np.random.default_rng(seed)
    return collections.Counter(
        tuple(p.to_label() for p in grow(n, count, rng, mode)) for _ in range(draws)
    )


def two_sample_pvalue(a, b):
    """Chi-square p-value that two equal-size samples share one distribution.

    Outcomes drawn fewer than 10 times in both samples together are pooled
    into one cell."""
    cells = [(a[k], b[k]) for k in a.keys() | b.keys()]
    pooled = [c for c in cells if sum(c) >= 10]
    rare = np.sum([c for c in cells if sum(c) < 10], axis=0, initial=0)
    if rare.any():
        pooled.append(tuple(rare))
    stat = sum((x - y) ** 2 / (x + y) for x, y in pooled)
    return stats.chi2.sf(stat, len(pooled) - 1)


DISTRIBUTION_CASES = [
    # Anticommuting chains at n = 2 wedge at 3 strings, so 4 strings take restarts.
    pytest.param(2, "anticommuting", 4, 5000, id="2-anticommuting"),
    pytest.param(2, "commuting", 3, 3000, id="2-commuting"),
    pytest.param(3, "anticommuting", 2, 20000, id="3-anticommuting"),
    pytest.param(3, "commuting", 2, 20000, id="3-commuting"),
]


@pytest.mark.parametrize("n, mode, count, draws", DISTRIBUTION_CASES)
def test_sampler_matches_one_draw_at_a_time_in_distribution(n, mode, count, draws):
    """Solving for each string gives the ordered sets of the rejection
    sampler in ``sampler_oracle`` with the same frequencies."""
    ours = ordered_outcomes(pauli_algebra._grow_set, n, count, mode, 1, draws)
    reference = ordered_outcomes(sampler_oracle.grow_set, n, count, mode, 2, draws)
    assert two_sample_pvalue(ours, reference) > 1e-3


class ZeroFreeBitsSkipped:
    """A generator whose free-bit draws never come out all zero."""

    def __init__(self, rng):
        self.rng = rng

    def integers(self, high, *args, **kwargs):
        if args or kwargs or high == 1:
            return self.rng.integers(high, *args, **kwargs)
        return self.rng.integers(1, high)


def test_distribution_test_detects_a_biased_draw():
    def biased(n, count, rng, mode):
        return pauli_algebra._grow_set(n, count, ZeroFreeBitsSkipped(rng), mode)

    ours = ordered_outcomes(pauli_algebra._grow_set, 2, 4, "anticommuting", 1, 5000)
    skewed = ordered_outcomes(biased, 2, 4, "anticommuting", 2, 5000)
    assert two_sample_pvalue(ours, skewed) < 1e-6


@pytest.mark.parametrize(
    "mode, prefix",
    [
        ("anticommuting", []),
        ("anticommuting", ["XYZ"]),
        ("anticommuting", ["XYZ", "IXI", "XYX"]),
        ("anticommuting", ["XYZ", "IXI", "XYX", "YZY", "XZI"]),
        ("anticommuting", ["XI", "YI", "ZI"]),
        ("anticommuting", ["XII", "YII", "ZII"]),
        ("commuting", []),
        ("commuting", ["XYZ"]),
        ("commuting", ["XYZ", "IXX", "XXX"]),
        ("commuting", ["XYZ", "IXX", "XXX", "IZY", "XII"]),
        ("commuting", ["XX", "ZZ"]),
    ],
)
def test_each_step_draws_uniformly_from_the_valid_extensions(mode, prefix):
    """The system of a fixed prefix has a solution exactly when the prefix
    has a valid extension, and its solutions, less the identity and the
    prefix, are each valid extension with equal frequency.  Anticommuting
    solutions are never the identity or a prefix string."""
    n = len(prefix[0]) if prefix else 3
    want = 0 if mode == "commuting" else 1
    codes = codes_of(prefix)
    for i, a in enumerate(codes):
        assert all(sym_parity(a, b, n) == want for b in codes[:i])
    valid = [
        c
        for c in range(1, 1 << (2 * n))
        if c not in codes and all(sym_parity(c, a, n) == want for a in codes)
    ]
    pivots = {}
    low = (1 << n) - 1
    solvable = all(pauli_algebra._add_row(pivots, (c & low) << n | c >> n, want) for c in codes)
    assert solvable == bool(valid)
    if not valid:
        return
    rng = np.random.default_rng(0)
    draws = [pauli_algebra._solve_draw(pivots, 2 * n, rng) for _ in range(100 * len(valid))]
    kept = collections.Counter(c for c in draws if c and c not in codes)
    assert sorted(kept) == valid
    if mode == "anticommuting" and prefix:
        assert kept.total() == len(draws)
    if len(valid) > 1:
        assert stats.chisquare([kept[c] for c in valid]).pvalue > 1e-3


def test_a_wedged_anticommuting_chain_restarts_at_once(monkeypatch):
    """{XI, YI, ZI} admits no fourth anticommuting string: the next draw
    solves the empty system."""
    scripted = codes_of(["XI", "YI", "ZI"])
    ranks = []
    solve_draw = pauli_algebra._solve_draw

    def draw(pivots, bits, rng):
        ranks.append(len(pivots))
        return scripted.pop(0) if scripted else solve_draw(pivots, bits, rng)

    monkeypatch.setattr(pauli_algebra, "_solve_draw", draw)
    s = sample_anticommuting_set(2, 5, np.random.default_rng(0))
    assert ranks[:4] == [0, 1, 2, 0]
    assert s.strict_count == 5
    assert not any(commutes(p, q) for p, q in itertools.combinations(s, 2))


@pytest.mark.parametrize("mode, count", [("anticommuting", 25), ("commuting", 45)])
def test_twelve_qubit_sets_are_valid(mode, count):
    s = SAMPLERS[mode](12, count, np.random.default_rng(0))
    assert s.strict_count == count
    assert len({(p.x_mask, p.z_mask) for p in s}) == count
    assert all(commutes(p, q) == (mode == "commuting") for p, q in itertools.combinations(s, 2))
