import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pcelabs.labs_core import (
    MIN_LENGTH,
    FlipWorkspace,
    autocorrelations,
    canonicalize,
    energy_report,
    expand_skew_symmetric,
    format_sequence,
    merit_factor,
    parse_sequence,
    sidelobe_energy,
    symmetry_images,
)

from flip_helpers import flip_delta

BARKER_13 = parse_sequence("+++++--++-+-+")


def spins(min_size=MIN_LENGTH, max_size=24):
    return st.lists(
        st.sampled_from([-1, 1]), min_size=min_size, max_size=max_size
    ).map(lambda v: np.array(v, dtype=np.int8))


def naive_autocorrelations(x):
    n = len(x)
    return [sum(int(x[i]) * int(x[i + lag]) for i in range(n - lag)) for lag in range(1, n)]


def test_barker_13_energy_and_merit():
    assert sidelobe_energy(BARKER_13) == 6
    assert merit_factor(BARKER_13) == pytest.approx(169 / 12)


def test_barker_13_sidelobes_alternate():
    c = autocorrelations(BARKER_13)
    assert np.all(np.abs(c) <= 1)
    assert int(np.sum(c * c)) == 6


@given(spins())
def test_autocorrelations_match_naive_sum(x):
    np.testing.assert_array_equal(autocorrelations(x), naive_autocorrelations(x))


@given(spins())
def test_energy_is_sum_of_squared_sidelobes(x):
    c = naive_autocorrelations(x)
    assert sidelobe_energy(x) == sum(v * v for v in c)


@given(spins())
def test_merit_factor_identity(x):
    e = sidelobe_energy(x)
    assert merit_factor(x) == pytest.approx(len(x) ** 2 / (2 * e) if e else np.inf)


def test_energy_report_fields():
    report = energy_report(BARKER_13)
    assert report["n"] == 13
    assert report["energy"] == 6
    assert report["autocorrelations"] == naive_autocorrelations(BARKER_13)


@given(spins(max_size=16), st.data())
def test_flip_delta_matches_recomputation(x, data):
    i = data.draw(st.integers(0, x.size - 1))
    ws = FlipWorkspace(x)
    flipped = x.copy()
    flipped[i] = -flipped[i]
    assert flip_delta(ws.sequence, ws._c, i) == sidelobe_energy(flipped) - sidelobe_energy(x)


@given(spins(max_size=16))
def test_propose_all_matches_single_proposals(x):
    ws = FlipWorkspace(x)
    np.testing.assert_array_equal(
        ws.propose_all(), [flip_delta(ws.sequence, ws._c, i) for i in range(x.size)]
    )


@pytest.mark.parametrize(
    "x",
    [[[1, -1, 1]], [1, -1], [], [1, 0, -1], [1, 2, -1], [1, -1, 0.5], [1.0, -1.0, np.nan]],
    ids=["2-d", "two-entries", "empty", "zero", "two", "half", "nan"],
)
def test_workspace_rejects_what_is_not_a_spin_sequence(x):
    with pytest.raises(ValueError):
        FlipWorkspace(np.array(x))


@given(spins(max_size=16), st.lists(st.integers(0, 1000), min_size=1, max_size=30))
def test_commit_with_the_proposed_delta_matches_a_recomputed_energy(x, moves):
    """``commit(i, delta)`` adds the proposed delta; ``commit(i)``
    recomputes C.C.  Both return and keep the same energy."""
    carried, recomputed = FlipWorkspace(x), FlipWorkspace(x)
    for raw in moves:
        i = raw % x.size
        assert carried.commit(i, carried.propose_all()[i]) == recomputed.commit(i)
        assert carried.energy == recomputed.energy == sidelobe_energy(carried.sequence)


@given(spins(max_size=16), st.lists(st.integers(0, 1000), min_size=1, max_size=30))
@example(np.array([1, -1, 1]), [0, 2, 2, 1, 0])
@example(np.array([1, 1, -1, 1]), [3, 0, 1, 3, 2, 0])
@example(BARKER_13, [0, 12, 6, 12, 0])
def test_commit_keeps_energy_consistent(x, moves):
    """Every commit leaves the flip matrix, C and the energy as a fresh
    workspace of the new sequence has them; the end positions, whose
    flips reach every lag, are flipped in the examples."""
    ws = FlipWorkspace(x)
    for raw in moves:
        i = raw % x.size
        before = ws.energy
        delta = flip_delta(ws.sequence, ws._c, i)
        ws.commit(i)
        assert ws.energy == before + delta
        assert ws.energy == sidelobe_energy(ws.sequence)
        fresh = FlipWorkspace(ws.sequence)
        np.testing.assert_array_equal(ws._m, fresh._m)
        np.testing.assert_array_equal(ws._c, fresh._c)
        assert ws.energy == fresh.energy
    np.testing.assert_array_equal(
        autocorrelations(ws.sequence), naive_autocorrelations(ws.sequence)
    )


@given(
    st.integers(MIN_LENGTH, 64).flatmap(lambda n: spins(n, n)),
    st.lists(st.integers(0, 63), max_size=20),
)
def test_workspace_matches_brute_force_along_commits(x, moves):
    ws = FlipWorkspace(x)
    for raw in [None, *moves]:
        if raw is not None:
            i = raw % x.size
            flipped = ws.sequence
            flipped[i] = -flipped[i]
            assert ws.commit(i) == sidelobe_energy(flipped)
        current = ws.sequence
        np.testing.assert_array_equal(ws._c, autocorrelations(current))
        brute = []
        for i in range(x.size):
            flipped = current.copy()
            flipped[i] = -flipped[i]
            brute.append(sidelobe_energy(flipped) - sidelobe_energy(current))
        np.testing.assert_array_equal(ws.propose_all(), brute)


def test_symmetry_images_preserve_energy():
    images = symmetry_images(BARKER_13)
    assert len(images) == 8
    for image in images:
        assert sidelobe_energy(image) == 6


@given(spins())
def test_canonicalize_collapses_symmetry_orbit(x):
    canon = canonicalize(x)
    for image in symmetry_images(x):
        np.testing.assert_array_equal(canonicalize(image), canon)


@given(spins())
def test_canonical_form_is_idempotent_member(x):
    canon = canonicalize(x)
    assert any(np.array_equal(canon, img) for img in symmetry_images(x))
    np.testing.assert_array_equal(canonicalize(canon), canon)


@given(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=16))
def test_skew_expansion_symmetry(half_list):
    half = np.array(half_list, dtype=np.int8)
    full = expand_skew_symmetric(half)
    m = half.size
    assert full.size == 2 * m - 1
    np.testing.assert_array_equal(full[:m], half)
    for offset in range(1, m):
        assert full[m - 1 + offset] == (-1) ** offset * full[m - 1 - offset]


def test_skew_expansion_reaches_barker_13():
    # the optimal N=13 sequence is skew-symmetric
    half = BARKER_13[:7]
    np.testing.assert_array_equal(expand_skew_symmetric(half), BARKER_13)


def test_parse_accepts_sign_and_bit_alphabets():
    np.testing.assert_array_equal(parse_sequence("++-"), [1, 1, -1])
    np.testing.assert_array_equal(parse_sequence("110"), [1, 1, -1])


def test_format_parse_round_trip():
    assert parse_sequence(format_sequence(BARKER_13)).tolist() == BARKER_13.tolist()


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_sequence("+x-")


def test_too_short_sequences_rejected():
    with pytest.raises(ValueError):
        sidelobe_energy(np.array([1, -1], dtype=np.int8))


def test_non_spin_values_rejected():
    with pytest.raises(ValueError):
        sidelobe_energy(np.array([1, 0, -1, 1], dtype=np.int8))


@given(st.integers(1, 6), st.integers(MIN_LENGTH, 40), st.integers(0, 2**32 - 1))
def test_a_batch_of_rows_scores_as_each_row_alone(rows, n, seed):
    batch = np.random.default_rng(seed).choice(np.array([-1, 1]), (rows, n))
    energies = sidelobe_energy(batch)
    assert energies == [sidelobe_energy(row) for row in batch]
    assert all(type(e) is int for e in energies)


@pytest.mark.parametrize(
    "batch",
    [np.array([[1, -1, 1], [1, 0, 1]]), np.ones((2, 2), dtype=np.int64), np.full((1, 4), 1.5)],
    ids=["zero-entry", "too-short", "non-integer"],
)
def test_a_batch_is_checked_as_a_whole(batch):
    with pytest.raises(ValueError):
        sidelobe_energy(batch)
