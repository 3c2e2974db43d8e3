import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import tabu_oracle
from pcelabs import baselines
from pcelabs.baselines import (
    EXACT_LIMIT,
    MemeticConfig,
    TabuConfig,
    WarmStartConfig,
    exact_solve,
    memetic_tabu,
    pce_warm_start,
    tabu_search,
)
from pcelabs.bench import reference_levels
from pcelabs.labs_core import FlipWorkspace, canonicalize, parse_sequence, sidelobe_energy
from pcelabs.pce_solver import EnergyReferences, EvalCounter, PceConfig

BARKER_13 = parse_sequence("+++++--++-+-+")
GOLDEN = json.loads((Path(__file__).parent / "data" / "tabu_golden.json").read_text())
EXACT_GOLDEN = json.loads((Path(__file__).parent / "data" / "exact_golden.json").read_text())
WARM_GOLDEN = json.loads((Path(__file__).parent / "data" / "warm_golden.json").read_text())


def golden_references(case):
    levels = case["references"]
    return None if levels is None else EnergyReferences(*levels)


def brute_force(n, levels=3):
    """Levels and canonical optima over all 2^n sequences, using no symmetry."""
    seqs = [np.array(bits) for bits in itertools.product([1, -1], repeat=n)]
    energies = [sidelobe_energy(x) for x in seqs]
    found = sorted(set(energies))[:levels]
    optima = {tuple(canonicalize(x)) for x, e in zip(seqs, energies) if e == found[0]}
    return found, optima


@pytest.mark.parametrize("n", range(3, 13))
def test_exact_levels_match_brute_force(n):
    result = exact_solve(n)
    found, optima = brute_force(n)
    assert result.level_energies == found
    assert result.optimal_energy == result.level_energies[0]
    assert {tuple(x) for x in result.canonical_optima} == optima


@pytest.mark.parametrize("bits", [3, 4])
@pytest.mark.parametrize("n", range(7, 13))
def test_narrow_blocks_match_brute_force(n, bits, monkeypatch):
    """Blocks narrower than the high part, so the reversal key spans k - 2
    positions: a branch the default block width reaches only beyond N = 24."""
    monkeypatch.setattr(baselines, "EXACT_BLOCK_BITS", bits)
    result = exact_solve(n)
    found, optima = brute_force(n)
    assert result.level_energies == found
    assert {tuple(x) for x in result.canonical_optima} == optima


GRAY_WALK_CASES = [
    pytest.param(case, bits, id=f"N{case['N']}-{bits}")
    for sizes, widths in [(range(13, 19), (3, 5)), (range(20, 25), (6, 8))]
    for case in EXACT_GOLDEN["exact"]
    if case["N"] in sizes and case["levels"] == 3
    for bits in widths
]


@pytest.mark.parametrize("case, bits", GRAY_WALK_CASES)
def test_long_gray_walks_match_golden_results(case, bits, monkeypatch):
    """Blocks of 2^3 or 2^5 rows give 2^6 to 2^13 blocks, and the reversal
    key covers at most 3 high spins, so the Gray-code walk over the blocks
    flips spins above the key as well as within it.  At N = 20 to 24, a
    4- or 6-bit key sits above 4 to 12 fast bits of blocks of 2^6 or 2^8
    rows, so dead columns are packed away many times, within chunks of
    blocks as well as at their edges, after runs of blocks that score the
    same suffix."""
    monkeypatch.setattr(baselines, "EXACT_BLOCK_BITS", bits)
    assert exact_solve(case["N"], case["levels"]).to_dict() == case["result"]


@pytest.mark.parametrize("n", [16, 19])
def test_result_does_not_depend_on_block_width(n, monkeypatch):
    """Every width from 3 to N - 2: one block up to 2^(N-5) blocks, so the
    narrow widths walk many chunks of blocks."""
    expected = exact_solve(n).to_dict()
    for bits in range(3, n - 1):
        monkeypatch.setattr(baselines, "EXACT_BLOCK_BITS", bits)
        assert exact_solve(n).to_dict() == expected, bits


@pytest.mark.parametrize("n", [25, 26, 29])
def test_exact_levels_match_the_packaged_table(n):
    assert exact_solve(n).level_energies == reference_levels(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_quotient_reaches_every_orbit(n):
    """x_0 = x_1 = +1 leaves a member of every symmetry orbit."""
    every = {tuple(canonicalize(np.array(b))) for b in itertools.product([1, -1], repeat=n)}
    quotient = {
        tuple(canonicalize(np.array((1, 1) + b)))
        for b in itertools.product([1, -1], repeat=n - 2)
    }
    assert quotient == every


@pytest.mark.parametrize(
    "case", EXACT_GOLDEN["exact"], ids=lambda c: f"N{c['N']}-levels{c['levels']}"
)
def test_exact_matches_golden_results(case):
    assert exact_solve(case["N"], case["levels"]).to_dict() == case["result"]


def test_exact_13_finds_barker():
    result = exact_solve(13)
    assert result.optimal_energy == 6
    assert result.level_energies == [6, 14, 18]
    assert result.optimal_merit == pytest.approx(169 / 12)
    # the optimum is unique up to the symmetry group
    assert len(result.canonical_optima) == 1
    np.testing.assert_array_equal(result.canonical_optima[0], canonicalize(BARKER_13))


def test_exact_canonical_optima_all_attain_optimum():
    result = exact_solve(10)
    assert all(sidelobe_energy(x) == result.optimal_energy for x in result.canonical_optima)
    # canonical forms are distinct
    keys = {tuple(x.tolist()) for x in result.canonical_optima}
    assert len(keys) == len(result.canonical_optima)


def test_exact_level_count_request():
    assert len(exact_solve(9, levels=5).level_energies) == 5


def test_exact_range_validation():
    with pytest.raises(ValueError):
        exact_solve(2)
    with pytest.raises(ValueError):
        exact_solve(EXACT_LIMIT + 1)


def test_references_from_exact():
    refs = EnergyReferences.from_levels(exact_solve(13).level_energies)
    assert refs == EnergyReferences(exact=6, first=14, second=18)


def test_tabu_solves_small_sizes():
    for n, optimum in [(5, 2), (7, 3), (13, 6)]:
        refs = EnergyReferences.from_levels(exact_solve(n).level_energies)
        result = tabu_search(n, TabuConfig(seed=3), refs)
        assert result.best_energy == optimum
        assert result.evals_to_exact is not None
        assert result.solver == "tabu"


def test_tabu_counters_ordered():
    refs = EnergyReferences.from_levels(exact_solve(13).level_energies)
    result = tabu_search(13, TabuConfig(seed=41), refs)
    assert result.evals_to_second <= result.evals_to_first <= result.evals_to_exact
    assert result.evals_to_exact <= result.total_evals


def test_tabu_respects_budget():
    result = tabu_search(16, TabuConfig(seed=1, eval_budget=500), references=None)
    assert result.total_evals <= 500
    assert result.best_energy == sidelobe_energy(result.best_sequence)


def test_tabu_deterministic():
    refs = EnergyReferences.from_levels(exact_solve(11).level_energies)
    a = tabu_search(11, TabuConfig(seed=7), refs)
    b = tabu_search(11, TabuConfig(seed=7), refs)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize(
    "case",
    GOLDEN["tabu"],
    ids=lambda c: f"N{c['N']}-seed{c['seed']}-budget{c['budget']}-refs{c['references'] is not None}",
)
def test_tabu_matches_golden_records(case):
    config = TabuConfig(eval_budget=case["budget"], seed=case["seed"])
    result = tabu_search(case["N"], config, golden_references(case))
    assert result.to_dict() == case["result"]


@pytest.mark.parametrize("case", GOLDEN["memetic"], ids=lambda c: f"N{c['N']}-seed{c['seed']}")
def test_memetic_matches_golden_records(case):
    population = [parse_sequence(p) for p in case["population"]]
    config = MemeticConfig(eval_budget=case["budget"], seed=case["seed"])
    result = memetic_tabu(case["N"], population, config, golden_references(case))
    assert result.to_dict() == case["result"]


@pytest.mark.parametrize("n", [3, 4, 5, 13, 20, 28, 45])
def test_tabu_and_memetic_match_the_convolution_oracle(n, monkeypatch):
    """The flip-matrix workspace and the gated move loop give the records
    of the convolution workspace and the probe-everything loop
    (``tests/tabu_oracle.py``).  Budget 4 ends the memetic run inside
    its population of 6, budget 17 cuts a move short, and references make
    probes fire in the middle of a move."""
    references = [None]
    if n <= 20:
        references.append(EnergyReferences.from_levels(exact_solve(n).level_energies))
    cases = list(itertools.product(range(3), (4, 17, 500, 20_000), references))

    def records():
        out = []
        for seed, budget, refs in cases:
            tabu = tabu_search(n, TabuConfig(eval_budget=budget, seed=seed), refs)
            population = list(np.random.default_rng([seed, n]).choice([-1, 1], (6, n)))
            config = MemeticConfig(eval_budget=budget, seed=seed)
            memetic = memetic_tabu(n, population, config, refs)
            out.append((tabu.to_dict(), memetic.to_dict()))
        return out

    ours = records()
    monkeypatch.setattr(baselines, "FlipWorkspace", tabu_oracle.FlipWorkspace)
    monkeypatch.setattr(baselines, "_tabu_core", tabu_oracle._tabu_core)
    assert ours == records()


BLOCK = baselines._TENURE_BLOCK


@pytest.mark.parametrize(
    "budget, stagnation, max_moves, exact",
    [
        pytest.param(10**7, BLOCK + 76, None, None, id="stagnation"),
        pytest.param(10**7, 3 * BLOCK, BLOCK + 76, None, id="max_moves"),
        pytest.param(5_000, 3 * BLOCK, None, None, id="budget"),
        pytest.param(10**7, 3 * BLOCK, None, 6, id="exact"),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_tabu_core_leaves_the_generator_where_one_draw_per_move_does(
    budget, stagnation, max_moves, exact, seed
):
    """Tenures are drawn in blocks, and every exit of ``_tabu_core`` must
    leave the generator where the oracle's one draw per move leaves it:
    the same state and the same next ``random()``.
    Each walk at N = 13 ends inside a block: past the first one for the
    stagnation and move-cap exits, cut by the budget, or at the exact
    level."""
    n = 13
    refs = None if exact is None else EnergyReferences(exact)

    def walk(workspace, core):
        rng = np.random.default_rng(seed)
        ws = workspace(np.random.default_rng([seed, n]).choice([-1, 1], n))
        counter = EvalCounter(n, refs, budget)
        counter.observe(ws.sequence, ws.energy, counter.tick())
        core(ws, counter, rng, TabuConfig().resolved_tenure(n), stagnation, max_moves)
        state = (counter.evals, counter.best_energy, counter.evals_to_exact, ws.sequence.tolist())
        # The state holds PCG64's buffered half word, which random() skips.
        return rng.bit_generator.state, rng.random(), state

    ours = walk(FlipWorkspace, baselines._tabu_core)
    assert ours == walk(tabu_oracle.FlipWorkspace, tabu_oracle._tabu_core)
    evals, _, hit, _ = ours[2]
    if exact is not None:
        assert hit is not None and hit < 1 + n * BLOCK
    elif budget < 10**7:
        assert evals == budget
    else:
        assert evals == 1 + n * (BLOCK + 76)


def exit_phase(case):
    """The phase a warm record exits in: its seed is the variational seed
    when the run ended in the variational phase, the memetic seed else."""
    phases = {case["pce"]["seed"]: "pce", case["memetic"]["seed"]: "memetic"}
    assert len(phases) == 2, "the two seeds must differ to tell the phases apart"
    return phases[case["result"]["seed"]]


def warm_id(index, case):
    """A case is named by its label; a case labelled ``exact`` by the phase
    its record exits in, so the name follows the record."""
    label = case["label"]
    if label == "exact":
        label = f"exact in the {exit_phase(case)} phase"
    return f"{index}-N{case['N']}-{label.replace(' ', '-')}"


def test_exact_warm_cases_exit_in_both_phases():
    exact = [c for c in WARM_GOLDEN["warm"] if c["label"] == "exact"]
    assert all(c["result"]["evals_to_exact"] is not None for c in exact)
    assert {exit_phase(c) for c in exact} == {"pce", "memetic"}


@pytest.mark.parametrize(
    "case",
    [pytest.param(c, id=warm_id(i, c)) for i, c in enumerate(WARM_GOLDEN["warm"])],
)
def test_warm_start_matches_golden_records(case):
    result = pce_warm_start(
        case["N"],
        PceConfig(**case["pce"]),
        MemeticConfig(**case["memetic"]),
        golden_references(case),
        WarmStartConfig(**case["warm"]),
    )
    assert result.to_dict() == case["result"]


def test_tabu_tenure_validation():
    with pytest.raises(ValueError):
        tabu_search(13, TabuConfig(tenure_min=5, tenure_max=2))
    with pytest.raises(ValueError):
        tabu_search(13, TabuConfig(tenure_min=0, tenure_max=2))
    with pytest.raises(ValueError):
        tabu_search(13, TabuConfig(tenure_min=1, tenure_max=13))


@pytest.mark.parametrize("field", ["eval_budget", "stagnation_factor"])
@pytest.mark.parametrize("value", [0, -1])
def test_tabu_config_rejects_non_positive_settings(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        TabuConfig(**{field: value})


@pytest.mark.parametrize(
    "field", ["eval_budget", "tournament_size", "local_moves", "local_stagnation"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_memetic_config_rejects_non_positive_settings(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        MemeticConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, least",
    [
        ("pce_runs", 0, 1),
        ("pce_runs", -1, 1),
        ("population_copies", 1, 2),
        ("population_copies", 0, 2),
    ],
)
def test_warm_start_config_rejects_too_small_settings(field, value, least):
    with pytest.raises(ValueError, match=f"{field} must be >= {least}"):
        WarmStartConfig(**{field: value})


@pytest.mark.parametrize("rate", [-3.0, 1.5])
def test_memetic_config_rejects_mutation_rate_outside_the_unit_interval(rate):
    with pytest.raises(ValueError, match="mutation_rate must be in"):
        MemeticConfig(mutation_rate=rate)


def test_tabu_default_tenure_range():
    config = TabuConfig()
    lo, hi = config.resolved_tenure(20)
    assert (lo, hi) == (2, 10)


def test_memetic_requires_population():
    with pytest.raises(ValueError):
        memetic_tabu(5, [], MemeticConfig(seed=0))
    with pytest.raises(ValueError):
        memetic_tabu(5, [np.ones(5, dtype=np.int8)], MemeticConfig(seed=0))


def test_memetic_rejects_length_mismatch():
    pop = [np.ones(5, dtype=np.int8), np.ones(6, dtype=np.int8)]
    with pytest.raises(ValueError):
        memetic_tabu(5, pop, MemeticConfig(seed=0))


def test_memetic_solves_from_random_population():
    rng = np.random.default_rng(5)
    pop = [rng.choice([-1, 1], 13).astype(np.int8) for _ in range(10)]
    refs = EnergyReferences.from_levels(exact_solve(13).level_energies)
    result = memetic_tabu(13, pop, MemeticConfig(seed=5), refs)
    assert result.best_energy == 6
    assert result.solver == "memetic-tabu"


@pytest.mark.parametrize("budget", [1, 4, 5])
def test_memetic_budget_inside_the_population(budget):
    """A budget smaller than the population scores only its first members
    and runs no generation."""
    population = list(np.random.default_rng(3).choice([-1, 1], (6, 13)))
    result = memetic_tabu(13, population, MemeticConfig(eval_budget=budget, seed=1))
    scored = population[:budget]
    best = min(scored, key=sidelobe_energy)
    assert (result.total_evals, result.restarts_used) == (budget, 0)
    assert result.best_energy == sidelobe_energy(best)
    assert np.array_equal(result.best_sequence, canonicalize(best))


def test_memetic_deterministic():
    rng = np.random.default_rng(8)
    pop = [rng.choice([-1, 1], 11).astype(np.int8) for _ in range(6)]
    refs = EnergyReferences.from_levels(exact_solve(11).level_energies)
    a = memetic_tabu(11, [p.copy() for p in pop], MemeticConfig(seed=2), refs)
    b = memetic_tabu(11, [p.copy() for p in pop], MemeticConfig(seed=2), refs)
    assert a.to_dict() == b.to_dict()


def test_warm_start_chains_counters():
    """Counters from the variational phase and the memetic phase live on
    one shared evaluation axis."""
    refs = EnergyReferences.from_levels(exact_solve(13).level_energies)
    pce = PceConfig(seed=0, iters_per_restart=40, restart_cap=2)
    mt = MemeticConfig(seed=0, eval_budget=300000)
    warm = WarmStartConfig(pce_runs=3, population_copies=6)
    result = pce_warm_start(13, pce, mt, refs, warm)
    assert result.solver == "pce+memetic-tabu"
    assert result.best_energy == 6
    assert result.evals_to_exact <= result.total_evals
    assert result.evals_to_second <= result.evals_to_first <= result.evals_to_exact


def test_warm_start_deterministic():
    refs = EnergyReferences.from_levels(exact_solve(11).level_energies)
    pce = PceConfig(seed=3, iters_per_restart=30, restart_cap=2)
    mt = MemeticConfig(seed=3, eval_budget=100000)
    warm = WarmStartConfig(pce_runs=2, population_copies=4)
    a = pce_warm_start(11, pce, mt, refs, warm)
    b = pce_warm_start(11, pce, mt, refs, warm)
    assert a.to_dict() == b.to_dict()


def test_warm_start_short_circuits_in_pce_phase():
    # a generous variational budget at N = 7 hits the optimum before the
    # memetic phase ever starts; counters must reflect the early exit
    refs = EnergyReferences.from_levels(exact_solve(7).level_energies)
    pce = PceConfig(seed=1, iters_per_restart=100, restart_cap=30)
    mt = MemeticConfig(seed=1, eval_budget=10**6)
    result = pce_warm_start(7, pce, mt, refs, WarmStartConfig(pce_runs=20, population_copies=5))
    assert result.best_energy == 3
    assert result.evals_to_exact == result.total_evals


def test_warm_start_ends_the_variational_phase_once_a_step_no_longer_fits(monkeypatch):
    """A billed step here is 1 + 2 * 150 evaluations.  The first run ends
    at 2 410 of a 2 500 budget, so no further run can take one, and the
    memetic phase starts there instead of after two one-evaluation runs."""
    starts = []
    evolve = baselines._evolve

    def spy(N, population, config, counter):
        starts.append(counter.evals)
        return evolve(N, population, config, counter)

    monkeypatch.setattr(baselines, "_evolve", spy)
    pce = PceConfig(seed=0, iters_per_restart=5, restart_cap=2, count_gradient_evals=True)
    mt = MemeticConfig(seed=10, eval_budget=2500)
    result = pce_warm_start(13, pce, mt, None, WarmStartConfig(pce_runs=3, population_copies=4))
    assert starts == [2410]
    assert result.total_evals == 2500


def test_warm_start_budget_is_a_hard_limit():
    # Five 21-evaluation variational runs would spend 105 of a 50 budget.
    pce = PceConfig(seed=0, iters_per_restart=20, restart_cap=1, count_gradient_evals=False)
    mt = MemeticConfig(seed=0, eval_budget=50)
    result = pce_warm_start(13, pce, mt, None, WarmStartConfig(pce_runs=5, population_copies=4))
    assert result.total_evals <= 50
