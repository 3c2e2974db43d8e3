import importlib.util
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_helpers import parameter_shift_gradient, relaxed_loss
from pcelabs import _kernels, pce_solver, state_sim
from pcelabs.labs_core import sidelobe_energy
from pcelabs.pauli_algebra import PauliString, sample_anticommuting_set, sample_commuting_set
from pcelabs.pce_solver import (
    EnergyReferences,
    LossContext,
    PceConfig,
    EvalCounter,
    decode,
    relax,
    relaxed_loss_gradient,
    solve,
)


GOLDEN = json.loads((Path(__file__).parent / "data" / "pce_golden.json").read_text())
WARM_GOLDEN = json.loads((Path(__file__).parent / "data" / "warm_golden.json").read_text())
SAMPLERS = {"anticommuting": sample_anticommuting_set, "commuting": sample_commuting_set}

# Run as plain Python, the kernels do the numpy engine's table operations
# in the same order and match it bit for bit.  Compiled, numba's cos/sin
# may round differently in the last place.
KERNEL_ATOL = 1e-10 if _kernels.HAVE_NUMBA else 0.0


def test_engine_is_numba_exactly_when_numba_imports():
    installed = importlib.util.find_spec("numba") is not None
    assert pce_solver.resolve_engine() == ("numba" if installed else "numpy")


def make_context(
    n=3, layers=2, N=8, alpha=4.5, beta=15.0, seed=0, mode="anticommuting", **kw
):
    rng = np.random.default_rng(seed)
    paulis = SAMPLERS[mode](n, N, rng)
    config = PceConfig(n_qubits=n, layers=layers, alpha=alpha, beta=beta)
    return LossContext(
        config.ansatz(), list(paulis), alpha, beta, rng=rng, **kw
    )


def test_relax_is_scaled_tanh():
    e = np.array([-0.5, 0.0, 0.25])
    np.testing.assert_allclose(relax(e, 2.0), np.tanh(2.0 * e))


def test_decode_signs_with_positive_tie():
    np.testing.assert_array_equal(
        decode(np.array([-0.3, 0.0, 0.7])), [-1, 1, 1]
    )


@given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=20))
def test_relaxed_loss_on_spins_is_integer_energy(values):
    x = np.array(values)
    spins = x.astype(np.int8)
    assert relaxed_loss(x, beta=0.0) == pytest.approx(sidelobe_energy(spins))


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 30.0))
@settings(max_examples=30)
def test_relaxed_loss_gradient_matches_finite_differences(seed, beta):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.99, 0.99, 11)
    grad = relaxed_loss_gradient(x, beta)
    eps = 1e-6
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (relaxed_loss(xp, beta) - relaxed_loss(xm, beta)) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-5)


def convolution_loss_gradient(x, beta):
    """The one-row reference for relaxed_loss_gradient: two length-N
    convolutions of the sequence with its autocorrelations."""
    n = x.size
    padded = np.concatenate(([0.0], np.correlate(x, x, mode="full")[n:]))
    left = np.convolve(x, padded)[:n]
    right = np.convolve(x[::-1], padded)[:n][::-1]
    return 2.0 * (left + right) - 2.0 * beta * x


@given(st.integers(1, 5), st.integers(3, 45), st.integers(0, 2**32 - 1), st.floats(0.0, 30.0))
@settings(max_examples=30)
def test_batched_loss_gradient_matches_the_convolution_form(rows, n, seed, beta):
    """Every row of a (B, N) batch gets the per-row convolution result up
    to float order, and a 1-D vector gets its row's bits."""
    x = np.random.default_rng(seed).uniform(-0.99, 0.99, (rows, n))
    grad = relaxed_loss_gradient(x, beta)
    for row, got in zip(x, grad):
        want = convolution_loss_gradient(row, beta)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * n)
    np.testing.assert_array_equal(relaxed_loss_gradient(x[0], beta), grad[0])


def exact_loss(ctx, theta):
    return relaxed_loss(relax(ctx.exact_expectations(theta)[0], ctx.alpha), ctx.beta)


def test_parameter_shift_matches_finite_differences():
    ctx = make_context()
    theta = np.random.default_rng(3).uniform(-np.pi, np.pi, ctx.spec.param_count)
    analytic = parameter_shift_gradient(ctx, theta)
    eps = 1e-5
    for k in range(0, theta.size, 5):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += eps
        tm[k] -= eps
        fd = (exact_loss(ctx, tp) - exact_loss(ctx, tm)) / (2 * eps)
        assert analytic[k] == pytest.approx(fd, abs=1e-5)


def test_kernel_turn_equals_state_sim_turn():
    """The kernels' turn loop is ``state_sim.turn`` element by element, for
    every 3-qubit generator's perm, the identity included, with
    per-amplitude tables."""
    n, dim = 3, 8
    paulis = [PauliString(n, x, z) for x in range(dim) for z in range(dim) if x or z]
    rng = np.random.default_rng(9)
    for perm in state_sim.pauli_tables(paulis, dim).perms:
        psi, diag, weight = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        want = psi[None, :].copy()
        state_sim.turn(want, perm, weight, diag)
        _kernels._turn(psi, perm, diag, weight, np.empty(dim, dtype=complex))
        np.testing.assert_allclose(psi, want[0], rtol=0, atol=KERNEL_ATOL)


@pytest.mark.parametrize("mode", ["anticommuting", "commuting"])
def test_adjoint_gradient_equals_parameter_shift(mode, use_engine):
    """The kernel's reverse-mode gradient must equal the numpy engine's and
    agree with the shift rule to numerical precision, on the paper's
    4-qubit, 15-layer ansatz."""
    for seed in range(5):
        kw = dict(n=4, layers=15, N=28, seed=seed, mode=mode)
        use_engine("numba")
        ctx_fast = make_context(**kw)
        use_engine("numpy")
        ctx_ref = make_context(**kw)
        theta = np.random.default_rng(100 + seed).uniform(
            -np.pi, np.pi, ctx_fast.spec.param_count
        )
        grad = ctx_fast.gradient(theta)
        np.testing.assert_allclose(grad, ctx_ref.gradient(theta), rtol=0, atol=KERNEL_ATOL)
        np.testing.assert_allclose(
            grad, parameter_shift_gradient(ctx_ref, theta), atol=1e-10
        )


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sublayer_sweep_equals_parameter_shift_on_both_engines(n, rows, use_engine):
    """Read at sublayer boundaries, RX through RY, the sweep gives the shift
    rule's gradient for every row, with a lone qubit outside every brick
    (odd n) and with the wrap pair (even n); the kernels give the numpy
    engine's states, expectations and gradient."""
    rng = np.random.default_rng(10 * n + rows)
    spec = state_sim.AnsatzSpec(n, 3)
    paulis = [PauliString(n, int(x), int(z)) for x, z in rng.integers(1, 1 << n, (7, 2))]
    thetas = rng.uniform(-np.pi, np.pi, (rows, spec.param_count))
    found = {}
    for engine in ("numba", "numpy"):
        use_engine(engine)
        ctx = LossContext(spec, paulis, 4.0, 2.0)
        found[engine] = ctx.exact_expectations(thetas), ctx.gradient(thetas)
    for fast, ref in zip(found["numba"], found["numpy"]):
        np.testing.assert_allclose(fast, ref, rtol=0, atol=KERNEL_ATOL)
    np.testing.assert_allclose(
        _kernels.evolve_batch(*state_sim.step_tables(spec, thetas)),
        state_sim.run_ansatz_batch(spec, thetas),
        rtol=0,
        atol=KERNEL_ATOL,
    )
    for theta, grad in zip(thetas, found["numpy"][1]):
        np.testing.assert_allclose(grad, parameter_shift_gradient(ctx, theta), atol=1e-10)


@pytest.mark.parametrize("mode", ["anticommuting", "commuting"])
def test_numpy_adjoint_gradient_equals_parameter_shift(mode, use_engine):
    use_engine("numpy")
    for seed in range(5):
        ctx = make_context(seed=seed, mode=mode)
        theta = np.random.default_rng(100 + seed).uniform(
            -np.pi, np.pi, ctx.spec.param_count
        )
        np.testing.assert_allclose(
            ctx.gradient(theta), parameter_shift_gradient(ctx, theta), atol=1e-10
        )


def test_step_matches_separate_value_and_gradient(use_engine):
    """A step's sampled expectations do not depend on whether it takes the
    gradient, and its gradient is the one a separate sweep computes."""
    use_engine("numpy")
    stepped = make_context(seed=4, shots=16)
    separate = make_context(seed=4, shots=16)
    thetas = np.random.default_rng(6).uniform(-np.pi, np.pi, (3, stepped.spec.param_count))
    e, grad = stepped.step(thetas)
    want_e, no_grad = separate.step(thetas, gradient=False)
    assert no_grad is None
    assert e.shape == (3, len(stepped.paulis)) and grad.shape == thetas.shape
    np.testing.assert_array_equal(e, want_e)
    np.testing.assert_array_equal(grad, separate.gradient(thetas))


def test_bound_turns_follow_the_batch_and_the_ansatz(use_engine):
    """The forward pass walks views bound once per set of step tables, and
    the sweep a plan bound once per scratch buffer.  A context stepped at
    B = 2, 4, 2 and interleaved with a context of another ansatz gives,
    step by step, the bits of a fresh context stepping once from empty
    caches."""
    use_engine("numpy")
    contexts = {
        (4, 15): make_context(n=4, layers=15, N=13, seed=1),
        (3, 2): make_context(n=3, layers=2, N=8, seed=2, mode="commuting"),
    }
    rng = np.random.default_rng(13)
    order = [(4, 15, 2), (4, 15, 4), (4, 15, 2), (4, 15, 2)]
    order += [(3, 2, 2), (4, 15, 2), (3, 2, 1), (4, 15, 2)]
    for n, layers, rows in order:
        ctx = contexts[n, layers]
        thetas = rng.uniform(-np.pi, np.pi, (rows, ctx.spec.param_count))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(state_sim, "_last_step", {})
            patch.setattr(state_sim, "_bound", [None, []])
            fresh = LossContext(ctx.spec, ctx.paulis, ctx.alpha, ctx.beta)
            want = fresh.step(thetas)
        for got, expected in zip(ctx.step(thetas), want):
            assert got.tobytes() == expected.tobytes()


def test_solve_evolves_one_row_per_counted_eval(monkeypatch, use_engine):
    use_engine("numpy")
    rows = []
    evolve = state_sim.run_ansatz_batch

    def counted(spec, thetas):
        states = evolve(spec, thetas)
        rows.append(states.shape[0])
        return states

    monkeypatch.setattr(state_sim, "run_ansatz_batch", counted)
    config = PceConfig(seed=3, restart_cap=2, iters_per_restart=6)
    result = solve(13, config)
    assert result.total_evals == 14
    assert sum(rows) == result.total_evals
    # both restarts run in lockstep: one 2-row evolution per step
    assert rows == [2] * 7


def one_restart_at_a_time(N, config, references=None):
    """``solve`` with batches of one restart: each restart runs to its end
    before the next one draws anything."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pce_solver, "LOCKSTEP_ROWS", 1)
        return solve(N, config, references)


# First restart (0-based) of each lockstep batch: 2, 4, 8, 16, 32, ... rows.
BATCH_STARTS = {0, 2, 6, 14, 30, 62}


def test_lockstep_matches_one_restart_at_a_time(use_engine):
    """Restarts in lockstep give the record of the same loop run one restart
    at a time: over restart caps that cross the batch boundaries at 2, 6,
    14 and 30, and with reference levels that fire inside a batch, so the
    evaluation counters, the restart count and the total are all checked."""
    use_engine("numpy")
    inside = []

    @given(
        seed=st.integers(0, 2**32 - 1),
        restart_cap=st.integers(1, 40),
        iters=st.integers(0, 3),
        mode=st.sampled_from(["anticommuting", "commuting"]),
        optimizer=st.sampled_from(["adam", "sgd"]),
        count_gradient_evals=st.booleans(),
        gaps=st.none() | st.tuples(st.integers(0, 10), st.integers(0, 6), st.integers(0, 6)),
    )
    @settings(max_examples=100)
    def check(seed, restart_cap, iters, mode, optimizer, count_gradient_evals, gaps):
        config = PceConfig(
            n_qubits=3,
            layers=2,
            pauli_mode=mode,
            optimizer=optimizer,
            iters_per_restart=iters,
            restart_cap=restart_cap,
            seed=seed,
            count_gradient_evals=count_gradient_evals,
        )
        references = None
        if gaps is not None:
            # At or above the best energy the run reaches, so the exact
            # level fires at whichever restart first gets there.
            exact = one_restart_at_a_time(11, config).best_energy + gaps[0]
            references = EnergyReferences(exact, exact + gaps[1], exact + gaps[1] + gaps[2])
        want = one_restart_at_a_time(11, config, references)
        assert solve(11, config, references).to_dict() == want.to_dict()
        if want.evals_to_exact is not None and want.restarts_used - 1 not in BATCH_STARTS:
            inside.append(want.restarts_used)

    check()
    assert inside, "no exact hit landed inside a batch"


def test_lockstep_batches_shrink_with_the_state(use_engine):
    """Rows x 2^n stays within LOCKSTEP_AMPLITUDES, in the evolution and in
    the adjoint sweep's work array: at 8 qubits batches stop at 8 rows, and
    past 10 qubits restarts run one at a time."""
    use_engine("numpy")
    evolved, worked = [], []
    evolve, adjoint = state_sim.run_ansatz_batch, state_sim.adjoint_gradient

    def counted(spec, thetas):
        evolved.append(len(thetas))
        return evolve(spec, thetas)

    def recorded(*args):
        worked.append(args[-1][0].shape)
        return adjoint(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_sim, "run_ansatz_batch", counted)
        patch.setattr(state_sim, "adjoint_gradient", recorded)
        config = PceConfig(n_qubits=8, layers=1, iters_per_restart=1, restart_cap=40)
        solve(13, config)
        assert evolved == [r for r in (2, 4, 8, 8, 8, 8, 2) for _ in range(2)]
        # A (psi, lam) pair per sublayer, and per turn its (conj d, -w)
        # pair once for psi and once for lam.
        pairs = 2 * config.layers + 2 * (8 + 4)
        assert worked == [(pairs, 2, r, 256) for r in (2, 4, 8, 8, 8, 8, 2)]
        evolved.clear()
        solve(13, replace(config, n_qubits=11, restart_cap=3))
        assert evolved == [1] * 6


def test_numba_engine_runs_one_restart_per_batch(use_engine):
    """The numba kernels loop over rows, so lockstep would share nothing:
    on that engine every batch holds one restart."""
    use_engine("numba")
    rows = []
    evolve = _kernels.evolve_batch

    def counted(*tables):
        states = evolve(*tables)
        rows.append(len(states))
        return states

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "evolve_batch", counted)
        config = PceConfig(n_qubits=3, layers=2, iters_per_restart=2, restart_cap=5)
        result = solve(11, config)
    assert rows == [1] * result.total_evals == [1] * 15


@pytest.mark.parametrize("seed", [0, 5, 7, 9])
def test_exact_hit_inside_a_batch_ends_the_run_there(seed):
    """An exact hit in a later restart of a batch ends the count at that
    restart's evaluation; the rest of the batch is discarded."""
    config = PceConfig(n_qubits=3, layers=2, iters_per_restart=3, restart_cap=40, seed=seed)
    exact = solve(11, config).best_energy
    result = solve(11, config, EnergyReferences(exact))
    assert result.restarts_used - 1 not in BATCH_STARTS
    assert result.total_evals == result.evals_to_exact
    assert result.to_dict() == one_restart_at_a_time(11, config, EnergyReferences(exact)).to_dict()


@pytest.mark.parametrize("mode", ["anticommuting", "commuting"])
def test_context_rows_match_single_set_contexts(mode, use_engine):
    """A context with one Pauli set per row gives each row the bits a
    one-set context gives it alone, on both engines: expectations and
    gradients, on the paper's ansatz."""
    config = PceConfig(n_qubits=4, layers=15)
    rng = np.random.default_rng(21)
    sets = [list(SAMPLERS[mode](4, 28, rng)) for _ in range(5)]
    thetas = rng.uniform(-np.pi, np.pi, (5, config.ansatz().param_count))
    for engine in ("numpy", "numba"):
        use_engine(engine)
        rows = LossContext(config.ansatz(), sets, 6.0, 15.0)
        alone = [LossContext(config.ansatz(), paulis, 6.0, 15.0) for paulis in sets]
        np.testing.assert_array_equal(
            rows.exact_expectations(thetas),
            [ctx.exact_expectations(t)[0] for ctx, t in zip(alone, thetas)],
        )
        np.testing.assert_array_equal(
            rows.gradient(thetas), [ctx.gradient(t) for ctx, t in zip(alone, thetas)]
        )


def golden_config(case):
    return PceConfig(
        pauli_mode=case["mode"],
        shots=case["shots"],
        seed=case["seed"],
        restart_cap=2,
        iters_per_restart=9,
    )


def golden_id(case):
    return f"N{case['N']}-{case['mode']}-shots{case['shots']}-seed{case['seed']}"


@pytest.mark.parametrize("case", GOLDEN["solve"], ids=golden_id)
def test_solve_matches_golden_records(case, use_engine):
    use_engine("numpy")
    assert solve(case["N"], golden_config(case)).to_dict() == case["result"]


@pytest.mark.parametrize(
    "case",
    WARM_GOLDEN["solve"],
    ids=lambda c: f"N{c['N']}-iters{c['pce']['iters_per_restart']}-seed{c['pce']['seed']}",
)
def test_solve_with_references_matches_golden_records(case):
    """The exact hit lands on a restart that lockstep replays after its
    batch has run, or on a batch's first restart."""
    refs = EnergyReferences.from_levels(case["references"])
    assert solve(case["N"], PceConfig(**case["pce"]), refs).to_dict() == case["result"]


def test_reference_goldens_hit_inside_a_batch_and_on_a_batch_start():
    """The solve cases with references cover both lockstep scenarios."""
    starts = {c["result"]["restarts_used"] - 1 in BATCH_STARTS for c in WARM_GOLDEN["solve"]}
    assert starts == {True, False}


@pytest.mark.parametrize("case", GOLDEN["solve"], ids=golden_id)
def test_numba_engine_matches_golden_records(case, use_engine):
    use_engine("numba")
    assert solve(case["N"], golden_config(case)).to_dict() == case["result"]


@pytest.mark.parametrize("mode", ["anticommuting", "commuting"])
def test_engines_agree_on_expectations(mode, use_engine):
    kw = dict(n=4, layers=15, N=28, seed=7, mode=mode)
    use_engine("numba")
    ctx_fast = make_context(**kw)
    use_engine("numpy")
    ctx_ref = make_context(**kw)
    thetas = np.random.default_rng(11).uniform(-np.pi, np.pi, (4, ctx_fast.spec.param_count))
    np.testing.assert_allclose(
        ctx_fast.exact_expectations(thetas),
        ctx_ref.exact_expectations(thetas),
        rtol=0,
        atol=KERNEL_ATOL,
    )
    # The 4 rows share one Pauli list: the kernels read it as a broadcast view.
    np.testing.assert_allclose(
        ctx_fast.gradient(thetas), ctx_ref.gradient(thetas), rtol=0, atol=KERNEL_ATOL
    )


def test_gradient_ignores_shot_noise():
    # finite shots perturb loss evaluation only; gradients stay exact
    noisy = make_context(seed=5, shots=32)
    clean = make_context(seed=5, shots=0)
    theta = np.random.default_rng(2).uniform(-np.pi, np.pi, noisy.spec.param_count)
    np.testing.assert_allclose(noisy.gradient(theta), clean.gradient(theta), atol=1e-12)


@pytest.mark.parametrize("engine", ["numpy", "numba"])
@pytest.mark.parametrize("count_gradient_evals", [False, True])
def test_solve_bills_gradients_only_when_asked(engine, count_gradient_evals, use_engine):
    """A step costs each restart 1 evaluation, plus 2P when it takes a
    gradient and gradients are billed; the last step of a restart takes
    none.  On numpy the 5 restarts run in lockstep batches of 2 and 3, on
    numba one at a time."""
    use_engine(engine)
    config = PceConfig(
        n_qubits=3,
        layers=2,
        iters_per_restart=3,
        restart_cap=5,
        count_gradient_evals=count_gradient_evals,
    )
    p = config.ansatz().param_count
    result = solve(11, config)
    assert result.total_evals == 5 * (1 + 3 * (1 + 2 * p * count_gradient_evals))
    assert result.restarts_used == 5


def test_counters_record_first_crossing_only():
    refs = EnergyReferences(exact=6, first=14, second=18)
    c = EvalCounter(13, refs)
    seq = np.ones(13, dtype=np.int8)
    assert not c.observe(seq, 30, 1)
    assert not c.observe(seq, 18, 2)
    assert c.evals_to_second == 2 and c.evals_to_first is None
    assert not c.observe(seq, 14, 3)
    assert c.evals_to_first == 3
    assert not c.observe(seq, 16, 4)
    assert c.evals_to_first == 3  # later crossings do not move it
    assert c.observe(seq, 6, 5)
    assert (c.evals_to_second, c.evals_to_first, c.evals_to_exact) == (2, 3, 5)


def test_eval_counter_ticks_up_to_its_budget():
    c = EvalCounter(13, None, budget=3)
    assert (c.evals, c.exhausted) == (0, False)
    assert (c.tick(), c.tick()) == (1, 2)
    assert not c.exhausted
    assert c.tick() == 3
    assert c.exhausted  # the budget is spent, not exceeded
    c.observe(np.ones(13, dtype=np.int8), 30, 3)
    assert c.result("pce", 0, 1).total_evals == 3
    unbounded = EvalCounter(13, None)
    unbounded.evals = 10**12
    assert not unbounded.exhausted


def test_counter_ordering_invariant():
    refs = EnergyReferences(exact=6, first=14, second=18)
    c = EvalCounter(13, refs)
    seq = np.ones(13, dtype=np.int8)
    c.observe(seq, 5, 1)  # jumps straight past every level
    assert c.evals_to_second <= c.evals_to_first <= c.evals_to_exact


def test_counters_absent_without_references():
    c = EvalCounter(13, None)
    seq = np.ones(13, dtype=np.int8)
    assert not c.observe(seq, 6, 1)
    assert c.evals_to_exact is None
    assert c.best_energy == 6


def test_interested_tracks_pending_levels():
    refs = EnergyReferences(exact=6, first=14, second=18)
    c = EvalCounter(13, refs)
    seq = np.ones(13, dtype=np.int8)
    assert c.limit() == math.inf  # anything beats an unset best
    c.observe(seq, 20, 1)
    assert c.limit() == 19  # the best, or the second level, can still move
    c.observe(seq, 18, 2)
    assert c.limit() == 17  # second already fired; 18 is no improvement
    c.observe(seq, 14, 3)
    assert c.limit() == 13
    c.observe(seq, 6, 4)
    assert c.limit() == 5  # every level fired: only the best can move


def interested_reference(c, energy):
    """Whether observing ``energy`` changes the best or fires a counter,
    written out level by level."""
    if c.best_energy is None or energy < c.best_energy:
        return True
    refs = c.references
    if refs is None:
        return False
    if refs.second is not None and c.evals_to_second is None and energy <= refs.second:
        return True
    if refs.first is not None and c.evals_to_first is None and energy <= refs.first:
        return True
    return c.evals_to_exact is None and energy <= refs.exact


@pytest.mark.parametrize(
    "refs",
    [None, EnergyReferences(exact=10), EnergyReferences(exact=10, first=14, second=18)],
)
def test_limit_agrees_with_interested(refs):
    for best, fired in itertools.product(
        [None, 25, 18, 15, 11, 10, 4], itertools.product([None, 1], repeat=3)
    ):
        c = EvalCounter(13, refs)
        c.best_energy = best
        c.evals_to_second, c.evals_to_first, c.evals_to_exact = fired
        limit = c.limit()
        for energy in range(2 * 10 + 1):
            expected = interested_reference(c, energy)
            assert (energy <= limit) == expected, (best, fired, energy)


@pytest.mark.parametrize(
    "refs",
    [None, EnergyReferences(exact=10), EnergyReferences(exact=10, first=14, second=18)],
)
def test_observe_keeps_the_cached_limit_current(refs):
    """``observe_run`` reads the limit that ``observe`` caches; after every
    observation, firing or not, it must be what ``limit()`` computes."""
    c = EvalCounter(13, refs)
    for energy in [30, 25, 26, 19, 19, 18, 22, 15, 14, 16, 12, 10, 9, 11, 4, 4]:
        c.observe(np.ones(13, dtype=np.int8), energy, c.tick())
        assert c._limit == c.limit(), energy


def run_observer(counter, energies):
    """``observe_run`` on ``energies``, entry i's sequence all i; returns
    its answer and the entries whose sequence it built."""
    built = []

    def sequence_at(i):
        built.append(i)
        return np.full(13, i, dtype=np.int64)

    energies = np.asarray(energies, dtype=np.float64)
    return counter.observe_run(energies, energies.min(), sequence_at), built


def test_observe_run_bills_up_to_the_budget():
    c = EvalCounter(13, None, budget=5)
    c.observe(np.ones(13, dtype=np.int8), 50, c.tick())
    # Four evaluations are left: the 30 lies past the budget.
    assert run_observer(c, [60, 55, 40, 45, 30]) == (True, [2])
    assert c.evals == 5 and c.exhausted
    assert c.best_energy == 40
    assert np.array_equal(c.best_sequence, np.full(13, 2))
    assert run_observer(c, [1, 2]) == (True, [])  # nothing left to bill
    assert c.evals == 5


def test_observe_run_stops_at_the_exact_crossing():
    refs = EnergyReferences(exact=10, first=14, second=18)
    c = EvalCounter(13, refs, budget=100)
    c.observe(np.ones(13, dtype=np.int8), 30, c.tick())
    assert run_observer(c, [40, 17, 9, 8, 12]) == (True, [1, 2])
    assert c.evals == 4  # the crossing, not the end of the run
    assert (c.evals_to_second, c.evals_to_first, c.evals_to_exact) == (3, 4, 4)
    assert c.best_energy == 9 and c.done


def test_observe_run_builds_only_entries_at_or_below_the_limit():
    refs = EnergyReferences(exact=6, first=14, second=18)
    c = EvalCounter(13, refs)
    c.observe(np.ones(13, dtype=np.int8), 20, c.tick())
    # 19 is below the limit when it is seen; the 19 after it is no
    # improvement and no level, and neither is the 20.  The 18 fires the
    # second level, and the 15 improves the best.
    assert run_observer(c, [25, 19, 19, 20, 18, 21, 15]) == (False, [1, 4, 6])
    assert c.evals == 8
    assert (c.best_energy, c.evals_to_second, c.evals_to_first) == (15, 6, None)
    assert np.array_equal(c.best_sequence, np.full(13, 6))
    # A run wholly above the limit is billed without building anything.
    assert run_observer(c, [30, 16, 40]) == (False, [])
    assert c.evals == 11


def test_observe_run_observes_the_first_entry_of_a_fresh_counter():
    c = EvalCounter(13, None)
    assert c.limit() == math.inf
    assert run_observer(c, [7, 9, 5, 5]) == (False, [0, 2])
    assert (c.evals, c.best_energy, c.done) == (4, 5, False)


@pytest.mark.parametrize("count_gradient_evals", [False, True])
def test_eval_budget_caps_solve(count_gradient_evals):
    config = PceConfig(
        seed=0, restart_cap=3, iters_per_restart=9, count_gradient_evals=count_gradient_evals
    )
    for budget in (1, 7, 12, 400, 1000):
        counter = EvalCounter(13, None, budget)
        restarts_used = pce_solver._descend(13, config, counter)
        result = counter.result("pce", config.seed, restarts_used)
        assert result.total_evals <= budget
        if not count_gradient_evals:
            assert result.total_evals == min(budget, 30)


def test_solve_small_instance_end_to_end():
    config = PceConfig(seed=4, restart_cap=40)
    refs = EnergyReferences(exact=3, first=11, second=15)
    result = solve(7, config, refs)
    assert result.best_energy == 3
    assert result.evals_to_exact is not None
    assert result.evals_to_exact <= result.total_evals
    assert sidelobe_energy(result.best_sequence) == 3
    assert result.merit_factor == pytest.approx(49 / 6)
    assert result.evals_to_second <= result.evals_to_first <= result.evals_to_exact


def test_zero_iteration_restart_still_decodes_initial_point():
    config = PceConfig(seed=1, iters_per_restart=0, restart_cap=1)
    result = solve(13, config, references=None)
    assert result.total_evals == 1
    assert result.best_energy is not None
    assert result.evals_to_exact is None


def test_solve_is_deterministic():
    config = PceConfig(seed=12, restart_cap=5, iters_per_restart=50)
    a = solve(7, config, EnergyReferences(exact=3))
    b = solve(7, config, EnergyReferences(exact=3))
    assert a.to_dict() == b.to_dict()


def test_restart_budget_and_eval_accounting():
    iters = 30
    config = PceConfig(seed=9, iters_per_restart=iters, restart_cap=3)
    result = solve(9, config, references=None)
    # every restart costs iters + 1 evals when nothing stops it early
    assert result.total_evals == 3 * (iters + 1)
    assert result.restarts_used == 3


def test_config_validation():
    with pytest.raises(ValueError):
        PceConfig(n_qubits=1)
    with pytest.raises(ValueError):
        PceConfig(n_qubits=13)
    with pytest.raises(ValueError):
        PceConfig(optimizer="newton")
    with pytest.raises(ValueError):
        PceConfig(pauli_mode="random")
    with pytest.raises(ValueError):
        PceConfig(restart_cap=0)
    with pytest.raises(ValueError):
        PceConfig(iters_per_restart=-1)
    with pytest.raises(ValueError):
        PceConfig(step_size=-1.0)


def test_alpha_defaults_to_scaled_qubit_count():
    assert PceConfig(n_qubits=4).resolved_alpha() == 6.0
    assert PceConfig(n_qubits=4, alpha=2.5).resolved_alpha() == 2.5


def test_shots_path_solves():
    config = PceConfig(seed=8, restart_cap=40, shots=256)
    result = solve(7, config, EnergyReferences(exact=3))
    assert result.best_energy == 3
