"""Each benchmark check passes a true result and rejects a corrupted one.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from dataclasses import replace

import numpy as np
import pytest

import checks
from pcelabs import baselines, pauli_algebra, pce_solver
from pcelabs.state_sim import AnsatzSpec


@pytest.fixture(scope="module")
def solved():
    config = pce_solver.PceConfig(restart_cap=1, iters_per_restart=2, seed=5)
    return pce_solver.solve(13, config)


@pytest.fixture(scope="module")
def exact():
    return baselines.exact_solve(13)


def test_pure_python_energy_and_orbit():
    barker13 = [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1]
    assert checks.energy(barker13) == checks.PUBLISHED_OPTIMA[13]
    images = checks.orbit(barker13)
    assert len(images) == 8
    assert {checks.energy(y) for y in images} == {6}
    assert all(checks.canonical(y) == checks.canonical(barker13) for y in images)


def test_check_solve_accepts_true_result(solved):
    assert checks.check_solve(solved, 13, 3) == []


@pytest.mark.parametrize(
    "corrupt, phrase",
    [
        (lambda r: replace(r, best_energy=r.best_energy + 4), "rescores"),
        (lambda r: replace(r, best_sequence=-r.best_sequence), "canonical"),
        (lambda r: replace(r, total_evals=r.total_evals - 1), "fixed work"),
        (lambda r: replace(r, n=14), "N = 14"),
        (lambda r: replace(r, best_sequence=r.best_sequence[:-1]), "length 13"),
    ],
)
def test_check_solve_rejects(solved, corrupt, phrase):
    problems = checks.check_solve(corrupt(solved), 13, 3)
    assert any(phrase in p for p in problems), problems


def test_check_solve_rejects_energy_below_optimum():
    # A claim below the published optimum is refused even if it rescored.
    fake = pce_solver.SolveResult(
        solver="pce",
        n=13,
        seed=0,
        best_sequence=np.ones(13, dtype=np.int64),
        best_energy=2,
        merit_factor=0.0,
        total_evals=3,
        restarts_used=1,
    )
    problems = checks.check_solve(fake, 13, 3)
    assert any("below the published optimum" in p for p in problems), problems


def test_check_exact_accepts_true_result(exact):
    assert checks.check_exact(exact, 13, 3) == []


@pytest.mark.parametrize(
    "corrupt, phrase",
    [
        (lambda r: replace(r, optimal_energy=10, level_energies=[10, 14, 18]), "published"),
        (lambda r: replace(r, level_energies=[6, 18, 14]), "rising"),
        (lambda r: replace(r, level_energies=[6, 14]), "rising"),
        (lambda r: replace(r, level_energies=[6, 15, 18]), "mod 4"),
        (lambda r: replace(r, canonical_optima=[]), "no optimal"),
        (lambda r: replace(r, canonical_optima=[-r.canonical_optima[0]]), "canonical"),
        (lambda r: replace(r, canonical_optima=[r.canonical_optima[0]] * 2), "equivalent"),
        (
            lambda r: replace(r, canonical_optima=[np.array([1] * 12 + [-1])]),
            "rescores",
        ),
    ],
)
def test_check_exact_rejects(exact, corrupt, phrase):
    problems = checks.check_exact(corrupt(exact), 13, 3)
    assert any(phrase in p for p in problems), problems


@pytest.fixture(scope="module")
def dense_case():
    rng = np.random.default_rng(11)
    paulis = pauli_algebra.sample_commuting_set(4, 13, rng).paulis
    spec = AnsatzSpec(4, 15)
    theta = rng.uniform(-np.pi, np.pi, spec.param_count)
    dense = checks.DenseAnsatz(4, 15, [p.to_label() for p in paulis])
    ctx = pce_solver.LossContext(spec, paulis, alpha=6.0, beta=15.0)
    return dense, ctx, theta


def test_expectation_check(dense_case):
    dense, ctx, theta = dense_case
    reference = dense.expectations(dense.state(theta))
    program = ctx.exact_expectations(theta)[0]
    assert checks.check_expectations(program, reference) == []
    assert checks.check_expectations(program + 1e-8, reference)
    assert checks.check_expectations(program[::-1], reference)


def test_gradient_check(dense_case):
    dense, ctx, theta = dense_case
    reference = checks.central_difference_gradient(dense, theta, 6.0, 15.0)
    gradient = ctx.gradient(theta)
    assert checks.check_gradient(gradient, reference) == []
    corrupted = gradient.copy()
    corrupted[7] += 1e-3 * max(1.0, np.abs(gradient).max())
    assert checks.check_gradient(corrupted, reference)
    assert checks.check_gradient(np.roll(gradient, 1), reference)
