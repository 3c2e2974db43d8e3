"""Acceptance gate: one test per release criterion.

Each test prints a PASS line on success; pytest -v shows one line per
criterion either way.  Criterion 10 consumes the reduced-campaign
records in bench_out/ when they exist (the tabu records regenerate bit
for bit from configs/; the PCE records were made on the numba engine and
do not replay on numpy) and runs the campaign inline otherwise, which
takes on the order of an hour on one core.
"""

import itertools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from pcelabs import bench
from pcelabs.baselines import TabuConfig, exact_solve, tabu_search
from pcelabs.labs_core import (
    autocorrelations,
    canonicalize,
    merit_factor,
    parse_sequence,
    sidelobe_energy,
)
from pcelabs.pauli_algebra import PauliString, sample_anticommuting_set
from pcelabs.pce_solver import EnergyReferences, LossContext, PceConfig, relax, solve
from gate_helpers import apply_ms, apply_rotation, parameter_shift_gradient, relaxed_loss
from sampler_oracle import commutes, mub_partition
from tts_helpers import synthetic_tts
from pcelabs.state_sim import AnsatzSpec, expectations_batch, run_ansatz_batch

ROOT = Path(__file__).resolve().parents[1]
BARKER_13 = parse_sequence("+++++--++-+-+")

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_1Q = {"X": X, "Y": Y, "Z": Z}


def report(line):
    print(line)


def test_criterion_01_energy_identity():
    """Sidelobe energy from fast autocorrelations equals the brute-force
    double sum, and the N = 13 Barker sequence scores E = 6, F = 169/12."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        x = rng.choice(np.array([-1, 1], dtype=np.int8), n)
        c = [int(sum(x[i] * x[i + k] for i in range(n - k))) for k in range(1, n)]
        assert autocorrelations(x).tolist() == c
        assert sidelobe_energy(x) == sum(v * v for v in c)
    assert sidelobe_energy(BARKER_13) == 6
    assert merit_factor(BARKER_13) == pytest.approx(169 / 12, abs=1e-12)
    report("PASS criterion 1: energy identity on 200 random sequences + Barker-13")


def test_criterion_02_exact_enumeration_n13():
    """Exhaustive search at N = 13: levels [6, 14, 18] and the Barker
    sequence as the unique canonical optimum."""
    result = exact_solve(13)
    assert result.optimal_energy == 6
    assert result.level_energies == [6, 14, 18]
    assert len(result.canonical_optima) == 1
    np.testing.assert_array_equal(result.canonical_optima[0], canonicalize(BARKER_13))
    report("PASS criterion 2: exact enumeration at N = 13")


def test_criterion_03_pauli_set_properties():
    """Mutually unbiased partitions for n in {2..5}: 2^n + 1 disjoint
    commuting classes of 2^n - 1 covering all nonidentity strings; and
    sampled anticommuting sets reach the 2n + 1 cap pairwise."""
    for n in (2, 3, 4, 5):
        classes = mub_partition(n)
        assert len(classes) == 2**n + 1
        seen = set()
        for cls in classes:
            assert len(cls) == 2**n - 1
            members = list(cls)
            for p, q in itertools.combinations(members, 2):
                assert commutes(p, q)
            seen.update((p.x_mask, p.z_mask) for p in members)
        assert len(seen) == 4**n - 1

        cap = 2 * n + 1
        s = sample_anticommuting_set(n, cap, np.random.default_rng(n))
        assert s.strict_count == cap
        for p, q in itertools.combinations(list(s), 2):
            assert not commutes(p, q)
    report("PASS criterion 3: MUB partitions and anticommuting caps, n = 2..5")


def embed_1q(mat, qubit, n):
    out = np.array([[1.0 + 0j]])
    for q in range(n - 1, -1, -1):
        out = np.kron(out, mat if q == qubit else np.eye(2))
    return out


def dense_pauli(p: PauliString) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for ch in p.to_label():
        out = np.kron(np.eye(2) if ch == "I" else PAULI_1Q[ch], out)
    return out


def test_criterion_04_simulator_against_dense_references():
    """Gates and expectation values agree with dense linear algebra to
    1e-9."""
    rng = np.random.default_rng(4)
    n = 3
    for _ in range(10):
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        psi = v / np.linalg.norm(v)
        theta = float(rng.uniform(-np.pi, np.pi))
        q = int(rng.integers(n))
        for axis in ("x", "y", "z"):
            u = expm(-0.5j * theta * embed_1q(PAULI_1Q[axis.upper()], q, n))
            assert np.max(np.abs(apply_rotation(psi, axis, q, theta) - u @ psi)) < 1e-9
        a, b = rng.choice(n, 2, replace=False)
        xx = embed_1q(X, int(a), n) @ embed_1q(X, int(b), n)
        u = expm(-0.5j * theta * xx)
        assert np.max(np.abs(apply_ms(psi, int(a), int(b), theta) - u @ psi)) < 1e-9

    spec = AnsatzSpec(3, 3)
    for trial in range(5):
        theta = rng.uniform(-np.pi, np.pi, spec.param_count)
        psi = np.eye(8, dtype=complex)[0]  # |000>
        k = 0
        for layer in range(spec.layers):
            for axis in ("x", "y"):
                for q in range(3):
                    psi = apply_rotation(psi, axis, q, theta[k])
                    k += 1
            for a, b in spec.brick_pairs(layer):
                psi = apply_ms(psi, a, b, theta[k])
                k += 1
        assert np.max(np.abs(run_ansatz_batch(spec, theta)[0] - psi)) < 1e-9
        for pauli in sample_anticommuting_set(3, 7, rng):
            want = np.vdot(psi, dense_pauli(pauli) @ psi).real
            assert abs(expectations_batch(psi, [pauli])[0, 0] - want) < 1e-9
    report("PASS criterion 4: simulator matches dense references at 1e-9")


def test_criterion_05_parameter_shift_vs_finite_differences(use_engine):
    """Analytic loss gradient vs central finite differences at 1e-5:
    n = 3, 4 layers, N = 10, alpha = 4.5, beta = 15, 20 random draws."""
    use_engine("numpy")
    spec = AnsatzSpec(3, 4)
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        paulis = list(sample_anticommuting_set(3, 10, rng))
        ctx = LossContext(spec, paulis, alpha=4.5, beta=15.0, rng=rng)
        theta = rng.uniform(-np.pi, np.pi, spec.param_count)
        grad = parameter_shift_gradient(ctx, theta)
        eps = 1e-5
        for k in range(spec.param_count):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += eps
            tm[k] -= eps
            losses = [relaxed_loss(relax(e, 4.5), 15.0) for e in ctx.exact_expectations([tp, tm])]
            fd = (losses[0] - losses[1]) / (2 * eps)
            assert abs(grad[k] - fd) < 1e-5
    report("PASS criterion 5: parameter-shift gradient vs finite differences (20 draws)")


def test_criterion_06_variational_solver_n13():
    """Default-config solver reaches E = 6 at N = 13 for every one of 10
    seeds with median evals-to-solution at most 2e4."""
    refs = EnergyReferences.from_levels(exact_solve(13).level_energies)
    tts = []
    for seed in range(10):
        result = solve(13, PceConfig(seed=seed), refs)
        assert result.best_energy == 6, f"seed {seed} finished at E={result.best_energy}"
        tts.append(result.evals_to_exact)
    median = float(np.median(tts))
    assert median <= 2e4, f"median evals {median}"
    report(f"PASS criterion 6: variational N = 13, 10/10 solved, median evals {median:.0f} <= 2e4")


def test_criterion_07_tabu_baseline():
    """Tabu reaches the exact optimum on N in {5, 13, 20} for 10 seeds
    each; the 10-seed median at N = 13 stays within 5e4 evaluations."""
    tts13 = []
    for n in (5, 13, 20):
        refs = EnergyReferences.from_levels(exact_solve(n).level_energies)
        for seed in range(10):
            result = tabu_search(n, TabuConfig(seed=seed), refs)
            assert result.best_energy == refs.exact, f"N={n} seed={seed}"
            if n == 13:
                tts13.append(result.evals_to_exact)
    median = float(np.median(tts13))
    assert median <= 5e4, f"median evals {median}"
    report(
        "PASS criterion 7: tabu exact on {5, 13, 20} x 10 seeds, "
        f"median evals at 13 = {median:.0f} <= 5e4"
    )


def test_criterion_08_fit_calibration():
    """Noiseless synthetic scaling recovered to 1e-12; sigma = 0.3
    lognormal noise (50 repeats x 8 sizes) recovers b within 0.04."""
    clean = synthetic_tts(1.5, 2.0, [6, 8, 10, 12, 14, 16, 18, 20], 1, 0.0)
    fit = bench.fit_exponential(clean, mode="median")
    assert abs(fit.b - 1.5) < 1e-12
    assert abs(fit.c - 2.0) < 1e-12
    assert abs(fit.r2 - 1.0) < 1e-12

    noisy = synthetic_tts(1.34, 30.0, range(14, 29, 2), 50, 0.3, seed=42)
    fit = bench.fit_exponential(noisy, mode="median")
    assert abs(fit.b - 1.34) <= 0.04, f"recovered b = {fit.b}"
    report(f"PASS criterion 8: exact fit recovery + lognormal b = {fit.b:.4f} within 0.04")


def test_criterion_09_shot_bound():
    """The analytic alpha=1, N=1, beta=1, eps=1, delta=2/e case gives
    exactly 8; 100 random rational parameter sets back-substitute: the
    returned S is the true ceiling of the bound."""
    exact8 = bench.shot_bound(
        bench.ShotBudgetQuery(n=1, alpha=1.0, beta=1.0, eps=1.0, delta=2 / math.e)
    )
    assert exact8.samples == 8
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        alpha = float(rng.integers(1, 24)) / float(rng.integers(1, 12))
        beta = float(rng.integers(0, 30))
        eps = 1.0 / float(rng.integers(1, 50))
        delta = float(rng.integers(1, 20)) / float(rng.integers(20, 40))
        query = bench.ShotBudgetQuery(n=n, alpha=alpha, beta=beta, eps=eps, delta=delta)
        s = bench.shot_bound(query).samples
        with mpmath.workdps(80):
            value = (
                8 * mpmath.mpf(alpha) ** 2 * n**2
                * (n * (n - 1) + mpmath.mpf(beta)) ** 2
                * mpmath.log(2 * n / mpmath.mpf(delta)) / mpmath.mpf(eps) ** 2
            )
            # S must cover the bound and be within one ulp-snap of tight
            assert s >= value - 1e-9 * max(1, abs(value))
            assert s < value + 1
    report("PASS criterion 9: shot bound exact case + 100 rational back-substitutions")


def _campaign_records(name, config_file):
    cached = ROOT / "bench_out" / name
    if cached.exists():
        return bench.read_records(cached)
    config = bench.CampaignConfig.from_dict(
        json.loads((ROOT / "configs" / config_file).read_text())
    )
    records = bench.run_campaign(config)
    cached.parent.mkdir(exist_ok=True)
    bench.write_records(records, cached)
    return records


def test_criterion_10_reduced_campaign_scaling(published_optima):
    """Reduced campaign (N in {13, 20, 21, 24, 27, 28}, 20 runs each):
    median-mode fits per parity (three even and three odd sizes, mirroring
    the separate even/odd headline fits) give b in [1.15, 1.55] with
    R^2 >= 0.8 for both the variational solver and tabu, and the
    full-scale campaign configs resolve end to end."""
    for name, config_file, solver in (
        ("reduced_pce.jsonl", "reduced_pce.json", "pce"),
        ("reduced_tabu.jsonl", "reduced_tabu.json", "tabu"),
    ):
        records = _campaign_records(name, config_file)
        sizes = sorted({r.n for r in records})
        assert sizes == [13, 20, 21, 24, 27, 28]
        assert sum(1 for r in records) == 120
        for parity in ("even", "odd"):
            fit = bench.fit_exponential(records, mode="median", parity=parity)
            assert 1.15 <= fit.b <= 1.55, f"{solver}/{parity}: b = {fit.b}"
            assert fit.r2 >= 0.8, f"{solver}/{parity}: R^2 = {fit.r2}"
            report(
                f"PASS criterion 10 ({solver}, {parity}): b = {fit.b:.3f} in "
                f"[1.15, 1.55], R^2 = {fit.r2:.3f} >= 0.8, censored = {fit.censored}"
            )

    # full-scale configs must resolve references and solver settings
    for config_file in ("full_pce.json", "full_tabu.json"):
        config = bench.CampaignConfig.from_dict(
            json.loads((ROOT / "configs" / config_file).read_text())
        )
        for n in config.sizes:
            assert config.levels_for(n)[0] == published_optima[n]
            config.solver_settings(n, seed=0)
    report("PASS criterion 10: full-scale campaign configs resolve")


def test_criterion_11_determinism():
    """Identical configuration and seed produce byte-identical outputs:
    solver results and campaign record files."""
    refs = EnergyReferences.from_levels(exact_solve(7).level_energies)
    a = solve(7, PceConfig(seed=5, restart_cap=10), refs)
    b = solve(7, PceConfig(seed=5, restart_cap=10), refs)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    config = bench.CampaignConfig.from_dict(
        {"solver": "tabu", "sizes": [5, 7], "runs_per_size": 2, "base_seed": 6}
    )
    first = [r.to_dict() for r in bench.run_campaign(config)]
    second = [r.to_dict() for r in bench.run_campaign(config)]
    assert json.dumps(first) == json.dumps(second)
    report("PASS criterion 11: byte-identical reruns for solver and campaign")
