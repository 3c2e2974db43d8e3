import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import kolmogorov, stdtrit
from scipy.stats import ks_2samp
from scipy.stats import t as student_t

from pcelabs import bench, cli, pce_solver
from pcelabs.baselines import exact_solve
from pcelabs.bench import (
    CampaignConfig,
    RunRecord,
    ShotBudgetQuery,
    crossover,
    fit_exponential,
    ks_two_sample,
    read_records,
    records_to_csv,
    reference_levels,
    run_campaign,
    shot_bound,
    stable_seed,
    tune_sweep,
    write_records,
)

from tts_helpers import PAPER_SIZES_EVEN, PAPER_SIZES_ODD, synthetic_tts

REPO = Path(__file__).resolve().parents[1]
FIT_GOLDEN = json.loads((REPO / "tests" / "data" / "fit_golden.json").read_text())["fits"]


def fit_case_id(case):
    return f"{Path(case['records']).stem}-{case['mode']}-{case['target']}-{case['parity']}"


def test_stable_seed_reproducible_and_spread():
    assert stable_seed(5, 13, 2) == stable_seed(5, 13, 2)
    seeds = {stable_seed(5, n, r) for n in range(3, 20) for r in range(20)}
    assert len(seeds) == 17 * 20


def test_stable_seed_is_a_frozen_function():
    # pinned value: the per-run seed stream must never drift between
    # releases, or campaigns stop being reproducible
    assert stable_seed(0, 13, 0) == 1565923734789508201


@pytest.mark.parametrize("n", range(3, 23))
def test_reference_levels_match_enumeration(n):
    assert reference_levels(n) == exact_solve(n).level_energies


def test_reference_levels_beyond_enumeration():
    assert reference_levels(45) == [118]
    assert reference_levels(37) == [86]


def test_reference_levels_unknown_size():
    with pytest.raises(ValueError):
        reference_levels(64)


def test_known_optima_table_spans_benchmark_sizes(published_optima):
    for n in PAPER_SIZES_EVEN + PAPER_SIZES_ODD:
        assert reference_levels(n)[0] == published_optima[n]


def test_record_round_trip(tmp_path):
    records = synthetic_tts(1.4, 3.0, [10, 12], 2, 0.2, seed=1)
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    again = read_records(path)
    assert [r.to_dict() for r in again] == [r.to_dict() for r in records]
    assert json.loads(path.read_text().splitlines()[0])["schema_version"] == 1


def test_csv_export(tmp_path):
    records = synthetic_tts(1.4, 3.0, [10, 12], 2, 0.0, seed=1)
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "N,tts,solver,seed,target"
    assert len(lines) == 5


def small_campaign(**overrides):
    doc = {
        "solver": "tabu",
        "sizes": [5, 6, 7],
        "runs_per_size": 2,
        "base_seed": 3,
        "tabu": {"eval_budget": 100000},
    }
    doc.update(overrides)
    return CampaignConfig.from_dict(doc)


def test_campaign_runs_in_order_with_derived_seeds():
    records = run_campaign(small_campaign())
    assert [(r.n, r.run_index) for r in records] == [
        (5, 0), (5, 1), (6, 0), (6, 1), (7, 0), (7, 1)
    ]
    for r in records:
        assert r.seed == stable_seed(3, r.n, r.run_index)
        assert r.tts is not None
        assert r.config["eval_budget"] == 100000


def test_campaign_is_deterministic():
    a = run_campaign(small_campaign())
    b = run_campaign(small_campaign())
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_records_name_the_engine_that_ran():
    pce = {"restart_cap": 1, "iters_per_restart": 2}
    ran = pce_solver.resolve_engine()
    (record,) = run_campaign(
        small_campaign(solver="pce", sizes=[5], runs_per_size=1, pce=pce, tabu={})
    )
    assert record.config["engine"] == ran
    warm = small_campaign(
        solver="warm",
        sizes=[5],
        runs_per_size=1,
        pce=pce,
        tabu={},
        memetic={"eval_budget": 200},
        warm={"pce_runs": 2, "population_copies": 2},
    )
    (record,) = run_campaign(warm)
    assert record.config["pce"]["engine"] == ran


def test_campaign_refuses_unknown_size_before_running():
    config = small_campaign(sizes=[5, 64])
    with pytest.raises(ValueError):
        run_campaign(config)


def test_campaign_rejects_impossible_reference():
    # claiming 3 as the optimum at N = 5 (truth: 2) must abort the run
    config = small_campaign(sizes=[5], references={"5": [3]})
    with pytest.raises(RuntimeError):
        run_campaign(config)


def test_committed_tabu_records_replay():
    """Every 10th record of the committed reduced tabu campaign, rerun from
    its config with references resolved as ``run_campaign`` resolves them."""
    config = CampaignConfig.from_dict(
        json.loads((REPO / "configs" / "reduced_tabu.json").read_text())
    )
    config = replace(config, references={n: config.levels_for(n) for n in config.sizes})
    lines = (REPO / "bench_out" / "reduced_tabu.jsonl").read_text().splitlines()
    for line in lines[::10]:
        record = json.loads(line)
        replayed = bench._run_one(config, record["n"], record["run_index"])
        assert replayed.to_dict() == record


def load_bench_snapshot():
    path = REPO / "scripts" / "bench_snapshot.py"
    spec = importlib.util.spec_from_file_location("bench_snapshot", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    return snapshot


def test_bench_snapshot_campaign_runs_match_the_campaign():
    """The snapshot's campaign jobs, run as it runs them, give the records of
    ``bench._run_one``; the PCE job's row counts and lockstep batches fit
    its record.  This also fails if a name the jobs patch is renamed."""
    snapshot = load_bench_snapshot()
    jobs = {
        "pce": (snapshot.CAMPAIGN_RUN, snapshot.CAMPAIGN),
        "tabu": (snapshot.TABU_CAMPAIGN_RUN, snapshot.TABU_CAMPAIGN),
    }
    for solver, (script, path) in jobs.items():
        jobs[solver] = snapshot.run_campaign_job(script, path, REPO / "src", 13, 0)
        config = CampaignConfig.from_dict(json.loads(path.read_text()))
        assert config.solver == solver
        assert jobs[solver]["record"] == bench._run_one(config, 13, 0).to_dict()
    assert jobs["pce"]["rows_discarded"] >= 0
    assert sum(jobs["pce"]["batch_sizes"]) >= jobs["pce"]["restarts_used"]


def test_bench_snapshot_exact_job_matches_exact_solve():
    snapshot = load_bench_snapshot()
    job = snapshot.run_job(snapshot.EXACT_RUN, REPO / "src", 13)
    assert job["result"] == exact_solve(13).to_dict()
    assert job["wall_s"] > 0


def test_bench_snapshot_runner_alternates_the_variants(monkeypatch, tmp_path):
    snapshot = load_bench_snapshot()
    run_job, calls = snapshot.run_job, []

    def logged(script, src, *args):
        calls.append(src)
        return run_job(script, src, *args)

    monkeypatch.setattr(snapshot, "run_job", logged)
    first, second = REPO / "src", tmp_path / "src"
    second.symlink_to(first)
    variants = {"checkout": (first,), "other": (second,)}
    jobs = [({"N": 5, "repeat": r}, (5,)) for r in range(3)]
    rows = snapshot.alternate("exact", snapshot.EXACT_RUN, jobs, variants, "result", lambda run: {})
    assert calls == [first, second, second, first, first, second]
    assert [(row["N"], row["repeat"]) for row in rows] == [(5, 0), (5, 1), (5, 2)]
    assert all(row["identical"] for row in rows)
    assert all(row["checkout_wall_s"] > 0 and row["other_wall_s"] > 0 for row in rows)
    summary = snapshot.summarize(rows, variants)["N5"]
    assert (summary["runs"], summary["identical"]) == (3, True)
    assert summary["checkout_total_wall_s"] > 0 and "speedup_over_other_total" in summary
    assert snapshot.exit_code({"exact": {"runs": rows}}) == 0


def test_bench_snapshot_flags_a_variant_with_another_result(tmp_path):
    stub = tmp_path / "pcelabs"
    stub.mkdir()
    (stub / "__init__.py").write_text("")
    (stub / "baselines.py").write_text(
        "class Result:\n"
        "    def to_dict(self):\n"
        "        return {'n': 0}\n"
        "def exact_solve(n):\n"
        "    return Result()\n"
    )
    snapshot = load_bench_snapshot()
    variants = {"checkout": (REPO / "src",), "parent": (tmp_path,)}
    rows = snapshot.alternate(
        "exact", snapshot.EXACT_RUN, [({"N": 5, "repeat": 0}, (5,))], variants, "result", lambda run: {}
    )
    assert not rows[0]["identical"]
    assert not snapshot.summarize(rows, variants)["N5"]["identical"]
    assert snapshot.exit_code({"environment": {}, "exact": {"runs": rows}}) == 1


def test_bench_snapshot_runs_only_the_parts_named(monkeypatch, tmp_path):
    snapshot = load_bench_snapshot()
    ran = []
    monkeypatch.setattr(snapshot, "run_workload", lambda w, *args: ran.append(w) or {"metrics": {}})
    monkeypatch.setattr(snapshot, "alternate", lambda name, *args: ran.append(name) or [])
    monkeypatch.setattr(snapshot, "summarize", lambda runs, variants: {})
    out = tmp_path / "snapshot.json"
    assert snapshot.main(["--out", str(out), "--part", "tabu", "--part", "tabu_campaign"]) == 0
    assert ran == ["tabu", "tabu_campaign"]
    assert set(json.loads(out.read_text())) == {"environment", "perfbench", "tabu_campaign"}
    ran.clear()
    with pytest.raises(SystemExit):
        snapshot.main(["--out", str(out), "--part", "tabu", "--part", "annealer"])
    assert ran == []


def run_ab(parent: Path, *args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "ab.py"), "--parent", str(parent), *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_ab_reads_a_tree_against_itself():
    code, summary = run_ab(REPO / "src", "--workload", "tabu", "--rounds", "2")
    assert code == 0 and summary["records_identical"]
    assert summary["rounds"] == 2 and summary["change_won"] + summary["parent_won"] <= 2
    low, high = summary["round_ratio_interval"]
    assert low <= summary["round_ratio"] <= high


def test_ab_flags_a_tree_with_other_records(tmp_path):
    """The parent is a copy of ``src`` whose tabu runs give the solver
    another name: ``ab.py`` must run each tree's own code and exit 1."""
    shutil.copytree(
        REPO / "src" / "pcelabs", tmp_path / "pcelabs", ignore=shutil.ignore_patterns("__pycache__")
    )
    path = tmp_path / "pcelabs" / "baselines.py"
    text = path.read_text()
    assert 'counter.result("tabu",' in text
    path.write_text(text.replace('counter.result("tabu",', 'counter.result("tabu-copy",'))
    code, summary = run_ab(tmp_path, "--workload", "tabu", "--rounds", "1")
    assert code == 1 and not summary["records_identical"]


def test_campaign_solver_validation():
    with pytest.raises(ValueError):
        CampaignConfig.from_dict({"solver": "annealer", "sizes": [5], "runs_per_size": 1})


def test_campaign_config_round_trip():
    """A config file's document loads with its JSON string keys as ints."""
    doc = json.loads(
        """{
            "solver": "tabu", "sizes": [5, 6, 7], "runs_per_size": 2, "base_seed": 3,
            "tabu": {"eval_budget": 100000},
            "per_size": {"7": {"eval_budget": 5000}},
            "references": {"5": [2, 6, 10]}
        }"""
    )
    config = CampaignConfig.from_dict(doc)
    assert config.sizes == (5, 6, 7)
    assert config.per_size == {7: {"eval_budget": 5000}}
    assert config.references == {5: [2, 6, 10]}
    assert config.solver_settings(7, 0).eval_budget == 5000
    assert config.solver_settings(6, 0).eval_budget == 100000


def test_fit_recovers_noiseless_scaling_exactly():
    records = synthetic_tts(1.5, 2.0, [6, 8, 10, 12, 14, 16, 18, 20], 1, 0.0)
    for mode in ("median", "ensemble"):
        fit = fit_exponential(records, mode=mode)
        assert fit.b == pytest.approx(1.5, abs=1e-12)
        assert fit.c == pytest.approx(2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_recovers_base_under_lognormal_noise():
    records = synthetic_tts(1.34, 30.0, range(14, 29, 2), 50, 0.3, seed=42)
    fit = fit_exponential(records, mode="median")
    assert abs(fit.b - 1.34) <= 0.04
    assert fit.ci_b[0] < 1.34 < fit.ci_b[1]
    assert fit.r2 > 0.9


def test_fit_censoring_and_parity():
    records = synthetic_tts(1.4, 5.0, [9, 10, 11, 12, 13, 14], 4, 0.1, seed=0)
    records[0].tts = None
    records[7].tts = None
    fit = fit_exponential(records)
    assert fit.censored == 2
    assert fit.parity == "all"
    even = fit_exponential(records, parity="even")
    assert even.parity == "even"
    assert all(n % 2 == 0 for n, _ in even.points)


def test_fit_needs_three_sizes():
    records = synthetic_tts(1.4, 5.0, [9, 10], 4, 0.1)
    with pytest.raises(ValueError):
        fit_exponential(records)
    # censoring a whole size drops it from the distinct count
    records = synthetic_tts(1.4, 5.0, [9, 10, 11], 1, 0.1)
    records[2].tts = None
    with pytest.raises(ValueError):
        fit_exponential(records)


def test_fit_confidence_intervals_shrink_with_more_data():
    small = synthetic_tts(1.3, 10.0, range(10, 26, 5), 5, 0.3, seed=9)
    large = synthetic_tts(1.3, 10.0, range(10, 26, 5), 200, 0.3, seed=9)
    f_small = fit_exponential(small, mode="ensemble")
    f_large = fit_exponential(large, mode="ensemble")
    assert (f_large.ci_b[1] - f_large.ci_b[0]) < (f_small.ci_b[1] - f_small.ci_b[0])


@pytest.mark.parametrize("case", FIT_GOLDEN, ids=fit_case_id)
def test_fit_and_cli_output_match_golden(case):
    records = read_records(REPO / case["records"])
    fit = fit_exponential(
        records, mode=case["mode"], target=case["target"], parity=case["parity"]
    )
    assert fit.to_dict() == case["fit"]
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["fit", "--records", str(REPO / case["records"]), "--mode", case["mode"],
                       "--target", case["target"], "--parity", case["parity"]])
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == case["cli_stdout_sha256"]


def test_t_quantile_matches_scipy_stats_bitwise():
    # fit_exponential takes its 97.5% quantile from stdtrit, the function
    # behind scipy.stats.t.ppf, so the golden fits above stay exact
    for dof in range(1, 201):
        assert float(stdtrit(dof, 0.975)).hex() == float(student_t.ppf(0.975, dof)).hex()


def test_solver_path_loads_neither_scipy_nor_mpmath():
    code = (
        "import json, sys\n"
        "import pcelabs, pcelabs.cli, pcelabs.bench, pcelabs.baselines, pcelabs.pce_solver\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'mpmath'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == []


def test_ks_statistic_matches_scipy(rng):
    a = rng.normal(0, 1, 83)
    b = rng.normal(0.3, 1.2, 71)
    mine = ks_two_sample(a, b)
    ref = ks_2samp(a, b)
    assert mine.d == pytest.approx(ref.statistic, abs=1e-14)


def test_ks_pvalue_matches_kolmogorov_series(rng):
    for shift in (0.0, 0.5, 1.5):
        a = rng.normal(0, 1, 60)
        b = rng.normal(shift, 1, 90)
        mine = ks_two_sample(a, b)
        en = 60 * 90 / 150
        assert mine.p == pytest.approx(float(kolmogorov(math.sqrt(en) * mine.d)), abs=1e-10)


def test_ks_identical_samples():
    a = np.arange(50, dtype=float)
    result = ks_two_sample(a, a)
    assert result.d == 0.0
    assert result.p == 1.0


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_tune_sweep_picks_smallest_sufficient(rng):
    base = rng.normal(5.0, 1.0, 80)
    samples = {
        1: rng.normal(2.0, 1.0, 80),      # clearly worse
        2: base + rng.normal(0, 0.05, 80),
        3: base + rng.normal(0, 0.05, 80),
        4: base + rng.normal(0, 0.05, 80),
    }
    assert tune_sweep(samples) == 2


def test_tune_sweep_falls_back_to_largest(rng):
    samples = {k: rng.normal(float(k), 0.1, 60) for k in (1, 2, 3)}
    assert tune_sweep(samples) == 3


def test_tune_sweep_needs_two_settings(rng):
    with pytest.raises(ValueError):
        tune_sweep({1: rng.normal(0, 1, 10)})


def test_shot_bound_analytic_case():
    """alpha = 1, N = 1, beta = 1, eps = 1, delta = 2/e collapses the
    bound to 8 * ln(e) = 8 exactly."""
    result = shot_bound(ShotBudgetQuery(n=1, alpha=1.0, beta=1.0, eps=1.0, delta=2 / math.e))
    assert result.samples == 8
    assert result.eta == pytest.approx(0.5)


def test_shot_bound_matches_high_precision_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(1, 60))
        alpha = float(rng.integers(1, 15)) / float(rng.integers(1, 10))
        beta = float(rng.integers(0, 20))
        eps = 1.0 / float(rng.integers(1, 40))
        delta = 1.0 / float(rng.integers(2, 40))
        got = shot_bound(ShotBudgetQuery(n=n, alpha=alpha, beta=beta, eps=eps, delta=delta))
        with mpmath.workdps(80):
            value = (
                8 * mpmath.mpf(alpha) ** 2 * n**2
                * (n * (n - 1) + mpmath.mpf(beta)) ** 2
                * mpmath.log(2 * n / mpmath.mpf(delta)) / mpmath.mpf(eps) ** 2
            )
            want = int(mpmath.ceil(value))
        assert abs(got.samples - want) <= 1
        assert got.eta == pytest.approx(eps / (2 * alpha * (n * (n - 1) + beta)))


def test_shot_bound_monotone_in_n():
    sizes = [shot_bound(ShotBudgetQuery(n=n, alpha=6.0, beta=15.0, eps=0.1, delta=0.01)).samples for n in (10, 20, 40)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_shot_bound_validation():
    with pytest.raises(ValueError):
        ShotBudgetQuery(n=0, alpha=1.0, beta=1.0, eps=0.5, delta=0.5)
    with pytest.raises(ValueError):
        ShotBudgetQuery(n=3, alpha=1.0, beta=1.0, eps=1.5, delta=0.5)
    with pytest.raises(ValueError):
        ShotBudgetQuery(n=3, alpha=-1.0, beta=1.0, eps=0.5, delta=0.5)


def test_crossover_reference_point():
    assert crossover({"b": 1.3, "c": 100.0}, {"b": 1.4, "c": 1.0}) == 63


def test_crossover_boundary_invariant():
    n_star = crossover({"b": 1.3, "c": 100.0}, {"b": 1.4, "c": 1.0})
    cost_q = lambda n: 100.0 * 1.3**n
    cost_c = lambda n: 1.4**n
    assert cost_q(n_star) <= cost_c(n_star)
    assert cost_q(n_star - 1) > cost_c(n_star - 1)


def test_crossover_overhead_delays_the_crossing():
    base = crossover({"b": 1.3, "c": 100.0}, {"b": 1.4, "c": 1.0})
    with_overhead = crossover({"b": 1.3, "c": 100.0}, {"b": 1.4, "c": 1.0}, k=1000.0, p=2.0)
    assert with_overhead > base


def test_crossover_none_when_never_cheaper():
    assert crossover({"b": 1.5, "c": 1.0}, {"b": 1.2, "c": 1.0}) is None


def test_crossover_accepts_fit_results():
    records = synthetic_tts(1.3, 100.0, [10, 12, 14, 16], 1, 0.0)
    fit_q = fit_exponential(records)
    assert crossover(fit_q, {"b": 1.4, "c": 1.0}) == 63


def test_crossover_validation():
    with pytest.raises(ValueError):
        crossover({"b": -1.0, "c": 1.0}, {"b": 1.4, "c": 1.0})
    with pytest.raises(ValueError):
        crossover({"b": 1.3, "c": 1.0}, {"b": 1.4, "c": 1.0}, k=0.0)
