"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one PASS line on success (visible with ``pytest -s`` or
``-rA``); a failed assert is the FAIL line. Statistical criteria use
fixed seeds, exact bound arithmetic where the formulas allow it, and a
one-sided three-standard-error slack.
"""

import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import votelab as vl
from votelab import kemeny_decision
from votelab.experiments import ExperimentConfig, run_experiment, write_report
from conftest import dodgson_score_bfs_oracle, kemeny_brute, random_profile, random_ranking

SEED = 20260810


def report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {detail}")


def test_c01_dodgson_oracle_equivalence():
    started = time.perf_counter()
    perms = list(itertools.permutations(range(3)))
    mismatches = 0
    checked = 0
    for combo in itertools.product(perms, repeat=3):
        p = vl.Profile.of(combo)
        for a in range(3):
            checked += 1
            if vl.dodgson_score_exact(p, a) != dodgson_score_bfs_oracle(p, a):
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 60
    report(1, f"lift solver == swap BFS on {checked} queries (216 profiles), {elapsed:.1f}s")


def test_c02_greedy_soundness_and_lower_bound():
    perms = list(itertools.permutations(range(3)))
    sound = 0
    for combo in itertools.product(perms, repeat=3):
        p = vl.Profile.of(combo)
        for a in range(3):
            result = vl.greedy_dodgson(p, a)
            exact = vl.dodgson_score_exact(p, a)
            assert result.score <= exact
            if result.is_definite:
                assert result.score == exact
                sound += 1
    rng = np.random.default_rng(SEED)
    definite = 0
    for _ in range(10_000):
        m = int(rng.integers(3, 6))
        p = random_profile(rng, m, int(rng.integers(1, 10)))
        a = int(rng.integers(m))
        result = vl.greedy_dodgson(p, a)
        if result.is_definite:
            definite += 1
            assert vl.dodgson_score_within(p, a, result.score) == result.score
        else:
            assert vl.dodgson_score_within(p, a, result.score - 1) is None
    report(
        2,
        f"0 certified-answer violations on 648 exhaustive + 10000 random queries "
        f"({definite} certified among random)",
    )


def test_c03_reduction_correctness_exhaustive():
    started = time.perf_counter()
    checked = 0
    for q in (3, 6):
        for inst in vl.enumerate_x3c_instances(q, 6):
            out = vl.x3c_to_dodgson(inst)
            graph = vl.wmg(out.profile)
            for a in out.layout.element_alts:
                assert graph.margin(a, out.critical) == 1
            covered = vl.x3c_bruteforce(inst)
            within = (
                vl.dodgson_score_within(out.profile, out.critical, out.threshold)
                is not None
            )
            assert covered == within
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    report(3, f"cover iff score <= 4q/3 on {checked} instances, margins all +1, {elapsed:.0f}s")


def test_c04_app_last_invariance():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        m = int(rng.integers(3, 6))
        p = random_profile(rng, m, int(rng.integers(1, 8)))
        a = int(rng.integers(m))
        base_dodgson = vl.dodgson_score_exact(p, a)
        base_young = vl.young_score_exact(p, a)
        k = int(rng.integers(1, min(m, 3) + 1))
        committee = vl.Committee.of(rng.choice(m, size=k, replace=False).tolist())
        base_scores = {
            (rule, agg): fn(p, committee, None, agg)
            for rule, fn in (("cc", vl.cc_score), ("monroe", vl.monroe_score))
            for agg in ("sum", "min")
        }
        for extra in (1, 2, 3):
            padded = vl.app_last(p, extra)
            assert vl.dodgson_score_exact(padded, a) == base_dodgson
            assert vl.young_score_exact(padded, a) == base_young
            for (rule, agg), value in base_scores.items():
                fn = vl.cc_score if rule == "cc" else vl.monroe_score
                assert fn(padded, committee, None, agg) == value
    report(4, "Dodgson/Young/CC/Monroe scores bit-identical under bottom-padding, 200 profiles x 3 pads")


def test_c05_kemeny_exactness():
    rng = np.random.default_rng(SEED)
    for trial in range(100):
        m = int(rng.integers(3, 8))
        p = random_profile(rng, m, int(rng.integers(1, 7)))
        ranking, score = vl.kemeny_best(p)
        brute_ranking, brute_score = kemeny_brute(p)
        assert score == brute_score
        assert ranking == brute_ranking
        winner = ranking.order[0]
        assert vl.kemeny_score_of_alternative(p, winner) == score
        assert min(vl.kemeny_score_of_alternative(p, a) for a in range(m)) == score
    report(5, "subset DP == all-rankings brute force on 100 profiles (m up to 7)")


def test_c06_kt_formula_exhaustive():
    rng = np.random.default_rng(SEED)
    graphs = [
        vl.Digraph.of(3, [(0, 1), (1, 2), (2, 0)]),          # 3-cycle
        vl.Digraph.of(4, [(0, 1), (1, 2), (2, 3), (0, 2)]),  # acyclic
        vl.Digraph.of(5, []),                                 # empty
    ]
    for m in (3, 4, 5):
        for g in vl.enumerate_eulerian_digraphs(m):
            graphs.append(g)
        for _ in range(10):
            arcs = [
                (a, b) if rng.random() < 0.5 else (b, a)
                for a, b in itertools.combinations(range(m), 2)
                if rng.random() < 0.5
            ]
            graphs.append(vl.Digraph.of(m, arcs))
    checked = 0
    for g in graphs:
        p = vl.mcgarvey_profile(g)
        for perm in itertools.permutations(range(g.m)):
            r = vl.Ranking(perm)
            assert vl.kt_formula(p, g, r) == vl.kt_profile_distance(p, r)
            checked += 1
    report(6, f"closed-form distance == direct distance on {checked} (graph, ranking) pairs, exact ints")


def test_c07_efas_driver_equals_bruteforce():
    graphs = 0
    queries = 0
    for m in (3, 4, 5):
        for g in vl.enumerate_eulerian_digraphs(m):
            graphs += 1
            for t in range(g.edge_count + 1):
                drive = vl.efas_via_kemeny(g, t, kemeny_decision)
                brute = vl.efas_bruteforce(g, t)
                assert (drive is vl.Decision.YES) == brute
                queries += 1
    report(7, f"threshold driver == feedback-arc brute force on {graphs} Eulerian digraphs, {queries} queries")


def test_c08_sampler_fidelity_chi_square():
    rng = np.random.default_rng(SEED)
    significance = 0.001
    parameters_checked = 0
    for kind in ("alpha_ic", "partial_alt"):
        for i in range(20):
            m = (3, 4, 5)[i % 3]
            parameter = random_ranking(rng, m)
            if kind == "alpha_ic":
                model = vl.AlphaIC(m, Fraction(2, 3))
            else:
                model = vl.PartialAltRandomization(m, int(rng.integers(1, m - 1)))
            samples = 10 * math.factorial(m)
            draws: dict[vl.Ranking, int] = {}
            for _ in range(samples):
                drawn = vl.sample(model, parameter, rng)
                draws[drawn] = draws.get(drawn, 0) + 1
                if kind == "partial_alt":
                    assert vl.top_k(drawn, model.K) == vl.top_k(parameter, model.K)
            support = [
                (r, model.pmf(parameter, r))
                for r in vl.all_rankings(m)
                if model.pmf(parameter, r) > 0
            ]
            assert all(r in dict(support) for r in draws)
            statistic = sum(
                (draws.get(r, 0) - samples * float(prob)) ** 2 / (samples * float(prob))
                for r, prob in support
            )
            critical = chi2.ppf(1 - significance, df=len(support) - 1)
            assert statistic <= critical
            parameters_checked += 1
    report(8, f"chi-square fit at 0.001 on {parameters_checked} (model, parameter) pairs; top-K preservation exact")


DEFINITELY_CFG = dict(
    claim="definitely_rate", trials=10_000, seed=SEED, m=3, n=1000,
    model={"model": "alpha_ic", "alpha": "2/3"},
)
CONCENTRATION_CFG = dict(
    claim="concentration", trials=10_000, seed=SEED, m=3, n=648,
    model={"model": "alpha_ic", "alpha": "2/3"},
)
Q3_YES = {"q": 3, "subsets": [[0, 1, 2]]}
Q6_YES = {"q": 6, "subsets": [[0, 1, 2], [3, 4, 5]]}
Q6_NO = {"q": 6, "subsets": [[0, 1, 2], [2, 3, 4], [0, 4, 5], [1, 3, 5]]}


def test_c09_success_bound_full_scale():
    started = time.perf_counter()
    report_obj = run_experiment(ExperimentConfig(**DEFINITELY_CFG))
    elapsed = time.perf_counter() - started
    check = report_obj.summary["checks"][0]
    assert not check["vacuous"]
    assert check["bound"] == pytest.approx(1 - 4 * math.exp(-1000 / 648))
    assert check["pass"]
    assert elapsed < 300
    report(
        9,
        f"certified rate {check['empirical']:.4f} >= bound {check['bound']:.4f} - 3se, "
        f"10000 trials in {elapsed:.0f}s",
    )


def test_c10_concentration_tails_full_scale():
    report_obj = run_experiment(ExperimentConfig(**CONCENTRATION_CFG))
    checks = {c["name"]: c for c in report_obj.summary["checks"]}
    for name in ("majority_overshoot_tail", "adjacency_shortfall_tail"):
        check = checks[name]
        assert check["bound"] == pytest.approx(math.exp(-1))
        assert check["pass"]
    report(
        10,
        "both tails ({:.4f}, {:.4f}) <= e^-1 + 3se over 10000 trials".format(
            checks["majority_overshoot_tail"]["empirical"],
            checks["adjacency_shortfall_tail"]["empirical"],
        ),
    )


def _alg1_cfg(instance, model, trials=1000):
    return ExperimentConfig(
        claim="cover_driver", trials=trials, seed=SEED, instance=instance,
        model=model, pad=2,
    )


def test_c11_corp_behaviour():
    partial = {"model": "partial_alt", "K": "m1"}
    noisy = {"model": "top_break", "K": "2*m1*n"}

    for instance in (Q3_YES, Q6_YES):
        rep = run_experiment(_alg1_cfg(instance, partial))
        assert rep.summary["frequencies"]["no_rate"] == 0.0
        rep = run_experiment(_alg1_cfg(instance, noisy))
        assert rep.summary["frequencies"]["no_rate"] == 0.0

    rep = run_experiment(_alg1_cfg(Q6_NO, noisy))
    no_rate = rep.summary["frequencies"]["no_rate"]
    se = math.sqrt(no_rate * (1 - no_rate) / 1000)
    assert no_rate >= 1 / 6 - 3 * se
    rep_det = run_experiment(_alg1_cfg(Q6_NO, partial))
    assert rep_det.summary["frequencies"]["no_rate"] == 1.0

    pres = run_experiment(
        ExperimentConfig(
            claim="top_preservation", trials=1000, seed=SEED, instance=Q6_YES,
            model=partial, pad=2,
        )
    )
    assert pres.summary["frequencies"]["preservation_rate"] == 1.0
    report(
        11,
        f"0 wrong NO over 4000 YES-instance trials; NO-rate {no_rate:.3f} >= 1/6 - 3se; "
        "top-slice preservation exactly 1 under wide top-fixing",
    )


def test_c12_determinism_byte_identical(tmp_path: Path):
    configs = [
        dict(DEFINITELY_CFG, trials=2000),
        dict(CONCENTRATION_CFG, trials=2000),
        dict(
            claim="top_preservation", trials=500, seed=SEED, instance=Q3_YES,
            model={"model": "partial_alt", "K": "m1"}, pad=2, plot_data=True,
        ),
        dict(
            claim="cover_driver", trials=500, seed=SEED, instance=Q6_NO,
            model={"model": "top_break", "K": "2*m1*n"}, pad=2,
        ),
    ]
    compared = 0
    for i, cfg_data in enumerate(configs):
        first = write_report(
            run_experiment(ExperimentConfig(**cfg_data)), tmp_path / f"run{i}_a"
        )
        second = write_report(
            run_experiment(ExperimentConfig(**cfg_data)), tmp_path / f"run{i}_b"
        )
        for key in first:
            assert Path(first[key]).read_bytes() == Path(second[key]).read_bytes()
            compared += 1
    report(12, f"reruns byte-identical across {compared} CSV/JSON/plot artifacts, all four claims")
