import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from votelab import (
    AlphaIC,
    Decision,
    Profile,
    Ranking,
    all_rankings,
    dodgson_score_within,
    experiments,
    reductions,
)
from votelab.experiments import (
    ExperimentConfig,
    _padded_reduction,
    _trial_rngs,
    _trial_tallies,
    run_cover_driver,
    run_concentration_tails,
    run_top_preservation,
    run_definitely_rate,
    run_experiment,
    write_report,
)
from votelab.greedy_dodgson import _tally_table
from votelab.models import TopBreakNoise
from conftest import (
    adjacent_brute,
    greedy_brute,
    random_parameter_profiles_per_agent,
    sample_orders_per_agent,
    votes_brute,
)

ALPHA_IC = {"model": "alpha_ic", "alpha": "2/3"}
Q3 = {"q": 3, "subsets": [[0, 1, 2]]}
Q6_YES = {"q": 6, "subsets": [[0, 1, 2], [3, 4, 5]]}
Q6_NO = {"q": 6, "subsets": [[0, 1, 2], [2, 3, 4], [0, 4, 5], [1, 3, 5]]}


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"claim": "definitely_rate", "trials": 1, "seed": 0, "bogus": 1})

    def test_bad_claim_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(claim="theorem5", trials=1, seed=0)

    def test_scale_invariants(self):
        with pytest.raises(ValueError):
            ExperimentConfig(claim="definitely_rate", trials=0, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(claim="definitely_rate", trials=1, seed=0, m=2)
        with pytest.raises(ValueError):
            ExperimentConfig(claim="definitely_rate", trials=1, seed=0, n=0)

    def test_trials_capped_at_one_spawn_word(self):
        # Configs only: a run of 2^32 trials is never started.
        assert ExperimentConfig(claim="definitely_rate", trials=2**32, seed=0).trials == 2**32
        for trials in (2**32 + 1, 2**40):
            with pytest.raises(ValueError, match="'trials' must be at most 4294967296"):
                ExperimentConfig(claim="definitely_rate", trials=trials, seed=0)

    def test_hash_stable_and_path_independent(self):
        a = ExperimentConfig(claim="definitely_rate", trials=5, seed=1, m=3, n=10, model=ALPHA_IC)
        b = ExperimentConfig(
            claim="definitely_rate", trials=5, seed=1, m=3, n=10, model=ALPHA_IC, plot_data=True
        )
        assert a.config_hash() == b.config_hash()


@given(seed=st.integers(0, 2**256), trials=st.integers(1, 500))
# Seeds of more than four 32-bit words mix the extra words in after the
# pool; 300 trials cross a seeding block.
@example(seed=2**128 + 2**64 + 7, trials=3)
@example(seed=2**256, trials=300)
@settings(max_examples=40, deadline=None)
def test_trial_rngs_match_spawned_seed_sequences(seed, trials):
    cfg = ExperimentConfig(claim="definitely_rate", trials=trials, seed=seed)
    spawned = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(trials))
    for rng, expected in zip(_trial_rngs(cfg), spawned, strict=True):
        assert rng.bit_generator.state == expected.bit_generator.state
        assert rng.random(3).tolist() == expected.random(3).tolist()


class TestDefinitelyRate:
    # The regime checks in their order: a config that fails more than one
    # is rejected by the first.
    REGIME_CASES = [
        (dict(n=10, model={"model": "top_break", "K": 1}), "needs explicit m and n"),
        (dict(m=3, model={"model": "alpha_ic", "alpha": "1/2"}), "needs explicit m and n"),
        (dict(m=3, n=10, model={"model": "top_break", "K": 1}), "uniform-noise model"),
        (dict(m=3, n=10, model={"model": "partial_alt", "K": 1}), "uniform-noise model"),
        (dict(m=3, n=10, model={"model": "alpha_ic", "alpha": "1/2"}), "regime floor"),
        # The floor comes before the shared_bottom cap at m=9 (exit 1, not 2).
        (
            dict(m=9, n=10, model={"model": "alpha_ic", "alpha": "1/2"}, adversary="shared_bottom"),
            "regime floor",
        ),
    ]

    def test_regime_rejected_below_floor(self):
        for claim in ("definitely_rate", "concentration"):
            for fields, message in self.REGIME_CASES:
                cfg = ExperimentConfig(claim=claim, trials=5, seed=0, **fields)
                with pytest.raises(ValueError, match=message):
                    run_experiment(cfg)

    def test_small_run_passes(self):
        # n must exceed 648*ln(4) ~ 899 for the bound to be positive
        cfg = ExperimentConfig(
            claim="definitely_rate", trials=300, seed=5, m=3, n=1000, model=ALPHA_IC
        )
        report = run_definitely_rate(cfg)
        assert report.all_pass
        assert len(report.rows) == 300
        gating = [c for c in report.summary["checks"] if not c["informational"]]
        assert gating and not gating[0]["vacuous"]

    def test_vacuous_bound_recorded(self):
        # n far below 72 m^2 log(2(m-1)): the bound is negative
        cfg = ExperimentConfig(claim="definitely_rate", trials=50, seed=5, m=3, n=5, model=ALPHA_IC)
        report = run_definitely_rate(cfg)
        check = report.summary["checks"][0]
        assert check["vacuous"] and check["pass"]
        assert check["bound"] <= 0

    def test_random_parameter_sweep_mode(self):
        cfg = ExperimentConfig(
            claim="definitely_rate", trials=40, seed=9, m=3, n=30,
            model=ALPHA_IC, adversary="random_profile",
        )
        report = run_definitely_rate(cfg)
        assert len(report.rows) == 40


def alpha_config(claim, m, n, alpha, adversary, trials=4, seed=0):
    return ExperimentConfig(
        claim=claim, trials=trials, seed=seed, m=m, n=n,
        model={"model": "alpha_ic", "alpha": str(alpha)}, adversary=adversary,
    )


def profile_tallies(profile, target) -> list[int]:
    """The ``2m`` tallies of a trial counted ballot by ballot off a
    :class:`Profile`: voters ranking each ``b`` over the target, then the
    ballots with each ``b`` directly above it (0 for the target itself)."""
    rivals = [b for b in range(profile.m) if b != target]
    tallies = [0] * (2 * profile.m)
    for b in rivals:
        tallies[b] = votes_brute(profile, b, target)
        tallies[profile.m + b] = adjacent_brute(profile, target, b)
    return tallies


class TestRandomProfileAdversary:
    @pytest.mark.parametrize("seed", [0, 7, 2026])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_matches_per_agent_sampling(self, seed, m):
        model = AlphaIC(m, Fraction(m - 1, m))
        cfg = alpha_config("definitely_rate", m, 60, model.alpha, "random_profile", seed=seed)
        targets, tallies = _trial_tallies(cfg)
        reference = list(random_parameter_profiles_per_agent(seed, 4, m, 60, model))
        assert len(targets) == len(tallies) == 4
        for tally, target, (expected, expected_target) in zip(tallies.tolist(), targets, reference):
            assert target == expected_target
            assert tally == profile_tallies(expected, target)

    @given(
        m=st.integers(3, 7),
        n=st.integers(1, 300),
        tenths_above_floor=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_draws_match_per_agent_sampling(self, m, n, tenths_above_floor, seed):
        # alpha runs from the regime floor 1 - 1/m (0 tenths) up to 1 (10 tenths).
        floor = 1 - Fraction(1, m)
        model = AlphaIC(m, floor + (1 - floor) * Fraction(tenths_above_floor, 10))
        cfg = alpha_config("definitely_rate", m, n, model.alpha, "random_profile", 2, seed)
        targets, tallies = _trial_tallies(cfg)
        reference = [
            (target, profile_tallies(profile, target))
            for profile, target in random_parameter_profiles_per_agent(seed, 2, m, n, model)
        ]
        assert list(zip(targets, tallies.tolist())) == reference


def assert_trial_matches_profile(tally, profile, target, row):
    assert tally == profile_tallies(profile, target)
    assert (row["score_lower_bound"], row["definitely"]) == greedy_brute(profile, target)


class TestTrialTallies:
    """Each trial's tallies and greedy answer equal those of its :class:`Profile`."""

    @pytest.mark.parametrize("seed", [1, 31])
    @pytest.mark.parametrize("m, n", [(3, 1), (4, 60), (5, 200), (7, 40)])
    def test_random_profile_matches_per_agent_profiles(self, seed, m, n):
        model = AlphaIC(m, Fraction(m - 1, m))
        cfg = alpha_config("definitely_rate", m, n, model.alpha, "random_profile", seed=seed)
        targets, tallies = _trial_tallies(cfg)
        rows = run_definitely_rate(cfg).rows
        reference = random_parameter_profiles_per_agent(seed, cfg.trials, m, n, model)
        for tally, target, row, (profile, expected_target) in zip(
            tallies.tolist(), targets, rows, reference, strict=True
        ):
            assert target == expected_target
            assert_trial_matches_profile(tally, profile, target, row)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("n", [1, 2, 45])
    def test_shared_bottom_matches_multinomial_profiles(self, m, n):
        model = AlphaIC(m, 1 - Fraction(1, m))
        cfg = alpha_config("definitely_rate", m, n, model.alpha, "shared_bottom", 3, 100 * m + n)
        rankings = all_rankings(m)
        # Every agent on the ascending ranking, resampled uniformly w.p. alpha.
        probs = np.full(len(rankings), float(model.alpha) / math.factorial(m))
        probs[rankings.index(Ranking(tuple(range(m))))] += 1 - float(model.alpha)
        probs /= probs.sum()
        draws = [rng.multinomial(n, probs) for rng in _trial_rngs(cfg)]
        targets, tallies = _trial_tallies(cfg)
        rows = run_definitely_rate(cfg).rows
        for tally, target, row, counts in zip(tallies.tolist(), targets, rows, draws, strict=True):
            assert target == m - 1
            profile = Profile.from_counts(zip(rankings, counts.tolist()))
            assert_trial_matches_profile(tally, profile, target, row)

    def test_shared_bottom_builds_one_table_per_config(self, monkeypatch):
        built = []

        def counted(orders, target):
            built.append(target)
            return _tally_table(orders, target)

        monkeypatch.setattr(experiments, "_tally_table", counted)
        run_definitely_rate(alpha_config("definitely_rate", 4, 50, "3/4", "shared_bottom", 9))
        assert built == [3]
        built.clear()
        run_definitely_rate(alpha_config("definitely_rate", 4, 50, "3/4", "random_profile", 9))
        assert len(built) == 9

    def test_concentration_rows_match_profiles(self):
        m, n = 4, 80
        model = AlphaIC(m, Fraction(3, 4))
        cfg = alpha_config("concentration", m, n, model.alpha, "random_profile", 6, 17)
        rows = run_concentration_tails(cfg).rows
        reference = random_parameter_profiles_per_agent(17, cfg.trials, m, n, model)
        for row, (profile, target) in zip(rows, reference, strict=True):
            expected = profile_tallies(profile, target)
            for b in range(m):
                if b == target:
                    assert f"outranked_by_{b}" not in row
                else:
                    assert row[f"outranked_by_{b}"] == expected[b]
                    assert row[f"directly_above_{b}"] == expected[m + b]


class TestClaim1:
    def test_beta_value(self):
        # m=3, n=12: (3/4 - 1/6) * 4
        cfg = ExperimentConfig(claim="concentration", trials=5, seed=0, m=3, n=12, model=ALPHA_IC)
        report = run_concentration_tails(cfg)
        assert report.summary["bounds"]["beta"] == str(Fraction(7, 3))

    def test_small_run_passes(self):
        cfg = ExperimentConfig(claim="concentration", trials=400, seed=3, m=3, n=648, model=ALPHA_IC)
        report = run_concentration_tails(cfg)
        assert report.all_pass
        assert math.isclose(report.summary["bounds"]["tail_bound"], math.exp(-1))

    @pytest.mark.parametrize(
        "m, n, trials, seed, shortfall_rate",
        [
            (4, 40, 200, 11, 19 / 151),
            # Two labels tie at the highest rate over different rival counts.
            (3, 1, 7, 18, None),
            # beta = 13 is an integer, so a tally equal to it is no shortfall.
            (5, 100, 20, 1030231462524, None),
            # One trial: its target is never a rival.
            (6, 5, 1, 3, None),
        ],
        ids=["rival_share", "tie", "integer_beta", "never_a_rival"],
    )
    def test_per_label_rates_count_only_rival_trials(self, m, n, trials, seed, shortfall_rate):
        # Under per-trial targets a label is the target, not a rival, in
        # about 1/m of the trials; its rate is over the others only, and the
        # worst label is the first at the highest rate.
        cfg = ExperimentConfig(
            claim="concentration", trials=trials, seed=seed, m=m, n=n,
            model={"model": "alpha_ic", "alpha": str(1 - Fraction(1, m))},
            adversary="random_profile",
        )
        report = run_concentration_tails(cfg)
        beta = Fraction(report.summary["bounds"]["beta"])
        tail_bound = report.summary["bounds"]["tail_bound"]
        per_label = {"majority_overshoot_tail": [], "adjacency_shortfall_tail": []}
        hits = [0] * cfg.trials
        for b in range(cfg.m):
            rival_rows = [(t, row) for t, row in enumerate(report.rows) if f"outranked_by_{b}" in row]
            if not rival_rows:
                continue
            rivals = len(rival_rows)
            overshoot = shortfall = 0
            for t, row in rival_rows:
                over = row[f"outranked_by_{b}"] > Fraction(cfg.n, 2) + beta
                short = row[f"directly_above_{b}"] < beta
                overshoot, shortfall = overshoot + over, shortfall + short
                hits[t] |= over or short
            per_label["majority_overshoot_tail"].append((overshoot / rivals, rivals))
            per_label["adjacency_shortfall_tail"].append((shortfall / rivals, rivals))
        for check in report.summary["checks"]:
            rate, rivals = max(per_label[check["name"]], key=lambda pair: pair[0])
            se = math.sqrt(rate * (1 - rate) / rivals)
            assert report.summary["frequencies"][check["name"]] == rate
            assert check["threshold"] == pytest.approx(tail_bound + 3 * se, rel=1e-12)
        assert report.summary["plot_series"][-1] == (cfg.trials, sum(hits) / cfg.trials)
        if shortfall_rate is not None:
            assert report.summary["frequencies"]["adjacency_shortfall_tail"] == shortfall_rate

    def test_maybe_rate_bounded_by_union_of_tails(self):
        # same seed => identical sampled profiles in both runs
        common = dict(trials=500, seed=77, m=3, n=648, model=ALPHA_IC)
        definite = run_definitely_rate(ExperimentConfig(claim="definitely_rate", **common))
        tails = run_concentration_tails(ExperimentConfig(claim="concentration", **common))
        maybe_rate = definite.summary["frequencies"]["maybe_rate"]
        worst = max(
            tails.summary["frequencies"]["majority_overshoot_tail"],
            tails.summary["frequencies"]["adjacency_shortfall_tail"],
        )
        m = 3
        assert maybe_rate <= 2 * (m - 1) * worst + 1e-12


class TestClaim2:
    def test_partial_alt_preserves_always(self):
        cfg = ExperimentConfig(
            claim="top_preservation", trials=60, seed=2, instance=Q3,
            model={"model": "partial_alt", "K": "m1"}, pad=3,
        )
        report = run_top_preservation(cfg)
        assert report.summary["frequencies"]["preservation_rate"] == 1.0
        names = {c["name"] for c in report.summary["checks"]}
        assert "preservation_rate_exact_one" in names
        assert report.all_pass

    def test_top_break_rate_above_half(self):
        cfg = ExperimentConfig(
            claim="top_preservation", trials=400, seed=2, instance=Q6_YES,
            model={"model": "top_break", "K": "2*m1*n"}, pad=2,
        )
        report = run_top_preservation(cfg)
        assert report.all_pass
        chain = [
            c for c in report.summary["checks"] if c["name"] == "compounded_rate_chain_holds"
        ]
        assert chain and chain[0]["chain_holds"]

    def test_top_break_sampler_distribution(self):
        noise = TopBreakNoise(4, 4)
        parameter = Ranking.of([2, 0, 1, 3])
        total = sum(noise.pmf(parameter, r) for r in all_rankings(4))
        assert total == 1
        assert noise.pmf(parameter, parameter) == Fraction(3, 4)


class TestAlgorithm1Run:
    def test_yes_instance_never_wrong(self):
        cfg = ExperimentConfig(
            claim="cover_driver", trials=80, seed=4, instance=Q6_YES,
            model={"model": "partial_alt", "K": "m1"}, pad=2,
        )
        report = run_cover_driver(cfg)
        assert report.summary["frequencies"]["no_rate"] == 0.0
        assert report.all_pass

    def test_no_instance_deterministic_model(self):
        cfg = ExperimentConfig(
            claim="cover_driver", trials=40, seed=4, instance=Q6_NO,
            model={"model": "partial_alt", "K": "m1"}, pad=2,
        )
        report = run_cover_driver(cfg)
        assert report.summary["frequencies"]["no_rate"] == 1.0
        assert report.all_pass

    def test_no_instance_noisy_model_meets_bound(self):
        cfg = ExperimentConfig(
            claim="cover_driver", trials=300, seed=4, instance=Q6_NO,
            model={"model": "top_break", "K": "2*m1*n"}, pad=2,
        )
        report = run_cover_driver(cfg)
        assert report.all_pass
        assert report.summary["frequencies"]["no_rate"] >= 1 / 6


class TestCoverDriverTrials:
    CONFIGS = [
        dict(instance=Q6_NO, model={"model": "top_break", "K": "2*m1*n"}, pad=2),
        dict(instance=Q6_NO, model={"model": "partial_alt", "K": "m1"}, pad=2),
        dict(instance=Q6_NO, model={"model": "alpha_ic", "alpha": "1/2"}, pad=1),
        dict(instance=Q6_YES, model={"model": "top_break", "K": "m1"}, pad=2),
        # Almost every sampled multiset is new here, so the decision memo misses.
        dict(instance=Q6_NO, model={"model": "partial_alt", "K": "m1"}, pad=4),
    ]

    @pytest.mark.parametrize(
        "spec", CONFIGS, ids=["top_break", "partial_alt", "alpha_ic", "yes", "partial_alt_pad4"]
    )
    def test_each_trial_is_one_driver_call(self, spec):
        cfg = ExperimentConfig(claim="cover_driver", trials=30, seed=21, **spec)
        report = run_cover_driver(cfg)
        inst, _, model = _padded_reduction(cfg)

        def decider(p, a, t):
            return Decision.YES if dodgson_score_within(p, a, t) is not None else Decision.NO

        expected = [
            reductions.x3c_via_dodgson(inst, decider, model, rng).value
            for rng in _trial_rngs(cfg)
        ]
        assert [row["answer"] for row in report.rows] == expected

    DRIVER_SPECS = [
        dict(model={"model": "top_break", "K": "2*m1*n"}, pad=2),
        dict(model={"model": "partial_alt", "K": "m1"}, pad=2),
        dict(model={"model": "partial_alt", "K": "m1"}, pad=4),
    ]
    DRIVER_IDS = ["top_break", "partial_alt", "partial_alt_pad4"]

    @staticmethod
    def _matched_draws(cfg):
        """Each trial's draw, agent by agent, and whether it kept every top slice."""
        _, out, model = _padded_reduction(cfg)
        params = reductions.build_padded_parameter_profile(out, model).agent_orders
        reference = np.array([r.order for r, c in out.profile.grouped.items() for _ in range(c)])
        for rng in _trial_rngs(cfg):
            drawn = sample_orders_per_agent(model, params, rng)
            yield drawn, reductions.top_slices_match(drawn[None], reference)[0]

    @pytest.mark.parametrize(
        "spec, queries",
        [
            *((spec, 1) for spec in DRIVER_SPECS),
            (dict(model={"model": "top_break", "K": 1}, pad=2), 0),
        ],
        ids=[*DRIVER_IDS, "top_break_K1"],
    )
    def test_one_query_per_run(self, monkeypatch, spec, queries):
        # A matched draw's prefixes above the critical alternative are the
        # reduction profile's, so one query on that profile answers every
        # matched draw; with K=1 every draw moves a top slice, and none asks.
        calls = []

        def counted(p, a, t):
            calls.append((p, a, t))
            return dodgson_score_within(p, a, t)

        monkeypatch.setattr(experiments, "dodgson_score_within", counted)
        cfg = ExperimentConfig(claim="cover_driver", trials=40, seed=5, instance=Q6_NO, **spec)
        run_cover_driver(cfg)

        out = _padded_reduction(cfg)[1]
        assert any(matched for _, matched in self._matched_draws(cfg)) == (queries > 0)
        assert calls == [(out.profile, out.critical, out.threshold)] * queries

    @pytest.mark.parametrize("inst", [Q6_NO, Q6_YES], ids=["no", "yes"])
    @pytest.mark.parametrize("spec", DRIVER_SPECS, ids=DRIVER_IDS)
    def test_each_answer_is_its_own_profiles_query(self, inst, spec):
        # Differential: no memo, every trial's own sampled profile decided.
        cfg = ExperimentConfig(claim="cover_driver", trials=25, seed=8, instance=inst, **spec)
        report = run_cover_driver(cfg)
        out = _padded_reduction(cfg)[1]
        expected = []
        for drawn, matched in self._matched_draws(cfg):
            p = Profile.of(drawn.tolist())
            no = matched and dodgson_score_within(p, out.critical, out.threshold) is None
            expected.append("no" if no else "yes")
        assert [row["answer"] for row in report.rows] == expected

    def test_reduction_built_once_per_config(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("x3c_to_dodgson", "build_padded_parameter_profile"):
            wrapper = counted(name, getattr(reductions, name))
            for module in (reductions, experiments):
                monkeypatch.setattr(module, name, wrapper)
        cfg = ExperimentConfig(
            claim="cover_driver", trials=25, seed=4, instance=Q6_NO,
            model={"model": "top_break", "K": "2*m1*n"}, pad=2,
        )
        run_cover_driver(cfg)
        assert calls == {"x3c_to_dodgson": 1, "build_padded_parameter_profile": 1}


class TestReports:
    def _cfg(self, seed=11, **over):
        base = dict(
            claim="top_preservation", trials=30, seed=seed, instance=Q3,
            model={"model": "partial_alt", "K": "m1"}, pad=2, plot_data=True,
        )
        base.update(over)
        return ExperimentConfig(**base)

    def test_rerun_byte_identical(self, tmp_path):
        paths1 = write_report(run_experiment(self._cfg()), tmp_path / "a")
        paths2 = write_report(run_experiment(self._cfg()), tmp_path / "b")
        for key in ("csv", "json", "dat"):
            assert Path(paths1[key]).read_bytes() == Path(paths2[key]).read_bytes()

    def test_seed_changes_output_name_not_schema(self, tmp_path):
        paths1 = write_report(run_experiment(self._cfg(seed=11)), tmp_path)
        paths2 = write_report(run_experiment(self._cfg(seed=12)), tmp_path)
        assert paths1["json"] != paths2["json"]
        data = json.loads(Path(paths2["json"]).read_text())
        assert data["seed"] == 12
        assert data["config_hash"] in paths2["json"]

    def test_wall_clock_not_serialized(self, tmp_path):
        report = run_experiment(self._cfg())
        assert report.wall_clock_seconds > 0
        paths = write_report(report, tmp_path)
        text = Path(paths["json"]).read_text()
        assert "wall_clock" not in text

    def test_csv_has_one_row_per_trial(self, tmp_path):
        report = run_experiment(self._cfg())
        paths = write_report(report, tmp_path)
        lines = Path(paths["csv"]).read_text().strip().splitlines()
        assert len(lines) == 31  # header + trials
        assert lines[0].startswith("trial,")


# Small seeded runs of every claim, both adversaries for the noise claims.
# The digests date from per-agent profiles and the pure-Python margin tally,
# so they pin each sampler's draws, every answer and the report format
# independently of the count-based code.
PINNED_REPORTS = [
    (
        dict(claim="definitely_rate", trials=20, seed=5, m=4, n=500,
             model={"model": "alpha_ic", "alpha": "3/4"}, plot_data=True),
        "1e209667d3bc8c80c25347fbffefabc5bba443de3bee22f663fad164a535e74f",
    ),
    (
        dict(claim="definitely_rate", trials=8, seed=6, m=4, n=200,
             model={"model": "alpha_ic", "alpha": "3/4"}, adversary="random_profile"),
        "0198d04989191d3906bb715750d505cd73517f675888438f1a3b68544a6f75ce",
    ),
    (
        dict(claim="concentration", trials=20, seed=7, m=3, n=300, model=ALPHA_IC),
        "de8ffb50519148aab0c69f8e2ca8e018eefe1d50188ddb73f8206987010f7586",
    ),
    (
        dict(claim="concentration", trials=8, seed=8, m=5, n=150,
             model={"model": "alpha_ic", "alpha": "4/5"}, adversary="random_profile"),
        "5a624c469a46480ac5e66493115a94fdc2203804f49b458e016c98b8ee228aa2",
    ),
    (
        dict(claim="top_preservation", trials=30, seed=9, instance=Q6_YES,
             model={"model": "top_break", "K": "2*m1*n"}, pad=2, plot_data=True),
        "8de7077f41b9c710402be988baea43fd2b499971625169340fdab7f4bd96f090",
    ),
    (
        dict(claim="top_preservation", trials=10, seed=10, instance=Q6_NO,
             model={"model": "alpha_ic", "alpha": "1/2"}, pad=1),
        "8db65008785f65ec80deb092edbdc027c3338b1fbeb89f3948c8863632da0d69",
    ),
    (
        dict(claim="cover_driver", trials=20, seed=11, instance=Q6_NO,
             model={"model": "top_break", "K": "2*m1*n"}, pad=2),
        "5e7cac9d9963c9ed0e654fc5c012f78e50d84b4ffd0be89118735cf5c98c2e5b",
    ),
    (
        dict(claim="cover_driver", trials=10, seed=12, instance=Q6_YES,
             model={"model": "partial_alt", "K": "m1"}, pad=2),
        "6be4b30ba5209bd412ce2553574c32736eb47be356a39418101cbe45c89327ea",
    ),
    # Taken from the per-agent sampler and the per-trial reduction build.
    (
        dict(claim="definitely_rate", trials=10, seed=13, m=7, n=60,
             model={"model": "alpha_ic", "alpha": "6/7"}, adversary="random_profile",
             plot_data=True),
        "b7fb8a3945d463092cef31d29c124b783e6e37ca4bcdd0369aeee4dd56260b46",
    ),
    (
        dict(claim="cover_driver", trials=12, seed=14, instance=Q6_NO,
             model={"model": "partial_alt", "K": "m1"}, pad=2),
        "6caa4eb615de6067a7ff00bc2c599183005be08715f8454d1232e8148b976c45",
    ),
    # Pinned configs above again with plot_data, which is not hashed: the
    # same CSV and JSON bytes plus the plot series of claims that write none.
    (
        dict(claim="concentration", trials=20, seed=7, m=3, n=300, model=ALPHA_IC,
             plot_data=True),
        "aad241c7b893d4e76b701cfe9d808e181d349326c524883006590488653d7ff2",
    ),
    (
        dict(claim="concentration", trials=8, seed=8, m=5, n=150,
             model={"model": "alpha_ic", "alpha": "4/5"}, adversary="random_profile",
             plot_data=True),
        "cf079869734a80f3fc3df8b4d4c66867f2eaa6afc53bd26df3846f9c4f7247a9",
    ),
    (
        dict(claim="cover_driver", trials=20, seed=11, instance=Q6_NO,
             model={"model": "top_break", "K": "2*m1*n"}, pad=2, plot_data=True),
        "0f6b41a0a1b664ca452493b55f29b9ac7a8eb1ed2950f2f888724af4a67140df",
    ),
    # Taken from the per-agent samplers, for draws the configs above never
    # make: top_break at K=2, where about half the rows rotate; partial_alt
    # tails of 2 and 1 under top_preservation; and an empty partial_alt tail
    # (K = m1 + pad = 19), which draws nothing.
    (
        dict(claim="top_preservation", trials=30, seed=15, instance=Q6_YES,
             model={"model": "top_break", "K": 2}, pad=2, plot_data=True),
        "3640a81fe29b874143c16159f44baafec21bebfc10d9f0fce452dd47184f8257",
    ),
    (
        dict(claim="cover_driver", trials=64, seed=16, instance=Q6_NO,
             model={"model": "top_break", "K": 2}, pad=2),
        "f9bba1e051a4a447c590bb979959e72c29a455767351391d3492776b7de405c1",
    ),
    (
        dict(claim="top_preservation", trials=12, seed=17, instance=Q6_NO,
             model={"model": "partial_alt", "K": "m1"}, pad=2),
        "4539199415b1b7ac4008bcbb6b674d54c1c1ed2e1de3187143e0700b317c8ecf",
    ),
    (
        dict(claim="top_preservation", trials=12, seed=18, instance=Q6_YES,
             model={"model": "partial_alt", "K": "m1"}, pad=1),
        "1e3e8af088a1a3921df20e992fd15e69c64f62c17151cc13eec2bc76cb9cec71",
    ),
    (
        dict(claim="cover_driver", trials=10, seed=19, instance=Q6_NO,
             model={"model": "partial_alt", "K": 19}, pad=2),
        "82e19a94803f93ae5559f94040c5ad9555819ff3a392a228179d6c14bd403d48",
    ),
    # Taken before the Dodgson query was keyed on ballot prefixes: at pad 4
    # almost every sampled multiset is new, yet one query decides them all.
    (
        dict(claim="cover_driver", trials=40, seed=20, instance=Q6_NO,
             model={"model": "partial_alt", "K": "m1"}, pad=4),
        "5a61f31d5d1f70159760d5cc793eac4a72cd63c0b54e213e099075652e045d1f",
    ),
]


def pinned_ids(entries) -> list[str]:
    """Claim, adversary or model, and seed; a repeated one gains "-dat"."""
    ids = []
    for c, _ in entries:
        key = f"{c['claim']}-{c.get('adversary', c.get('model', {}).get('model'))}-{c['seed']}"
        ids.append(f"{key}-dat" if key in ids else key)
    return ids


def report_digest(paths: dict) -> str:
    """SHA-256 over each written file's name and bytes, files in key order."""
    digest = hashlib.sha256()
    for key in sorted(paths):
        path = Path(paths[key])
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "config, expected",
    PINNED_REPORTS,
    ids=pinned_ids(PINNED_REPORTS),
)
def test_seeded_report_bytes_pinned(tmp_path, config, expected):
    paths = write_report(run_experiment(ExperimentConfig(**config)), tmp_path)
    assert report_digest(paths) == expected


# Taken from the per-trial SeedSequence spawn, before trial seeding was vectorized.
RUN_CLAIMS_DIGEST = "5b5f8143f2914dca60dafd6eec1e6296c227b417f7ff53d37cda1c0efdd18a13"


def test_run_claims_script_bytes_pinned(tmp_path):
    """Every file ``scripts/run_claims.py`` writes at 40 trials, pinned by one digest."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_claims.py"
    src = Path(experiments.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(script), "--trials", "40", "--seed", "20261018",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    written = {path.name: path for path in tmp_path.iterdir()}
    assert len(written) == 12
    assert report_digest(written) == RUN_CLAIMS_DIGEST


@pytest.mark.parametrize(
    "argv",
    [["--trials", "0"], ["--seed", "-1"], ["--out-dir", "{file}"]],
    ids=["trials", "seed", "out_dir_is_a_file"],
)
def test_run_claims_script_rejects_bad_arguments(tmp_path, argv):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_claims.py"
    src = Path(experiments.__file__).resolve().parents[1]
    taken = tmp_path / "file"
    taken.write_text("")
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path / "out"),
         *(arg.format(file=taken) for arg in argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert sorted(tmp_path.iterdir()) == [taken]
