import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from votelab import (
    AlphaIC,
    BudgetExceededError,
    DimensionError,
    ParameterProfile,
    PartialAltRandomization,
    Profile,
    Ranking,
    TopBreakNoise,
    all_rankings,
    apply_permutation,
    induced_weighted_profile,
    model_from_spec,
    sample,
    sample_profile,
    scale_round_parameter_profile,
    three_cycle_max_weight,
    top_k,
    wmg,
)
from conftest import (
    partial_alt_sample_by_index,
    random_ranking,
    sample_orders_per_agent,
)

ABC = Ranking.of([0, 1, 2])


def enumerated_wmg(model, parameter):
    """Independent expected-margin oracle from the pmf."""
    m = model.m
    rows = [[Fraction(0)] * m for _ in range(m)]
    for r in all_rankings(m):
        prob = model.pmf(parameter, r)
        for a in range(m):
            for b in range(m):
                if a != b and r.prefers(a, b):
                    rows[a][b] += prob
    return [
        [rows[a][b] - rows[b][a] if a != b else Fraction(0) for b in range(m)]
        for a in range(m)
    ]


class TestPmf:
    def test_alpha_one_is_uniform(self):
        model = AlphaIC(3, Fraction(1))
        for r in all_rankings(3):
            assert model.pmf(ABC, r) == Fraction(1, 6)

    def test_alpha_zero_is_point_mass(self):
        model = AlphaIC(3, Fraction(0))
        assert model.pmf(ABC, ABC) == 1
        assert model.pmf(ABC, Ranking.of([2, 1, 0])) == 0

    def test_alpha_two_thirds_parameter_mass(self):
        # uniform share alpha/m! plus point mass 1-alpha
        model = AlphaIC(3, Fraction(2, 3))
        assert model.pmf(ABC, ABC) == Fraction(2, 18) + Fraction(1, 3) == Fraction(4, 9)
        assert model.pmf(ABC, Ranking.of([1, 0, 2])) == Fraction(1, 9)

    def test_partial_alt_values(self):
        model = PartialAltRandomization(4, 2)
        parameter = Ranking.of([3, 1, 0, 2])
        assert model.pmf(parameter, Ranking.of([3, 1, 2, 0])) == Fraction(1, 2)
        assert model.pmf(parameter, Ranking.of([1, 3, 0, 2])) == 0

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_sums_to_one_both_models(self, m, rng):
        parameter = random_ranking(rng, m)
        for model in (AlphaIC(m, Fraction(3, 7)), PartialAltRandomization(m, 2)):
            total = sum(model.pmf(parameter, r) for r in all_rankings(m))
            assert total == 1

    def test_alpha_ic_mass_floor(self):
        m = 4
        model = AlphaIC(m, Fraction(1) - Fraction(1, m))
        floor = Fraction(m - 1, m * math.factorial(m))
        for r in all_rankings(m):
            assert model.pmf(random_ranking(np.random.default_rng(1), m), r) >= floor

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            AlphaIC(3, Fraction(1, 2)).pmf(ABC, Ranking.of([0, 1, 2, 3]))

    def test_top_break_checks_dimensions(self, rng):
        noise = TopBreakNoise(4, 1)
        with pytest.raises(DimensionError):
            sample(noise, ABC, rng)
        with pytest.raises(DimensionError):
            noise.pmf(ABC, Ranking.of([2, 0, 1]))
        with pytest.raises(DimensionError):
            noise.pmf(Ranking.of([0, 1, 2, 3]), ABC)


class TestSample:
    def test_alpha_zero_always_parameter(self, rng):
        model = AlphaIC(3, Fraction(0))
        assert all(sample(model, ABC, rng) == ABC for _ in range(50))

    def test_partial_alt_preserves_top_k(self, rng):
        model = PartialAltRandomization(5, 3)
        parameter = random_ranking(rng, 5)
        for _ in range(100):
            drawn = sample(model, parameter, rng)
            assert top_k(drawn, 3) == top_k(parameter, 3)

    def test_uniform_frequencies_at_alpha_one(self, rng):
        from scipy.stats import chi2

        model = AlphaIC(3, Fraction(1))
        draws = Counter(sample(model, ABC, rng) for _ in range(6000))
        expected = 1000.0
        statistic = sum(
            (draws.get(r, 0) - expected) ** 2 / expected for r in all_rankings(3)
        )
        assert statistic <= chi2.ppf(0.999, df=5)


class TestNeutrality:
    def test_identity_permutation(self):
        assert apply_permutation((0, 1, 2), ABC) == ABC

    def test_pmf_identity_100_triples(self, rng):
        for _ in range(100):
            m = int(rng.integers(3, 6))
            model = AlphaIC(m, Fraction(int(rng.integers(0, 4)), 3))
            parameter = random_ranking(rng, m)
            r = random_ranking(rng, m)
            sigma = tuple(int(x) for x in rng.permutation(m))
            assert model.pmf(
                apply_permutation(sigma, parameter), apply_permutation(sigma, r)
            ) == model.pmf(parameter, r)
        model = PartialAltRandomization(4, 2)
        for _ in range(100):
            parameter = random_ranking(rng, 4)
            r = random_ranking(rng, 4)
            sigma = tuple(int(x) for x in rng.permutation(4))
            assert model.pmf(
                apply_permutation(sigma, parameter), apply_permutation(sigma, r)
            ) == model.pmf(parameter, r)

    def test_sampling_equivalence_empirical(self):
        # relabel-then-sample vs sample-then-relabel, same distribution
        model = PartialAltRandomization(4, 1)
        parameter = Ranking.of([2, 0, 1, 3])
        sigma = (1, 3, 0, 2)
        n = 4000
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(12)
        left = Counter(
            apply_permutation(sigma, sample(model, parameter, rng1)) for _ in range(n)
        )
        right = Counter(
            sample(model, apply_permutation(sigma, parameter), rng2) for _ in range(n)
        )
        support = set(left) | set(right)
        tv = sum(abs(left.get(r, 0) - right.get(r, 0)) for r in support) / (2 * n)
        assert tv < 0.05


class TestPartialAltSampler:
    @pytest.mark.parametrize("tail", [0, 1, 2, 5])
    def test_same_ballots_and_generator_state_as_index_form(self, tail):
        model = PartialAltRandomization(3 + tail, 3)
        parameter = Ranking(tuple(range(model.m))[::-1])
        for seed in range(200):
            shuffled, indexed = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert sample(model, parameter, shuffled) == partial_alt_sample_by_index(
                    model, parameter, indexed
                )
            assert shuffled.bit_generator.state == indexed.bit_generator.state


# Each family builds its model from m and a fraction x in [0, 1]: AlphaIC's
# alpha is x; tails are m - K.
SAMPLER_FAMILIES = {
    "alpha_ic": lambda m, x: AlphaIC(m, x),
    "partial_alt_tail_0": lambda m, x: PartialAltRandomization(m, m),
    "partial_alt_tail_1": lambda m, x: PartialAltRandomization(m, m - 1),
    "partial_alt_tail_2_up": lambda m, x: PartialAltRandomization(m, 1 + math.floor(x * (m - 3))),
    "top_break_K1": lambda m, x: TopBreakNoise(m, 1),
    "top_break_K2": lambda m, x: TopBreakNoise(m, 2),
    "top_break_K3": lambda m, x: TopBreakNoise(m, 3),
}


class TestSampleOrders:
    @pytest.mark.parametrize("family", list(SAMPLER_FAMILIES))
    @given(
        m=st.integers(3, 7),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        x=st.fractions(0, 1, max_denominator=12),
    )
    # AlphaIC at alpha 0 draws no permutation and at alpha 1 one per agent.
    @example(m=5, n=12, seed=1, x=Fraction(0))
    @example(m=5, n=12, seed=2, x=Fraction(1))
    @example(m=3, n=1, seed=3, x=Fraction(1, 2))
    @example(m=7, n=1, seed=4, x=Fraction(1))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_agent_sample(self, family, m, n, seed, x):
        # Same ballots in agent order and the same generator state afterwards.
        model = SAMPLER_FAMILIES[family](m, x)
        params = np.random.default_rng([seed, 1]).permuted(np.tile(np.arange(m), (n, 1)), axis=1)
        batched, per_agent = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = model.sample_orders(params, batched)
        expected = sample_orders_per_agent(model, params, per_agent)
        assert drawn.tolist() == expected.tolist()
        assert batched.bit_generator.state == per_agent.bit_generator.state

    @pytest.mark.parametrize(
        "model",
        [AlphaIC(5, Fraction(1)), PartialAltRandomization(5, 2), TopBreakNoise(5, 1)],
        ids=["alpha_ic", "partial_alt", "top_break"],
    )
    def test_parameters_left_unchanged_and_shape_checked(self, model):
        params = np.array([[4, 3, 2, 1, 0], [0, 1, 2, 3, 4]], dtype=np.int64)
        before = params.copy()
        model.sample_orders(params, np.random.default_rng(0))
        assert (params == before).all()
        with pytest.raises(DimensionError):
            model.sample_orders(params[:, :4], np.random.default_rng(0))


class TestSampleProfile:
    def test_point_mass_unanimous(self, rng):
        model = AlphaIC(3, Fraction(0))
        pp = ParameterProfile(((ABC, Fraction(4)),), model)
        assert sample_profile(pp, rng) == Profile.of([[0, 1, 2]] * 4)

    def test_partial_alt_padded_top_slice(self, rng):
        model = PartialAltRandomization(5, 3)
        entries = tuple((random_ranking(rng, 5), Fraction(1)) for _ in range(4))
        pp = ParameterProfile(entries, model)
        drawn = model.sample_orders(pp.agent_orders, rng).tolist()
        assert len(drawn) == len(entries)
        for row, (parameter, _) in zip(drawn, entries):
            assert tuple(row[:3]) == parameter.order[:3]

    def test_parameter_mass_at_high_alpha(self):
        # point mass (1-alpha) plus the uniform sliver alpha/m!
        m = 3
        model = AlphaIC(m, Fraction(1) - Fraction(1, m))
        mass = model.pmf(ABC, ABC)
        assert mass == (1 - model.alpha) + model.alpha / math.factorial(m)

    def test_fractional_weights_rejected(self, rng):
        model = AlphaIC(3, Fraction(0))
        pp = ParameterProfile(((ABC, Fraction(1, 2)),), model)
        with pytest.raises(ValueError):
            sample_profile(pp, rng)

    @pytest.mark.parametrize(
        "model",
        [AlphaIC(4, Fraction(2, 3)), PartialAltRandomization(4, 2), TopBreakNoise(4, 2)],
        ids=["alpha_ic", "partial_alt", "top_break"],
    )
    def test_agent_order_matches_per_agent_draws(self, model):
        entries = ((Ranking.of([3, 1, 0, 2]), Fraction(3)), (Ranking.of([0, 1, 2, 3]), Fraction(2)))
        pp = ParameterProfile(entries, model)
        assert pp.agent_orders.tolist() == [[3, 1, 0, 2]] * 3 + [[0, 1, 2, 3]] * 2
        agents = np.array([[3, 1, 0, 2]] * 3 + [[0, 1, 2, 3]] * 2, dtype=np.int64)
        for seed in range(20):
            drawn = model.sample_orders(pp.agent_orders, np.random.default_rng(seed)).tolist()
            expected = sample_orders_per_agent(model, agents, np.random.default_rng(seed)).tolist()
            assert drawn == expected
            # sample_profile counts the same rows, distinct rankings in order of first appearance.
            counted = sample_profile(pp, np.random.default_rng(seed)).grouped.items()
            assert [(r.order, c) for r, c in counted] == list(Counter(map(tuple, expected)).items())


class TestDistributionWmg:
    def test_alpha_one_all_zero(self):
        graph = AlphaIC(3, Fraction(1)).distribution_wmg(ABC)
        assert all(
            graph.margin(a, b) == 0 for a in range(3) for b in range(3) if a != b
        )

    def test_alpha_zero_signs(self):
        graph = AlphaIC(3, Fraction(0)).distribution_wmg(ABC)
        assert graph.margin(0, 1) == 1 and graph.margin(2, 0) == -1

    def test_inverse_power_noise_edge_weight(self):
        m, d = 4, 2
        alpha = Fraction(1) - Fraction(1, m**d)
        graph = AlphaIC(m, alpha).distribution_wmg(Ranking.of([0, 1, 2, 3]))
        assert graph.margin(0, 1) == Fraction(1, m**d)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_closed_forms_match_enumeration(self, m, rng):
        # alpha = 0 gives the reversal a zero weight; K in {m-1, m} leaves
        # the tail reversal equal to the parameter.
        parameter = random_ranking(rng, m)
        models = [AlphaIC(m, alpha) for alpha in (0, Fraction(2, 5), 1)]
        models += [PartialAltRandomization(m, K) for K in range(1, m + 1)]
        for model in models:
            closed = model.distribution_wmg(parameter)
            oracle = enumerated_wmg(model, parameter)
            for a in range(m):
                for b in range(m):
                    assert closed.margin(a, b) == oracle[a][b]


class TestThreeCycleWeight:
    def test_uniform_is_zero(self):
        assert three_cycle_max_weight(AlphaIC(3, Fraction(1)), ABC) == 0

    def test_partial_alt_heavy_cycle(self):
        for K in (3, 4):
            model = PartialAltRandomization(5, K)
            weight = three_cycle_max_weight(model, Ranking.of([0, 1, 2, 3, 4]))
            assert weight >= 1 - Fraction(2, K)

    def test_alpha_ic_top_triangle(self):
        m = 4
        model = AlphaIC(m, Fraction(1) - Fraction(1, m))
        parameter = Ranking.of([0, 1, 2, 3])
        graph = model.distribution_wmg(parameter)
        top_triangle = (
            graph.margin(0, 1) + graph.margin(1, 2) + graph.margin(2, 0)
        )
        assert top_triangle == Fraction(1, m)
        # and no ordered triple beats the transitive maximum
        assert three_cycle_max_weight(model, parameter) == Fraction(1, m)


class TestScaleRound:
    def _pp(self, entries):
        return ParameterProfile(entries, AlphaIC(3, Fraction(1, 2)))

    def test_integer_weights_unchanged(self):
        pp = self._pp(((ABC, Fraction(2)), (Ranking.of([1, 0, 2]), Fraction(3))))
        out = scale_round_parameter_profile(pp, 5)
        assert out.entries == pp.entries

    def test_floor_arithmetic(self):
        pp = self._pp(((ABC, Fraction(1, 2)), (Ranking.of([1, 0, 2]), Fraction(1, 2))))
        out = scale_round_parameter_profile(pp, 5)
        assert [w for _, w in out.entries] == [2, 2]
        assert out.total_weight == 4  # == 5 - O(number of entry types)

    def test_wmg_deviation_bounded_by_type_count(self, rng):
        entries = tuple(
            (random_ranking(rng, 4), Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 5))))
            for _ in range(5)
        )
        pp = ParameterProfile(entries, AlphaIC(4, Fraction(1, 2)))
        target = 60
        out = scale_round_parameter_profile(pp, target)
        factor = Fraction(target) / pp.total_weight
        from votelab import WeightedProfile

        exact = wmg(
            WeightedProfile(tuple((r, w * factor) for r, w in pp.entries))
        )
        rounded = wmg(WeightedProfile(out.entries))
        types = len(pp.entries)
        for a in range(4):
            for b in range(4):
                assert abs(exact.margin(a, b) - rounded.margin(a, b)) <= types


class TestInducedProfile:
    def test_mixture_linearity(self):
        # two tail-shuffling parameters sharing their top alternative
        model = PartialAltRandomization(3, 1)
        theta1 = Ranking.of([0, 1, 2])
        theta2 = Ranking.of([1, 0, 2])
        a, b = Fraction(3), Fraction(1)
        pp = ParameterProfile(((theta1, a), (theta2, b)), model)
        induced = induced_weighted_profile(pp)
        weights = dict(induced.entries)
        assert weights[Ranking.of([0, 1, 2])] == a / 2
        assert weights[Ranking.of([0, 2, 1])] == a / 2
        assert weights[Ranking.of([1, 0, 2])] == b / 2
        assert weights[Ranking.of([1, 2, 0])] == b / 2
        assert induced.total_weight == a + b

    def test_enumeration_guard(self):
        model = AlphaIC(9, Fraction(1))
        pp = ParameterProfile(
            ((Ranking(tuple(range(9))), Fraction(1)),), model
        )
        with pytest.raises(BudgetExceededError):
            induced_weighted_profile(pp)


class TestModelSpec:
    def test_round_trip(self):
        model = model_from_spec({"model": "alpha_ic", "alpha": "2/3"}, 4)
        assert model == AlphaIC(4, Fraction(2, 3))
        model = model_from_spec({"model": "partial_alt", "K": 2}, 4)
        assert model == PartialAltRandomization(4, 2)
        assert model_from_spec({"model": "top_break", "K": 3}, 4) == TopBreakNoise(4, 3)
        assert model_from_spec({"model": "alpha_ic", "alpha": 1}, 4) == AlphaIC(4, Fraction(1))

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            model_from_spec({"model": "mallows"}, 4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AlphaIC(3, Fraction(3, 2))
        with pytest.raises(ValueError):
            PartialAltRandomization(3, 4)
        # On one alternative a break moves nothing, so the pmf cannot sum to 1.
        for m, K in ((1, 4), (0, 3)):
            with pytest.raises(ValueError, match="at least 2 alternatives"):
                TopBreakNoise(m, K)

    @pytest.mark.parametrize(
        "spec",
        [
            {"model": "partial_alt", "K": 2.5},
            {"model": "partial_alt", "K": 2.0},
            {"model": "alpha_ic", "alpha": 0.1},
            {"model": "alpha_ic", "alpha": 1.0},
            {"model": "top_break", "K": 2.0},
        ],
    )
    def test_float_parameters_rejected(self, spec):
        # A float would truncate (K=2.5 -> 2) or keep its binary expansion.
        with pytest.raises(ValueError, match="must not be a float"):
            model_from_spec(spec, 5)
