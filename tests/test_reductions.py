import hashlib
import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from votelab import (
    AlphaIC,
    BudgetExceededError,
    ConstructionError,
    Decision,
    Digraph,
    MCGARVEY_MULTIPLIER,
    PartialAltRandomization,
    Profile,
    Ranking,
    X3CInstance,
    x3c_via_dodgson,
    efas_via_kemeny,
    app_last,
    build_padded_parameter_profile,
    detect_margin_multiplier,
    dodgson_score_exact,
    dodgson_score_within,
    efas_bruteforce,
    enumerate_eulerian_digraphs,
    enumerate_x3c_instances,
    kemeny_decision,
    kt_formula,
    kt_profile_distance,
    mcgarvey_profile,
    top_slices_match,
    wmg,
    x3c_bruteforce,
    x3c_to_dodgson,
    young_score_exact,
)
from votelab import rules_exact
from votelab.models import TopBreakNoise
from conftest import (
    eulerian_digraphs_scan,
    padded_parameter_profile_per_agent,
    random_ranking,
    sample_orders_per_agent,
    st_two_cycle_free_digraph,
)

SINGLETON = X3CInstance.of(3, [[0, 1, 2]])
Q6_YES = X3CInstance.of(6, [[0, 1, 2], [3, 4, 5]])
Q6_NO = X3CInstance.of(6, [[0, 1, 2], [2, 3, 4], [0, 4, 5], [1, 3, 5]])
THREE_CYCLE = Digraph.of(3, [(0, 1), (1, 2), (2, 0)])


def three_cycle_profile_with_3_last():
    """The 3-cycle's McGarvey profile with alternative 3 appended to each ballot."""
    counted = mcgarvey_profile(THREE_CYCLE).grouped.items()
    return Profile.from_counts((r.order + (3,), count) for r, count in counted)


def exact_dodgson_decider(p, a, t):
    return Decision.YES if dodgson_score_within(p, a, t) is not None else Decision.NO


class TestX3CInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            X3CInstance.of(4, [[0, 1, 2]])  # q not divisible by 3
        with pytest.raises(ValueError):
            X3CInstance.of(3, [[0, 1, 2], [0, 1, 2]])  # duplicate
        with pytest.raises(ValueError):
            X3CInstance.of(3, [[0, 1, 3]])  # out of range
        with pytest.raises(ValueError):
            X3CInstance.of(6, [[0, 1, 2]])  # s below q/3
        with pytest.raises(ValueError):
            X3CInstance.of(3, [[0, 1]])  # not 3 elements

    def test_bruteforce(self):
        assert x3c_bruteforce(SINGLETON)
        assert x3c_bruteforce(X3CInstance.of(6, [[0, 1, 2], [2, 3, 4], [3, 4, 5]]))
        assert not x3c_bruteforce(Q6_NO)

    def test_bruteforce_budget(self):
        inst = X3CInstance.of(9, list(itertools.combinations(range(9), 3))[:30])
        with pytest.raises(BudgetExceededError):
            x3c_bruteforce(inst)

    def test_enumeration_counts(self):
        assert len(list(enumerate_x3c_instances(3, 6))) == 1
        # 20 triples on 6 elements, sizes 2: C(20,2)
        assert len(list(enumerate_x3c_instances(6, 2))) == 190


class TestDodgsonReduction:
    def test_singleton_shape_and_score(self):
        out = x3c_to_dodgson(SINGLETON)
        assert out.profile.m == 8  # 2q + s + 1
        assert out.profile.n == 1
        assert out.threshold == 4
        assert dodgson_score_exact(out.profile, out.critical) == 4

    def test_element_margins_exactly_one(self):
        for inst in (SINGLETON, Q6_YES, Q6_NO):
            out = x3c_to_dodgson(inst)
            graph = wmg(out.profile)
            for a in out.layout.element_alts:
                assert graph.margin(a, out.critical) == 1

    def test_size_bound(self):
        for inst in (SINGLETON, Q6_YES, Q6_NO):
            out = x3c_to_dodgson(inst)
            assert out.profile.n <= 2 * (inst.q + 1) * inst.s + 1

    def test_equivalence_on_named_instances(self):
        for inst in (SINGLETON, Q6_YES, Q6_NO):
            out = x3c_to_dodgson(inst)
            reachable = dodgson_score_within(out.profile, out.critical, out.threshold)
            assert (reachable is not None) == x3c_bruteforce(inst)

    def test_scores_invariant_under_app_last(self):
        for inst in (SINGLETON, Q6_YES, Q6_NO):
            out = x3c_to_dodgson(inst)
            base_d = dodgson_score_exact(out.profile, out.critical)
            base_y = young_score_exact(out.profile, out.critical)
            for extra in (1, 2, 3):
                padded = app_last(out.profile, extra)
                assert dodgson_score_exact(padded, out.critical) == base_d
                assert young_score_exact(padded, out.critical) == base_y


class TestPaddedParameterProfile:
    def test_requires_wide_enough_top(self):
        out = x3c_to_dodgson(SINGLETON)
        m1 = out.profile.m
        with pytest.raises(ValueError):
            build_padded_parameter_profile(out, PartialAltRandomization(m1 + 2, m1 - 1))

    def test_model_narrower_than_reduction_rejected(self):
        out = x3c_to_dodgson(SINGLETON)  # m1 = 8
        for model in (AlphaIC(7, Fraction(1, 2)), TopBreakNoise(7, 8)):
            with pytest.raises(ValueError, match="model m=7 below reduction width 8"):
                build_padded_parameter_profile(out, model)

    def test_deterministic_top_slice(self):
        out = x3c_to_dodgson(Q6_YES)
        m1 = out.profile.m
        model = PartialAltRandomization(m1 + 3, m1)
        params = build_padded_parameter_profile(out, model).agent_orders
        reference = np.array([r.order for r, c in out.profile.grouped.items() for _ in range(c)])
        for seed in range(10):
            drawn = model.sample_orders(params, np.random.default_rng(seed))
            expected = sample_orders_per_agent(model, params, np.random.default_rng(seed))
            assert drawn.tolist() == expected.tolist()
            assert top_slices_match(drawn[None], reference)[0]

    @pytest.mark.parametrize("inst", [SINGLETON, Q6_YES, Q6_NO], ids=["q3", "q6_yes", "q6_no"])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_grouped_entries_sample_as_per_agent(self, inst, pad):
        # One entry per distinct padded ballot, weighted by its count, draws
        # the same ballots in the same agent order as one unit entry per agent
        # drawn by the per-agent oracle.
        out = x3c_to_dodgson(inst)
        m1, m_total = out.profile.m, out.profile.m + pad
        models = (
            AlphaIC(m_total, Fraction(1, 2)),
            PartialAltRandomization(m_total, m1),
            TopBreakNoise(m_total, 8),
        )
        for model in models:
            grouped = build_padded_parameter_profile(out, model)
            per_agent = padded_parameter_profile_per_agent(out, model, pad)
            assert len(grouped.entries) == len(out.profile.grouped)
            assert grouped.total_weight == per_agent.total_weight == out.profile.n
            agents = np.array([r.order for r, _ in per_agent.entries], dtype=np.int64)
            reference = agents[:, :m1]
            for seed in range(6):
                drawn = model.sample_orders(grouped.agent_orders, np.random.default_rng(seed))
                expected = sample_orders_per_agent(model, agents, np.random.default_rng(seed))
                assert drawn.tolist() == expected.tolist()
                rows = zip(expected.tolist(), reference.tolist())
                kept = all(row[:m1] == ref for row, ref in rows)
                assert top_slices_match(drawn[None], reference)[0] == kept

    def test_top_slice_needs_equal_agent_counts(self, rng):
        # Agents pair up by row, so a shorter side would leave agents unchecked.
        out = x3c_to_dodgson(Q6_YES)
        m1 = out.profile.m
        model = PartialAltRandomization(m1 + 2, m1)
        params = build_padded_parameter_profile(out, model).agent_orders
        drawn = model.sample_orders(params, rng)
        assert top_slices_match(drawn[None], params[:, :m1])[0]
        with pytest.raises(ValueError):
            top_slices_match(drawn[None, :-1], params[:, :m1])
        with pytest.raises(ValueError):
            top_slices_match(drawn[None], params[:-1, :m1])

    def test_batched_top_slices_match_per_draw(self):
        # top_break at K=8 keeps each of the 3 agents' rows with
        # probability 7/8, so about two trials in three keep every slice.
        out = x3c_to_dodgson(Q6_YES)
        m1 = out.profile.m
        model = TopBreakNoise(m1 + 2, 8)
        params = build_padded_parameter_profile(out, model).agent_orders
        rng = np.random.default_rng(7)
        draws = np.stack([model.sample_orders(params, rng) for _ in range(200)])
        reference = params[:, :m1]
        batched = top_slices_match(draws, reference)
        assert batched.shape == (200,)
        assert batched.tolist() == [top_slices_match(d[None], reference)[0] for d in draws]
        kept = [
            all(row[:m1] == ref for row, ref in zip(drawn, reference.tolist()))
            for drawn in draws.tolist()
        ]
        assert batched.tolist() == kept
        assert 0 < sum(kept) < 200
        with pytest.raises(ValueError):
            top_slices_match(draws[:, :-1], reference)
        with pytest.raises(ValueError):
            top_slices_match(draws, reference[:-1])

    def test_tail_actually_shuffles(self):
        out = x3c_to_dodgson(SINGLETON)
        m1 = out.profile.m
        model = PartialAltRandomization(m1 + 3, m1)
        params = build_padded_parameter_profile(out, model).agent_orders
        tails = set()
        for seed in range(40):
            drawn = model.sample_orders(params, np.random.default_rng(seed))
            assert drawn.tolist() == sample_orders_per_agent(
                model, params, np.random.default_rng(seed)
            ).tolist()
            tails.add(tuple(drawn[0, m1:].tolist()))
        assert len(tails) > 1  # a strict subset of the appended family


class TestAlgorithm1:
    def _model(self, inst, width_extra=2):
        m1 = x3c_to_dodgson(inst).profile.m
        return PartialAltRandomization(m1 + width_extra, m1)

    def test_yes_instance_always_yes(self, rng):
        model = self._model(Q6_YES)
        for _ in range(20):
            assert x3c_via_dodgson(Q6_YES, exact_dodgson_decider, model, rng) is Decision.YES

    def test_no_instance_with_exact_decider(self, rng):
        model = self._model(Q6_NO)
        for _ in range(10):
            assert x3c_via_dodgson(Q6_NO, exact_dodgson_decider, model, rng) is Decision.NO

    def test_degenerate_yes_decider_stays_one_sided(self, rng):
        model = self._model(Q6_NO)
        always_yes = lambda p, a, t: Decision.YES
        assert x3c_via_dodgson(Q6_NO, always_yes, model, rng) is Decision.YES

    def test_failure_maps_to_yes(self, rng):
        model = self._model(Q6_NO)
        always_fail = lambda p, a, t: Decision.FAILURE
        assert x3c_via_dodgson(Q6_NO, always_fail, model, rng) is Decision.YES


class TestMcgarvey:
    def test_empty_graph_cancels(self):
        p = mcgarvey_profile(Digraph.of(4, []))
        graph = wmg(p)
        assert all(graph.margin(a, b) == 0 for a in range(4) for b in range(4))

    def test_single_arc_multiplier(self):
        p = mcgarvey_profile(Digraph.of(3, [(0, 1)]))
        assert p.n == 2
        graph = wmg(p)
        assert graph.margin(0, 1) == MCGARVEY_MULTIPLIER
        assert graph.margin(0, 2) == 0 and graph.margin(1, 2) == 0

    def test_three_cycle_margins(self):
        graph = wmg(mcgarvey_profile(THREE_CYCLE))
        for u, v in THREE_CYCLE.arcs:
            assert graph.margin(u, v) == MCGARVEY_MULTIPLIER
        assert detect_margin_multiplier(mcgarvey_profile(THREE_CYCLE), THREE_CYCLE) == 2

    def test_rejects_two_cycles(self):
        with pytest.raises(ConstructionError):
            mcgarvey_profile(Digraph.of(3, [(0, 1), (1, 0)]))

    def test_random_graphs_realized_exactly(self, rng):
        for _ in range(15):
            m = int(rng.integers(2, 6))
            arcs = [
                (a, b) if rng.random() < 0.5 else (b, a)
                for a, b in itertools.combinations(range(m), 2)
                if rng.random() < 0.6
            ]
            g = Digraph.of(m, arcs)
            assert detect_margin_multiplier(mcgarvey_profile(g), g) in (
                Fraction(0),
                Fraction(MCGARVEY_MULTIPLIER),
            )

    def test_multiplier_is_the_kernels_int(self):
        # 2.0 == 2, so only the type catches a float or a Fraction reaching
        # the closed form in place of the kernel's int.
        arcless = Digraph.of(3, [])
        for g, expected in ((THREE_CYCLE, MCGARVEY_MULTIPLIER), (arcless, 0)):
            multiplier = detect_margin_multiplier(mcgarvey_profile(g), g)
            assert type(multiplier) is int and multiplier == expected

    def test_wider_profile_rejected(self):
        # The 3-cycle's profile with alternative 3 ranked last everywhere:
        # its first three alternatives still realize the graph exactly.
        p = three_cycle_profile_with_3_last()
        assert wmg(p).margins[0] == (0, 2, -2, 6)
        with pytest.raises(ConstructionError, match="share m"):
            detect_margin_multiplier(p, THREE_CYCLE)

    def test_narrower_profile_rejected(self):
        with pytest.raises(ConstructionError, match="share m"):
            detect_margin_multiplier(Profile.of([[0, 1], [1, 0]]), THREE_CYCLE)

    @pytest.mark.parametrize(
        "arcs, scaled",
        [([(0, 1), (1, 2)], [(0, 1), (1, 2), (1, 2)]), ([(0, 1)], [(0, 1), (1, 2)])],
        ids=["arc_margins_differ", "margin_off_the_arcs"],
    )
    def test_margins_not_proportional_rejected(self, arcs, scaled):
        # One McGarvey ballot pair per arc in ``scaled``: an arc listed twice
        # carries twice the margin of the others, and one missing from
        # ``arcs`` puts a margin off the graph.
        p = Profile.from_counts(
            pair for arc in scaled for pair in mcgarvey_profile(Digraph.of(3, [arc])).grouped.items()
        )
        with pytest.raises(ConstructionError, match="not proportional"):
            detect_margin_multiplier(p, Digraph.of(3, arcs))

    def test_kt_formula_rejects_a_profile_of_another_m(self):
        p = three_cycle_profile_with_3_last()
        with pytest.raises(ConstructionError, match="share m"):
            kt_formula(p, THREE_CYCLE, Ranking.of([0, 1, 2]))

    def test_kt_formula_rejects_a_ranking_of_another_m(self):
        p = mcgarvey_profile(THREE_CYCLE)
        with pytest.raises(ConstructionError, match="ranking and graph must share m"):
            kt_formula(p, THREE_CYCLE, Ranking.of([0, 1, 2, 3]))


class TestKtFormula:
    def test_empty_graph_constant(self):
        g = Digraph.of(4, [])
        p = mcgarvey_profile(g)
        for _ in range(3):
            r = random_ranking(np.random.default_rng(3), 4)
            assert kt_formula(p, g, r) == Fraction(p.n * 6, 2)

    def test_acyclic_topological_order(self):
        g = Digraph.of(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        p = mcgarvey_profile(g)
        r = Ranking.of([0, 1, 2, 3])
        assert kt_formula(p, g, r) == kt_profile_distance(p, r)

    def test_three_cycle_exhaustive(self):
        p = mcgarvey_profile(THREE_CYCLE)
        for perm in itertools.permutations(range(3)):
            r = Ranking(perm)
            assert kt_formula(p, THREE_CYCLE, r) == kt_profile_distance(p, r)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_odd_multiplier_stays_an_int(self, m):
        # One ballot 0 > 1 > ... > m-1 realizes the transitive tournament
        # with lambda = 1 and n = 1: every halved term is odd on its own.
        p = Profile.of([list(range(m))])
        g = Digraph.of(m, itertools.combinations(range(m), 2))
        multiplier = detect_margin_multiplier(p, g)
        assert type(multiplier) is int and multiplier == 1
        for perm in itertools.permutations(range(m)):
            r = Ranking(perm)
            distance = kt_formula(p, g, r)
            assert type(distance) is int and distance == kt_profile_distance(p, r)

    def test_proportionality_violation_detected(self):
        p = Profile.of([[0, 1, 2]])
        with pytest.raises(ConstructionError):
            kt_formula(p, Digraph.of(3, [(1, 0)]), Ranking.of([0, 1, 2]))


class TestAlgorithm2:
    def test_three_cycle_thresholds(self):
        assert efas_via_kemeny(THREE_CYCLE, 1, kemeny_decision) is Decision.YES
        assert efas_via_kemeny(THREE_CYCLE, 0, kemeny_decision) is Decision.NO

    def test_two_arc_disjoint_cycles(self):
        g = Digraph.of(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert g.is_eulerian()
        assert efas_bruteforce(g, 1) is False
        assert efas_bruteforce(g, 2) is True
        assert efas_via_kemeny(g, 1, kemeny_decision) is Decision.NO
        assert efas_via_kemeny(g, 2, kemeny_decision) is Decision.YES

    def test_non_eulerian_rejected_when_strict(self):
        g = Digraph.of(3, [(0, 1)])
        with pytest.raises(ValueError):
            efas_via_kemeny(g, 0, kemeny_decision)
        assert efas_via_kemeny(g, 0, kemeny_decision, strict=False) is Decision.YES

    def test_at_most_two_vertices(self):
        for g, t in itertools.product((Digraph.of(1, []), Digraph.of(2, [])), (-1, 0, 1)):
            answer = efas_via_kemeny(g, t, kemeny_decision)
            assert (answer is Decision.YES) == efas_bruteforce(g, t) == (t >= 0)
        with pytest.raises(ValueError, match="not Eulerian"):
            efas_via_kemeny(Digraph.of(2, [(0, 1)]), 0, kemeny_decision)
        with pytest.raises(ConstructionError):
            efas_via_kemeny(Digraph.of(2, [(0, 1), (1, 0)]), 1, kemeny_decision)

    def test_kemeny_tables_built_on_the_m3_to_m5_family(self):
        # The witness settles most yes queries and the cycle bound most no
        # queries, so most build no 2^m table.
        queries = [
            (g, t)
            for m in (3, 4, 5)
            for g in enumerate_eulerian_digraphs(m)
            for t in range(g.edge_count + 1)
        ]
        with mock.patch.object(
            rules_exact, "_kemeny_block_table", wraps=rules_exact._kemeny_block_table
        ) as build:
            yes = sum(efas_via_kemeny(g, t, kemeny_decision) is Decision.YES for g, t in queries)
        assert (len(queries), yes, build.call_count) == (1611, 1209, 81)

    def test_scaled_multiplier_on_the_m3_to_m5_family(self):
        # Every McGarvey count doubled gives lambda = 4; the driver's limit
        # scales with it and reaches the decider as an int.
        def doubled(g):
            return Profile.from_counts((r, 2 * c) for r, c in mcgarvey_profile(g).grouped.items())

        limits = []

        def decider(p, t):
            limits.append(t)
            return kemeny_decision(p, t)

        queries = [
            (g, t)
            for m in (3, 4, 5)
            for g in enumerate_eulerian_digraphs(m)
            for t in range(g.edge_count + 1)
        ]
        assert detect_margin_multiplier(doubled(THREE_CYCLE), THREE_CYCLE) == 4
        for g, t in queries:
            answer = efas_via_kemeny(g, t, decider, doubled)
            assert (answer is Decision.YES) == efas_bruteforce(g, t)
        assert len(queries) == 1611 and len(limits) == 1611
        assert all(type(limit) is int for limit in limits)

    @given(st_two_cycle_free_digraph())
    @example(Digraph.of(3, []))
    @example(Digraph.of(1, []))
    @example(Digraph.of(2, []))
    @example(Digraph.of(2, [(1, 0)]))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_on_any_digraph(self, g):
        for t in range(-1, g.edge_count + 1):
            answer = efas_via_kemeny(g, t, kemeny_decision, strict=False)
            assert (answer is Decision.YES) == efas_bruteforce(g, t)


class TestEfasBruteforce:
    def test_acyclic(self):
        g = Digraph.of(3, [(0, 1), (1, 2)])
        assert efas_bruteforce(g, 0)

    def test_three_cycle(self):
        assert not efas_bruteforce(THREE_CYCLE, 0)
        assert efas_bruteforce(THREE_CYCLE, 1)

    def test_budget(self):
        g = Digraph.of(9, [(0, 1)])
        with pytest.raises(BudgetExceededError):
            efas_bruteforce(g, 0)


class TestEulerianEnumeration:
    def test_m3_catalog(self):
        graphs = list(enumerate_eulerian_digraphs(3))
        # the empty graph plus the two triangle orientations
        assert len(graphs) == 3
        arc_counts = sorted(g.edge_count for g in graphs)
        assert arc_counts == [0, 3, 3]

    def test_all_yielded_are_eulerian_and_two_cycle_free(self):
        for g in enumerate_eulerian_digraphs(4):
            assert g.is_eulerian()
            assert not g.has_two_cycle()

    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_scan_oracle(self, m):
        graphs = [(g.m, g.arcs) for g in enumerate_eulerian_digraphs(m)]
        assert graphs == [(g.m, g.arcs) for g in eulerian_digraphs_scan(m)]

    def test_no_vertices_raises_on_first_next(self):
        graphs = enumerate_eulerian_digraphs(0)
        with pytest.raises(ValueError, match="digraph needs at least one vertex"):
            next(graphs)

    def test_m6_family_pinned(self):
        digest = hashlib.sha256()
        count = 0
        for g in enumerate_eulerian_digraphs(6):
            assert g.is_eulerian()
            assert not g.has_two_cycle()
            digest.update(repr(sorted(g.arcs)).encode())
            count += 1
        assert count == 7799
        assert digest.hexdigest() == (
            "a32aaf0219f8461a9a7990eee3528ecdd795edb26e783db518b5a7c441924836"
        )


class TestEfasDriverAtM6:
    def test_sampled_family_thresholds_match_bruteforce(self):
        family = list(enumerate_eulerian_digraphs(6))
        rng = np.random.default_rng(20261019)
        for index in sorted(rng.choice(len(family), size=150, replace=False).tolist()):
            g = family[index]
            answers = [
                efas_via_kemeny(g, t, kemeny_decision) is Decision.YES
                for t in range(g.edge_count + 1)
            ]
            first_yes = answers.index(True)
            assert answers == [False] * first_yes + [True] * (len(answers) - first_yes)
            assert efas_bruteforce(g, first_yes)
            assert not efas_bruteforce(g, first_yes - 1)
