import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votelab import rules_exact
from votelab import (
    BudgetExceededError,
    Committee,
    Decision,
    Digraph,
    Profile,
    Ranking,
    X3CInstance,
    app_last,
    cc_score,
    committee_decision,
    condorcet_winner,
    dodgson_score_exact,
    dodgson_score_within,
    efas_bruteforce,
    efas_via_kemeny,
    enumerate_x3c_instances,
    kemeny_best,
    kemeny_decision,
    kemeny_score_of_alternative,
    kt_profile_distance,
    mcgarvey_profile,
    monroe_score,
    permute_profile,
    x3c_to_dodgson,
    young_score_exact,
)
from conftest import (
    balanced_assignment_rescan,
    cc_brute,
    dodgson_ilp,
    dodgson_lift_dp,
    dodgson_root_bound,
    dodgson_score_astar_oracle,
    dodgson_score_bfs_oracle,
    dodgson_within_ilp,
    kemeny_alt_brute,
    kemeny_brute,
    kemeny_ilp,
    kemeny_table_loop,
    margins_brute,
    monroe_brute,
    monroe_lp,
    monroe_lsa,
    random_profile,
    random_ranking,
    st_pooled_profile,
    st_two_cycle_free_digraph,
    voter_rankings,
    young_ilp,
)

ABC = Ranking.of([0, 1, 2])
CYCLE = Profile.of([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
M6_PINNED = Profile.of([
    [3, 1, 4, 0, 5, 2], [5, 0, 2, 1, 3, 4], [1, 2, 3, 4, 5, 0],
    [4, 3, 0, 5, 1, 2], [2, 5, 1, 0, 4, 3], [0, 4, 3, 2, 1, 5],
    [5, 4, 3, 2, 1, 0], [1, 0, 5, 3, 2, 4], [3, 2, 1, 5, 4, 0],
])


def st_profile(min_m, max_m, max_n):
    return st.tuples(st.integers(min_m, max_m), st.integers(1, max_n)).flatmap(
        lambda mn: st.lists(
            st.permutations(range(mn[0])), min_size=mn[1], max_size=mn[1]
        ).map(Profile.of)
    )


@st.composite
def st_near_consensus_profile(draw, min_m, max_m, max_n, max_swaps=2):
    """Ballots that keep the order of a center ranking's blocks (two or three),
    each shuffled within its blocks and then moved by up to ``max_swaps``
    adjacent swaps.

    Their majority graph often splits into several strongly connected
    components. The ballots come from a drawn seed, as Hypothesis's own
    permutations lean toward the identity and would mostly agree.
    """
    m, n = draw(st.integers(min_m, max_m)), draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cuts = sorted(rng.sample(range(1, m), rng.randint(1, min(2, m - 1))))
    center = rng.sample(range(m), m)
    blocks = [center[i:j] for i, j in zip([0, *cuts], [*cuts, m])]
    ballots = []
    for _ in range(n):
        order = [x for block in blocks for x in rng.sample(block, len(block))]
        for _ in range(rng.randint(0, max_swaps)):
            i = rng.randrange(m - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        ballots.append(order)
    return Profile.of(ballots)


def st_counted_profile(max_m, max_distinct, max_count):
    """Profiles of at most ``max_distinct`` rankings, each with ``1..max_count`` copies."""
    return st.integers(3, max_m).flatmap(
        lambda m: st.lists(
            st.tuples(st.permutations(range(m)), st.integers(1, max_count)),
            min_size=1,
            max_size=max_distinct,
        ).map(Profile.from_counts)
    )

class TestDodgsonExact:
    def test_condorcet_winner_scores_zero(self):
        p = Profile.of([[1, 0, 2], [1, 2, 0], [1, 0, 2]])
        assert condorcet_winner(p) == 1
        assert dodgson_score_exact(p, 1) == 0
        assert dodgson_score_within(p, 1, -1) is None  # 0 > -1

    def test_matches_bfs_on_all_m3_n2(self):
        perms = list(itertools.permutations(range(3)))
        for combo in itertools.product(perms, repeat=2):
            p = Profile.of(combo)
            for a in range(3):
                assert dodgson_score_exact(p, a) == dodgson_score_bfs_oracle(p, a)

    @pytest.mark.parametrize(
        "m, max_n, profiles", [(4, 4, 20), (5, 3, 8), (5, 7, 60), (6, 7, 40), (7, 5, 40)]
    )
    def test_matches_bfs_on_random_profiles(self, rng, m, max_n, profiles):
        # The unrestricted swap search is the one check of the lift-vector
        # restriction itself. Its A* form, which equals the BFS on every
        # m=3, n<=3 profile, reaches these scales within its state budget.
        for _ in range(profiles):
            p = random_profile(rng, m, int(rng.integers(1, max_n + 1)))
            for a in range(m):
                assert dodgson_score_exact(p, a) == dodgson_score_astar_oracle(p, a)

    def test_astar_matches_bfs_on_all_m3_up_to_n3(self):
        perms = list(itertools.permutations(range(3)))
        for n in range(1, 4):
            for combo in itertools.product(perms, repeat=n):
                p = Profile.of(combo)
                for a in range(3):
                    assert dodgson_score_astar_oracle(p, a) == dodgson_score_bfs_oracle(p, a)

    @given(st_profile(3, 7, 25), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_lift_count_ilp(self, p, data):
        a = data.draw(st.integers(0, p.m - 1), label="a")
        cutoff = data.draw(st.none() | st.integers(0, p.m * p.n), label="cutoff")
        assert dodgson_score_within(p, a, cutoff) == dodgson_within_ilp(p, a, cutoff)

    def test_matches_lift_count_ilp_on_reduction_profiles(self):
        instances = list(enumerate_x3c_instances(6, 6))
        picks = np.random.default_rng(20261018).choice(len(instances), 24, replace=False)
        for i in picks.tolist():
            out = x3c_to_dodgson(instances[i])
            p, a = out.profile, out.critical
            for cutoff in (None, out.threshold):
                assert dodgson_score_within(p, a, cutoff) == dodgson_within_ilp(p, a, cutoff)

    @given(st_counted_profile(7, 8, 5), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_the_dp_without_root_bound(self, p, data):
        # The root bound and the stop at it only answer earlier: the same
        # answer at every cutoff, within the expansions the DP made without
        # them, and a cutoff below the bound needs none.
        a = data.draw(st.integers(0, p.m - 1), label="a")
        score, expansions = dodgson_lift_dp(p, a, None)
        assert dodgson_score_within(p, a, None, budget=expansions) == score
        lower = dodgson_root_bound(p, a)
        assert lower <= score
        assert dodgson_score_within(p, a, lower - 1, budget=0) is None
        for cutoff in range(-1, score + 2):
            answer, expansions = dodgson_lift_dp(p, a, cutoff)
            assert dodgson_score_within(p, a, cutoff, budget=expansions) == answer

    @given(st_profile(5, 8, 40), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_stop_at_root_bound_matches_lift_count_ilp(self, p, data):
        a = data.draw(st.integers(0, p.m - 1), label="a")
        score = dodgson_ilp(p, a)
        assert dodgson_score_within(p, a) == score
        assert dodgson_score_within(p, a, score) == score
        assert dodgson_score_within(p, a, score - 1) is None

    @given(st.data(), st.integers(3, 6), st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_suffix_below_target_does_not_matter(self, data, m, n):
        # Only each ballot's prefix above a counts. So one query on the
        # reduction profile answers every cover-driver draw that kept its
        # top slices (experiments.run_cover_driver).
        ballots = data.draw(
            st.lists(st.permutations(range(m)), min_size=n, max_size=n), label="ballots"
        )
        a = data.draw(st.integers(0, m - 1), label="a")
        shuffled = []
        for order in ballots:
            cut = order.index(a) + 1
            shuffled.append(order[:cut] + data.draw(st.permutations(order[cut:]), label="suffix"))
        p, q = Profile.of(ballots), Profile.of(shuffled)
        score = dodgson_score_exact(p, a)
        assert dodgson_score_exact(q, a) == score
        for cutoff in range(score + 1):
            assert dodgson_score_within(q, a, cutoff) == dodgson_score_within(p, a, cutoff)

    def test_app_last_invariance(self, rng):
        for _ in range(25):
            p = random_profile(rng, int(rng.integers(3, 6)), int(rng.integers(1, 6)))
            a = int(rng.integers(p.m))
            base = dodgson_score_exact(p, a)
            for extra in (1, 2):
                assert dodgson_score_exact(app_last(p, extra), a) == base

    def test_within_cutoff_none_when_above(self):
        p = Profile.of([[1, 2, 0]] * 3)
        score = dodgson_score_exact(p, 0)
        assert score > 0
        assert dodgson_score_within(p, 0, score) == score
        assert dodgson_score_within(p, 0, score - 1) is None
        assert dodgson_score_within(p, 0, -1) is None

    def test_missing_uncut_score_raises(self, monkeypatch):
        # A real check, not an assert, so it survives python -O.
        monkeypatch.setattr(rules_exact, "dodgson_score_within", lambda *a, **k: None)
        with pytest.raises(RuntimeError):
            dodgson_score_exact(Profile.of([[0, 1, 2]]), 0)

    def test_budget_error(self):
        p = Profile.of([[1, 2, 0]] * 5)
        with pytest.raises(BudgetExceededError):
            dodgson_score_exact(p, 0, budget=1)

    @pytest.mark.parametrize(
        "query, cutoff, expected, least",
        [
            ("q6_no", "threshold", None, 303),
            ("q6_no", None, 9, 345),
            ("m6", None, 5, 85),
        ],
    )
    def test_budget_boundaries_pinned(self, query, cutoff, expected, least):
        # The least passing budget is the search's expansion count, so a
        # change to the pruning or the processing order moves it.
        if query == "q6_no":
            out = x3c_to_dodgson(X3CInstance.of(6, [[0, 1, 2], [2, 3, 4], [0, 4, 5], [1, 3, 5]]))
            p, a = out.profile, out.critical
            cutoff = out.threshold if cutoff == "threshold" else cutoff
        else:
            p, a = M6_PINNED, 0
        assert dodgson_score_within(p, a, cutoff, budget=least) == expected
        with pytest.raises(BudgetExceededError):
            dodgson_score_within(p, a, cutoff, budget=least - 1)

    def test_cutoff_below_root_bound_needs_no_budget(self):
        # 5 votes are missing and no lift gains more than one per swap, so
        # a cutoff of 2 is a NO before any expansion.
        assert dodgson_root_bound(M6_PINNED, 0) == 5
        assert dodgson_score_within(M6_PINNED, 0, 2, budget=0) is None

    def test_profile_past_the_dp_without_root_bound(self):
        # 39 uniform ballots over 8 alternatives: without the stop at the
        # root bound this query passes the default 5,000,000 expansions.
        ballots = np.random.default_rng(0).permuted(np.tile(np.arange(8), (39, 1)), axis=1)
        p = Profile.of(ballots.tolist())
        assert dodgson_score_exact(p, 1) == 34 == dodgson_ilp(p, 1)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            dodgson_score_exact(Profile.of([[0, 1]]), 0)


class TestBfsOracle:
    def test_condorcet_winner_zero(self):
        assert dodgson_score_bfs_oracle(Profile.of([[0, 1, 2]]), 0) == 0

    def test_single_swap(self):
        assert dodgson_score_bfs_oracle(Profile.of([[1, 0, 2]]), 0) == 1

    def test_domain_guard(self):
        with pytest.raises(BudgetExceededError):
            dodgson_score_bfs_oracle(Profile.of([[0, 1, 2]] * 4), 0)


class TestYoung:
    def test_unanimous(self):
        assert young_score_exact(Profile.of([[0, 1, 2]] * 6), 0) == 6

    def test_single_voter(self):
        assert young_score_exact(Profile.of([[0, 1, 2]]), 0) == 1

    def test_zero_when_never_certifiable(self):
        # the target is at the bottom of every ballot
        p = Profile.of([[1, 2, 0], [2, 1, 0]])
        assert young_score_exact(p, 0) == 0

    def test_drops_spoilers(self):
        # frozen by hand: both 0-top ballots alone certify 0 (margins 2-0),
        # adding both 1-top ballots would tie the 0-vs-1 contest
        p = Profile.of([[0, 1, 2], [0, 2, 1], [1, 2, 0], [1, 0, 2]])
        assert young_score_exact(p, 0) == 3

    def test_app_last_invariance(self, rng):
        for _ in range(25):
            p = random_profile(rng, int(rng.integers(3, 6)), int(rng.integers(1, 7)))
            a = int(rng.integers(p.m))
            base = young_score_exact(p, a)
            for extra in (1, 2):
                assert young_score_exact(app_last(p, extra), a) == base

    @given(st_pooled_profile(3, 6, 20, max_pool=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_kept_ballot_ilp(self, p):
        for a in range(p.m):
            assert young_score_exact(p, a) == young_ilp(p, a)

    def test_budget_error(self):
        # one class of 21 ballots: the root and its 22 children
        p = Profile.of([[0, 1, 2]] * 21)
        with pytest.raises(BudgetExceededError):
            young_score_exact(p, 0, budget=22)
        assert young_score_exact(p, 0, budget=23) == 21

    def test_more_classes_than_the_recursion_limit(self):
        # the search goes one level deeper per class of ballots that
        # compare 0 against every rival alike
        p = random_profile(np.random.default_rng(1), 12, 3000)
        assert len({tuple(r.prefers(0, b) for b in range(1, 12)) for r in p.grouped}) == 1146
        with pytest.raises(BudgetExceededError):
            young_score_exact(p, 0, budget=5000)


class TestKemeny:
    def test_unanimous(self):
        p = Profile.of([[2, 0, 1]] * 3)
        assert kemeny_best(p) == (Ranking.of([2, 0, 1]), 0)

    def test_cycle_score_matches_brute(self):
        ranking, score = kemeny_best(CYCLE)
        brute_ranking, brute_score = kemeny_brute(CYCLE)
        assert score == brute_score == 4
        assert ranking == brute_ranking

    def test_matches_brute_on_random_profiles(self, rng):
        for _ in range(40):
            m = int(rng.integers(3, 7))
            p = random_profile(rng, m, int(rng.integers(1, 6)))
            ranking, score = kemeny_best(p)
            brute_ranking, brute_score = kemeny_brute(p)
            assert score == brute_score
            assert ranking == brute_ranking  # lexicographic tie-break on both sides
            assert kt_profile_distance(p, ranking) == score

    def test_alt_score_cycle_symmetry(self):
        for a in range(3):
            assert kemeny_score_of_alternative(CYCLE, a) == 4
            assert kemeny_alt_brute(CYCLE, a) == 4

    def test_alt_score_consistency_with_best(self, rng):
        for _ in range(20):
            p = random_profile(rng, int(rng.integers(3, 6)), int(rng.integers(1, 6)))
            ranking, score = kemeny_best(p)
            per_alt = [kemeny_score_of_alternative(p, a) for a in range(p.m)]
            assert min(per_alt) == score
            assert per_alt[ranking.order[0]] == score
            assert all(s >= score for s in per_alt)

    def test_best_is_a_lower_bound(self, rng):
        for _ in range(20):
            p = random_profile(rng, int(rng.integers(3, 6)), int(rng.integers(1, 6)))
            _, score = kemeny_best(p)
            r = random_ranking(rng, p.m)
            assert score <= kt_profile_distance(p, r)

    def test_decision(self):
        n, m = CYCLE.n, CYCLE.m
        assert kemeny_decision(CYCLE, m * (m - 1) // 2 * n)
        assert not kemeny_decision(CYCLE, -1)
        assert kemeny_decision(CYCLE, 4)
        assert not kemeny_decision(CYCLE, 3)

    def test_budget_error(self):
        p = Profile.of([tuple(range(5))])
        with pytest.raises(BudgetExceededError):
            kemeny_best(p, budget=16)
        kemeny_best(p)  # the table is now kept on p; the budget still applies
        with pytest.raises(BudgetExceededError):
            kemeny_decision(p, 0, budget=16)
        fresh = Profile.of([tuple(range(5))])
        with pytest.raises(BudgetExceededError):  # before the witness, which would say yes
            kemeny_decision(fresh, 10 * fresh.n, budget=16)

    def test_disagreement_total_past_the_table_sentinel(self):
        # n * C(5, 2) = 1.6e19 >= 2^62: the true score, 4.8e18, reaches the
        # table's not-yet-computed sentinel.
        p = Profile.from_counts([((4, 0, 1, 2, 3), 8 * 10**17), ((4, 3, 2, 1, 0), 8 * 10**17)])
        for query in (
            lambda: kemeny_score_of_alternative(p, 4),
            lambda: kemeny_decision(p, 4.7e18),
            lambda: kemeny_best(p),
        ):
            with pytest.raises(ValueError, match="2\\^62"):
                query()

    def test_disagreement_total_just_under_the_table_sentinel(self):
        n = (2**62 - 1) // math.comb(5, 2)
        p = Profile.from_counts([((4, 0, 1, 2, 3), n // 2 + 1), ((4, 3, 2, 1, 0), n - n // 2 - 1)])
        assert p.n * math.comb(p.m, 2) < 2**62
        ranking, score = kemeny_best(p)
        assert ranking == Ranking.of([4, 0, 1, 2, 3])
        assert score == kt_profile_distance(p, ranking) == 6 * (n - n // 2 - 1)
        assert kemeny_score_of_alternative(p, 4) == score
        assert kemeny_decision(p, score) and not kemeny_decision(p, score - 1)

    @given(st.one_of(st_profile(3, 10, 25), st_near_consensus_profile(3, 10, 25)))
    @settings(max_examples=60, deadline=None)
    def test_block_table_matches_loop(self, p):
        # The parts are the strongly connected components of the graph with
        # an arc x -> y wherever margin[x][y] >= 0, members ascending, the
        # component that reaches most first.
        tables = rules_exact._kemeny_block_table(p)
        margins = margins_brute(p)
        reach = [{y for y in range(p.m) if margins[x][y] >= 0} for x in range(p.m)]
        for k in range(p.m):
            for x in range(p.m):
                if k in reach[x]:
                    reach[x] |= reach[k]
        components = {tuple(y for y in sorted(reach[x]) if x in reach[y]) for x in range(p.m)}
        assert [members for members, _ in tables.parts] == sorted(
            components, key=lambda members: -len(reach[members[0]])
        )
        # Each component's table is the whole table of p restricted to that
        # component; the components' optima plus the pairs between them,
        # earlier component above, make the optimum of p's whole table.
        full = kemeny_table_loop(p)
        placed, total = [], 0
        for members, best in tables.parts:
            local = {x: i for i, x in enumerate(members)}
            restricted = Profile.from_counts(
                ([local[x] for x in r.order if x in local], count) for r, count in p.grouped.items()
            )
            assert best.tolist() == kemeny_table_loop(restricted)
            total += best[-1] + sum(
                count for r, count in p.grouped.items() for x in placed for y in members if r.prefers(y, x)
            )
            placed += members
        ranking, score = kemeny_best(p)
        assert type(score) is int and score == tables.score == total == full[-1]
        assert all(type(x) is int for x in ranking.order)
        assert type(kemeny_score_of_alternative(p, ranking.order[0])) is int

    @given(st_pooled_profile(3, 10, 30))
    @settings(max_examples=60, deadline=None)
    def test_decision_on_fresh_profiles(self, p):
        # A profile with no table kept tries the witness, then the cycle
        # bound; the table is built only when the witness misses t and the
        # bound does not exceed it.
        _, score = kemeny_best(p)
        for t in [*range(score - 2, score + 3), Fraction(2 * score + 1, 2)]:
            fresh = Profile.from_counts(p.grouped.items())
            _, witness_cost = rules_exact._kemeny_witness(Profile.from_counts(p.grouped.items()))
            bound = rules_exact._kemeny_cycle_bound(Profile.from_counts(p.grouped.items()), t)
            with mock.patch.object(
                rules_exact, "_kemeny_block_table", wraps=rules_exact._kemeny_block_table
            ) as build:
                assert kemeny_decision(fresh, t) == (score <= t)
            assert build.call_count == (0 if witness_cost <= t or bound > t else 1)
        with mock.patch.object(rules_exact, "_kemeny_witness") as witness:
            assert kemeny_decision(p, score)  # p keeps its table: no witness
        assert witness.call_count == 0

    @given(
        st.one_of(st_pooled_profile(3, 10, 30), st_two_cycle_free_digraph(3).map(mcgarvey_profile))
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_cycle_bound_never_exceeds_the_score(self, p):
        _, score = kemeny_best(p)
        full = rules_exact._kemeny_cycle_bound(p, math.inf)
        # stopped early, the packing is a prefix of the full one
        assert rules_exact._kemeny_cycle_bound(p, score - 1) <= full <= score

    def test_no_on_the_three_cycle_builds_no_table(self):
        # Every pair costs 2 of the 6 ballots, and one arc of the cycle goes
        # backward at margin 2: base 6 plus one packed 3-cycle of load 2.
        p = mcgarvey_profile(Digraph.of(3, [(0, 1), (1, 2), (2, 0)]))
        assert rules_exact._kemeny_cycle_bound(p, math.inf) == 8 == kemeny_best(p)[1]
        with mock.patch.object(
            rules_exact, "_kemeny_block_table", wraps=rules_exact._kemeny_block_table
        ) as build:
            assert not kemeny_decision(Profile.from_counts(p.grouped.items()), 7)
            assert kemeny_decision(Profile.from_counts(p.grouped.items()), 8)
        assert build.call_count == 0

    def test_efas_matches_bruteforce_at_m7_and_m8(self):
        # Random 2-cycle-free Eulerian digraphs: a union of arc-disjoint simple
        # cycles, each dropped if it would reuse a vertex pair. m=7 and 8 read
        # cycle lists past the m <= 6 of the other feedback-arc tests.
        rng = np.random.default_rng(20261020)
        for m in [7] * 6 + [8] * 6:
            pairs, arcs = set(), []
            for _ in range(10):
                loop = rng.permutation(m)[: int(rng.integers(3, m + 1))].tolist()
                cycle = list(zip(loop, loop[1:] + loop[:1]))
                used = {frozenset(arc) for arc in cycle}
                if not pairs & used:
                    pairs |= used
                    arcs += cycle
            g = Digraph.of(m, arcs)
            answers = [
                efas_via_kemeny(g, t, kemeny_decision) is Decision.YES
                for t in range(g.edge_count + 1)
            ]
            first_yes = answers.index(True)
            assert answers == [False] * first_yes + [True] * (len(answers) - first_yes)
            assert efas_bruteforce(g, first_yes)
            assert not efas_bruteforce(g, first_yes - 1)

    @given(st_pooled_profile(3, 10, 30))
    @settings(max_examples=60, deadline=None)
    def test_witness_is_a_scored_local_optimum(self, p):
        order, cost = rules_exact._kemeny_witness(p)
        assert sorted(order) == list(range(p.m))
        assert type(cost) is int and cost == kt_profile_distance(p, Ranking(tuple(order)))
        margins = margins_brute(p)
        # no neighbour beats the one above it by majority
        assert all(margins[lower][upper] <= 0 for upper, lower in zip(order, order[1:]))
        wins_order = sorted(range(p.m), key=lambda x: (-sum(margins[x]), x))
        assert cost <= kt_profile_distance(p, Ranking(tuple(wins_order)))

    @given(st_pooled_profile(3, 10, 30))
    @settings(max_examples=40, deadline=None)
    def test_matches_ilp_with_repeated_ballots(self, p):
        ranking, score = kemeny_best(p)
        ilp_ranking, ilp_score = kemeny_ilp(p)
        assert score == ilp_score == kt_profile_distance(p, ilp_ranking)
        assert kt_profile_distance(p, ranking) == score
        for a in range(p.m):
            top_ranking, top_score = kemeny_ilp(p, top=a)
            assert top_ranking.order[0] == a
            assert kemeny_score_of_alternative(p, a) == top_score
            assert kt_profile_distance(p, top_ranking) == top_score
        assert kemeny_decision(p, ilp_score)
        assert not kemeny_decision(p, ilp_score - 1)

    @given(st_near_consensus_profile(3, 9, 30))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_split_profiles_match_brute_and_ilp(self, p):
        # Near-consensus profiles split into several components, each solved
        # on its own table; the oracles see the whole profile.
        ranking, score = kemeny_best(p)
        if p.m <= 7:
            assert (ranking, score) == kemeny_brute(p)
        _, ilp_score = kemeny_ilp(p)
        assert score == ilp_score == kt_profile_distance(p, ranking)
        for a in range(p.m):
            assert kemeny_score_of_alternative(p, a) == kemeny_ilp(p, top=a)[1]
        for t in (score, score - 1):
            assert kemeny_decision(Profile.from_counts(p.grouped.items()), t) == (t == score)
            assert kemeny_decision(p, t) == (t == score)


class TestCcScore:
    def test_full_committee_everyone_on_top(self):
        p = Profile.of([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        full = Committee.of(range(3))
        assert cc_score(p, full, None, "sum") == -3  # every voter at position 1
        assert cc_score(p, full, None, "min") == -1

    def test_singleton_forced_assignment(self):
        p = Profile.of([[0, 1, 2], [1, 0, 2]])
        expected = sum(-(r.position(0) + 1) for r in voter_rankings(p))
        assert cc_score(p, Committee.of([0]), None, "sum") == expected

    def test_matches_assignment_brute(self, rng):
        for _ in range(20):
            m = int(rng.integers(3, 6))
            p = random_profile(rng, m, int(rng.integers(1, 6)))
            k = int(rng.integers(1, m + 1))
            committee = Committee.of(rng.choice(m, size=k, replace=False).tolist())
            for agg in ("sum", "min"):
                assert cc_score(p, committee, None, agg) == cc_brute(p, committee, agg)


class TestMonroeScore:
    def test_k1_equals_cc(self, rng):
        for _ in range(10):
            p = random_profile(rng, 4, int(rng.integers(1, 6)))
            c = Committee.of([int(rng.integers(4))])
            for agg in ("sum", "min"):
                assert monroe_score(p, c, None, agg) == cc_score(p, c, None, agg)

    def test_identical_voters_balanced_load(self):
        # 4 identical ballots, k=2: two voters per member; the best pair
        # of members is the ballot's top two, scoring 2*(-1) + 2*(-2)
        p = Profile.of([[0, 1, 2, 3]] * 4)
        assert monroe_score(p, Committee.of([0, 1]), None, "sum") == -6
        assert monroe_score(p, Committee.of([0, 1]), None, "min") == -2

    def test_matches_assignment_brute(self, rng):
        for _ in range(20):
            m = int(rng.integers(3, 6))
            p = random_profile(rng, m, int(rng.integers(1, 7)))
            k = int(rng.integers(1, 4))
            committee = Committee.of(rng.choice(m, size=k, replace=False).tolist())
            for agg in ("sum", "min"):
                assert monroe_score(p, committee, None, agg) == monroe_brute(
                    p, committee, agg
                )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_linear_assignment(self, data):
        p = data.draw(st_profile(3, 7, 60))
        k = data.draw(st.integers(1, min(4, p.m)))
        committee = Committee.of(data.draw(st.sets(st.integers(0, p.m - 1), min_size=k, max_size=k)))
        for agg in ("sum", "min"):
            assert monroe_score(p, committee, None, agg) == monroe_lsa(p, committee, agg)

    def test_never_beats_cc(self, rng):
        for _ in range(15):
            p = random_profile(rng, 5, int(rng.integers(1, 7)))
            k = int(rng.integers(1, 4))
            committee = Committee.of(rng.choice(5, size=k, replace=False).tolist())
            for agg in ("sum", "min"):
                assert monroe_score(p, committee, None, agg) <= cc_score(
                    p, committee, None, agg
                )


def test_committee_scores_take_one_or_two_alternatives(rng):
    # Only Dodgson, Young and Kemeny need m >= 3; a committee score is defined for any m >= 1.
    for m in (1, 2):
        for _ in range(30):
            p = random_profile(rng, m, int(rng.integers(1, 7)))
            k = int(rng.integers(1, m + 1))
            committee = Committee.of(rng.choice(m, size=k, replace=False).tolist())
            for agg in ("sum", "min"):
                assert cc_score(p, committee, None, agg) == cc_brute(p, committee, agg)
                assert monroe_score(p, committee, None, agg) == monroe_brute(p, committee, agg)


class TestMonroeCountedRows:
    """The assignment places counted rankings, many voters per augmenting path."""

    @staticmethod
    def draw_committee(data, p):
        k = data.draw(st.integers(1, min(4, p.m)))
        return Committee.of(data.draw(st.sets(st.integers(0, p.m - 1), min_size=k, max_size=k)))

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_linear_assignment(self, data):
        p = data.draw(st_counted_profile(6, 4, 50))  # n <= 200
        committee = self.draw_committee(data, p)
        for alpha in (None, NON_LINEAR_ALPHAS["square"]):
            for agg in ("sum", "min"):
                expected = monroe_lsa(p, committee, agg, alpha or (lambda i: -i))
                assert monroe_score(p, committee, alpha, agg) == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_transportation_lp(self, data):
        p = data.draw(st_counted_profile(6, 8, 1250))  # n <= 10,000
        committee = self.draw_committee(data, p)
        for alpha in (None, NON_LINEAR_ALPHAS["square"]):
            for agg in ("sum", "min"):
                expected = monroe_lp(p, committee, agg, alpha or (lambda i: -i))
                assert monroe_score(p, committee, alpha, agg) == expected

    def test_assignment_reads_one_row_per_distinct_ranking(self):
        p = Profile.from_counts([([0, 1, 2, 3], 40), ([3, 2, 1, 0], 25), ([1, 3, 0, 2], 7)])
        for agg in ("sum", "min"):
            with mock.patch.object(
                rules_exact, "_balanced_assignment", wraps=rules_exact._balanced_assignment
            ) as assign:
                monroe_score(p, Committee.of([0, 3]), None, agg)
            assert assign.call_count >= 1
            assert [len(call.args[0]) for call in assign.call_args_list] == [
                len(p.grouped)
            ] * assign.call_count

    def test_assignment_reads_one_row_per_distinct_satisfaction_vector(self):
        # All 720 rankings of six alternatives give a 2-committee's 30 position pairs.
        p = Profile.from_counts((order, 1) for order in itertools.permutations(range(6)))
        assert len(p.grouped) == 720
        for agg in ("sum", "min"):
            with mock.patch.object(
                rules_exact, "_balanced_assignment", wraps=rules_exact._balanced_assignment
            ) as assign:
                monroe_score(p, Committee.of([1, 4]), None, agg)
            assert [len(call.args[0]) for call in assign.call_args_list] == [30]

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_heaps_match_the_rescan(self, data):
        # Raw tables that repeat value vectors; merging their rows keeps the total.
        k = data.draw(st.integers(1, 5))
        vectors = data.draw(st.lists(st.tuples(*[st.integers(-5, 5)] * k), min_size=1, max_size=4))
        table = data.draw(
            st.lists(st.tuples(st.sampled_from(vectors), st.integers(1, 30)), min_size=1, max_size=12)
        )
        merged: dict = {}
        for values, count in table:
            merged[values] = merged.get(values, 0) + count
        for agg in ("sum", "min"):
            with mock.patch.object(rules_exact, "_balanced_assignment", balanced_assignment_rescan):
                expected = rules_exact._monroe_total(table, agg)
            assert rules_exact._monroe_total(table, agg) == expected
            assert rules_exact._monroe_total(list(merged.items()), agg) == expected

    def test_matches_transportation_lp_past_5000_rankings(self):
        # 6,000 uniform ballots over 8 alternatives: 5,553 distinct rankings.
        ballots = np.random.default_rng(20261020).permuted(np.tile(np.arange(8), (6000, 1)), axis=1)
        p = Profile.of(ballots.tolist())
        assert len(p.grouped) >= 5000
        committee = Committee.of([1, 2, 4, 7])
        for agg in ("sum", "min"):
            assert monroe_score(p, committee, None, agg) == monroe_lp(p, committee, agg)

    def test_min_is_one_assignment(self):
        # Four levels, scored by one assignment.
        p = Profile.from_counts([([0, 1, 2, 3], 40), ([3, 2, 1, 0], 25), ([1, 3, 0, 2], 7)])
        with mock.patch.object(
            rules_exact, "_balanced_assignment", wraps=rules_exact._balanced_assignment
        ) as assign:
            assert monroe_score(p, Committee.of([0, 3]), None, "min") == -4
        assert assign.call_count == 1

    @pytest.mark.parametrize(
        "ballots, members",
        [
            ([[0, 1, 2]] * 3, [0]),  # a single level
            ([[2, 0, 1], [0, 1, 2], [1, 2, 0], [0, 2, 1]], [1]),  # k = 1
            # Both voters rank 0 first, but one must serve 2, the lowest value.
            ([[0, 1, 2]] * 2, [0, 2]),
        ],
    )
    def test_level_weights_edge_cases(self, ballots, members):
        p, committee = Profile.of(ballots), Committee.of(members)
        for agg in ("sum", "min"):
            assert monroe_score(p, committee, None, agg) == monroe_brute(p, committee, agg)

    @given(st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_level_weights_at_large_n(self, data):
        # Up to 8 levels at n <= 100,000: the level weights pass 64 bits.
        p = data.draw(st_counted_profile(8, 8, 12_500))
        committee = self.draw_committee(data, p)
        for alpha in (None, *NON_LINEAR_ALPHAS.values()):
            for agg in ("sum", "min"):
                expected = monroe_lp(p, committee, agg, alpha or (lambda i: -i))
                assert monroe_score(p, committee, alpha, agg) == expected

class TestCommitteeDecision:
    def test_minimum_threshold_always_yes(self):
        p = Profile.of([[0, 1, 2]] * 2)
        assert committee_decision(p, 1, -3 * p.n, "cc")

    def test_full_committee_single_candidate(self):
        p = Profile.of([[2, 1, 0], [0, 1, 2]])
        best = cc_score(p, Committee.of(range(3)), None, "sum")
        assert committee_decision(p, 3, best, "cc")
        assert not committee_decision(p, 3, best + 1, "cc")

    @given(st_profile(3, 6, 12), st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_monroe_decision_matches_a_scan(self, p, data):
        # The decision skips committees whose CC score is below t; a scan
        # scores every committee. A NO reads every committee, skipped or not,
        # against the budget.
        k = data.draw(st.integers(1, p.m), label="k")
        committees = [Committee.of(c) for c in itertools.combinations(range(p.m), k)]
        for agg in ("sum", "min"):
            scores = [monroe_score(p, c, None, agg) for c in committees]
            for t in range(max(scores) - 1, max(scores) + 2):
                scan = any(score >= t for score in scores)
                assert committee_decision(p, k, t, "monroe", None, agg) == scan
            t = max(scores) + 1
            assert not committee_decision(p, k, t, "monroe", None, agg, budget=len(committees))
            with pytest.raises(BudgetExceededError):
                committee_decision(p, k, t, "monroe", None, agg, budget=len(committees) - 1)

    def test_one_satisfaction_table_per_committee(self):
        # CC and Monroe are read off one table per committee. At t above
        # every Monroe score, some committees pass the CC bound and are then
        # assigned, and the NO still builds one table per committee.
        p = random_profile(np.random.default_rng(32), 6, 12)
        committees = [Committee.of(c) for c in itertools.combinations(range(6), 3)]
        for agg in ("sum", "min"):
            t = max(monroe_score(p, c, None, agg) for c in committees) + 1
            assert any(cc_score(p, c, None, agg) >= t for c in committees)
            with mock.patch.object(
                rules_exact, "_satisfaction_table", wraps=rules_exact._satisfaction_table
            ) as build:
                assert not committee_decision(p, 3, t, "monroe", None, agg)
            assert build.call_count == len(committees)

    def test_cc_winner_invariant_under_app_last(self, rng):
        for _ in range(10):
            p = random_profile(rng, 4, int(rng.integers(1, 6)))
            k = 2
            committees = list(itertools.combinations(range(4), k))
            scores = {
                c: cc_score(p, Committee.of(c), None, "sum") for c in committees
            }
            best = max(scores.values())
            winners = {c for c, s in scores.items() if s == best}
            padded = app_last(p, 2)
            padded_scores = {
                c: cc_score(padded, Committee.of(c), None, "sum")
                for c in itertools.combinations(range(6), k)
            }
            # original winners keep their score and stay winners overall
            assert all(padded_scores[c] == best for c in winners)
            assert max(padded_scores.values()) == best


class TestBudgets:
    @pytest.mark.parametrize(
        "solve, solver, unit",
        [
            (lambda p, b: dodgson_score_exact(p, 0, budget=b), "dodgson search", "expansions"),
            (lambda p, b: young_score_exact(p, 1, budget=b), "young search", "search nodes"),
            (lambda p, b: kemeny_best(p, budget=b), "kemeny subset DP", "subset states"),
            (
                lambda p, b: committee_decision(p, 2, 0, budget=b),
                "committee enumeration",
                "committees",
            ),
        ],
        ids=["dodgson", "young", "kemeny", "committee"],
    )
    def test_small_budget_raises_common_error(self, solve, solver, unit):
        # Every solver needs more than 3 units here: Dodgson expands 3
        # options per frontier state per copy, Young visits the root and
        # 6 children, Kemeny has 2**4 subsets, and no 2-committee reaches 0.
        p = Profile.of([[1, 2, 3, 0]] * 5)
        with pytest.raises(BudgetExceededError) as info:
            solve(p, 3)
        assert str(info.value) == f"{solver} exceeded its budget of 3 {unit}"


class TestNeutrality:
    def test_scores_commute_with_relabeling(self, rng):
        for _ in range(12):
            m = int(rng.integers(3, 6))
            p = random_profile(rng, m, int(rng.integers(1, 6)))
            sigma = tuple(int(x) for x in rng.permutation(m))
            q = permute_profile(sigma, p)
            a = int(rng.integers(m))
            assert dodgson_score_exact(p, a) == dodgson_score_exact(q, sigma[a])
            assert young_score_exact(p, a) == young_score_exact(q, sigma[a])
            assert kemeny_score_of_alternative(p, a) == kemeny_score_of_alternative(
                q, sigma[a]
            )


NON_LINEAR_ALPHAS = {"square": lambda i: -i * i, "power": lambda i: 2 ** (12 - i)}


class TestDpsf:
    """Positional scores: any callable strictly decreasing on 1-based positions."""

    def test_default_is_strictly_decreasing(self):
        p = Profile.of([list(range(50))])
        assert cc_score(p, Committee.of([49])) == -50
        assert monroe_score(p, Committee.of([0, 49]), None, "min") == -1

    def test_non_decreasing_rejected(self):
        with pytest.raises(ValueError, match=r"positional scores must strictly decrease \(at 1\)"):
            cc_score(CYCLE, Committee.of([0]), lambda i: 0)
        with pytest.raises(ValueError, match=r"strictly decrease \(at 2\)"):
            monroe_score(CYCLE, Committee.of([0]), lambda i: -min(i, 2))

    @pytest.mark.parametrize("score_fn", [cc_score, monroe_score])
    def test_errors_come_in_order(self, score_fn):
        # A member out of range first, then a bad alpha, then an unknown aggregator.
        with pytest.raises(ValueError, match="committee member 3 out of range"):
            score_fn(CYCLE, Committee.of([3]), lambda i: 0, "mean")
        with pytest.raises(ValueError, match="must strictly decrease"):
            score_fn(CYCLE, Committee.of([0]), lambda i: 0, "mean")
        with pytest.raises(ValueError, match="unknown aggregator 'mean'"):
            score_fn(CYCLE, Committee.of([0]), None, "mean")

    @pytest.mark.parametrize("name", sorted(NON_LINEAR_ALPHAS))
    def test_non_linear_alpha_matches_assignment_oracles(self, rng, name):
        alpha = NON_LINEAR_ALPHAS[name]
        for _ in range(30):
            m = int(rng.integers(3, 6))
            p = random_profile(rng, m, int(rng.integers(1, 7)))
            padded = app_last(p, 2)
            k = int(rng.integers(1, 4))
            committees = [Committee.of(c) for c in itertools.combinations(range(m), k)]
            for agg in ("sum", "min"):
                for rule, score_fn, oracle in [
                    ("cc", cc_score, cc_brute),
                    ("monroe", monroe_score, monroe_brute),
                ]:
                    scores = [oracle(p, c, agg, alpha) for c in committees]
                    for c, expected in zip(committees, scores):
                        assert score_fn(p, c, alpha, agg) == expected
                        assert score_fn(padded, c, alpha, agg) == expected
                    best = max(scores)
                    for q in (p, padded):
                        assert committee_decision(q, k, best, rule, alpha, agg)
                        assert not committee_decision(q, k, best + 1, rule, alpha, agg)
                assert monroe_lsa(p, committees[0], agg, alpha) == monroe_score(
                    p, committees[0], alpha, agg
                )

    def test_committee_validation(self):
        with pytest.raises(ValueError):
            Committee.of([])
