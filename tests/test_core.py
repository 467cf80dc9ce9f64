import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from votelab import (
    Digraph,
    DimensionError,
    Profile,
    Ranking,
    WMG,
    WeightedProfile,
    app_last,
    apply_permutation,
    backward_arcs,
    condorcet_winner,
    deficit,
    kt_distance,
    kt_profile_distance,
    core,
    top_k,
    wmg,
)
from votelab import io as vio
from conftest import (
    condorcet_brute,
    deficit_brute,
    kt_brute,
    margins_brute,
    random_profile,
    voter_rankings,
)

st_m = st.integers(3, 6)


def st_ranking(m):
    return st.permutations(range(m)).map(lambda p: Ranking(tuple(p)))


st_two_rankings = st_m.flatmap(lambda m: st.tuples(st_ranking(m), st_ranking(m)))
st_three_rankings = st_m.flatmap(
    lambda m: st.tuples(st_ranking(m), st_ranking(m), st_ranking(m))
)


def st_profile(max_m=5, max_n=6):
    return st.integers(3, max_m).flatmap(
        lambda m: st.lists(st_ranking(m), min_size=1, max_size=max_n).map(
            lambda rs: Profile(tuple(rs))
        )
    )


ABC = Ranking.of([0, 1, 2])
CBA = Ranking.of([2, 1, 0])
BCA = Ranking.of([1, 2, 0])
CAB = Ranking.of([2, 0, 1])


class TestRanking:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Ranking.of([0, 0, 1])
        with pytest.raises(ValueError):
            Ranking.of([1, 2, 3])
        with pytest.raises(ValueError):
            Ranking.of([])

    def test_positions(self):
        assert CAB.position(2) == 0
        assert CAB.prefers(2, 1)
        assert not CAB.prefers(1, 0)
        # A ranking stores only its order; positions are read off it.
        assert set(vars(CAB)) == {"order"}


class TestKtDistance:
    def test_identity(self):
        assert kt_distance(ABC, ABC) == 0

    def test_full_reversal_flips_all_pairs(self):
        assert kt_distance(ABC, CBA) == 3

    def test_two_disagreements(self):
        # frozen from the pair-enumeration oracle
        assert kt_brute(ABC, BCA) == 2
        assert kt_distance(ABC, BCA) == 2

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            kt_distance(ABC, Ranking.of([0, 1, 2, 3]))

    @given(st_two_rankings)
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_and_symmetric(self, pair):
        r1, r2 = pair
        assert kt_distance(r1, r2) == kt_brute(r1, r2) == kt_distance(r2, r1)

    @given(st_three_rankings)
    @settings(max_examples=80, deadline=None)
    def test_triangle_inequality(self, triple):
        r1, r2, r3 = triple
        assert kt_distance(r1, r3) <= kt_distance(r1, r2) + kt_distance(r2, r3)

    @given(st_two_rankings)
    @settings(max_examples=80, deadline=None)
    def test_reversal_complement(self, pair):
        r1, r2 = pair
        m = r1.m
        assert kt_distance(r1, r2) + kt_distance(r1, r2.reversed()) == m * (m - 1) // 2


class TestKtProfileDistance:
    def test_unanimous_zero(self):
        assert kt_profile_distance(Profile((ABC,) * 4), ABC) == 0

    def test_cycle_profile(self):
        # 0 + 2 + 2, summands frozen from the pair oracle
        p = Profile((ABC, BCA, CAB))
        assert kt_profile_distance(p, ABC) == 4

    def test_weighted_half_reversal(self):
        p = WeightedProfile(((ABC, Fraction(1, 2)),))
        assert kt_profile_distance(p, CBA) == Fraction(3, 2)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            kt_profile_distance(Profile((ABC,)), Ranking.of([0, 1, 2, 3]))


class TestTopK:
    def test_whole_ranking(self):
        assert top_k(ABC, 3) == (0, 1, 2)

    def test_single(self):
        assert top_k(ABC, 1) == (0,)

    def test_prefix(self):
        assert top_k(CAB, 2) == (2, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            top_k(ABC, 0)
        with pytest.raises(ValueError):
            top_k(ABC, 4)


class TestApplyPermutation:
    def test_identity(self):
        assert apply_permutation((0, 1, 2), CAB) == CAB

    def test_transposition(self):
        assert apply_permutation((1, 0, 2), ABC) == Ranking.of([1, 0, 2])

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            apply_permutation((0, 0, 2), ABC)

    @given(
        st_m.flatmap(
            lambda m: st.tuples(
                st.permutations(range(m)),
                st.permutations(range(m)),
                st_ranking(m),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_group_action_composition(self, data):
        sigma, tau, r = data
        composed = tuple(sigma[tau[x]] for x in range(r.m))
        assert apply_permutation(composed, r) == apply_permutation(
            sigma, apply_permutation(tau, r)
        )


class TestAppLast:
    def test_top_slice_recovers_input(self):
        p = Profile((CAB, BCA))
        padded = app_last(p, 2)
        for before, after in zip(voter_rankings(p), voter_rankings(padded)):
            assert after.order[: p.m] == before.order
            assert set(after.order[p.m :]) == {3, 4}


class TestWmg:
    def test_unanimous(self):
        graph = wmg(Profile((ABC,) * 5))
        assert graph.margin(0, 1) == graph.margin(0, 2) == graph.margin(1, 2) == 5

    def test_reversal_pair_cancels(self):
        graph = wmg(Profile((ABC, CBA)))
        assert all(
            graph.margin(a, b) == 0 for a in range(3) for b in range(3) if a != b
        )

    def test_condorcet_cycle_margins(self):
        graph = wmg(Profile((ABC, BCA, CAB)))
        assert graph.margin(0, 1) == 1
        assert graph.margin(1, 2) == 1
        assert graph.margin(2, 0) == 1

    @given(st_profile())
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry_bound_and_parity(self, p):
        graph = wmg(p)
        for a in range(p.m):
            assert graph.margin(a, a) == 0
            for b in range(p.m):
                if a == b:
                    continue
                assert graph.margin(a, b) == -graph.margin(b, a)
                assert abs(graph.margin(a, b)) <= p.n
                assert (graph.margin(a, b) - p.n) % 2 == 0


class TestCondorcetAndDeficit:
    def test_unanimous_winner(self):
        assert condorcet_winner(Profile((CAB,) * 3)) == 2

    def test_cycle_has_none(self):
        assert condorcet_winner(Profile((ABC, BCA, CAB))) is None

    def test_tie_is_not_strict_majority(self):
        p = Profile.of([[0, 1, 2], [1, 0, 2]])
        assert condorcet_winner(p) is None

    def test_deficit_examples(self):
        assert deficit(Profile((ABC,) * 4), 0, 1) == 0
        assert deficit(Profile.of([[1, 0, 2]] * 3), 0, 1) == 2
        p = Profile.of([[0, 1, 2], [0, 1, 2], [1, 0, 2], [1, 0, 2]])
        assert deficit(p, 0, 1) == 1

    def test_deficit_rejects_equal_pair(self):
        with pytest.raises(ValueError):
            deficit(Profile((ABC,)), 1, 1)
        with pytest.raises(ValueError):
            deficit(Profile((ABC,)), -1, 0)

    @given(st_profile())
    @settings(max_examples=60, deadline=None)
    def test_winner_iff_all_deficits_zero(self, p):
        winner = condorcet_winner(p)
        for a in range(p.m):
            zero_everywhere = all(
                deficit(p, a, b) == 0 for b in range(p.m) if b != a
            )
            assert zero_everywhere == (winner == a)


def assert_margin_matrix(graph: WMG) -> None:
    """What ``WMG``'s constructor checks, which the kernel's output skips."""
    m = graph.m
    assert all(len(row) == m for row in graph.margins)
    for a in range(m):
        assert graph.margin(a, a) == 0
        for b in range(m):
            assert graph.margin(a, b) == -graph.margin(b, a)


class TestMarginKernel:
    """The cached margin matrix against ballot-by-ballot recounts."""

    @given(st_profile(max_m=7, max_n=30))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_ballot_oracles(self, p):
        graph = wmg(p)
        assert graph is wmg(p)
        assert_margin_matrix(graph)
        assert [list(row) for row in graph.margins] == margins_brute(p)
        for a, b in itertools.permutations(range(p.m), 2):
            assert deficit(p, a, b) == deficit_brute(p, a, b)
        assert condorcet_winner(p) == condorcet_brute(p)
        assert wmg(Profile.from_counts(Counter(voter_rankings(p)).items())) == graph

    @given(
        st.integers(3, 6).flatmap(
            lambda m: st.lists(
                st.tuples(st_ranking(m), st.fractions(0, 5, max_denominator=7)),
                min_size=1,
                max_size=8,
            ).map(lambda entries: entries + entries[::3])  # repeat some rankings
        ).filter(lambda entries: sum(w for _, w in entries) > 0)
    )
    @example(  # a common denominator far past int64
        [(Ranking.of([0, 1, 2]), Fraction(1, 2**70)), (Ranking.of([2, 0, 1]), Fraction(5, 3**50))]
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_matches_per_entry_sum(self, entries):
        wp = WeightedProfile(tuple(entries))
        graph = wmg(wp)
        assert graph is wmg(wp)
        assert all(type(v) is Fraction for row in graph.margins for v in row)
        assert_margin_matrix(graph)
        assert [list(row) for row in graph.margins] == margins_brute(wp)

    @given(
        st.integers(3, 10).flatmap(
            lambda m: st.lists(
                st.tuples(st_ranking(m), st.integers(0, 10**6)), min_size=1, max_size=12
            ).map(lambda pairs: pairs + pairs[::3])  # repeat some rankings
        ).filter(lambda pairs: any(count for _, count in pairs))
    )
    @settings(max_examples=80, deadline=None)
    def test_counts_match_brute_tally(self, pairs):
        p = Profile.from_counts(pairs)
        expected = Counter()
        for r, count in pairs:
            expected[r] += count
        assert p.grouped == {r: count for r, count in expected.items() if count}
        assert p.n == sum(count for _, count in pairs)
        assert_margin_matrix(wmg(p))
        assert [list(row) for row in wmg(p).margins] == margins_brute(p)

    @pytest.mark.parametrize(
        "margins",
        [((0, 1),), ((1, 0), (0, 0)), ((0, 1), (1, 0))],
        ids=["not_square", "nonzero_diagonal", "not_antisymmetric"],
    )
    def test_public_constructor_keeps_checks(self, margins):
        with pytest.raises(ValueError):
            WMG(margins)

    def test_blocks_of_rows_add_up(self, rng, monkeypatch):
        p = random_profile(rng, 6, 40)
        expected = margins_brute(p)
        monkeypatch.setattr(core, "_KERNEL_CELLS", 3 * 6 * 6)  # three rows per step
        ballots = voter_rankings(p)
        assert [list(row) for row in wmg(Profile(ballots)).margins] == expected
        wp = WeightedProfile(tuple((r, Fraction(i + 1, 3)) for i, r in enumerate(ballots)))
        assert [list(row) for row in wmg(wp).margins] == margins_brute(wp)

    def test_huge_counts_cost_nothing_per_voter(self):
        big = 10**12
        p = Profile.from_counts([(ABC, big)])
        assert p.n == big
        assert wmg(p).margins == ((0, big, big), (-big, 0, big), (-big, -big, 0))

    def test_int64_overflow_rejected(self):
        with pytest.raises(ValueError):
            Profile.from_counts([(ABC, 2**62), (CBA, 2**62)])


class TestProfileRepresentation:
    def test_equality_is_multiset_equality(self):
        assert Profile((ABC, CBA, ABC)) == Profile((ABC, ABC, CBA))
        assert hash(Profile((ABC, CBA, ABC))) == hash(Profile.of([[2, 1, 0], [0, 1, 2], [0, 1, 2]]))
        assert Profile((ABC, CBA)) != Profile((ABC, ABC))

    def test_rankings_expand_grouped(self):
        # Every constructor counts its input and stores nothing per agent;
        # rankings lists each ranking's copies together, first appearance first.
        p = Profile((ABC, CBA, ABC))
        assert set(vars(p)) == {"grouped", "m", "n"}
        assert p.rankings == (ABC, ABC, CBA)
        assert Profile.of([[0, 1, 2], [2, 1, 0], [0, 1, 2]]).rankings == (ABC, ABC, CBA)
        assert Profile.from_counts([(CBA, 1), ((0, 1, 2), 2), (CBA, 0)]).rankings == (CBA, ABC, ABC)
        # Reading rankings keeps no n-entry expansion on the profile.
        assert set(vars(p)) == {"grouped", "m", "n"}

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(orders=st.integers(1, 5).flatmap(
        lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=12)
    ))
    def test_constructors_and_io_agree_on_grouped_order(self, tmp_path, orders):
        expected = list(Profile(Ranking(tuple(o)) for o in orders).grouped.items())
        assert list(Profile.of(orders).grouped.items()) == expected
        counted = Counter(map(tuple, orders)).items()
        assert list(Profile.from_counts(counted).grouped.items()) == expected
        path = tmp_path / "p.profile"
        vio.write_profile(Profile.of(orders), path)
        assert list(vio.read_profile(path).grouped.items()) == expected

    def test_from_counts_checks_multiplicities(self):
        with pytest.raises(ValueError):
            Profile.from_counts([(ABC, -1)])
        with pytest.raises(ValueError):
            Profile.from_counts([(ABC, 0)])
        with pytest.raises(TypeError):
            Profile.from_counts([(ABC, 1.5)])

    def test_app_last_keeps_counts(self):
        p = Profile.from_counts([(ABC, 10**9), (CBA, 3)])
        padded = app_last(p, 2)
        assert padded.grouped == {Ranking.of([0, 1, 2, 3, 4]): 10**9, Ranking.of([2, 1, 0, 3, 4]): 3}


class TestBackwardArcs:
    def test_topological_order_has_none(self):
        g = Digraph.of(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert backward_arcs(g, Ranking.of([0, 1, 2, 3])) == 0

    def test_three_cycle_minimum_is_one(self):
        g = Digraph.of(3, [(0, 1), (1, 2), (2, 0)])
        counts = {
            perm: backward_arcs(g, Ranking(perm))
            for perm in itertools.permutations(range(3))
        }
        # cycle-aligned orders leave exactly one backward arc, reversed
        # ones leave two; no order reaches zero
        assert min(counts.values()) == 1
        assert counts[(0, 1, 2)] == counts[(1, 2, 0)] == counts[(2, 0, 1)] == 1
        assert counts[(2, 1, 0)] == 2

    def test_single_reversed_arc(self):
        g = Digraph.of(2, [(0, 1)])
        assert backward_arcs(g, Ranking.of([1, 0])) == 1

    def test_dimension_error(self):
        g = Digraph.of(3, [(0, 1)])
        with pytest.raises(DimensionError):
            backward_arcs(g, Ranking.of([0, 1]))


class TestDigraph:
    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(ValueError):
            Digraph.of(3, [(1, 1)])
        with pytest.raises(ValueError):
            Digraph.of(3, [(0, 1), (0, 1)])

    def test_eulerian(self):
        assert Digraph.of(3, [(0, 1), (1, 2), (2, 0)]).is_eulerian()
        assert not Digraph.of(3, [(0, 1)]).is_eulerian()
        assert Digraph.of(3, []).is_eulerian()
        # balanced but disconnected arc sets are not one closed walk
        g = Digraph.of(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not g.is_eulerian()


class TestProfileValidation:
    def test_needs_a_voter(self):
        with pytest.raises(ValueError):
            Profile(())

    def test_mixed_m_rejected(self):
        with pytest.raises(DimensionError):
            Profile((ABC, Ranking.of([0, 1, 2, 3])))

    def test_weighted_needs_positive_total(self):
        with pytest.raises(ValueError):
            WeightedProfile(((ABC, Fraction(0)),))
        with pytest.raises(ValueError):
            WeightedProfile(((ABC, Fraction(-1)),))
