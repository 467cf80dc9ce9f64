import pytest
from hypothesis import given, settings

from votelab import (
    Certainty,
    Decision,
    Profile,
    Ranking,
    deficit,
    dodgson_score_exact,
    dodgson_score_within,
    greedy_dodgson,
    immediately_above_count,
    permute_profile,
    semirandom_dodgson_decision,
)
from conftest import greedy_brute, random_profile, st_pooled_profile

DEFINITE = Profile.of([[1, 0, 2], [1, 0, 2], [0, 1, 2]])
MAYBE = Profile.of([[1, 2, 0], [1, 2, 0], [0, 1, 2]])


class TestImmediatelyAbove:
    def test_never_adjacent(self):
        p = Profile.of([[0, 1, 2]] * 4)
        assert immediately_above_count(p, 0, 1) == 0

    def test_all_adjacent(self):
        p = Profile.of([[1, 0, 2]] * 5)
        assert immediately_above_count(p, 0, 1) == 5

    def test_inspect_adjacency(self):
        p = Profile.of([[1, 2, 0]])
        assert immediately_above_count(p, 0, 1) == 0
        assert immediately_above_count(p, 0, 2) == 1

    def test_rejects_equal_pair(self):
        with pytest.raises(ValueError):
            immediately_above_count(Profile.of([[0, 1, 2]]), 2, 2)

    @pytest.mark.parametrize("a, b", [(0, 5), (5, 0), (-1, 0), (0, -1), (3, 1)])
    def test_rejects_out_of_range_pair(self, a, b):
        with pytest.raises(ValueError, match=rf"\({a},{b}\) out of range 0\.\.2"):
            immediately_above_count(Profile.of([[0, 1, 2], [2, 1, 0]]), a, b)


class TestGreedy:
    def test_condorcet_winner(self):
        result = greedy_dodgson(Profile.of([[0, 1, 2]] * 3), 0)
        assert result.score == 0
        assert result.certainty is Certainty.DEFINITELY

    def test_definite_case_equals_exact(self):
        assert deficit(DEFINITE, 0, 1) == 1
        assert immediately_above_count(DEFINITE, 0, 1) == 2
        result = greedy_dodgson(DEFINITE, 0)
        assert result == greedy_dodgson(DEFINITE, 0)
        assert result.score == 1
        assert result.certainty is Certainty.DEFINITELY
        assert dodgson_score_exact(DEFINITE, 0) == 1

    def test_score_past_int64_at_the_voter_limit(self):
        # the target is last on every ballot, so each rival is owed n//2 + 1
        # votes and the sum passes 2**63 - 1; it must not wrap
        n = 2**63 - 1
        p = Profile.from_counts([((1, 2, 0), n // 2 + 1), ((2, 1, 0), n // 2)])
        result = greedy_dodgson(p, 0)
        assert result.score == 2 * (n // 2 + 1) == 2**63
        assert result.certainty is Certainty.MAYBE

    def test_maybe_case(self):
        assert deficit(MAYBE, 0, 1) == 1
        assert immediately_above_count(MAYBE, 0, 1) == 0
        assert greedy_dodgson(MAYBE, 0).certainty is Certainty.MAYBE

    @given(st_pooled_profile(3, 8, 40))
    @settings(max_examples=150, deadline=None)
    def test_matches_ballot_by_ballot_oracle(self, p):
        for a in range(p.m):
            result = greedy_dodgson(p, a)
            assert (result.score, result.is_definite) == greedy_brute(p, a)

    def test_soundness_and_lower_bound_sampled(self, rng):
        for _ in range(400):
            m = int(rng.integers(3, 6))
            p = random_profile(rng, m, int(rng.integers(1, 10)))
            a = int(rng.integers(m))
            result = greedy_dodgson(p, a)
            if result.is_definite:
                assert dodgson_score_within(p, a, result.score) == result.score
            else:
                # lower bound: nothing strictly below the deficit sum
                assert dodgson_score_within(p, a, result.score - 1) is None

    def test_neutrality(self, rng):
        for _ in range(30):
            m = int(rng.integers(3, 6))
            p = random_profile(rng, m, int(rng.integers(1, 8)))
            sigma = tuple(int(x) for x in rng.permutation(m))
            a = int(rng.integers(m))
            assert greedy_dodgson(p, a) == greedy_dodgson(permute_profile(sigma, p), sigma[a])

    def test_supporter_never_breaks_certificate(self, rng):
        # a ballot with the target on top leaves adjacency counts alone
        # and can only shrink deficits
        for _ in range(60):
            m = int(rng.integers(3, 6))
            p = random_profile(rng, m, int(rng.integers(1, 8)))
            a = int(rng.integers(m))
            before = greedy_dodgson(p, a)
            supporter = Ranking(tuple([a] + [x for x in range(m) if x != a]))
            grown = Profile.from_counts([*p.grouped.items(), (supporter, 1)])
            after = greedy_dodgson(grown, a)
            for b in range(m):
                if b != a:
                    assert deficit(grown, a, b) <= deficit(p, a, b)
            if before.is_definite:
                assert after.is_definite


class TestDecision:
    def test_condorcet_yes_at_zero(self):
        assert semirandom_dodgson_decision(Profile.of([[0, 1, 2]] * 3), 0, 0) is Decision.YES

    def test_definite_no_above_threshold(self):
        assert semirandom_dodgson_decision(DEFINITE, 0, 0) is Decision.NO

    def test_maybe_is_failure(self):
        assert semirandom_dodgson_decision(MAYBE, 0, 10) is Decision.FAILURE
