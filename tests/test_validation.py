"""Argument and constructor checks that no other test reaches."""

from fractions import Fraction

import pytest

from votelab import (
    AlphaIC,
    Digraph,
    DimensionError,
    ParameterProfile,
    Profile,
    Ranking,
    WeightedProfile,
    X3CInstance,
    app_last,
    committee_decision,
    scale_round_parameter_profile,
    three_cycle_max_weight,
)

HALF = Fraction(1, 2)


def parameter_profile(*weights):
    """Weights on the rankings 012 and 210 under alpha-IC at m=3."""
    orders = (Ranking.of([0, 1, 2]), Ranking.of([2, 1, 0]))
    return ParameterProfile(tuple(zip(orders, map(Fraction, weights))), AlphaIC(3, HALF))


CHECKS = [
    ("digraph_arc_out_of_range", lambda: Digraph.of(3, [(0, 3)]), ValueError, "out of range"),
    (
        "weighted_profile_mixed_m",
        lambda: WeightedProfile.of([([0, 1, 2], 1), ([0, 1], 1)]),
        DimensionError,
        "must share m",
    ),
    (
        "app_last_zero",
        lambda: app_last(Profile.of([[0, 1, 2]]), 0),
        ValueError,
        "m_prime must be positive",
    ),
    ("alpha_ic_no_alternatives", lambda: AlphaIC(0, HALF), ValueError, "m must be positive"),
    (
        "parameter_profile_other_m",
        lambda: ParameterProfile(((Ranking.of([0, 1, 2]), Fraction(1)),), AlphaIC(4, HALF)),
        DimensionError,
        "match the model's m",
    ),
    (
        "parameter_profile_zero_weight",
        lambda: parameter_profile(1, 0),
        ValueError,
        "weights must be positive",
    ),
    (
        "three_cycle_max_weight_m2",
        lambda: three_cycle_max_weight(AlphaIC(2, HALF), Ranking.of([0, 1])),
        ValueError,
        "at least 3 alternatives",
    ),
    (
        "scale_round_target_below_total",
        lambda: scale_round_parameter_profile(parameter_profile(1, 1), 1),
        ValueError,
        "at least the current total",
    ),
    (
        # Factor 3/2 takes each weight 1/3 to 1/2, which floors to zero.
        "scale_round_all_weights_zero",
        lambda: scale_round_parameter_profile(parameter_profile("1/3", "1/3"), 1),
        ValueError,
        "rounded to zero",
    ),
    (
        "x3c_subset_unsorted",
        lambda: X3CInstance(3, ((2, 1, 0),)),
        ValueError,
        "stored sorted",
    ),
    (
        "committee_decision_unknown_rule",
        lambda: committee_decision(Profile.of([[0, 1, 2]]), 1, 0, rule="x"),
        ValueError,
        "unknown rule 'x'",
    ),
]


@pytest.mark.parametrize(
    "build, error, message", [case[1:] for case in CHECKS], ids=[case[0] for case in CHECKS]
)
def test_check_raises(build, error, message):
    with pytest.raises(error, match=message):
        build()
