"""Winner determination under NP-hard voting rules, at desk scale.

Exact solvers (Dodgson, Young, Kemeny, Chamberlin-Courant, Monroe), a
certified polynomial-time greedy Dodgson engine, semi-random preference
models with exact pmfs, constructive reductions, and a Monte-Carlo
harness that verifies the quantitative bounds those pieces advertise.
"""

from .core import (
    Digraph,
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
    permute_profile,
    top_k,
    wmg,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    DimensionError,
    VotelabError,
)
from .greedy_dodgson import (
    Certainty,
    Decision,
    GreedyResult,
    greedy_dodgson,
    immediately_above_count,
    semirandom_dodgson_decision,
)
from .models import (
    AlphaIC,
    ParameterProfile,
    PartialAltRandomization,
    TopBreakNoise,
    all_rankings,
    induced_weighted_profile,
    model_from_spec,
    sample,
    sample_profile,
    scale_round_parameter_profile,
    three_cycle_max_weight,
)
from .reductions import (
    DodgsonReductionOutput,
    MCGARVEY_MULTIPLIER,
    X3CInstance,
    x3c_via_dodgson,
    efas_via_kemeny,
    build_padded_parameter_profile,
    detect_margin_multiplier,
    efas_bruteforce,
    enumerate_eulerian_digraphs,
    enumerate_x3c_instances,
    kt_formula,
    mcgarvey_profile,
    top_slices_match,
    x3c_bruteforce,
    x3c_to_dodgson,
)
from .rules_exact import (
    Committee,
    cc_score,
    committee_decision,
    dodgson_score_exact,
    dodgson_score_within,
    kemeny_best,
    kemeny_decision,
    kemeny_score_of_alternative,
    monroe_score,
    young_score_exact,
)

__version__ = "0.1.0"
