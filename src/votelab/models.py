"""Single-agent preference models: samplers, exact pmfs, and inspection.

Two built-in families, both parameterized by a full ranking:

* :class:`AlphaIC` mixes a point mass on the parameter with the uniform
  distribution over all rankings (``alpha`` is the uniform share);
* :class:`PartialAltRandomization` keeps the parameter's top-``K`` fixed
  and shuffles the remaining tail uniformly.

A third, synthetic one, :class:`TopBreakNoise`, breaks the parameter's
top with a chosen per-agent probability.

Probabilities are exact rationals. Samplers take an injected
``numpy.random.Generator`` so every experiment records and replays its
seed. A parameter profile is a weighted collection of parameters; with
integer weights it samples one independent ballot per unit of weight.
Each model's draw has one definition, its ``sample_orders`` over an
``(n, m)`` array of agent parameters, which consumes the generator
agent by agent in row order. :func:`sample` is one row of it and
:func:`sample_profile` counts all of its rows. Agent order lives only in
those arrays: a :class:`~votelab.core.Profile` keeps counted ballots.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .core import _MAX_VOTERS, Profile, Ranking, WMG, WeightedProfile, wmg
from .errors import BudgetExceededError, DimensionError

__all__ = [
    "AlphaIC",
    "PartialAltRandomization",
    "TopBreakNoise",
    "PreferenceModel",
    "ParameterProfile",
    "sample",
    "sample_profile",
    "three_cycle_max_weight",
    "scale_round_parameter_profile",
    "induced_weighted_profile",
    "all_rankings",
    "model_from_spec",
]

MAX_ENUMERATION_M = 8


def all_rankings(m: int) -> list[Ranking]:
    """All m! rankings in lexicographic order of their tuples; the one holder of the m cap."""
    if m > MAX_ENUMERATION_M:
        raise BudgetExceededError(f"enumeration of all m! rankings limited to m<={MAX_ENUMERATION_M}")
    return [Ranking(p) for p in itertools.permutations(range(m))]


def _check_parameter(model: "PreferenceModel", parameter: Ranking, r: Optional[Ranking] = None) -> None:
    """Reject a parameter, or a ranking ``r`` to score, whose m is not the model's."""
    if parameter.m != model.m:
        raise DimensionError(f"parameter m={parameter.m} vs model m={model.m}")
    if r is not None and r.m != model.m:
        raise DimensionError(f"ranking m={r.m} vs model m={model.m}")


def _check_orders(model: "PreferenceModel", params: np.ndarray) -> None:
    if params.ndim != 2 or params.shape[1] != model.m:
        raise DimensionError(f"parameter array of shape {params.shape} vs model m={model.m}")


@dataclass(frozen=True)
class AlphaIC:
    """Uniform noise of total mass ``alpha`` around one parameter ranking."""

    m: int
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must lie in [0, 1]")
        if self.m < 1:
            raise ValueError("m must be positive")

    def pmf(self, parameter: Ranking, r: Ranking) -> Fraction:
        _check_parameter(self, parameter, r)
        uniform_share = self.alpha / math.factorial(self.m)
        if r == parameter:
            return uniform_share + (1 - self.alpha)
        return uniform_share

    def sample_orders(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One ballot per row of ``params``: a uniform ranking with probability ``alpha``.

        Whether an agent shuffles a fresh ``list(range(m))`` (the draws of
        ``rng.permutation(m)``) depends on its uniform draw, so the loop
        stays per agent. The drawn permutations go into one flat list and
        replace their agents' rows in one masked assignment.
        """
        _check_orders(self, params)
        alpha = float(self.alpha)
        random, shuffle = rng.random, rng.shuffle
        identity = list(range(self.m))
        hits, drawn = [], []
        for _ in range(len(params)):
            hit = random() < alpha
            hits.append(hit)
            if hit:
                order = identity[:]
                shuffle(order)
                drawn += order
        ballots = params.copy()
        if drawn:
            ballots[np.array(hits)] = np.array(drawn, dtype=params.dtype).reshape(-1, self.m)
        return ballots

    def distribution_wmg(self, parameter: Ranking) -> WMG:
        # The uniform share is pairwise symmetric, so it splits evenly
        # between the parameter and its reversal.
        _check_parameter(self, parameter)
        half = self.alpha / 2
        return wmg(WeightedProfile(((parameter, 1 - half), (parameter.reversed(), half))))


@dataclass(frozen=True)
class PartialAltRandomization:
    """Keep each ballot's top-``K`` fixed; shuffle the tail uniformly."""

    m: int
    K: int

    def __post_init__(self) -> None:
        if not 1 <= self.K <= self.m:
            raise ValueError(f"K={self.K} out of range 1..{self.m}")

    def pmf(self, parameter: Ranking, r: Ranking) -> Fraction:
        _check_parameter(self, parameter, r)
        if r.order[: self.K] != parameter.order[: self.K]:
            return Fraction(0)
        return Fraction(1, math.factorial(self.m - self.K))

    def sample_orders(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One ballot per row of ``params``: the top ``K`` kept, the tail shuffled.

        ``permuted`` along the rows runs one Fisher-Yates pass per row, in
        row order, the same draws as shuffling each tail on its own; an
        empty tail draws nothing.
        """
        _check_orders(self, params)
        ballots = params.copy()
        if self.K < self.m:
            ballots[:, self.K :] = rng.permuted(params[:, self.K :], axis=1)
        return ballots

    def distribution_wmg(self, parameter: Ranking) -> WMG:
        # Pairs fully inside the shuffled tail are symmetric, so reversing
        # the tail cancels them; every other pair keeps the parameter's
        # orientation with certainty.
        _check_parameter(self, parameter)
        head, tail = parameter.order[: self.K], parameter.order[self.K :]
        half = Fraction(1, 2)
        return wmg(WeightedProfile(((parameter, half), (Ranking(head + tail[::-1]), half))))


@dataclass(frozen=True)
class TopBreakNoise:
    """Synthetic sampler: keep the parameter, or visibly break its top.

    Emits the parameter with probability exactly ``1 - 1/K``; otherwise
    moves the parameter's bottom alternative to the front, which changes
    every top slice. Lets the harness exercise profile-level preservation
    bounds at chosen per-agent rates.
    """

    m: int
    K: int

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be positive")
        # With one alternative the break would leave the ballot as it is.
        if self.m < 2:
            raise ValueError(f"top_break needs at least 2 alternatives, got m={self.m}")

    def sample_orders(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One ballot per row of ``params``: one uniform draw per agent decides a break."""
        _check_orders(self, params)
        broken = rng.random(len(params)) < 1.0 / self.K
        ballots = params.copy()
        if broken.any():
            ballots[broken, 0] = params[broken, -1]
            ballots[broken, 1:] = params[broken, :-1]
        return ballots

    def pmf(self, parameter: Ranking, r: Ranking) -> Fraction:
        _check_parameter(self, parameter, r)
        broken = Ranking((parameter.order[-1],) + parameter.order[:-1])
        if r == parameter:
            return 1 - Fraction(1, self.K)
        if r == broken:
            return Fraction(1, self.K)
        return Fraction(0)


PreferenceModel = Union[AlphaIC, PartialAltRandomization, TopBreakNoise]


def sample(model, parameter: Ranking, rng: np.random.Generator) -> Ranking:
    """One draw from the model's distribution at this parameter: row 0 of ``sample_orders``."""
    _check_parameter(model, parameter)
    row = model.sample_orders(np.array([parameter.order], dtype=np.int64), rng)[0]
    return Ranking(tuple(row.tolist()))


@dataclass(frozen=True)
class ParameterProfile(WeightedProfile):
    """A weighted profile of parameters with the model that draws around each.

    Integer weights mean whole agents (one independent draw per unit);
    fractional profiles arise from scaling constructions and must be
    rounded before sampling.
    """

    model: object

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.m != self.model.m:
            raise DimensionError("parameters must match the model's m")
        if any(w <= 0 for _, w in self.entries):
            raise ValueError("parameter weights must be positive")

    @property
    def is_integral(self) -> bool:
        return all(w.denominator == 1 for _, w in self.entries)

    @cached_property
    def agent_orders(self) -> np.ndarray:
        """Every agent's parameter order, one row per unit of weight, entries in order.

        Read-only and built once per profile; a model's ``sample_orders``
        takes it as its parameter array.
        """
        if not self.is_integral:
            raise ValueError("sampling needs integer weights; scale and round first")
        if self.total_weight > _MAX_VOTERS:
            raise ValueError(f"total weight {self.total_weight} exceeds {_MAX_VOTERS} agents")
        orders = np.array([r.order for r, _ in self.entries], dtype=np.int64)
        rows = np.repeat(orders, [int(w) for _, w in self.entries], axis=0)
        rows.setflags(write=False)
        return rows


def sample_profile(pp: ParameterProfile, rng: np.random.Generator) -> Profile:
    """One independent ballot per unit of weight, counted into a profile.

    The ballots are the model's ``sample_orders`` rows over
    :attr:`ParameterProfile.agent_orders`. Callers that need each agent's
    ballot read those rows instead.
    """
    return Profile.of(pp.model.sample_orders(pp.agent_orders, rng).tolist())


def three_cycle_max_weight(model, parameter: Ranking) -> Fraction:
    """Heaviest directed triangle in the distribution's margin matrix.

    The weight of the cycle ``a -> b -> c -> a`` is the signed sum of its
    three edge margins.
    """
    graph = model.distribution_wmg(parameter)
    if graph.m < 3:
        raise ValueError("need at least 3 alternatives")
    best = None
    for a, b, c in itertools.permutations(range(graph.m), 3):
        weight = graph.margin(a, b) + graph.margin(b, c) + graph.margin(c, a)
        if best is None or weight > best:
            best = weight
    return best


def scale_round_parameter_profile(pp: ParameterProfile, target_total: int) -> ParameterProfile:
    """Rescale weights to roughly ``target_total`` agents, flooring each.

    Every entry loses strictly less than one unit, so the rounded total
    sits within the number of distinct entries below the target; entries
    flooring to zero are dropped.
    """
    if target_total < pp.total_weight:
        raise ValueError("target total must be at least the current total weight")
    factor = Fraction(target_total) / pp.total_weight
    entries = []
    for r, w in pp.entries:
        scaled = Fraction(math.floor(w * factor))
        if scaled > 0:
            entries.append((r, scaled))
    if not entries:
        raise ValueError("all weights rounded to zero")
    return ParameterProfile(tuple(entries), pp.model)


def induced_weighted_profile(pp: ParameterProfile) -> WeightedProfile:
    """The mixture over ballots that the parameter profile induces.

    Each ranking's weight is the weighted sum of its pmf under every
    entry's distribution. Enumerates the ranking space, so only for
    small ``m``.
    """
    rankings = all_rankings(pp.m)
    weights: dict[Ranking, Fraction] = {}
    for parameter, w in pp.entries:
        for r in rankings:
            prob = pp.model.pmf(parameter, r)
            if prob > 0:
                weights[r] = weights.get(r, Fraction(0)) + w * prob
    entries = tuple(sorted(weights.items(), key=lambda kv: kv[0].order))
    return WeightedProfile(entries)


def model_from_spec(spec: dict, m: int):
    """Build a model from its JSON description: the one parser of model specs.

    ``{"model": "alpha_ic", "alpha": "2/3"}``,
    ``{"model": "partial_alt", "K": 4}`` or
    ``{"model": "top_break", "K": 8}``; ``m`` comes from context.
    Anything else, a non-object or a stray key included, raises ``ValueError``.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"model spec must be a JSON object, got {spec!r}")
    kind = spec.get("model")
    if kind == "alpha_ic":
        cls, key, convert = AlphaIC, "alpha", Fraction
    elif kind == "partial_alt":
        cls, key, convert = PartialAltRandomization, "K", int
    elif kind == "top_break":
        cls, key, convert = TopBreakNoise, "K", int
    else:
        raise ValueError(f"unknown model spec {spec!r}")
    _check_keys(spec, {"model", key}, f"model spec {kind!r}")
    return cls(m, _spec_number(spec, key, convert))


def _check_keys(data: dict, allowed: set, what: str) -> None:
    """Reject a key nothing reads: it would change a config's hash, not its rows."""
    unknown = sorted(set(data) - allowed, key=str)
    if unknown:
        raise ValueError(f"{what} takes only {sorted(allowed)}, got unknown keys {unknown}")


# A number in text is digits, or digits over digits not all zero: the
# pattern of an ``alpha`` string in ``schemas/experiment_config.schema.json``.
_FRACTION_TEXT = re.compile(r"[0-9]+(/0*[1-9][0-9]*)?")


def _spec_number(spec: dict, key: str, convert: Callable, what: str = "model spec"):
    value = spec.get(key)
    # int() would truncate 2.5 and Fraction() keep 0.1's binary expansion;
    # exact inputs are integers or fraction strings.
    if isinstance(value, float):
        raise ValueError(f"{what} {key!r} must not be a float, got {value!r}")
    # JSON true would convert to 1, int() would parse "8" and Fraction() "0.5"
    # or " 1e3"; none is a number here.
    if (
        isinstance(value, bool)
        or (convert is int and not isinstance(value, int))
        or (isinstance(value, str) and not _FRACTION_TEXT.fullmatch(value))
    ):
        raise ValueError(f"{what} {key!r} must be a number, got {value!r}")
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"{what} {key!r} must be a number, got {value!r}") from None
