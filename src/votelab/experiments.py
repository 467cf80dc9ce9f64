"""Monte-Carlo verification harness for the package's probabilistic claims.

Four runnable checks, selected by ``claim`` in the config:

* ``definitely_rate`` — frequency of certified greedy Dodgson answers
  under near-uniform noise, against the success bound
  ``1 - 2(m-1)exp(-n/(72 m^2))``;
* ``concentration`` — the two per-pair tail events behind that bound,
  each against ``exp(-n/(72 m^2))``;
* ``top_preservation`` — frequency of sampled profiles whose top slice
  reproduces a padded reduction profile, against ``1/2``;
* ``cover_driver`` — one-sidedness and NO-rate of the randomized
  exact-cover driver, against ``1/6``.

Every run derives per-trial generators from the master seed, evaluates
bound formulas from exact inputs, and applies a one-sided three-standard-
error slack. Trial ``i``'s generator has exactly the state of
``numpy.random.default_rng(SeedSequence(seed).spawn(trials)[i])``; the
seeding is computed for many trials in one numpy pass, and the runners
get one Generator, re-seeded for each trial. Reports serialize to CSV
(one row per trial) plus a JSON summary; wall-clock time stays on the
in-memory report only, so reruns with one seed are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate, islice
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .core import _MAX_VOTERS
from .greedy_dodgson import _certify, _tally_table
from .models import (
    AlphaIC,
    PartialAltRandomization,
    TopBreakNoise,
    _check_keys,
    _spec_number,
    all_rankings,
    model_from_spec,
)
from .reductions import (
    X3CInstance,
    build_padded_parameter_profile,
    top_slices_match,
    x3c_bruteforce,
    x3c_to_dodgson,
)
from .rules_exact import dodgson_score_within

__all__ = [
    "ExperimentConfig",
    "TrialReport",
    "run_definitely_rate",
    "run_concentration_tails",
    "run_top_preservation",
    "run_cover_driver",
    "run_experiment",
    "write_report",
    "CLAIM_RUNNERS",
]

SLACK_SIGMAS = 3
_MAX_TRIALS = 2**32


@dataclass(frozen=True)
class ExperimentConfig:
    """One verification run: which claim, at what scale, from which seed."""

    claim: str
    trials: int
    seed: int
    m: Optional[int] = None
    n: Optional[int] = None
    model: dict = field(default_factory=dict)
    adversary: str = "shared_bottom"
    instance: Optional[dict] = None
    pad: int = 2
    plot_data: bool = False

    def __post_init__(self) -> None:
        # A JSON config can carry any value, so check each field's type
        # against its annotation before using it; a bool is not an int here.
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = _FIELD_KINDS[f.name]
            if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
                raise ValueError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.trials > _MAX_TRIALS:
            # Each trial's spawn index is one 32-bit SeedSequence word.
            raise ValueError(
                f"config field 'trials' must be at most {_MAX_TRIALS}, got {self.trials}"
            )
        if self.m is not None and self.m < 3:
            raise ValueError("m must be at least 3")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be at least 1")
        if self.n is not None and self.n > _MAX_VOTERS:
            raise ValueError(f"config field 'n' must be at most {_MAX_VOTERS}, got {self.n}")
        for name, value in (("seed", self.seed), ("pad", self.pad)):
            if value < 0:
                raise ValueError(f"config field {name!r} must be non-negative, got {value}")
        if self.claim not in CLAIM_RUNNERS:
            raise ValueError(f"unknown claim {self.claim!r}")
        if self.adversary not in ("shared_bottom", "random_profile"):
            raise ValueError(f"unknown adversary mode {self.adversary!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"experiment config must be a JSON object, got {data!r}")
        if unknown := set(data) - {f.name for f in fields(cls)}:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if missing := {"claim", "trials", "seed"} - set(data):
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**data)

    def to_dict(self) -> dict:
        """Every field that shapes the results, and so the hash: all but ``plot_data``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "plot_data"}

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


# Each field's admissible types: Optional[int] -> (int, NoneType), dict -> (dict,).
_FIELD_KINDS = {
    name: get_args(hint) or (hint,) for name, hint in get_type_hints(ExperimentConfig).items()
}


@dataclass
class TrialReport:
    """Per-trial rows plus aggregate frequencies, bounds, and verdicts.

    ``wall_clock_seconds`` is never serialized; the CSV/JSON outputs are
    a pure function of the config (seed included).
    """

    config: ExperimentConfig
    rows: list[dict]
    summary: dict
    wall_clock_seconds: float

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.summary["checks"] if not c.get("informational", False))


def _binomial_se(rate: float, trials: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)


def _check(
    name: str,
    empirical: float,
    threshold: float,
    kind: str,
    *,
    vacuous: bool = False,
    informational: bool = False,
    **extra,
) -> dict:
    if kind == "lower_bound":
        ok = empirical >= threshold
    elif kind == "upper_bound":
        ok = empirical <= threshold
    else:  # exact
        ok = empirical == threshold
    return {
        "name": name,
        "kind": kind,
        "empirical": empirical,
        "threshold": threshold,
        "pass": bool(ok or vacuous),
        "vacuous": vacuous,
        "informational": informational,
        **extra,
    }


def _rate_check(name: str, rate: float, trials: int, bound: float, **extra) -> dict:
    """``rate`` against ``bound`` less three standard errors of ``trials`` draws."""
    se = _binomial_se(rate, trials)
    threshold = bound - SLACK_SIGMAS * se
    return _check(name, rate, threshold, "lower_bound", bound=bound, standard_error=se, **extra)


# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``)
# and PCG64's LCG multiplier (``pcg64.h``), for _trial_rngs.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_POOL_SIZE = 4
# Trials seeded per numpy pass, so seeding memory stays flat in ``trials``.
_SEED_BLOCK = 256


def _hash(value: np.ndarray, const: np.ndarray, mult: int = _MULT_A) -> np.ndarray:
    """SeedSequence's word hash of the uint32 array ``value`` at the uint32
    hash constants ``const``, broadcast against each other."""
    value = value ^ const
    value = value * (const * mult & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of pool word ``x`` with hashed word ``y``."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _hash_consts(const: int, mult: int, count: int) -> np.ndarray:
    """The ``count`` hash constants from ``const`` on, as a uint32 row."""
    consts = [const]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _trial_rngs(cfg: ExperimentConfig) -> Iterator[np.random.Generator]:
    """Yield one Generator per trial: trial ``i``'s has exactly the state of
    ``default_rng(SeedSequence(cfg.seed).spawn(cfg.trials)[i])``.

    It is one Generator, re-seeded for each trial, so a caller finishes a
    trial's draws before it advances the iterator. A spawned child's
    entropy is the seed's 32-bit words, padded with zeros to the pool
    size, then its spawn index. The seed's own ``SeedSequence`` pool has
    mixed every word but the index, in four hash steps per word and at
    least ``4 * _POOL_SIZE``, so the index's hashes take the constants
    after those. Each block of spawn indices is mixed into the pool and
    hashed through ``generate_state(4, uint64)`` in one uint32 pass; PCG64
    then seeds from each trial's words as its constructor does:
    ``inc = 2 * seq + 1`` and ``state = (inc + initstate) * mult + inc``
    mod 2^128.
    """
    pool = np.random.SeedSequence(cfg.seed).pool
    steps = _POOL_SIZE * max(_POOL_SIZE, -(-cfg.seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32
    index_consts = _hash_consts(const, _MULT_A, _POOL_SIZE)
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for start in range(0, cfg.trials, _SEED_BLOCK):
        index = np.arange(start, min(start + _SEED_BLOCK, cfg.trials), dtype=np.uint32)
        with np.errstate(over="ignore"):
            hashed = _hash(index[:, None], index_consts)
            words = _hash(np.tile(_mix(pool, hashed), 2), _STATE_CONSTS, _MULT_B)
        # generate_state's uint64 words pair the 32-bit words little end first.
        for init_hi, init_lo, seq_hi, seq_lo in words.astype("<u4").view("<u8").tolist():
            inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
            state = ((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def _report(cfg, started, rows, flags, checks, frequencies, bounds) -> TrialReport:
    """Summarize a run; the plot series is the running mean of the 0/1 ``flags``."""
    series = [(i, hits / i) for i, hits in enumerate(accumulate(flags), start=1)]
    summary = dict(checks=checks, frequencies=frequencies, bounds=bounds, plot_series=series)
    return TrialReport(cfg, rows, summary, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Uniform-noise trials


def _trial_tallies(cfg: ExperimentConfig) -> tuple[list[int], np.ndarray]:
    """Each uniform-noise trial's target and its ``2m`` greedy tallies, one row per trial.

    The config needs ``m``, ``n``, no ``pad`` but the default, and an
    alpha-IC model at or above the regime floor ``1 - 1/m``. A trial's row
    is its ballot counts times the target's tally table
    (:func:`~votelab.greedy_dodgson._tally_table`): columns ``b`` count the
    voters ranking ``b`` over the target, columns ``m + b`` the ballots
    with ``b`` directly above it. No :class:`Profile` is built.

    ``shared_bottom`` puts every agent on the ascending ranking and queries
    its bottom alternative. Every score in play depends only on the ballot
    multiset, so a multinomial draw of per-ranking counts stands in for
    the agents; ``m`` is capped since all ``m!`` rankings are enumerated,
    and one table serves every trial. ``random_profile`` draws each agent's
    parameter with one ``permuted`` call over an ``(n, m)`` identity array,
    the same Fisher-Yates pass row by row as each agent's ``permutation(m)``,
    and targets the final agent's bottom; each trial's table has one row per
    agent, each counted once.
    """
    if cfg.m is None or cfg.n is None:
        raise ValueError("this claim needs explicit m and n")
    if cfg.instance is not None:
        raise ValueError("this claim reads no exact-cover instance")
    # No reduction is padded: another pad would change the hash, not the rows.
    if cfg.pad != ExperimentConfig.pad:
        raise ValueError("this claim reads no config field 'pad'")
    m, n = cfg.m, cfg.n
    model = model_from_spec(cfg.model, m)
    if not isinstance(model, AlphaIC):
        raise ValueError("this claim runs under the uniform-noise model")
    if model.alpha < 1 - Fraction(1, m):
        raise ValueError(
            f"alpha={model.alpha} below the regime floor 1-1/m={1 - Fraction(1, m)}"
        )

    if cfg.adversary == "shared_bottom":
        rankings = all_rankings(m)
        probs = np.full(len(rankings), float(model.alpha) / math.factorial(m))
        probs[0] += 1.0 - float(model.alpha)  # rankings[0] ascends, so its bottom is m - 1
        probs /= probs.sum()
        table = _tally_table(np.array([r.order for r in rankings]), m - 1)
        rows = [rng.multinomial(n, probs) @ table for rng in _trial_rngs(cfg)]
        return [m - 1] * cfg.trials, np.array(rows)

    identity = np.tile(np.arange(m), (n, 1))
    ones = np.ones(n, dtype=np.int64)
    targets, rows = [], []
    for rng in _trial_rngs(cfg):
        parameters = rng.permuted(identity, axis=1)
        ballots = model.sample_orders(parameters, rng)
        targets.append(int(parameters[-1, -1]))
        rows.append(ones @ _tally_table(ballots, targets[-1]))
    return targets, np.array(rows)


def _tail_exponent_bound(m: int, n: int) -> tuple[Fraction, float]:
    exponent = Fraction(n, 72 * m * m)
    return exponent, math.exp(-float(exponent))


# ---------------------------------------------------------------------------
# Claim runners


def run_definitely_rate(cfg: ExperimentConfig) -> TrialReport:
    """Frequency of certified greedy answers vs. the success bound."""
    started = time.perf_counter()
    _, tallies = _trial_tallies(cfg)
    m, n = cfg.m, cfg.n
    scores, definite = _certify(n, tallies[:, :m], tallies[:, m:])
    flags = definite.astype(int).tolist()
    rows = [
        {"trial": trial, "definitely": flag, "score_lower_bound": score}
        for trial, (flag, score) in enumerate(zip(flags, scores.tolist()))
    ]

    rate = sum(flags) / cfg.trials
    exponent, tail = _tail_exponent_bound(m, n)
    bound = 1.0 - 2 * (m - 1) * tail
    checks = [
        _rate_check(
            "definitely_rate_vs_success_bound",
            rate,
            cfg.trials,
            bound,
            vacuous=bound <= 0.0,
            exponent=str(-exponent),
        ),
        # The coarser failure allowance permits up to 1/m uncertified
        # answers; recorded for comparison, never gating.
        _check(
            "definitely_rate_vs_failure_allowance",
            rate,
            1.0 - 1.0 / m,
            "lower_bound",
            informational=True,
        ),
    ]
    frequencies = {"definitely_rate": rate, "maybe_rate": 1.0 - rate}
    bounds = {"success_bound": bound, "tail_exponent": str(-exponent)}
    return _report(cfg, started, rows, flags, checks, frequencies, bounds)


def run_concentration_tails(cfg: ExperimentConfig) -> TrialReport:
    """Both per-pair tail events vs. the shared exponential bound."""
    started = time.perf_counter()
    targets, tallies = _trial_tallies(cfg)
    m, n = cfg.m, cfg.n
    beta = (Fraction(3, 4) - Fraction(1, 2 * m)) * Fraction(n, m)
    rival = np.arange(m) != np.array(targets)[:, None]
    # Tallies are integers, so they exceed n/2 + beta exactly when they
    # exceed its floor, and fall short of beta exactly when short of its ceiling.
    tails = {
        "majority_overshoot_tail": rival & (tallies[:, :m] > math.floor(Fraction(n, 2) + beta)),
        "adjacency_shortfall_tail": rival & (tallies[:, m:] < math.ceil(beta)),
    }
    flags = np.logical_or(*tails.values()).any(axis=1).astype(int).tolist()
    rows = []
    for trial, (target, tally) in enumerate(zip(targets, tallies.tolist())):
        row = {"trial": trial}
        for b in range(m):
            if b != target:
                row[f"outranked_by_{b}"], row[f"directly_above_{b}"] = tally[b], tally[m + b]
        rows.append(row)

    # Each label's rate is over the trials where it was a rival: under
    # per-trial targets a label is sometimes the target. One that never was
    # has no events, so its rate reads 0 over one trial.
    rivals = np.maximum(rival.sum(axis=0), 1)
    exponent, tail_bound = _tail_exponent_bound(m, n)
    checks, frequencies = [], {}
    for name, events in tails.items():
        rates = events.sum(axis=0) / rivals
        b = int(rates.argmax())  # the first label at the highest rate
        worst = float(rates[b])
        se = _binomial_se(worst, int(rivals[b]))
        checks.append(
            _check(name, worst, tail_bound + SLACK_SIGMAS * se, "upper_bound", bound=tail_bound)
        )
        frequencies[name] = worst
    bounds = {"tail_bound": tail_bound, "tail_exponent": str(-exponent), "beta": str(beta)}
    return _report(cfg, started, rows, flags, checks, frequencies, bounds)


def _padded_reduction(cfg: ExperimentConfig):
    """The config's exact-cover instance, its Dodgson reduction, and the
    model over the reduction's ``m1`` alternatives plus ``cfg.pad``.

    Only a symbolic K, "m1" or "2*m1*n", is resolved here;
    :func:`~votelab.models.model_from_spec` parses the rest of the spec.
    """
    if not cfg.instance:
        raise ValueError("this claim needs an exact-cover instance in the config")
    # The instance fixes the alternatives and agents, and no adversary is
    # drawn, so these fields would change the config hash, not the rows.
    for name in ("m", "n"):
        if getattr(cfg, name) is not None:
            raise ValueError(f"this claim reads no config field {name!r}: the instance fixes it")
    if cfg.adversary != "shared_bottom":
        raise ValueError("this claim reads no config field 'adversary'")
    _check_keys(cfg.instance, {"q", "subsets"}, "instance")
    q = _spec_number(cfg.instance, "q", int, "instance")
    subsets = cfg.instance.get("subsets")
    if not isinstance(subsets, (list, tuple)) or not all(
        isinstance(sub, (list, tuple)) and all(type(e) is int for e in sub) for sub in subsets
    ):
        raise ValueError(f"instance 'subsets' must be a list of integer lists, got {subsets!r}")
    inst = X3CInstance.of(q, subsets)
    out = x3c_to_dodgson(inst)
    m1, agents = out.profile.m, out.profile.n
    spec = dict(cfg.model)
    if spec.get("K") == "m1":
        spec["K"] = m1
    elif spec.get("K") == "2*m1*n":
        spec["K"] = 2 * m1 * agents
    return inst, out, model_from_spec(spec, m1 + cfg.pad)


def _matched_trials(cfg: ExperimentConfig, out, pp) -> list[bool]:
    """Per trial, whether its draw of ``pp`` kept every top slice of ``out``'s profile.

    Per trial, the generator is re-seeded and the model's ``sample_orders``
    called once; nothing else happens between draws. The draws are stacked
    up to ``_SEED_BLOCK`` trials at a time, so memory stays flat in
    ``cfg.trials``, and each block is tested in one array comparison.
    """
    sample, params = pp.model.sample_orders, pp.agent_orders
    reference = params[:, : out.profile.m]
    rngs = _trial_rngs(cfg)
    matched: list[bool] = []
    while block := [sample(params, rng) for rng in islice(rngs, _SEED_BLOCK)]:
        matched += top_slices_match(np.stack(block), reference).tolist()
    return matched


def run_top_preservation(cfg: ExperimentConfig) -> TrialReport:
    """Frequency of exact top-slice preservation vs. the 1/2 bound."""
    started = time.perf_counter()
    _, out, model = _padded_reduction(cfg)
    m1, agents = out.profile.m, out.profile.n
    pp = build_padded_parameter_profile(out, model)

    flags = [int(kept) for kept in _matched_trials(cfg, out, pp)]
    rows = [{"trial": trial, "top_slice_preserved": flag} for trial, flag in enumerate(flags)]

    rate = sum(flags) / cfg.trials
    checks = [_rate_check("preservation_rate_vs_half", rate, cfg.trials, 0.5)]
    if isinstance(model, PartialAltRandomization):  # K >= m1, or the build raised
        checks.append(_check("preservation_rate_exact_one", rate, 1.0, "exact"))
    if isinstance(model, TopBreakNoise):
        # Per-agent success compounds exactly to (1 - 1/K)^n.
        compounded = (1 - Fraction(1, model.K)) ** agents
        checks.append(
            _check(
                "preservation_rate_vs_compounded_rate",
                rate,
                float(compounded) - SLACK_SIGMAS * _binomial_se(rate, cfg.trials),
                "lower_bound",
                bound=float(compounded),
                informational=True,
            )
        )
        if model.K == 2 * m1 * agents:
            # Exact-arithmetic bound chain down to one half.
            floor = 1 - Fraction(1, 2 * m1)
            checks.append(
                _check(
                    "compounded_rate_chain_holds",
                    1.0,
                    1.0,
                    "exact",
                    informational=True,
                    chain_holds=bool(compounded >= floor >= Fraction(1, 2)),
                )
            )
    frequencies = {"preservation_rate": rate}
    bounds = {"half": 0.5, "reduction_width": m1, "agents": agents}
    return _report(cfg, started, rows, flags, checks, frequencies, bounds)


def run_cover_driver(cfg: ExperimentConfig) -> TrialReport:
    """One-sidedness and NO-rate of the randomized exact-cover driver.

    Each trial answers as one :func:`~votelab.reductions.x3c_via_dodgson`
    draw would; the reduction and its padded parameter profile are built
    once per run. A draw that moved a top slice answers YES. A matched
    draw keeps every reduction ballot, critical alternative included, in
    its top slice, so its ballot prefixes above the critical alternative
    are the reduction profile's; the critical alternative's deficits and
    every lift option of the Dodgson DP read only those prefixes. So one
    threshold query on the reduction profile answers every matched draw,
    at any ``pad``, and a run with no matched draw makes none.
    """
    started = time.perf_counter()
    inst, out, model = _padded_reduction(cfg)
    pp = build_padded_parameter_profile(out, model)
    expected_yes = x3c_bruteforce(inst)
    matched = _matched_trials(cfg, out, pp)
    no = any(matched) and dodgson_score_within(out.profile, out.critical, out.threshold) is None
    flags = [int(no and kept) for kept in matched]
    rows = [{"trial": trial, "answer": "no" if flag else "yes"} for trial, flag in enumerate(flags)]

    no_rate = sum(flags) / cfg.trials
    if expected_yes:
        checks = [_check("yes_instance_zero_wrong_no", no_rate, 0.0, "exact")]
    else:
        checks = [_rate_check("no_rate_vs_one_sixth", no_rate, cfg.trials, 1.0 / 6.0)]
        if isinstance(model, PartialAltRandomization):  # K >= m1, or the build raised
            checks.append(_check("no_rate_exact_one", no_rate, 1.0, "exact"))
    frequencies = {"no_rate": no_rate, "yes_rate": 1.0 - no_rate}
    bounds = {"expected_answer": "yes" if expected_yes else "no", "one_sixth": 1.0 / 6.0}
    return _report(cfg, started, rows, flags, checks, frequencies, bounds)


CLAIM_RUNNERS = {
    "definitely_rate": run_definitely_rate,
    "concentration": run_concentration_tails,
    "top_preservation": run_top_preservation,
    "cover_driver": run_cover_driver,
}


def run_experiment(cfg: ExperimentConfig) -> TrialReport:
    return CLAIM_RUNNERS[cfg.claim](cfg)


def write_report(report: TrialReport, out_dir) -> dict:
    """Write CSV rows, a JSON summary, and optional plot data.

    Outputs are a pure function of the config: no timestamps, sorted
    keys, repr'd floats. CSV columns are the union of all rows' keys
    (rows may differ, e.g. per-trial targets), and an absent cell is empty.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = report.config
    config_hash = cfg.config_hash()
    stem = f"{cfg.claim}_{config_hash}"

    csv_path = out / f"{stem}.csv"
    columns = sorted(set().union(*report.rows) - {"trial"})
    header = ["trial"] + columns
    lines = [",".join(header)]
    for row in report.rows:
        lines.append(",".join(str(row.get(c, "")) for c in header))
    csv_path.write_text("\n".join(lines) + "\n")

    summary = {
        "claim": cfg.claim,
        "config": cfg.to_dict(),
        "config_hash": config_hash,
        "seed": cfg.seed,
        "checks": report.summary["checks"],
        "frequencies": report.summary["frequencies"],
        "bounds": report.summary["bounds"],
        "all_pass": report.all_pass,
    }
    json_path = out / f"{stem}.json"
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")

    paths = {"csv": str(csv_path), "json": str(json_path)}
    if cfg.plot_data and report.summary.get("plot_series"):
        dat_path = out / f"{stem}.dat"
        dat_lines = [f"{x} {y!r}" for x, y in report.summary["plot_series"]]
        dat_path.write_text("\n".join(dat_lines) + "\n")
        paths["dat"] = str(dat_path)
    return paths
