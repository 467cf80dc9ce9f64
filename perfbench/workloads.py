"""The benchmark's workloads: seeded rounds of ops, each op with its check.

A workload hands out rounds. Every round holds the same mix of op kinds in a
seeded order, with inputs drawn from ``(seed, round)``; only the inputs
differ between rounds and seeds. An op's ``run`` is what gets timed. Its
``check`` runs afterwards, outside the op's latency, and returns
``(ok, ballots, distinct ballots or None)`` for the input properties.

Functions are looked up on their votelab module at call time, so an
installed tracer sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

from votelab import core, experiments, reductions, rules_exact


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, int, Optional[int]]]


def _rng(seed: int, round_index: int, salt: int = 0) -> random.Random:
    return random.Random((seed * 1_000_003 + round_index) * 7 + salt)


def _random_profile(rng: random.Random, m: int, n: int) -> core.Profile:
    return core.Profile.of(rng.sample(range(m), m) for _ in range(n))


# ---------------------------------------------------------------------------
# x3c_sweep: the exact-cover -> Dodgson path behind acceptance C03


class X3CSweep:
    """Reduction build plus Dodgson threshold query on exact-cover instances.

    Each round holds 47 instances drawn uniformly from the exhaustive q=6,
    s<=6 family (build-bound, about 1-2 ms each) and one random q=9 instance
    for each s in 3..10 (DP-bound, 3-20 ms each, the latency tail). With q=9
    at 8 of 55 ops, p90 falls in the middle of the s=5 instances rather than
    at the edge between two strata.
    """

    name = "x3c_sweep"
    round_s = 0.075  # op time of one round at reference speed, for sizing the traced run
    FAMILY_PER_ROUND = 47
    Q9_SIZES = range(3, 11)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.triples = {q: list(itertools.combinations(range(q), 3)) for q in (3, 6, 9)}
        # (q, s) strata of the family enumerate_x3c_instances(q, 6) walks, weighted
        # by their instance counts, so a draw is uniform over the family.
        self.strata = [(3, 1)] + [(6, s) for s in range(2, 7)]
        self.weights = [math.comb(len(self.triples[q]), s) for q, s in self.strata]

    def _instance(self, rng: random.Random, q: int, s: int) -> reductions.X3CInstance:
        return reductions.X3CInstance(q, tuple(sorted(rng.sample(self.triples[q], s))))

    def round(self, index: int) -> list[Op]:
        rng = _rng(self.seed, index)
        instances = [
            self._instance(rng, *rng.choices(self.strata, self.weights)[0])
            for _ in range(self.FAMILY_PER_ROUND)
        ]
        instances += [self._instance(rng, 9, s) for s in self.Q9_SIZES]
        rng.shuffle(instances)
        return [
            Op(f"q{inst.q}_s{inst.s}", partial(self._solve, inst), partial(self._check, inst))
            for inst in instances
        ]

    @staticmethod
    def _solve(inst):
        out = reductions.x3c_to_dodgson(inst)
        score = rules_exact.dodgson_score_within(out.profile, out.critical, out.threshold)
        return out, score is not None

    @staticmethod
    def _check(inst, result):
        # Acceptance C03's two checks: every element leads the critical
        # alternative by exactly one vote, and the decision matches brute force.
        out, within = result
        margins = core.wmg(out.profile)
        leads_ok = all(margins.margin(a, out.critical) == 1 for a in out.layout.element_alts)
        ok = leads_ok and within == reductions.x3c_bruteforce(inst)
        return ok, out.profile.n, len(out.profile.grouped)

    def warm(self) -> list[Op]:
        ops = self.round(-1)
        return [next(op for op in ops if op.kind.startswith(f"q{q}_")) for q in (6, 9)]


# ---------------------------------------------------------------------------
# claims: the Monte-Carlo harness, one claim config per op

# The yes and no instances of scripts/run_claims.py.
Q6_INSTANCES = {
    "yes": {"q": 6, "subsets": [[0, 1, 2], [3, 4, 5]]},
    "no": {"q": 6, "subsets": [[0, 1, 2], [2, 3, 4], [0, 4, 5], [1, 3, 5]]},
}
TOP_BREAK = {"model": "top_break", "K": "2*m1*n"}
PARTIAL_ALT = {"model": "partial_alt", "K": "m1"}


def _alpha_floor(m: int) -> dict:
    return {"model": "alpha_ic", "alpha": str(1 - Fraction(1, m))}


class Claims:
    """``run_experiment`` plus ``write_report`` for a mix of claim configs.

    Trials per config are kept small so that a run holds hundreds of ops;
    the mix is the only place where n reaches 1e5 and where the samplers,
    greedy certification and the experiment harness run.
    """

    name = "claims"
    round_s = 0.7
    # (claim, m, n, adversary, trials) for the uniform-noise claims; alpha
    # sits at the regime floor 1 - 1/m. Trials are set so that the n=1e5 and
    # random_profile configs cost about the same: together they are the
    # slowest 6 of 21 ops, and p90 falls inside that cluster, not at a gap.
    # concentration under random_profile is left out: write_report raises
    # KeyError on it, because its rows name different columns when the
    # target differs between trials.
    NOISE = (
        [
            ("definitely_rate", m, n, "shared_bottom", trials)
            for m in (3, 4, 5)
            for n, trials in ((1000, 100), (10_000, 30), (100_000, 6))
        ]
        + [("definitely_rate", m, 1000, "random_profile", 6) for m in (3, 4, 5)]
        + [("concentration", 3, 648, "shared_bottom", 200)]
    )
    REDUCTION_TRIALS = 100

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.agents = {
            label: reductions.x3c_to_dodgson(
                reductions.X3CInstance.of(inst["q"], inst["subsets"])
            ).profile.n
            for label, inst in Q6_INSTANCES.items()
        }
        self.digest = hashlib.sha256()

    def _configs(self, index: int) -> list[tuple[str, experiments.ExperimentConfig, int]]:
        rng = _rng(self.seed, index)
        configs = []
        for claim, m, n, adversary, trials in self.NOISE:
            cfg = experiments.ExperimentConfig(
                claim=claim, trials=trials, seed=rng.randrange(2**32), m=m, n=n,
                model=_alpha_floor(m), adversary=adversary, plot_data=claim == "definitely_rate",
            )
            configs.append((f"{claim}:{adversary}:m{m}:n{n}", cfg, trials * n))
        for claim in ("top_preservation", "cover_driver"):
            for label, inst in Q6_INSTANCES.items():
                for model in (TOP_BREAK, PARTIAL_ALT):
                    cfg = experiments.ExperimentConfig(
                        claim=claim, trials=self.REDUCTION_TRIALS, seed=rng.randrange(2**32),
                        instance=inst, model=model, pad=2, plot_data=claim == "top_preservation",
                    )
                    ballots = self.REDUCTION_TRIALS * self.agents[label]
                    configs.append((f"{claim}:{model['model']}:q6_{label}", cfg, ballots))
        rng.shuffle(configs)
        return configs

    def round(self, index: int) -> list[Op]:
        return [
            Op(kind, partial(self._run, cfg), partial(self._check, index, ballots))
            for kind, cfg, ballots in self._configs(index)
        ]

    def _run(self, cfg):
        report = experiments.run_experiment(cfg)
        return experiments.write_report(report, self.scratch)

    def _check(self, round_index, ballots, paths):
        ok = True
        for key in sorted(paths):
            path = Path(paths[key])
            data = path.read_bytes()
            if round_index == 0:
                self.digest.update(path.name.encode() + b"\0" + data)
            if key == "json":
                summary = json.loads(data)
                ok = summary["all_pass"] and all(
                    c["pass"] for c in summary["checks"] if not c["informational"]
                )
            path.unlink()
        return ok, ballots, None

    def take_digest(self) -> str:
        """SHA-256 over the report bytes of round 0 so far; starts a new one."""
        value = self.digest.hexdigest()
        self.digest = hashlib.sha256()
        return value

    def warm(self) -> list[Op]:
        seen: dict[str, Op] = {}
        for op in self.round(-1):
            seen.setdefault(op.kind.split(":")[0], op)
        return list(seen.values())


# ---------------------------------------------------------------------------
# exact_solvers: Kemeny, Monroe, CC and Young queries


class ExactSolvers:
    """Interleaved exact queries, from thousands of tiny ones to a few huge ones.

    Each round holds every EFAS query on the Eulerian digraphs with m in
    {3, 4, 5} (1,611 queries through ``kemeny_decision``, under 1 ms each),
    one best-plus-top Kemeny query for each m in {10, 12, 14, 16}, four
    Monroe/CC committee queries and eight Young queries.
    """

    name = "exact_solvers"
    round_s = 1.9
    KEMENY_M = (10, 12, 14, 16)
    KEMENY_N = 25
    MONROE = ((30, 6, 2), (60, 8, 2), (90, 6, 3), (120, 8, 3))  # (n, m, k)
    YOUNG = tuple((n, m) for n in (10, 14, 17, 20) for m in (4, 6))

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.efas = [
            (g, t)
            for m in (3, 4, 5)
            for g in reductions.enumerate_eulerian_digraphs(m)
            for t in range(g.edge_count + 1)
        ]
        self.efas_expected: dict[tuple, bool] = {}

    def round(self, index: int) -> list[Op]:
        rng = _rng(self.seed, index)
        ops = [
            Op(f"efas:m{g.m}", partial(self._efas, g, t), partial(self._check_efas, g, t))
            for g, t in self.efas
        ]
        for m in self.KEMENY_M:
            p = _random_profile(rng, m, self.KEMENY_N)
            ops.append(Op(f"kemeny:m{m}", partial(self._kemeny, p), partial(self._check_kemeny, p)))
        for n, m, k in self.MONROE:
            p = _random_profile(rng, m, n)
            committee = rules_exact.Committee.of(rng.sample(range(m), k))
            ops.append(
                Op(f"monroe:n{n}:m{m}:k{k}", partial(self._monroe, p, committee),
                   partial(self._check_monroe, p))
            )
        for n, m in self.YOUNG:
            p = _random_profile(rng, m, n)
            a = rng.randrange(m)
            ops.append(Op(f"young:n{n}:m{m}", partial(self._young, p, a), partial(self._check_young, p, a)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _efas(g, t):
        decision = reductions.efas_via_kemeny(g, t, rules_exact.kemeny_decision)
        return decision is reductions.Decision.YES

    def _check_efas(self, g, t, yes):
        key = (g, t)
        if key not in self.efas_expected:
            self.efas_expected[key] = reductions.efas_bruteforce(g, t)
        return yes == self.efas_expected[key], 2 * max(g.edge_count, 1), None

    @staticmethod
    def _kemeny(p):
        ranking, score = rules_exact.kemeny_best(p)
        return ranking, score, rules_exact.kemeny_score_of_alternative(p, ranking.order[0])

    @staticmethod
    def _check_kemeny(p, result):
        ranking, score, top_score = result
        ok = score == core.kt_profile_distance(p, ranking) == top_score
        return ok, p.n, len(p.grouped)

    @staticmethod
    def _monroe(p, committee):
        scores = {}
        for aggregator in ("sum", "min"):
            scores[aggregator] = (
                rules_exact.monroe_score(p, committee, None, aggregator),
                rules_exact.cc_score(p, committee, None, aggregator),
            )
        # The committee itself reaches its own Monroe sum, so the answer is yes.
        decided = rules_exact.committee_decision(
            p, committee.k, scores["sum"][0], rule="monroe"
        )
        return scores, decided

    @staticmethod
    def _check_monroe(p, result):
        scores, decided = result
        ok = decided and all(monroe <= cc for monroe, cc in scores.values())
        return ok, p.n, len(p.grouped)

    @staticmethod
    def _young(p, a):
        return rules_exact.young_score_exact(p, a)

    @staticmethod
    def _check_young(p, a, score):
        # The whole profile certifies a exactly when a is its Condorcet winner.
        ok = 0 <= score <= p.n and (score == p.n) == (core.condorcet_winner(p) == a)
        return ok, p.n, len(p.grouped)

    def warm(self) -> list[Op]:
        warm = [op for op in self.round(-1) if not op.kind.startswith("kemeny")]
        kinds: dict[str, Op] = {}
        for op in warm:
            kinds.setdefault(op.kind.split(":")[0], op)
        p = _random_profile(_rng(self.seed, -1, salt=1), 5, self.KEMENY_N)
        kinds["kemeny"] = Op("kemeny:m5", partial(self._kemeny, p), partial(self._check_kemeny, p))
        return list(kinds.values())


WORKLOADS = {w.name: w for w in (X3CSweep, Claims, ExactSolvers)}
