"""Command-line front end: scoring, sampling, reductions, experiments.

Each ``score`` rule and ``reduce`` construction is its own subcommand that
declares only the flags it reads, so argparse rejects any other flag.

Exit codes: 0 success, 1 malformed or too-large input, 2 search budget
exceeded, 3 reduction construction failure, 4 experiment verdict failure.
Machine output is JSON on stdout; ``--pretty`` adds a fixed-width table.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as vio
from .errors import BudgetExceededError, ConstructionError
from .experiments import ExperimentConfig, run_experiment, write_report
from .greedy_dodgson import greedy_dodgson, semirandom_dodgson_decision
from .models import ParameterProfile, model_from_spec
from .reductions import (
    efas_via_kemeny,
    mcgarvey_profile,
    x3c_to_dodgson,
)
from .rules_exact import (
    Committee,
    cc_score,
    committee_decision,
    dodgson_score_exact,
    kemeny_best,
    kemeny_decision,
    kemeny_score_of_alternative,
    monroe_score,
    young_score_exact,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_CONSTRUCTION = 3
EXIT_VERDICT = 4


def _emit(result: dict, pretty: bool) -> None:
    print(json.dumps(result, sort_keys=True))
    if pretty:
        width = max((len(k) for k in result), default=0)
        for key in sorted(result):
            print(f"{key:<{width}}  {result[key]}", file=sys.stderr)


def _load_json(text: str):
    """Parse JSON input; nesting too deep for the decoder is malformed input."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {exc}") from None


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    return int(np.random.SeedSequence().entropy % (2**63))


def _cmd_score(args) -> int:
    # greedy-dodgson runs no search and has no --budget
    budget = {} if getattr(args, "budget", None) is None else {"budget": args.budget}
    profile = vio.read_profile(args.profile)
    result: dict = {}

    if args.rule == "dodgson":
        score = dodgson_score_exact(profile, args.alt, **budget)
        result["score"] = score
        if args.threshold is not None:
            result["decision"] = "yes" if score <= args.threshold else "no"
    elif args.rule == "young":
        score = young_score_exact(profile, args.alt, **budget)
        result["score"] = score
        if args.threshold is not None:
            result["decision"] = "yes" if score >= args.threshold else "no"
    elif args.rule == "kemeny":
        # --alt first: it is range-checked before the DP, whose table the
        # profile then keeps for kemeny_best.
        if args.alt is not None:
            result["score"] = kemeny_score_of_alternative(profile, args.alt, **budget)
        ranking, score = kemeny_best(profile, **budget)
        result["min_score"] = score
        result["ranking"] = list(ranking.order)
        if args.threshold is not None:
            result["decision"] = "yes" if score <= args.threshold else "no"
    elif args.rule in ("cc", "monroe"):
        score_fn = cc_score if args.rule == "cc" else monroe_score
        if args.committee is not None:
            for flag, value in (("--threshold", args.threshold), ("--budget", args.budget)):
                if value is not None:
                    raise ValueError(f"--committee scores one committee and takes no {flag}")
            members = Committee.of(args.committee)
            result["score"] = score_fn(profile, members, None, args.aggregator)
        elif args.threshold is None:
            raise ValueError("--k decides over all committees of that size and needs --threshold")
        else:
            yes = committee_decision(
                profile, args.k, args.threshold, args.rule, None, args.aggregator, **budget
            )
            result["decision"] = "yes" if yes else "no"
    else:  # greedy-dodgson
        greedy = greedy_dodgson(profile, args.alt)
        result["score"] = greedy.score
        result["certainty"] = greedy.certainty.value
        if args.threshold is not None:
            result["decision"] = semirandom_dodgson_decision(
                profile, args.alt, args.threshold
            ).value

    _emit(result, args.pretty)
    return EXIT_OK


def _cmd_sample(args) -> int:
    spec_text = args.model
    if spec_text.startswith("@"):
        spec_text = Path(spec_text[1:]).read_text()
    spec = _load_json(spec_text)
    weighted = vio.read_weighted_profile(args.params)
    model = model_from_spec(spec, weighted.m)
    pp = ParameterProfile(weighted.entries, model)
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vio.write_ballots(model.sample_orders(pp.agent_orders, rng).tolist(), args.out)
    sidecar = Path(str(args.out) + ".seed.json")
    sidecar.write_text(json.dumps({"seed": seed, "model": spec}, sort_keys=True) + "\n")
    _emit({"out": str(args.out), "seed": seed, "sidecar": str(sidecar)}, args.pretty)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    if args.construction == "x3c-dodgson":
        inst = vio.read_x3c(args.input)
        out = x3c_to_dodgson(inst)
        profile_path = Path(f"{args.out_prefix}.profile")
        vio.write_profile(out.profile, profile_path)
        layout = {
            "m1": out.profile.m,
            "n": out.profile.n,
            "critical": out.critical,
            "threshold": out.threshold,
            **asdict(out.layout),
        }
        layout_path = Path(f"{args.out_prefix}.layout.json")
        layout_path.write_text(json.dumps(layout, sort_keys=True, indent=2) + "\n")
        _emit({"profile": str(profile_path), "layout": str(layout_path)}, args.pretty)
    elif args.construction == "mcgarvey":
        graph = vio.read_digraph(args.input)
        profile = mcgarvey_profile(graph)
        vio.write_profile(profile, args.out)
        _emit({"out": str(args.out), "n": profile.n}, args.pretty)
    else:  # efas-check
        graph = vio.read_digraph(args.input)
        answer = efas_via_kemeny(graph, args.threshold, kemeny_decision, strict=not args.no_strict)
        _emit({"decision": answer.value}, args.pretty)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_json(Path(args.config).read_text()))
    report = run_experiment(cfg)
    paths = write_report(report, args.out_dir)
    print(f"wall clock: {report.wall_clock_seconds:.3f}s", file=sys.stderr)
    _emit({"all_pass": report.all_pass, **paths}, args.pretty)
    return EXIT_OK if report.all_pass else EXIT_VERDICT


def _budget(text: str) -> int:
    """Parse ``--budget``, a count of search-work units."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")


def _committee(text: str) -> list[int]:
    """Parse ``--committee``, distinct comma-separated alternatives."""
    try:
        members = [int(member) for member in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be distinct comma-separated integers, got {text!r}"
        ) from None
    repeated = [member for member, times in Counter(members).items() if times > 1]
    if repeated:
        raise argparse.ArgumentTypeError(
            f"names member {repeated[0]} more than once, got {text!r}"
        )
    return members


class _Parser(argparse.ArgumentParser):
    """Flags match only when spelled in full, and flag errors are malformed
    input: exit 1, not argparse's default 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    """Each score rule and reduce construction declares only the flags it reads."""
    parser = _Parser(
        prog="votelab",
        description="Winner determination under NP-hard rules, at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="exact and greedy scoring")
    score.set_defaults(func=_cmd_score)
    rules = score.add_subparsers(dest="rule", required=True)
    for name in ("dodgson", "young", "kemeny", "cc", "monroe", "greedy-dodgson"):
        rule = rules.add_parser(name)
        rule.add_argument("--profile", required=True)
        if name in ("cc", "monroe"):
            committee = rule.add_mutually_exclusive_group(required=True)
            committee.add_argument(
                "--committee", type=_committee, help="score this committee, e.g. 0,2,5"
            )
            committee.add_argument("--k", type=int, help="decide over all committees of k members")
            rule.add_argument("--aggregator", choices=["sum", "min"], default="sum")
        else:
            rule.add_argument("--alt", type=int, required=name != "kemeny")
        rule.add_argument("--threshold", type=int)
        if name != "greedy-dodgson":
            rule.add_argument(
                "--budget", type=_budget, help="most units of the solver's own search work"
            )
        rule.add_argument("--pretty", action="store_true")

    sample = sub.add_parser("sample", help="draw a profile from a parameter profile")
    sample.add_argument("--model", required=True, help="model spec JSON, or @file")
    sample.add_argument("--params", required=True, help="weighted parameter profile")
    sample.add_argument("--out", required=True)
    sample.add_argument("--seed", type=int)
    sample.add_argument("--pretty", action="store_true")
    sample.set_defaults(func=_cmd_sample)

    reduce_p = sub.add_parser("reduce", help="reduction constructions and checks")
    reduce_p.set_defaults(func=_cmd_reduce)
    constructions = reduce_p.add_subparsers(dest="construction", required=True)
    for name, flag, kind in (
        ("x3c-dodgson", "--out-prefix", str),
        ("mcgarvey", "--out", str),
        ("efas-check", "--threshold", int),
    ):
        construction = constructions.add_parser(name)
        construction.add_argument("--input", required=True)
        construction.add_argument(flag, type=kind, required=True)
        if name == "efas-check":
            construction.add_argument("--no-strict", action="store_true")
        construction.add_argument("--pretty", action="store_true")

    experiment = sub.add_parser("experiment", help="run a claim verification")
    experiment.add_argument("--config", required=True)
    experiment.add_argument("--out-dir", default=".")
    experiment.add_argument("--pretty", action="store_true")
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        # A failed allocation can raise MemoryError with no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
