#!/usr/bin/env python3
"""Run the four claim verifications at acceptance scale and write reports.

Usage: python scripts/run_claims.py [--out-dir results] [--seed N] [--trials N]

Exits 4 when a verdict fails, and 1, with one ``error:`` line and before
any claim runs, on a bad argument.
"""

import argparse
import sys
from pathlib import Path

from votelab.experiments import ExperimentConfig, run_experiment, write_report


def configs(seed: int, trials: int):
    alpha_ic = {"model": "alpha_ic", "alpha": "2/3"}
    q6_yes = {"q": 6, "subsets": [[0, 1, 2], [3, 4, 5]]}
    q6_no = {"q": 6, "subsets": [[0, 1, 2], [2, 3, 4], [0, 4, 5], [1, 3, 5]]}
    yield ExperimentConfig(
        claim="definitely_rate", trials=trials, seed=seed, m=3, n=1000, model=alpha_ic,
        plot_data=True,
    )
    yield ExperimentConfig(
        claim="concentration", trials=trials, seed=seed, m=3, n=648, model=alpha_ic
    )
    yield ExperimentConfig(
        claim="top_preservation", trials=min(trials, 1000), seed=seed, instance=q6_yes,
        model={"model": "top_break", "K": "2*m1*n"}, pad=2, plot_data=True,
    )
    yield ExperimentConfig(
        claim="cover_driver", trials=min(trials, 1000), seed=seed, instance=q6_no,
        model={"model": "top_break", "K": "2*m1*n"}, pad=2,
    )
    # A success bound that is neither vacuous nor 1: 1 - 8 exp(-n/1800) ~ 0.906.
    yield ExperimentConfig(
        claim="definitely_rate", trials=trials, seed=seed, m=5, n=8000,
        model={"model": "alpha_ic", "alpha": "4/5"},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--trials", type=int, default=10_000)
    args = parser.parse_args()

    try:
        runs = list(configs(args.seed, args.trials))
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = 0
    for cfg in runs:
        report = run_experiment(cfg)
        paths = write_report(report, args.out_dir)
        status = "pass" if report.all_pass else "FAIL"
        print(f"{cfg.claim:<17} {status}  {report.wall_clock_seconds:6.1f}s  {paths['json']}")
        for check in report.summary["checks"]:
            marker = "~" if check["vacuous"] else ("i" if check.get("informational") else " ")
            print(
                f"  [{marker}] {check['name']:<42} "
                f"empirical={check['empirical']:.4f} threshold={check['threshold']:.4f}"
            )
        failures += not report.all_pass
    return 4 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
