"""One workload in a fresh interpreter: set up, run the closed loop, report.

Started by ``run.py``; prints one JSON object on stdout. ``ready`` is the
CLOCK_MONOTONIC reading at the end of set-up, which the launcher subtracts
from its own reading taken just before it started this process.

Usage: python3 perfbench/worker.py --src SRC --scratch DIR --workload NAME
           --seed N --seconds S --trace 0|1 [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from calibrate import INTERVAL_S, kernel_time, monotonic, smoothed_factors, speed_factor


class Tally:
    """Outcomes, latencies and input properties of the ops run in one pass.

    Latencies are kept as measured (``raw``) and, after ``finish``, at
    reference speed (``latencies``): each op is scaled by the mean of the
    smoothed speed factors at the kernel runs just before and just after it.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.segment: list[int] = []  # per op: index of the kernel run before it
        self.kernel: list[float] = []
        self.latencies: list[float] = []
        self.factors: list[float] = []
        self.kinds: list[str] = []
        self.calibrated_at = -math.inf
        self.attempted = 0
        self.failed = 0
        self.ballots = 0
        self.distinct: list[int] = []

    def calibrate(self) -> None:
        self.kernel.append(kernel_time())
        self.calibrated_at = time.perf_counter()

    def finish(self) -> None:
        """Take a last kernel run and scale every op to reference speed."""
        self.calibrate()
        self.factors = smoothed_factors(self.kernel)
        self.latencies = [
            t * (self.factors[k] + self.factors[k + 1]) / 2
            for t, k in zip(self.raw, self.segment)
        ]

    def execute(self, op, timed: bool = True, tracer=None) -> None:
        if timed and time.perf_counter() - self.calibrated_at >= INTERVAL_S:
            self.calibrate()
        self.attempted += 1
        error = None
        if tracer is not None:
            tracer.begin_op()
        started = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failed op is counted, never skipped
            error = exc
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op(error is not None)
        if timed:
            self.raw.append(latency)
            self.segment.append(len(self.kernel) - 1)
            self.kinds.append(op.kind)
        if error is None:
            try:
                ok, ballots, distinct = op.check(output)
            except Exception as exc:
                error = exc
            else:
                if not ok:
                    error = AssertionError("output failed its check")
                if timed:
                    self.ballots += ballots
                    if distinct is not None:
                        self.distinct.append(distinct)
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {op.kind} failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)

    def raw_time(self) -> float:
        return math.fsum(self.raw)

    def op_time(self) -> float:
        """Op time at reference speed; ``finish`` first."""
        return math.fsum(self.latencies)

    def end_to_end(self) -> dict:
        def summary(latencies):
            return {
                "ops_per_s": (self.attempted - self.failed) / math.fsum(latencies),
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            }

        return {
            "scaled": summary(self.latencies),
            "raw": summary(self.raw),
            "speed_factor": {
                "calibrations": len(self.factors),
                "median": statistics.median(self.factors),
                "min": min(self.factors),
                "max": max(self.factors),
            },
        }

    def properties(self) -> dict:
        total = self.op_time()
        by_kind: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for kind, latency in zip(self.kinds, self.latencies):
            by_kind[kind][0] += 1
            by_kind[kind][1] += latency
        return {
            "ops": len(self.latencies),
            "op_time_s": total,
            "by_kind": {
                kind: {"ops": n, "op_time_s": t, "time_share": t / total}
                for kind, (n, t) in sorted(by_kind.items())
            },
            "total_ballots": self.ballots,
            "distinct_ballots_per_profile": {
                "profiles": len(self.distinct),
                "mean": statistics.fmean(self.distinct) if self.distinct else None,
                "max": max(self.distinct, default=None),
            },
        }


def run_rounds(workload, rounds, tally: Tally, tracer=None) -> None:
    for index in rounds:
        for op in workload.round(index):
            tally.execute(op, tracer=tracer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    # Set-up: the CLI's cold start, input generation, one warm call per layer.
    sys.path.insert(0, str(args.src))
    import votelab.cli  # noqa: F401

    import votelab

    if not Path(votelab.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"votelab imported from {votelab.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args.scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scratch)
        warm = Tally()
        for op in workload.warm():
            warm.execute(op, timed=False)
        ready = monotonic()
        result = {"ready": ready, "ready_factor": speed_factor()}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        tally = Tally()
        take_digest = getattr(workload, "take_digest", None)
        if not args.trace:
            index = 0
            while tally.raw_time() < args.seconds:  # whole rounds keep the op mix fixed
                run_rounds(workload, [index], tally)
                index += 1
            tally.finish()
            result["rounds"] = index
            result["end_to_end"] = tally.end_to_end()
        else:
            from tracer import SELF_TIME_TOLERANCE, Tracer

            # The same rounds twice, untraced then traced, for the overhead.
            rounds = range(max(1, int(args.seconds / 3 / workload.round_s)))
            run_rounds(workload, rounds, tally)
            tally.finish()
            untraced_digest = take_digest() if take_digest else None
            traced = Tally()
            with Tracer() as tracer:
                run_rounds(workload, rounds, traced, tracer)
            traced.finish()
            result["rounds"] = len(rounds)
            result["per_layer"] = tracer.metrics(tally.op_time(), traced.op_time())
            result["self_time_gap"] = tracer.self_time_gap()
            if result["self_time_gap"] > SELF_TIME_TOLERANCE:
                print("self times do not add up to the traced op time", file=sys.stderr)
                traced.failed += 1
            if take_digest and take_digest() != untraced_digest:
                print("traced run wrote different report bytes", file=sys.stderr)
                traced.failed += 1
            if args.spans is not None:
                tracer.write_spans(args.spans)
            tally.attempted += traced.attempted
            tally.failed += traced.failed
        if take_digest:
            result["reports_sha256_round0"] = untraced_digest if args.trace else take_digest()
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)

    result.update(
        attempted=tally.attempted + warm.attempted,
        failed=tally.failed + warm.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        properties=tally.properties(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
