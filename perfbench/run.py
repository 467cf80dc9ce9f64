#!/usr/bin/env python3
"""votelab's benchmark: run workloads, check every answer, print the metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload x3c_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh interpreters started from ``src/``: a few that
only set up (for ``setup_s``), then one that sets up and runs the timed
closed loop. With ``--trace 1`` the worker also replays its ops with spans
around every call into votelab's layers and reports the per-layer metrics.
The last line of stdout is one JSON object; a human-readable table, the
input properties and the run's metadata come before it, and everything is
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import monotonic, speed_factor
from tracer import metric_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("x3c_sweep", "claims", "exact_solvers")
SETUP_RUNS = 5  # fresh interpreters per run whose set-up time is measured
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_rate": "ok/attempted",
    "peak_rss_mb": "MiB",
}


def start_worker(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> tuple[float, dict]:
    """Run one worker; return the launch time and its JSON result."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--src", str(SRC),
        "--scratch", str(OUT / f"tmp-{os.getpid()}-{workload}"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    launched = monotonic()
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=True,
    )
    return launched, json.loads(done.stdout.strip().splitlines()[-1])


def metadata(seed: int) -> dict:
    def version(dist: str):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        import tomllib

        with open(ROOT / "pyproject.toml", "rb") as handle:
            dependencies = tomllib.load(handle)["project"]["dependencies"]
    except (ImportError, OSError, KeyError):
        dependencies = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": sum(
            len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
        ),
        "runtime_dependencies": dependencies,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups, setups_raw = [], []

    def timed_worker(*extra: str) -> dict:
        # Set-up time at reference speed: scaled by the mean of the speed
        # factors measured just before the interpreter starts and, by the
        # worker, just after it is ready.
        before = speed_factor()
        launched, result = start_worker(workload, seed, seconds, trace, *extra)
        setups_raw.append(result["ready"] - launched)
        setups.append(setups_raw[-1] * (before + result["ready_factor"]) / 2)
        return result

    if not trace:
        for _ in range(SETUP_RUNS - 1):
            timed_worker("--setup-only")
    spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    result = timed_worker(*(("--spans", str(spans)) if trace else ()))

    attempted, failed = result["attempted"], result["failed"]
    if trace:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit, _ in metric_specs()
        }
    else:
        values = dict(
            setup_s=statistics.median(setups),
            success_rate=(attempted - failed) / attempted,
            peak_rss_mb=result["peak_rss_mb"],
            **result["end_to_end"]["scaled"],
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "unscaled": {
            "setup_s": statistics.median(setups_raw),
            **result.get("end_to_end", {}).get("raw", {}),
        },
        "speed_factor": result.get("end_to_end", {}).get("speed_factor"),
        "setup_samples_s": setups,
        "rounds": result["rounds"],
        "properties": result["properties"],
        "reports_sha256_round0": result.get("reports_sha256_round0"),
        "self_time_gap": result.get("self_time_gap"),
        "spans_file": str(spans.relative_to(ROOT)) if trace else None,
        "metadata": metadata(seed),
    }


def show(record: dict) -> None:
    print(f"== {record['workload']}  (trace {record['trace']}, {record['rounds']} rounds)")
    for name, metric in record["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':<44} {record['error_rate']:>16.6g} failed/attempted"
          f"  ({record['failed']} of {record['attempted']})")
    props = record["properties"]
    print(f"  ops {props['ops']}, total ballots {props['total_ballots']}, "
          f"distinct ballots per profile {props['distinct_ballots_per_profile']}")
    for kind, share in props["by_kind"].items():
        print(f"    {kind:<42} {share['ops']:>7} ops {100 * share['time_share']:6.2f}% of op time")
    if record["speed_factor"]:
        print(f"  unscaled: {json.dumps(record['unscaled'])}; speed factor {json.dumps(record['speed_factor'])}")
    if record["reports_sha256_round0"]:
        print(f"  reports sha256 (round 0): {record['reports_sha256_round0']}")
    print(f"  metadata: {json.dumps(record['metadata'], sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "votelab" / "__init__.py").is_file():
        print(f"no votelab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"workload {name} did not finish: {exc}", file=sys.stderr)
            return 1
        show(record)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
