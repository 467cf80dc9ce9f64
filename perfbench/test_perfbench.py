"""Tests of the benchmark itself: smoke runs, the tracer's bookkeeping, the contract.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    import run
    import tracer
    import workloads

    assert WORKLOAD_NAMES == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == tracer.metric_specs()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    done = _run(workload, trace=0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = [line.split() for line in lines[:-1]]
    for metric in BENCHMARK["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
        assert any(row[:1] == [metric["name"]] and row[-1] == metric["unit"] for row in table)
    assert any(row[:3] == ["error_rate", "0", "failed/attempted"] for row in table)


def test_traced_run_prints_every_per_layer_metric():
    done = _run("x3c_sweep", trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    assert result["metrics"]["rules_exact.dodgson_score_within.calls"]["value"] > 0


def test_spans_nest_and_self_times_add_up(tmp_path):
    from tracer import LAYERS, ROOT_SPAN, SELF_TIME_TOLERANCE, Tracer
    from worker import Tally
    from workloads import ExactSolvers, X3CSweep

    from votelab import core, reductions, rules_exact

    ops = X3CSweep(3, tmp_path).round(0)[:8]
    ops += [
        op for op in ExactSolvers(3, tmp_path).round(0)
        if op.kind in ("efas:m4", "young:n10:m4", "monroe:n30:m6:k2")
    ][:6]
    original_wmg, original_builder = core.wmg, reductions.mcgarvey_profile
    tally = Tally()
    with Tracer() as tracer:
        for module in (core, reductions, rules_exact):
            assert module.wmg is not original_wmg
        for op in ops:
            tally.execute(op, tracer=tracer)
    for module in (core, reductions, rules_exact):
        assert module.wmg is original_wmg
    assert reductions.efas_via_kemeny.__defaults__[0] is original_builder
    assert tally.failed == 0

    spans = {span[0]: span for span in tracer.spans}
    for span_id, name, start, end, parent, op in tracer.spans:
        assert start <= end
        if parent == -1:
            assert name == ROOT_SPAN
            continue
        _, _, parent_start, parent_end, _, parent_op = spans[parent]
        assert parent_start <= start and end <= parent_end and parent_op == op

    tally.finish()
    metrics = tracer.metrics(untraced_s=0.0, traced_s=tally.op_time())
    self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["bench.op.self_s"]
    traced = metrics["trace.traced_s"]
    assert abs(self_total - traced) <= SELF_TIME_TOLERANCE * traced
    # Bound through efas_via_kemeny's default argument, not a module attribute.
    assert metrics["reductions.mcgarvey_profile.calls"] > 0
    assert metrics["trace.ops"] == len(ops)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("x3c_sweep", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
