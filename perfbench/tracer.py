"""Spans around calls into votelab's layers, and the per-layer metrics they give.

The tracer wraps public functions from outside the package: every module
attribute of ``votelab`` that binds a traced function (``votelab.core.wmg``,
``votelab.reductions.wmg``, ``votelab.rules_exact.wmg`` ...), and every
function default that holds one (``efas_via_kemeny``'s ``profile_builder``),
is replaced by a wrapper for as long as the tracer is installed. Nothing
under ``src/`` is edited.

Spans are recorded only inside an op, so the benchmark's own checks stay out
of the per-layer numbers. A span's self time is its duration minus the time
its child spans cover; the self times of all spans in an op, the op's root
span ``bench.op`` included, add up to the op's traced duration.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Optional

ROOT_SPAN = "bench.op"
KEMENY = "rules_exact.kemeny"

# Relative tolerance within which the self times of all spans must add up to
# the traced op time. Only float rounding separates the two.
SELF_TIME_TOLERANCE = 1e-9


def _count_profile(tracer, args, kwargs, result):
    tracer.counts["core.Profile.ballots"] += len(args[0].rankings)


def _count_wmg(tracer, args, kwargs, result):
    p = args[0]
    distinct = len(p.grouped) if hasattr(p, "grouped") else len(p.entries)
    tracer.counts["core.wmg.pair_updates"] += distinct * p.m * (p.m - 1) // 2


def _count_kemeny(tracer, args, kwargs, result):
    if any(frame[0] == KEMENY for frame in tracer.stack):
        return  # nested inside another Kemeny call: counted at the outermost one
    p = args[0]
    tracer.counts["rules_exact.kemeny.outer_calls"] += 1
    tracer.counts["rules_exact.kemeny.subset_states"] += 1 << p.m
    if id(p) not in tracer.op_profiles:
        tracer.op_profiles[id(p)] = p  # held until the op ends, so ids stay unique
        tracer.counts["rules_exact.kemeny.profiles"] += 1


def _count_greedy(tracer, args, kwargs, result):
    tracer.counts["greedy_dodgson.greedy_dodgson.definite"] += result.is_definite


def _count_sample_profile(tracer, args, kwargs, result):
    tracer.counts["models.sample_profile.ballots"] += result.n


def _count_run_experiment(tracer, args, kwargs, result):
    tracer.counts["experiments.trials"] += args[0].trials


def _count_write_report(tracer, args, kwargs, result):
    tracer.counts["experiments.write_report.bytes"] += sum(
        os.path.getsize(path) for path in result.values()
    )


# (span name, module, attribute, counter). Several attributes may share one
# span name; the three Kemeny entry points form one group.
TRACED = [
    ("core.Profile", "votelab.core", "Profile.__post_init__", _count_profile),
    ("core.wmg", "votelab.core", "wmg", _count_wmg),
    ("core.deficit", "votelab.core", "deficit", None),
    ("reductions.x3c_to_dodgson", "votelab.reductions", "x3c_to_dodgson", None),
    ("reductions.x3c_bruteforce", "votelab.reductions", "x3c_bruteforce", None),
    ("reductions.mcgarvey_profile", "votelab.reductions", "mcgarvey_profile", None),
    ("reductions.efas_via_kemeny", "votelab.reductions", "efas_via_kemeny", None),
    ("reductions.x3c_via_dodgson", "votelab.reductions", "x3c_via_dodgson", None),
    ("rules_exact.dodgson_score_within", "votelab.rules_exact", "dodgson_score_within", None),
    (KEMENY, "votelab.rules_exact", "kemeny_best", _count_kemeny),
    (KEMENY, "votelab.rules_exact", "kemeny_score_of_alternative", _count_kemeny),
    (KEMENY, "votelab.rules_exact", "kemeny_decision", _count_kemeny),
    ("rules_exact.monroe_score", "votelab.rules_exact", "monroe_score", None),
    ("rules_exact.committee_decision", "votelab.rules_exact", "committee_decision", None),
    ("rules_exact.cc_score", "votelab.rules_exact", "cc_score", None),
    ("rules_exact.young_score_exact", "votelab.rules_exact", "young_score_exact", None),
    ("greedy_dodgson.greedy_dodgson", "votelab.greedy_dodgson", "greedy_dodgson", _count_greedy),
    ("greedy_dodgson.immediately_above_count", "votelab.greedy_dodgson", "immediately_above_count", None),
    ("models.sample_profile", "votelab.models", "sample_profile", _count_sample_profile),
    ("models.sample", "votelab.models", "sample", None),
    ("experiments.run_experiment", "votelab.experiments", "run_experiment", _count_run_experiment),
    ("experiments.write_report", "votelab.experiments", "write_report", _count_write_report),
]

LAYERS = list(dict.fromkeys(span for span, _, _, _ in TRACED))

# Work counts and ratios besides calls / self_s / errors, with their units
# and which direction is better.
EXTRA_METRICS = {
    "core.Profile.ballots": ("count", "lower"),
    "core.wmg.pair_updates": ("count", "lower"),
    "rules_exact.kemeny.subset_states": ("count", "lower"),
    "rules_exact.kemeny.calls_per_profile": ("calls/profile", "lower"),
    "greedy_dodgson.definite_ratio": ("ratio", "higher"),
    "models.sample_profile.ballots": ("count", "lower"),
    "experiments.trials": ("count", "lower"),
    "experiments.write_report.bytes": ("bytes", "lower"),
    "bench.op.self_s": ("s", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.traced_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer in LAYERS:
        specs += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.errors", "count", "lower"),
        ]
    specs += [(name, unit, better) for name, (unit, better) in EXTRA_METRICS.items()]
    return specs


class Tracer:
    """Keeps spans in memory as (span id, name, start, end, parent span, op id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.stack: list[list] = []  # [name, start, child time, span id]
        self.next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: Optional[int] = None
        self.op_profiles: dict[int, Any] = {}
        self.op_total_s = 0.0
        self.ops = 0
        self._restore: list[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0, self.next_id])
        self.next_id += 1

    def _exit(self, error: bool) -> float:
        end = time.perf_counter()
        name, start, child, span_id = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        self.errors[name] += error
        parent = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        self.spans.append((span_id, name, start, end, parent, self.op_id))
        return duration

    def begin_op(self) -> None:
        self.op_id = self.ops
        self._enter(ROOT_SPAN)

    def end_op(self, error: bool = False) -> None:
        self.op_total_s += self._exit(error)
        self.ops += 1
        self.op_id = None
        self.op_profiles.clear()

    def _wrap(self, span: str, fn: Callable, count: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(True)
                raise
            tracer._exit(False)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of a traced function inside ``votelab``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [
            module
            for name, module in sorted(sys.modules.items())
            if (name == "votelab" or name.startswith("votelab.")) and module is not None
        ]
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for span, module_name, attribute, count in TRACED:
            owner = sys.modules[module_name]
            if "." in attribute:  # a method: patch it on its class
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[method]
                setattr(cls, method, self._wrap(span, fn, count))
                self._restore.append(lambda cls=cls, method=method, fn=fn: setattr(cls, method, fn))
                continue
            fn = getattr(owner, attribute)
            wrappers[id(fn)] = (fn, self._wrap(span, fn, count))

        def replacement(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for module in package:
            for key, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    self._patch_defaults(value, replacement)
                wrapper = replacement(value)
                if wrapper is not None:
                    setattr(module, key, wrapper)
                    self._restore.append(
                        lambda module=module, key=key, value=value: setattr(module, key, value)
                    )

    def _patch_defaults(self, fn: types.FunctionType, replacement) -> None:
        defaults = fn.__defaults__
        if defaults and any(replacement(d) is not None for d in defaults):
            fn.__defaults__ = tuple(replacement(d) or d for d in defaults)
            self._restore.append(lambda: setattr(fn, "__defaults__", defaults))
        kwdefaults = fn.__kwdefaults__
        if kwdefaults and any(replacement(d) is not None for d in kwdefaults.values()):
            fn.__kwdefaults__ = {k: replacement(d) or d for k, d in kwdefaults.items()}
            self._restore.append(lambda: setattr(fn, "__kwdefaults__", kwdefaults))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Per-layer metrics at reference speed.

        ``untraced_s`` and ``traced_s`` are the op time of the same ops with
        and without the tracer, at reference speed; self times are scaled
        by the same factor as the traced op time, so they add up to it.
        """
        scale = traced_s / self.op_total_s if self.op_total_s else 1.0
        values: dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = self.calls[layer]
            values[f"{layer}.self_s"] = self.self_s[layer] * scale
            values[f"{layer}.errors"] = self.errors[layer]
        counts = self.counts
        for name in (
            "core.Profile.ballots",
            "core.wmg.pair_updates",
            "rules_exact.kemeny.subset_states",
            "models.sample_profile.ballots",
            "experiments.trials",
            "experiments.write_report.bytes",
        ):
            values[name] = counts[name]
        profiles = counts["rules_exact.kemeny.profiles"]
        values["rules_exact.kemeny.calls_per_profile"] = (
            counts["rules_exact.kemeny.outer_calls"] / profiles if profiles else 0.0
        )
        greedy = self.calls["greedy_dodgson.greedy_dodgson"]
        values["greedy_dodgson.definite_ratio"] = (
            counts["greedy_dodgson.greedy_dodgson.definite"] / greedy if greedy else 0.0
        )
        values["bench.op.self_s"] = self.self_s[ROOT_SPAN] * scale
        values["trace.ops"] = self.ops
        values["trace.traced_s"] = traced_s
        values["trace.untraced_s"] = untraced_s
        values["trace.overhead_s"] = traced_s - untraced_s
        return values

    def self_time_gap(self) -> float:
        """Relative gap between summed self times and the traced op time."""
        total = math.fsum(self.self_s.values())
        return abs(total - self.op_total_s) / self.op_total_s if self.op_total_s else 0.0

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with gzip.open(path, "wt") as out:
            out.write("span\tname\tstart\tend\tparent\top\n")
            for span_id, name, start, end, parent, op in self.spans:
                out.write(f"{span_id}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")
