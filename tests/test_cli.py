import hashlib
import itertools
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import votelab
from votelab import (
    Digraph,
    ParameterProfile,
    Profile,
    Ranking,
    TopBreakNoise,
    WeightedProfile,
    X3CInstance,
)
from votelab.cli import main
from votelab.experiments import ExperimentConfig
from votelab import io as vio
from votelab import rules_exact
from conftest import random_profile

SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "votelab" / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


@pytest.fixture
def unanimous(tmp_path):
    path = tmp_path / "una.profile"
    vio.write_profile(Profile.of([[0, 1, 2]] * 3), path)
    return str(path)


@pytest.fixture
def cycle_graph(tmp_path):
    path = tmp_path / "cycle.digraph"
    vio.write_digraph(Digraph.of(3, [(0, 1), (1, 2), (2, 0)]), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


ST_PROFILE = st.integers(1, 5).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=8)
).map(Profile.of)
ST_WEIGHTED_PROFILE = (
    st.integers(1, 5)
    .flatmap(
        lambda m: st.lists(
            st.tuples(st.permutations(range(m)), st.fractions(0, 10, max_denominator=12)),
            min_size=1,
            max_size=6,
        )
    )
    .filter(lambda entries: any(w for _, w in entries))
    .map(WeightedProfile.of)
)
ST_DIGRAPH = st.integers(1, 5).flatmap(
    lambda m: st.sets(st.sampled_from(list(itertools.permutations(range(m), 2))))
    .map(lambda arcs: Digraph.of(m, arcs))
    if m > 1
    else st.just(Digraph.of(1, []))
)
ST_X3C = st.sampled_from([3, 6, 9]).flatmap(
    lambda q: st.lists(
        st.sampled_from(list(itertools.combinations(range(q), 3))),
        min_size=q // 3,
        max_size=8,
        unique=True,
    ).map(lambda subsets: X3CInstance.of(q, subsets))
)


class TestRoundTrips:
    def test_profile(self, tmp_path):
        p = Profile.of([[2, 0, 1], [1, 2, 0]])
        path = tmp_path / "p.profile"
        vio.write_profile(p, path)
        assert vio.read_profile(path) == p

    def test_weighted_profile(self, tmp_path):
        from fractions import Fraction

        p = WeightedProfile(
            ((Ranking.of([0, 1, 2]), Fraction(1, 2)), (Ranking.of([2, 1, 0]), Fraction(3)))
        )
        path = tmp_path / "p.wprofile"
        vio.write_weighted_profile(p, path)
        assert vio.read_weighted_profile(path) == p

    def test_digraph(self, tmp_path):
        g = Digraph.of(4, [(0, 1), (2, 3)])
        path = tmp_path / "g.digraph"
        vio.write_digraph(g, path)
        assert vio.read_digraph(path) == g

    def test_x3c(self, tmp_path):
        inst = X3CInstance.of(6, [[0, 1, 2], [3, 4, 5]])
        path = tmp_path / "i.x3c"
        vio.write_x3c(inst, path)
        assert vio.read_x3c(path) == inst

    def test_ballot_rows_written_line_for_line(self, tmp_path):
        path = tmp_path / "rows.profile"
        vio.write_ballots([[2, 0, 1], [0, 1, 2], [2, 0, 1]], path)
        assert path.read_text() == "3 3\n2 0 1\n0 1 2\n2 0 1\n"
        with pytest.raises(ValueError):
            vio.write_ballots([], path)

    def test_malformed_profile_rejected(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("3 2\n0 1 2\n")
        with pytest.raises(ValueError):
            vio.read_profile(path)

    @pytest.mark.parametrize(
        "write, read, values",
        [
            (vio.write_profile, vio.read_profile, ST_PROFILE),
            (vio.write_weighted_profile, vio.read_weighted_profile, ST_WEIGHTED_PROFILE),
            (vio.write_digraph, vio.read_digraph, ST_DIGRAPH),
            (vio.write_x3c, vio.read_x3c, ST_X3C),
        ],
        ids=["profile", "weighted_profile", "digraph", "x3c"],
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_write_read_write(self, tmp_path, write, read, values, data):
        value = data.draw(values)
        path = tmp_path / "table.txt"
        write(value, path)
        text = path.read_text()
        assert read(path) == value
        # a profile compares as a multiset: equal bytes also pin its grouped order
        write(read(path), path)
        assert path.read_text() == text


MALFORMED = [
    (vio.read_profile, "", "empty profile file"),
    (vio.read_profile, "3\n", "profile header must be two integers, got '3'"),
    (vio.read_profile, "3 2\n0 1 2\n", "expected 2 ballots, found 1"),
    (vio.read_profile, "3 1\n0 1\n", "ballot '0 1' does not list 3 alternatives"),
    (vio.read_weighted_profile, "", "empty profile file"),
    (vio.read_weighted_profile, "3\n", "weighted profile header must be two integers, got '3'"),
    (vio.read_weighted_profile, "3 2\n1 0 1 2\n", "expected 2 entries, found 1"),
    (
        vio.read_weighted_profile,
        "3 1\n1 0 1\n",
        "entry '1 0 1' must be a weight plus 3 alternatives",
    ),
    (vio.read_digraph, "", "empty digraph file"),
    (vio.read_digraph, "3\n", "digraph header must be two integers, got '3'"),
    (vio.read_digraph, "3 2\n0 1\n", "expected 2 arcs, found 1"),
    (vio.read_digraph, "3 1\n0 1 2\n", "arc line '0 1 2' must be 'u v'"),
    (vio.read_x3c, "", "empty instance file"),
    (vio.read_x3c, "3\n", "exact-cover instance header must be two integers, got '3'"),
    (vio.read_x3c, "3 2\n0 1 2\n", "expected 2 subsets, found 1"),
    (vio.read_x3c, "3 1\n0 1\n", "subset line '0 1' must list 3 elements"),
]


@pytest.mark.parametrize(
    "reader, text, message",
    MALFORMED,
    ids=[
        f"{reader.__name__}-{case}"
        for reader in (vio.read_profile, vio.read_weighted_profile, vio.read_digraph, vio.read_x3c)
        for case in ("empty", "header", "row_count", "row_width")
    ],
)
def test_reader_message(tmp_path, reader, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == message


TOKENS = st.sampled_from(["0", "1", "2", "3", "5", "-1", "1/2", "0/1", "1/0", "x", ""])
READER_TEXT = st.builds(
    lambda header, body: "\n".join([" ".join(header)] + [" ".join(line) for line in body]),
    st.lists(TOKENS, max_size=3),
    st.lists(st.lists(TOKENS, max_size=5), max_size=5),
)


class TestReaderFuzz:
    @pytest.mark.parametrize(
        "reader",
        [vio.read_profile, vio.read_weighted_profile, vio.read_digraph, vio.read_x3c],
        ids=lambda reader: reader.__name__,
    )
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=READER_TEXT)
    @example(text="3 1\n1/0 0 1 2")
    def test_parses_or_raises_value_error(self, tmp_path, reader, text):
        path = tmp_path / "fuzz.txt"
        path.write_text(text)
        try:
            reader(path)
        except ValueError:
            pass


class TestScoreCommand:
    def test_dodgson_unanimous(self, capsys, unanimous):
        code, result = run_cli(capsys, "score", "dodgson", "--profile", unanimous, "--alt", "0")
        assert code == 0
        assert result == {"score": 0}
        jsonschema.validate(result, load_schema("score_result.schema.json"))

    def test_kemeny_with_threshold(self, capsys, unanimous):
        code, result = run_cli(
            capsys, "score", "kemeny", "--profile", unanimous, "--threshold", "4"
        )
        assert code == 0
        assert result["decision"] == "yes"
        assert result["min_score"] == 0
        jsonschema.validate(result, load_schema("score_result.schema.json"))

    @pytest.mark.parametrize("alt, code, tables", [("99", 1, 0), ("0", 0, 1)])
    def test_kemeny_alt_checked_before_one_dp(self, capsys, monkeypatch, unanimous, alt, code, tables):
        built = []
        build = rules_exact._kemeny_block_table
        monkeypatch.setattr(
            rules_exact, "_kemeny_block_table", lambda *args: built.append(1) or build(*args)
        )
        assert main(["score", "kemeny", "--profile", unanimous, "--alt", alt]) == code
        assert len(built) == tables

    def test_greedy_maybe_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "maybe.profile"
        vio.write_profile(Profile.of([[1, 2, 0], [1, 2, 0], [0, 1, 2]]), path)
        code, result = run_cli(
            capsys, "score", "greedy-dodgson", "--profile", str(path),
            "--alt", "0", "--threshold", "1",
        )
        assert code == 0
        assert result["certainty"] == "maybe"
        assert result["decision"] == "failure"
        jsonschema.validate(result, load_schema("score_result.schema.json"))

    def test_young_and_committees(self, capsys, unanimous):
        code, result = run_cli(capsys, "score", "young", "--profile", unanimous, "--alt", "0")
        assert (code, result["score"]) == (0, 3)
        code, result = run_cli(
            capsys, "score", "cc", "--profile", unanimous, "--committee", "0,1"
        )
        assert code == 0 and result["score"] == -3
        code, result = run_cli(
            capsys, "score", "monroe", "--profile", unanimous, "--k", "1",
            "--threshold", "-3",
        )
        assert code == 0 and result["decision"] == "yes"

    @pytest.mark.parametrize("rule", ["cc", "monroe"])
    def test_committee_naming_a_member_twice_rejected(self, capsys, unanimous, rule):
        code = main(["score", rule, "--profile", unanimous, "--committee", "0,2,0"])
        assert code == 1
        assert "member 0 more than once" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "kemeny", "--profile", "{profile}", "--threshold", "4"],
        ["reduce", "mcgarvey", "--input", "{digraph}", "--out", "{out}"],
    ],
    ids=["score_kemeny", "reduce_mcgarvey"],
)
def test_pretty_mirrors_stdout_as_aligned_rows(capsys, unanimous, cycle_graph, tmp_path, argv):
    argv = [arg.format(profile=unanimous, digraph=cycle_graph, out=tmp_path / "o") for arg in argv]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--pretty"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    result = json.loads(plain)
    width = max(len(key) for key in result)
    assert captured.err.splitlines() == [
        f"{key.ljust(width)}  {result[key]}" for key in sorted(result)
    ]


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["score", "dodgson", "--profile", "/nonexistent", "--alt", "0"]) == 1

    def test_budget_exceeded(self, capsys, tmp_path):
        path = tmp_path / "wide.profile"
        vio.write_profile(Profile.of([tuple(range(5))]), path)
        code = main(["score", "kemeny", "--profile", str(path), "--budget", "4"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["kemeny"],
            ["dodgson", "--alt", "2"],
            ["young", "--alt", "0"],
            ["cc", "--k", "1", "--threshold", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_zero_budget_allows_no_work(self, capsys, unanimous, argv):
        code = main(["score", *argv, "--profile", unanimous, "--budget", "0"])
        assert code == 2
        assert "exceeded its budget of 0 " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["greedy-dodgson", "--alt", "2"],
            ["cc", "--committee", "0"],
            ["monroe", "--committee", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_budget_without_a_search_is_input_error(self, capsys, unanimous, argv):
        code = main(["score", *argv, "--profile", unanimous, "--budget", "10"])
        assert code == 1
        assert "--budget caps a search, and this command runs none" in capsys.readouterr().err

    def test_shared_bottom_enumeration_capped(self, capsys, tmp_path, monkeypatch):
        # shared_bottom enumerates all m! rankings (362,880 at m=9); the cap
        # in models.all_rankings applies before the ranking space is built.
        enumerated = []
        monkeypatch.setattr(
            votelab.models, "itertools", types.SimpleNamespace(permutations=enumerated.append)
        )
        config = {**SMALL_CONFIG, "m": 9, "model": {"model": "alpha_ic", "alpha": "8/9"}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        assert "limited to m<=8" in capsys.readouterr().err
        assert enumerated == []

    def test_young_search_deeper_than_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "deep.profile"
        vio.write_profile(random_profile(np.random.default_rng(1), 12, 3000), path)
        argv = ["score", "young", "--profile", str(path), "--alt", "0", "--budget", "5000"]
        assert main(argv) == 2
        assert "young search exceeded its budget of 5000 " in capsys.readouterr().err

    def test_negative_budget_is_input_error(self, capsys, unanimous):
        code = main(["score", "kemeny", "--profile", unanimous, "--budget", "-1"])
        assert code == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_construction_error(self, capsys, tmp_path):
        path = tmp_path / "twocycle.digraph"
        vio.write_digraph(Digraph.of(3, [(0, 1), (1, 0)]), path)
        code = main(["reduce", "mcgarvey", "--input", str(path), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_verdict_failure(self, capsys, tmp_path):
        # per-agent break probability 1/K = 1: preservation rate 0 < 1/2
        config = {
            "claim": "top_preservation",
            "trials": 20,
            "seed": 1,
            "instance": {"q": 3, "subsets": [[0, 1, 2]]},
            "model": {"model": "top_break", "K": 1},
            "pad": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "mcgarvey", "--input", "{digraph}", "--out", "{out}"],
            ["reduce", "efas-check", "--input", "{digraph}", "--threshold", "0"],
            ["reduce", "efas-check", "--input", "{digraph}", "--threshold", "0", "--no-strict"],
            ["experiment", "--config", "{config}", "--out-dir", "{out}"],
        ],
        ids=["mcgarvey", "efas_check", "efas_check_no_strict", "experiment_pad"],
    )
    def test_integer_past_the_index_type_is_input_error(self, capsys, tmp_path, argv):
        # 10**20 >= 2**63 fails converting to an index, before any allocation.
        digraph = tmp_path / "huge.digraph"
        digraph.write_text(f"{10**20} 0\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TOP_CONFIG, "claim": "cover_driver", "pad": 10**20}))
        paths = dict(digraph=digraph, config=config, out=tmp_path / "out")
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_flag_rejected_as_input_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score", "dodgson", "--bogus", "1"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["experiment", "sample"])
    def test_json_nested_past_the_recursion_limit_is_input_error(self, capsys, tmp_path, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        if command == "sample":
            params = tmp_path / "p.profile"
            vio.write_weighted_profile(WeightedProfile(((Ranking.of([0, 1, 2]), Fraction(1)),)), params)
            argv = ["sample", "--model", f"@{deep}", "--params", str(params), "--out", str(tmp_path / "o")]
        else:
            argv = ["experiment", "--config", str(deep)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: JSON nested too deeply") and err.count("\n") == 1


class TestSampleCommand:
    def _params(self, tmp_path):
        path = tmp_path / "params.wprofile"
        from fractions import Fraction

        wp = WeightedProfile(
            ((Ranking.of([0, 1, 2]), Fraction(2)), (Ranking.of([2, 1, 0]), Fraction(1)))
        )
        vio.write_weighted_profile(wp, path)
        return str(path)

    def test_point_mass_reproduces_parameters(self, capsys, tmp_path):
        params = self._params(tmp_path)
        out = tmp_path / "sampled.profile"
        code, result = run_cli(
            capsys, "sample", "--model", '{"model": "alpha_ic", "alpha": "0"}',
            "--params", params, "--out", str(out), "--seed", "3",
        )
        assert code == 0
        sampled = vio.read_profile(out)
        assert sampled == Profile.of([[0, 1, 2], [0, 1, 2], [2, 1, 0]])
        sidecar = json.loads(Path(result["sidecar"]).read_text())
        assert sidecar["seed"] == 3

    def test_same_seed_identical_files(self, capsys, tmp_path):
        params = self._params(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.profile"
            run_cli(
                capsys, "sample", "--model", '{"model": "partial_alt", "K": 1}',
                "--params", params, "--out", str(out), "--seed", "99",
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_partial_alt_full_width_is_identity(self, capsys, tmp_path):
        params = self._params(tmp_path)
        out = tmp_path / "id.profile"
        code, _ = run_cli(
            capsys, "sample", "--model", '{"model": "partial_alt", "K": 3}',
            "--params", params, "--out", str(out), "--seed", "1",
        )
        assert code == 0
        assert vio.read_profile(out) == Profile.of([[0, 1, 2], [0, 1, 2], [2, 1, 0]])

    def test_top_break_draws_the_model_rows(self, capsys, tmp_path):
        params = self._params(tmp_path)
        out = tmp_path / "broken.profile"
        code, _ = run_cli(
            capsys, "sample", "--model", '{"model": "top_break", "K": 2}',
            "--params", params, "--out", str(out), "--seed", "2",
        )
        assert code == 0
        model = TopBreakNoise(3, 2)
        pp = ParameterProfile(vio.read_weighted_profile(params).entries, model)
        rng = np.random.default_rng(np.random.SeedSequence(2))
        rows = model.sample_orders(pp.agent_orders, rng)
        assert rows.tolist() != pp.agent_orders.tolist()  # some agent's top broke
        expected = tmp_path / "expected.profile"
        vio.write_ballots(rows.tolist(), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_top_break_on_one_alternative_is_input_error(self, capsys, tmp_path):
        params = tmp_path / "single.wprofile"
        params.write_text("1 1\n2/1 0\n")
        code = main([
            "sample", "--model", '{"model": "top_break", "K": 4}', "--params", str(params),
            "--out", str(tmp_path / "sampled.profile"), "--seed", "1",
        ])
        assert code == 1
        assert "top_break needs at least 2 alternatives" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weight, reason",
        [(2**70, "exceeds"), (10**15, "Unable to allocate")],
        ids=["beyond_int64", "beyond_memory"],
    )
    def test_too_many_agents_is_input_error(self, capsys, tmp_path, weight, reason):
        # 10**15 agents of 5 int64 entries is 35.5 PiB, beyond any process's
        # address space, so the allocation fails at once without touching memory.
        params = tmp_path / "huge.wprofile"
        params.write_text(f"5 1\n{weight}/1 0 1 2 3 4\n")
        code = main([
            "sample", "--model", '{"model": "partial_alt", "K": 5}', "--params", str(params),
            "--out", str(tmp_path / "sampled.profile"), "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and reason in err

    @pytest.mark.parametrize(
        "spec, digest",
        [
            ('{"model": "alpha_ic", "alpha": "1/2"}',
             "6a645d034a85750c9502667ff7ef1797018f7c01d37e198c405bb4a083efde5d"),
            ('{"model": "partial_alt", "K": 2}',
             "0e944c585cde559063a241e2922067a955b77d57400c07e7431412e791972a8e"),
            ('{"model": "partial_alt", "K": 5}',
             "b3b179f4212a32c3ccb0ad4ffc0d5c1fc5805af04cac206cb7b3e17263ec0bad"),
        ],
        ids=["alpha_ic", "partial_alt_tail", "partial_alt_full_width"],
    )
    def test_pinned_output_bytes(self, capsys, tmp_path, spec, digest):
        # Frozen output: a sampler rewrite must keep every ballot of a seeded draw.
        params = tmp_path / "params.wprofile"
        vio.write_weighted_profile(
            WeightedProfile(tuple(
                (Ranking.of(order), Fraction(weight))
                for order, weight in [([0, 1, 2, 3, 4], 7), ([4, 2, 0, 3, 1], 5), ([3, 1, 4, 0, 2], 8)]
            )),
            params,
        )
        out = tmp_path / "sampled.profile"
        code, _ = run_cli(
            capsys, "sample", "--model", spec, "--params", str(params),
            "--out", str(out), "--seed", "20260810",
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestReduceCommand:
    def test_x3c_dodgson_writes_artifacts(self, capsys, tmp_path):
        inst_path = tmp_path / "i.x3c"
        vio.write_x3c(X3CInstance.of(3, [[0, 1, 2]]), inst_path)
        prefix = tmp_path / "red"
        code, result = run_cli(
            capsys, "reduce", "x3c-dodgson", "--input", str(inst_path),
            "--out-prefix", str(prefix),
        )
        assert code == 0
        layout = json.loads(Path(result["layout"]).read_text())
        jsonschema.validate(layout, load_schema("reduction_layout.schema.json"))
        assert layout["m1"] == 8
        profile = vio.read_profile(result["profile"])
        assert profile.m == 8

    def test_mcgarvey_empty_graph(self, capsys, tmp_path):
        g_path = tmp_path / "empty.digraph"
        vio.write_digraph(Digraph.of(3, []), g_path)
        out = tmp_path / "mc.profile"
        code, _ = run_cli(capsys, "reduce", "mcgarvey", "--input", str(g_path), "--out", str(out))
        assert code == 0
        from votelab import wmg

        graph = wmg(vio.read_profile(out))
        assert all(graph.margin(a, b) == 0 for a in range(3) for b in range(3))

    @pytest.mark.parametrize(
        "construction, flag",
        [("x3c-dodgson", "--out-prefix"), ("mcgarvey", "--out")],
    )
    def test_missing_output_flag_writes_nothing(
        self, capsys, tmp_path, monkeypatch, construction, flag
    ):
        monkeypatch.chdir(tmp_path)
        if construction == "x3c-dodgson":
            vio.write_x3c(X3CInstance.of(3, [[0, 1, 2]]), tmp_path / "input")
        else:
            vio.write_digraph(Digraph.of(3, [(0, 1), (1, 2), (2, 0)]), tmp_path / "input")
        assert main(["reduce", construction, "--input", "input"]) == 1
        assert capsys.readouterr().err == f"error: {construction} needs {flag}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input"]

    def test_efas_check(self, capsys, cycle_graph):
        code, result = run_cli(
            capsys, "reduce", "efas-check", "--input", cycle_graph, "--threshold", "1"
        )
        assert (code, result) == (0, {"decision": "yes"})
        code, result = run_cli(
            capsys, "reduce", "efas-check", "--input", cycle_graph, "--threshold", "0"
        )
        assert (code, result) == (0, {"decision": "no"})

    def test_efas_check_two_vertices(self, capsys, tmp_path):
        path = tmp_path / "pair.digraph"
        path.write_text("2 0\n")
        code, result = run_cli(
            capsys, "reduce", "efas-check", "--input", str(path), "--threshold", "0"
        )
        assert (code, result) == (0, {"decision": "yes"})


class TestExperimentCommand:
    def test_summary_validates_and_passes(self, capsys, tmp_path):
        config = {
            "claim": "top_preservation",
            "trials": 25,
            "seed": 8,
            "instance": {"q": 3, "subsets": [[0, 1, 2]]},
            "model": {"model": "partial_alt", "K": "m1"},
            "pad": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        jsonschema.validate(config, load_schema("experiment_config.schema.json"))
        code, result = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert result["all_pass"] is True
        summary = json.loads(Path(result["json"]).read_text())
        jsonschema.validate(summary, load_schema("experiment_summary.schema.json"))

    def test_rows_with_varying_columns(self, capsys, tmp_path):
        # Each trial queries the bottom of its own last parameter, so rows
        # name different rivals; absent cells are written empty.
        config = {
            "claim": "concentration",
            "trials": 20,
            "seed": 11,
            "m": 4,
            "n": 200,
            "model": {"model": "alpha_ic", "alpha": "3/4"},
            "adversary": "random_profile",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, result = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)
        )
        assert code == 0
        lines = Path(result["csv"]).read_text().splitlines()
        assert len(lines) == 21
        assert len({len(line.split(",")) for line in lines}) == 1
        assert any("" in line.split(",") for line in lines[1:])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1), ("pad", -1), ("n", 2**63 - 1), ("n", 2**63), ("trials", 0),
            ("trials", 2**32), ("trials", 2**32 + 1), ("m", 2),
        ],
    )
    def test_schema_accepts_exactly_what_the_config_accepts(self, field, value):
        config = {**SMALL_CONFIG, field: value}
        try:
            ExperimentConfig.from_dict(config)
            accepted = True
        except ValueError:
            accepted = False
        schema = load_schema("experiment_config.schema.json")
        assert jsonschema.Draft202012Validator(schema).is_valid(config) == accepted

    def test_malformed_config_is_input_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"claim": "definitely_rate"')
        assert main(["experiment", "--config", str(cfg_path)]) == 1


SMALL_CONFIG = {
    "claim": "definitely_rate", "trials": 5, "seed": 1, "m": 3, "n": 10,
    "model": {"model": "alpha_ic", "alpha": "2/3"},
}
TOP_CONFIG = {
    "claim": "top_preservation", "trials": 5, "seed": 1,
    "instance": {"q": 3, "subsets": [[0, 1, 2]]},
    "model": {"model": "top_break", "K": 2},
}


class TestMalformedJson:
    @pytest.mark.parametrize(
        "command, payload, named",
        [
            ("sample", [1], "[1]"),
            ("sample", "str", "'str'"),
            ("sample", {"model": "alpha_ic", "alpha": None}, "None"),
            ("sample", {"model": "partial_alt", "K": [1]}, "[1]"),
            ("experiment", [], "[]"),
            ("experiment", {**SMALL_CONFIG, "trials": "5"}, "'5'"),
            ("experiment", {**SMALL_CONFIG, "seed": "x"}, "'x'"),
            ("experiment", {**SMALL_CONFIG, "model": []}, "[]"),
            ("experiment", {**TOP_CONFIG, "instance": {"q": [3], "subsets": [[0, 1, 2]]}}, "[3]"),
            (
                "experiment",
                {**TOP_CONFIG, "instance": {"q": 3}},
                "'subsets' must be a list of integer lists, got None",
            ),
            ("experiment", {**TOP_CONFIG, "instance": {"q": 3, "subsets": [[0, 1, "a"]]}}, "'a'"),
            ("experiment", {**TOP_CONFIG, "model": {"model": "top_break", "K": [1]}}, "[1]"),
            ("experiment", {**SMALL_CONFIG, "seed": -5}, "'seed' must be non-negative, got -5"),
            ("experiment", {**SMALL_CONFIG, "n": 2**63}, f"'n' must be at most {2**63 - 1}, got {2**63}"),
            ("experiment", {**SMALL_CONFIG, "n": 10**30}, f"'n' must be at most {2**63 - 1}, got {10**30}"),
            ("experiment", {**TOP_CONFIG, "pad": -1}, "'pad' must be non-negative, got -1"),
            ("sample", {"model": "alpha_ic", "alpha": True}, "'alpha' must be a number, got True"),
            ("sample", {"model": "partial_alt", "K": True}, "'K' must be a number, got True"),
            (
                "experiment",
                {**SMALL_CONFIG, "model": {"model": "alpha_ic", "alpha": True}},
                "'alpha' must be a number, got True",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "model": {"model": "partial_alt", "K": False}},
                "'K' must be a number, got False",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "model": {"model": "top_break", "K": True}},
                "'K' must be a number, got True",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "instance": {"q": True, "subsets": [[0, 1, 2]]}},
                "'q' must be a number, got True",
            ),
            # Floats: int() would truncate them and Fraction() keep their binary expansion.
            ("sample", {"model": "partial_alt", "K": 2.5}, "'K' must not be a float, got 2.5"),
            ("sample", {"model": "alpha_ic", "alpha": 0.1}, "'alpha' must not be a float, got 0.1"),
            (
                "experiment",
                {**SMALL_CONFIG, "model": {"model": "alpha_ic", "alpha": 0.75}},
                "'alpha' must not be a float, got 0.75",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "model": {"model": "top_break", "K": 2.0}},
                "'K' must not be a float, got 2.0",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "instance": {"q": 3.0, "subsets": [[0, 1, 2]]}},
                "'q' must not be a float, got 3.0",
            ),
            # A zero denominator is not a number either.
            (
                "sample",
                {"model": "alpha_ic", "alpha": "1/0"},
                "'alpha' must be a number, got '1/0'",
            ),
            (
                "experiment",
                {**SMALL_CONFIG, "model": {"model": "alpha_ic", "alpha": "1/0"}},
                "'alpha' must be a number, got '1/0'",
            ),
            # Below the regime floor at m=9, a shared_bottom config is input
            # error (exit 1) before it is an over-cap enumeration (exit 2).
            (
                "experiment",
                {**SMALL_CONFIG, "m": 9, "model": {"model": "alpha_ic", "alpha": "1/2"}},
                "below the regime floor",
            ),
            # A key nothing reads would change the config hash, not the rows;
            # an integer parameter is a JSON integer, not a numeric string.
            ("sample", {"model": "top_break", "K": 8, "alpha": "1/2"}, "unknown keys ['alpha']"),
            ("sample", {"model": "partial_alt", "K": "2"}, "'K' must be a number, got '2'"),
            (
                "experiment",
                {**SMALL_CONFIG, "model": {"model": "alpha_ic", "alpha": "2/3", "K": 2}},
                "unknown keys ['K']",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "model": {"model": "top_break", "K": "8"}},
                "'K' must be a number, got '8'",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "model": {"model": "partial_alt", "K": "m1", "alpha": "1/2"}},
                "unknown keys ['alpha']",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "instance": {"q": 3, "subsets": [[0, 1, 2]], "note": "x"}},
                "unknown keys ['note']",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "instance": {"q": "3", "subsets": [[0, 1, 2]]}},
                "'q' must be a number, got '3'",
            ),
        ],
    )
    def test_rejected_as_input_error(self, capsys, tmp_path, command, payload, named):
        text = json.dumps(payload)
        if command == "sample":
            params = tmp_path / "params.wprofile"
            vio.write_weighted_profile(
                WeightedProfile(((Ranking.of([0, 1, 2]), Fraction(1)),)), params
            )
            argv = ["sample", "--model", text, "--params", str(params),
                    "--out", str(tmp_path / "out.profile"), "--seed", "1"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(text)
            argv = ["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err

    @pytest.mark.parametrize(
        "config",
        [
            {**TOP_CONFIG, "model": {"model": "top_break", "K": "8"}},
            {**TOP_CONFIG, "model": {"model": "top_break", "K": 2, "note": "x"}},
            {**TOP_CONFIG, "instance": {"q": 3, "subsets": [[0, 1, 2]], "note": "x"}},
        ],
    )
    def test_schema_rejects_stray_model_and_instance_keys(self, tmp_path, config):
        schema = load_schema("experiment_config.schema.json")
        assert not jsonschema.Draft202012Validator(schema).is_valid(config)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1


class TestConsoleEntryPoint:
    def test_import_loads_neither_networkx_nor_scipy(self):
        # Keeps CLI start-up cheap and the runtime dependencies at numpy:
        # Monroe scoring needs no graph library, and scipy is a test dependency.
        src = Path(votelab.__file__).resolve().parents[1]
        code = (
            "import sys, votelab.cli; "
            "from votelab import Committee, Profile, monroe_score; "
            "monroe_score(Profile.of([[0, 1, 2]] * 4), Committee.of([0, 1]), None, 'min'); "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'scipy'}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "p.profile"
        vio.write_profile(Profile.of([[0, 1, 2]]), path)
        proc = subprocess.run(
            [sys.executable, "-m", "votelab.cli", "score", "dodgson",
             "--profile", str(path), "--alt", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"score": 0}

    def test_package_invocation(self, cycle_graph):
        src = Path(votelab.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "votelab", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: votelab")
        proc = subprocess.run(
            [sys.executable, "-m", "votelab", "reduce", "efas-check",
             "--input", cycle_graph, "--threshold", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"decision": "yes"}
