import dataclasses
import hashlib
import importlib.metadata
import itertools
import json
import re
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
    efas_bruteforce,
)
from votelab.cli import main
from votelab.experiments import ExperimentConfig
from votelab import io as vio
from votelab import rules_exact
from conftest import DODGSON_M8_BALLOTS, random_profile, report_digest, run_python

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


def cli_exit(capsys, argv):
    """(exit code, stdout, stderr) of ``main``, counting argparse's own exit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_rejected(capsys, argv, flag):
    """Exit 1 before any output, with an ``error:`` line naming ``flag``."""
    code, out, err = cli_exit(capsys, argv)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and flag in last
    return last


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
    (vio.read_profile, "3 x\n", "profile header must be two integers, got '3 x'"),
    (vio.read_weighted_profile, "", "empty profile file"),
    (vio.read_weighted_profile, "3\n", "weighted profile header must be two integers, got '3'"),
    (vio.read_weighted_profile, "3 2\n1 0 1 2\n", "expected 2 entries, found 1"),
    (
        vio.read_weighted_profile,
        "3 1\n1 0 1\n",
        "entry '1 0 1' must be a weight plus 3 alternatives",
    ),
    (vio.read_weighted_profile, "3 x\n", "weighted profile header must be two integers, got '3 x'"),
    (vio.read_digraph, "", "empty digraph file"),
    (vio.read_digraph, "3\n", "digraph header must be two integers, got '3'"),
    (vio.read_digraph, "3 2\n0 1\n", "expected 2 arcs, found 1"),
    (vio.read_digraph, "3 1\n0 1 2\n", "arc line '0 1 2' must be 'u v'"),
    (vio.read_digraph, "3 x\n", "digraph header must be two integers, got '3 x'"),
    (vio.read_x3c, "", "empty instance file"),
    (vio.read_x3c, "3\n", "exact-cover instance header must be two integers, got '3'"),
    (vio.read_x3c, "3 2\n0 1 2\n", "expected 2 subsets, found 1"),
    (vio.read_x3c, "3 1\n0 1\n", "subset line '0 1' must list 3 elements"),
    (vio.read_x3c, "3 x\n", "exact-cover instance header must be two integers, got '3 x'"),
]


@pytest.mark.parametrize(
    "reader, text, message",
    MALFORMED,
    ids=[
        f"{reader.__name__}-{case}"
        for reader in (vio.read_profile, vio.read_weighted_profile, vio.read_digraph, vio.read_x3c)
        for case in ("empty", "header", "row_count", "row_width", "header_token")
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

    @pytest.mark.parametrize("threshold, decision", [("4", "yes"), ("3", "no")])
    def test_dodgson_with_threshold(self, capsys, unanimous, threshold, decision):
        # Alternative 2 is last on all three ballots: two swaps on each of two.
        code, result = run_cli(
            capsys, "score", "dodgson", "--profile", unanimous, "--alt", "2",
            "--threshold", threshold,
        )
        assert code == 0
        assert result == {"score": 4, "decision": decision}
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

    @pytest.mark.parametrize(
        "threshold, stdout",
        [
            ("696", '{"decision": "no", "min_score": 697, '
                    '"ranking": [11, 6, 1, 8, 9, 0, 7, 4, 3, 10, 5, 2], "score": 721}\n'),
            ("697", '{"decision": "yes", "min_score": 697, '
                    '"ranking": [11, 6, 1, 8, 9, 0, 7, 4, 3, 10, 5, 2], "score": 721}\n'),
        ],
        ids=["no", "yes"],
    )
    def test_kemeny_on_a_split_profile_pinned(self, capsys, tmp_path, threshold, stdout):
        # Frozen output, written when one 2^12 table solved the whole profile.
        # Its majority graph splits into components of 1, 1, 6 and 4
        # alternatives, with alternative 0 in the third.
        p = random_profile(np.random.default_rng(20261039), 12, 25)
        parts = rules_exact._kemeny_block_table(p).parts
        assert [len(members) for members, _, _ in parts] == [1, 1, 6, 4] and 0 in parts[2][0]
        path = tmp_path / "split.profile"
        vio.write_profile(p, path)
        argv = ["score", "kemeny", "--profile", str(path), "--alt", "0", "--threshold", threshold]
        assert cli_exit(capsys, argv) == (0, stdout, "")

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
        argv = ["score", rule, "--profile", unanimous, "--committee", "0,2,0"]
        assert "member 0 more than once" in assert_rejected(capsys, argv, "--committee")

    @pytest.mark.parametrize("rule", ["cc", "monroe"])
    @pytest.mark.parametrize("committee", ["", "0,x", "0,,1"])
    def test_committee_member_not_an_integer_rejected(self, capsys, unanimous, rule, committee):
        argv = ["score", rule, "--profile", unanimous, "--committee", committee]
        assert repr(committee) in assert_rejected(capsys, argv, "--committee")


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

    def test_key_error_is_a_bug_not_input(self, monkeypatch, unanimous):
        # No reader raises KeyError on malformed input, so main does not map it to exit 1.
        def broken(path):
            raise KeyError("not an input error")

        monkeypatch.setattr(votelab.cli.vio, "read_profile", broken)
        with pytest.raises(KeyError):
            main(["score", "dodgson", "--profile", unanimous, "--alt", "0"])

    @pytest.mark.parametrize(
        "header, argv",
        [
            ("profile", ["score", "dodgson", "--alt", "0", "--profile"]),
            ("weighted profile", [
                "sample", "--model", '{"model": "alpha_ic", "alpha": "1/2"}', "--out", "out",
                "--seed", "1", "--params",
            ]),
            ("digraph", ["reduce", "mcgarvey", "--out", "out", "--input"]),
            ("exact-cover instance", ["reduce", "x3c-dodgson", "--out-prefix", "out", "--input"]),
        ],
        ids=["profile", "weighted_profile", "digraph", "x3c"],
    )
    def test_negative_header_count_is_a_header_error(self, capsys, tmp_path, monkeypatch, header, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.txt").write_text("3 -1\n")
        last = assert_rejected(capsys, [*argv, "bad.txt"], "header")
        assert last == f"error: {header} header must give a non-negative count, got '3 -1'"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.txt"]

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
        argv = ["score", *argv, "--profile", unanimous, "--budget", "10"]
        assert_rejected(capsys, argv, "--budget")

    @pytest.mark.parametrize("rule", ["cc", "monroe"])
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--k", "2", "--threshold", "0"], "--k"),
            (["--k", "2"], "--k"),
            (["--threshold", "0"], "--threshold"),
        ],
        ids=["k_and_threshold", "k", "threshold"],
    )
    def test_committee_with_decision_flags_is_input_error(
        self, capsys, unanimous, rule, flags, named
    ):
        argv = ["score", rule, "--profile", unanimous, "--committee", "0", *flags]
        assert_rejected(capsys, argv, named)

    @pytest.mark.parametrize("rule", ["cc", "monroe"])
    @pytest.mark.parametrize(
        "flags, named",
        [([], "--committee"), (["--k", "2"], "--threshold"), (["--threshold", "0"], "--k")],
        ids=["neither", "k", "threshold"],
    )
    def test_committee_or_decision_flags_missing_is_input_error(
        self, capsys, unanimous, rule, flags, named
    ):
        assert_rejected(capsys, ["score", rule, "--profile", unanimous, *flags], named)

    @pytest.mark.parametrize(
        "argv, named",
        [
            *(
                ([rule, *alt, *flag], flag[0])
                for rule, alt in (
                    ("dodgson", ["--alt", "0"]),
                    ("young", ["--alt", "0"]),
                    ("kemeny", []),
                    ("greedy-dodgson", ["--alt", "0"]),
                )
                for flag in (
                    ["--k", "2"],
                    ["--committee", "0"],
                    ["--aggregator", "min"],
                    ["--aggregator", "sum"],
                )
            ),
            (["cc", "--committee", "0", "--alt", "9"], "--alt"),
            (["monroe", "--committee", "0", "--alt", "0"], "--alt"),
            (["cc", "--k", "1", "--threshold", "0", "--alt", "0"], "--alt"),
            (["monroe", "--k", "1", "--threshold", "0", "--alt", "0"], "--alt"),
            (["dodgson", "--alt", "0", "--aggregator", "min", "--k", "3"], "--k"),
        ],
        ids=lambda value: "_".join(value) if isinstance(value, list) else value,
    )
    def test_flag_the_rule_never_reads_is_input_error(self, capsys, unanimous, argv, named):
        assert_rejected(capsys, ["score", *argv, "--profile", unanimous], named)

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
        argv = ["score", "kemeny", "--profile", unanimous, "--budget", "-1"]
        assert "nonnegative" in assert_rejected(capsys, argv, "--budget")

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

    def test_failed_allocation_names_itself(self, capsys, tmp_path):
        # 2**62 padded alternatives fail to allocate at once, with an empty MemoryError.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**TOP_CONFIG, "pad": 2**62}))
        argv = ["experiment", "--config", str(config), "--out-dir", str(tmp_path)]
        assert assert_rejected(capsys, argv, "MemoryError") == "error: MemoryError"

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


# The flags each score rule and reduce construction reads: its --help lists
# exactly these, and argparse rejects every other flag.
READ_FLAGS = {
    **dict.fromkeys(
        ["score dodgson", "score young", "score kemeny"],
        "--profile --alt --threshold --budget --pretty",
    ),
    "score greedy-dodgson": "--profile --alt --threshold --pretty",
    **dict.fromkeys(
        ["score cc", "score monroe"],
        "--profile --committee --k --aggregator --threshold --budget --pretty",
    ),
    "reduce x3c-dodgson": "--input --out-prefix --pretty",
    "reduce mcgarvey": "--input --out --pretty",
    "reduce efas-check": "--input --threshold --no-strict --pretty",
}
SWITCHES = {"--pretty", "--no-strict"}
ALL_FLAGS = sorted({flag for flags in READ_FLAGS.values() for flag in flags.split()})
ST_INT_TEXT = (st.integers(-1, 6) | st.integers(-(2**70), 2**70)).map(str)
ST_FLAG_VALUE = {
    "--profile": st.just("input"),
    "--input": st.just("input"),
    "--out": st.just("out"),
    "--out-prefix": st.just("out"),
    "--committee": st.lists(st.integers(-1, 6), max_size=4).map(
        lambda members: ",".join(map(str, members))
    ),
    "--aggregator": st.sampled_from(["sum", "min"]),
}
ST_ANY_VALUE = st.one_of(
    ST_INT_TEXT, *ST_FLAG_VALUE.values(), st.sampled_from(["missing", "", "x", "1/2"])
)
ST_ANY_TABLE = st.one_of(ST_PROFILE, ST_DIGRAPH, ST_X3C, READER_TEXT)


@pytest.mark.parametrize(
    "command, flags", READ_FLAGS.items(), ids=[command.replace(" ", "_") for command in READ_FLAGS]
)
def test_help_lists_exactly_the_flags_read(capsys, command, flags):
    code, out, err = cli_exit(capsys, [*command.split(), "--help"])
    assert (code, err) == (0, "")
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", *flags.split()}


@settings(
    max_examples=500,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_score_and_reduce_exit_with_a_documented_code(capsys, tmp_path, monkeypatch, data):
    # The flags the command needs, each other flag of its own or not, all with
    # a value of their type, then up to two flags of any command with any
    # value; the input table is of the command's kind or any other, valid or
    # broken.
    monkeypatch.chdir(tmp_path)
    command = data.draw(st.sampled_from(list(READ_FLAGS)))
    verb, name = command.split()
    kind = ST_PROFILE if verb == "score" else ST_X3C if name == "x3c-dodgson" else ST_DIGRAPH
    table = data.draw(kind | ST_ANY_TABLE)
    if isinstance(table, str):
        Path("input").write_text(table)
    else:
        writer = {Profile: vio.write_profile, Digraph: vio.write_digraph}
        writer.get(type(table), vio.write_x3c)(table, "input")
    argv = [verb, name]
    needed = {"--profile", "--input", "--out", "--out-prefix"}
    if name != "kemeny":
        needed.add("--alt")
    if name == "efas-check":
        needed.add("--threshold")
    flags = [
        (flag, data.draw(ST_FLAG_VALUE.get(flag, ST_INT_TEXT)))
        for flag in READ_FLAGS[command].split()
        if flag in needed or data.draw(st.booleans())
    ]
    flags += data.draw(st.lists(st.tuples(st.sampled_from(ALL_FLAGS), ST_ANY_VALUE), max_size=2))
    for flag, value in flags:
        argv += [flag] if flag in SWITCHES else [flag, value]
    code, _, err = cli_exit(capsys, argv)
    assert code in range(5)
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith("error: ")


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
        assert_rejected(capsys, ["reduce", construction, "--input", "input"], flag)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input"]

    @pytest.mark.parametrize(
        "construction, unread",
        [
            ("mcgarvey", ["--threshold", "5"]),
            ("mcgarvey", ["--no-strict"]),
            ("mcgarvey", ["--out-prefix", "zz"]),
            ("x3c-dodgson", ["--out", "y"]),
            ("x3c-dodgson", ["--threshold", "3"]),
            ("x3c-dodgson", ["--no-strict"]),
            ("efas-check", ["--out", "y"]),
            ("efas-check", ["--out-prefix", "zz"]),
        ],
        ids=lambda value: "_".join(value) if isinstance(value, list) else value,
    )
    def test_flag_the_construction_never_reads_writes_nothing(
        self, capsys, tmp_path, monkeypatch, construction, unread
    ):
        monkeypatch.chdir(tmp_path)
        if construction == "x3c-dodgson":
            vio.write_x3c(X3CInstance.of(3, [[0, 1, 2]]), tmp_path / "input")
        else:
            vio.write_digraph(Digraph.of(3, [(0, 1), (1, 2), (2, 0)]), tmp_path / "input")
        needed = {"x3c-dodgson": ["--out-prefix", "zz"], "mcgarvey": ["--out", "out"]}.get(
            construction, ["--threshold", "1"]
        )
        argv = ["reduce", construction, "--input", "input", *needed, *unread]
        assert_rejected(capsys, argv, unread[0])
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

    def test_efas_check_on_a_non_eulerian_graph_names_no_strict(self, capsys, tmp_path):
        path = tmp_path / "path.digraph"
        vio.write_digraph(Digraph.of(4, [(0, 1), (1, 2), (2, 3)]), path)
        argv = ["reduce", "efas-check", "--input", str(path), "--threshold", "1"]
        assert "not Eulerian" in assert_rejected(capsys, argv, "--no-strict")
        code, result = run_cli(capsys, *argv, "--no-strict")
        assert (code, result) == (0, {"decision": "yes"})

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

    def test_reports_go_to_the_working_directory_by_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(TOP_CONFIG))
        code, result = run_cli(capsys, "experiment", "--config", "cfg.json")
        assert code == 0
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(["cfg.json", result["csv"], result["json"]])

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
            ("trials", 2**32), ("trials", 2**32 + 1), ("m", 2), ("out_dir", "x"),
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

    @pytest.mark.parametrize("alpha", [1, 0, 2, -1, True, 0.5, "2/3"], ids=repr)
    def test_schema_and_cli_agree_on_alpha(self, capsys, tmp_path, alpha):
        # top_preservation takes any model; the uniform-noise claims add a regime floor.
        config = {**TOP_CONFIG, "model": {"model": "alpha_ic", "alpha": alpha}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        schema = load_schema("experiment_config.schema.json")
        assert jsonschema.Draft202012Validator(schema).is_valid(config) == (code != 1)

    def test_malformed_config_is_input_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"claim": "definitely_rate"')
        assert main(["experiment", "--config", str(cfg_path)]) == 1


CONFIG_SCHEMA = load_schema("experiment_config.schema.json")
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
            # Reports go where --out-dir says; a config names no directory.
            ("experiment", {**SMALL_CONFIG, "out_dir": "x"}, "unknown config keys: ['out_dir']"),
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
            # An alpha string is digits over digits, the config schema's pattern.
            (
                "sample",
                {"model": "alpha_ic", "alpha": "0.5"},
                "'alpha' must be a number, got '0.5'",
            ),
            (
                "experiment",
                {**SMALL_CONFIG, "model": {"model": "alpha_ic", "alpha": " 2/3"}},
                "'alpha' must be a number, got ' 2/3'",
            ),
            # The uniform-noise claims read no instance, and every claim needs a seed.
            (
                "experiment",
                {**SMALL_CONFIG, "instance": {"q": 3, "subsets": [[0, 1, 2]]}},
                "this claim reads no exact-cover instance",
            ),
            # Nor do they pad a reduction: only the default pad, in every hash.
            ("experiment", {**SMALL_CONFIG, "pad": 5}, "reads no config field 'pad'"),
            (
                "experiment",
                {key: value for key, value in SMALL_CONFIG.items() if key != "seed"},
                "missing config keys: ['seed']",
            ),
            # The reduction claims read their m and n off the instance, and
            # draw no adversary.
            ("experiment", {**TOP_CONFIG, "m": 7}, "reads no config field 'm'"),
            (
                "experiment",
                {**TOP_CONFIG, "claim": "cover_driver", "n": 10},
                "reads no config field 'n'",
            ),
            (
                "experiment",
                {**TOP_CONFIG, "adversary": "random_profile"},
                "reads no config field 'adversary'",
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
            {**TOP_CONFIG, "m": 7},
            {**TOP_CONFIG, "claim": "cover_driver", "n": 10},
            {**TOP_CONFIG, "adversary": "random_profile"},
        ],
    )
    def test_schema_rejects_stray_model_and_instance_keys(self, tmp_path, config):
        schema = load_schema("experiment_config.schema.json")
        assert not jsonschema.Draft202012Validator(schema).is_valid(config)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1


# One-field mutations of a valid JSON object: one key of it, or of its model or
# instance, deleted, added or set to a value of another JSON type, an extreme
# integer or an enum value. Every accepted mutation runs in milliseconds.
DELETE = object()
ST_MUTATION_VALUE = st.sampled_from([
    DELETE, None, True, -1, 0, 1, 3, 2**63 - 1, 2**63, 2**70, 0.5, "x", "2/3", [], [0, 1, 2],
    {}, {"q": 3}, "definitely_rate", "concentration", "top_preservation", "cover_driver",
    "shared_bottom", "random_profile", "alpha_ic", "partial_alt", "top_break", "m1", "2*m1*n",
])


@st.composite
def one_field_mutations(draw, bases, keys):
    mutated = json.loads(json.dumps(draw(st.sampled_from(bases))))
    path = draw(st.sampled_from([path for path in keys if not path or path[0] in mutated]))
    node = mutated[path[0]] if path else mutated
    key = draw(st.sampled_from(keys[path]))
    value = draw(ST_MUTATION_VALUE)
    if value is DELETE:
        node.pop(key, None)
    else:
        node[key] = value
    return mutated


MODEL_KEYS = ["model", "alpha", "K", "stray"]
CONFIGS = [SMALL_CONFIG, TOP_CONFIG]
ST_CONFIG = one_field_mutations(
    CONFIGS,
    {
        (): [f.name for f in dataclasses.fields(ExperimentConfig)] + ["stray"],
        ("model",): MODEL_KEYS,
        ("instance",): ["q", "subsets", "stray"],
    },
)
SPECS = [
    {"model": "alpha_ic", "alpha": "2/3"}, {"model": "partial_alt", "K": 2},
    {"model": "top_break", "K": 2},
]
ST_SPEC = one_field_mutations(SPECS, {(): MODEL_KEYS})
# A parameter profile that sample can draw from: whole agents per ranking.
ST_AGENTS = st.integers(1, 5).flatmap(
    lambda m: st.lists(
        st.tuples(st.permutations(range(m)), st.integers(1, 4)), min_size=1, max_size=4
    )
).map(WeightedProfile.of)
ST_BROKEN_JSON = st.sampled_from(
    ["", "{", '{"model": ', "null", "NaN", "[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000]
)
# Rules the schema leaves to run time, as they need arithmetic across fields
# or memory: alpha's regime floor and a fraction string's range, a partial_alt
# K against the reduction's width, and the padded alternatives' allocation.
RUN_TIME_RULES = (
    "below the regime floor", "alpha must lie in [0, 1]", "below reduction width",
    "too large to convert", "MemoryError",
)


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(config=ST_CONFIG)
def test_schema_valid_exactly_when_the_cli_accepts(capsys, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = ["experiment", "--config", str(path), "--out-dir", str(tmp_path)]
    code, _, err = cli_exit(capsys, argv)
    valid = jsonschema.Draft202012Validator(CONFIG_SCHEMA).is_valid(config)
    if valid and code == 1:
        assert any(rule in err for rule in RUN_TIME_RULES), err
    else:
        assert valid == (code != 1), err


@pytest.mark.parametrize("command", ["sample", "experiment"])
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_sample_and_experiment_exit_with_a_documented_code(
    capsys, tmp_path, monkeypatch, command, data
):
    # A valid spec or config, one a field away from valid, or broken or deep
    # JSON, inline or in a file that may be missing; for sample, a parameter
    # table valid or broken, an output path or a directory, and a seed at
    # either extreme or none. Valid pieces are drawn more often than broken ones.
    monkeypatch.chdir(tmp_path)
    bases, mutated = (SPECS, ST_SPEC) if command == "sample" else (CONFIGS, ST_CONFIG)
    valid = st.sampled_from(bases)
    text = data.draw(st.one_of(valid, valid, mutated).map(json.dumps) | ST_BROKEN_JSON)
    Path("input.json").write_text(text)
    if command == "experiment":
        config = data.draw(st.sampled_from(["input.json"] * 3 + ["missing.json"]))
        argv = ["experiment", "--config", config, "--out-dir", "out"]
    else:
        table = data.draw(st.one_of(ST_AGENTS, ST_AGENTS, ST_WEIGHTED_PROFILE, READER_TEXT))
        if isinstance(table, str):
            Path("params").write_text(table)
        else:
            vio.write_weighted_profile(table, "params")
        spec = data.draw(st.sampled_from([text, "@input.json", text, "@missing.json"]))
        out = data.draw(st.sampled_from(["out"] * 3 + ["."]))
        argv = ["sample", "--model", spec, "--params", "params", "--out", out]
        if data.draw(st.booleans()):
            argv += ["--seed", data.draw(ST_INT_TEXT)]
    code, _, err = cli_exit(capsys, argv)
    assert code in range(5)
    assert "Traceback" not in err
    lines = err.splitlines()
    if code in (1, 2, 3):
        assert lines[-1].startswith("error: ") and lines[-1] != "error: "
    elif code == 4:
        assert len(lines) == 1 and lines[0].startswith("wall clock: ")


class TestConsoleEntryPoint:
    def test_import_loads_neither_networkx_nor_scipy(self):
        # Keeps CLI start-up cheap and the runtime dependencies at numpy:
        # Monroe scoring needs no graph library, and scipy is a test dependency.
        code = (
            "import sys, votelab.cli; "
            "from votelab import Committee, Profile, monroe_score; "
            "monroe_score(Profile.of([[0, 1, 2]] * 4), Committee.of([0, 1]), None, 'min'); "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'scipy'}))"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "p.profile"
        vio.write_profile(Profile.of([[0, 1, 2]]), path)
        proc = run_python("-m", "votelab.cli", "score", "dodgson", "--profile", path, "--alt", "0")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"score": 0}

    def test_console_script_loads_main(self):
        # The `votelab` command pip installs from [project.scripts] resolves
        # its target the way this entry point's load() does.
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert list(scripts) == ["votelab"]
        entry = importlib.metadata.EntryPoint("votelab", scripts["votelab"], "console_scripts")
        assert entry.load() is main

    def test_package_invocation(self, cycle_graph):
        proc = run_python("-m", "votelab", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: votelab")
        proc = run_python(
            "-m", "votelab", "reduce", "efas-check", "--input", cycle_graph, "--threshold", "1"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"decision": "yes"}


def test_monroe_on_100000_ballots(tmp_path):
    # At most 720 distinct rankings: the assignment places each distinct
    # satisfaction vector with its count, so the ballots score in well under
    # the timeout.
    ballots = np.random.default_rng(20261019).permuted(np.tile(np.arange(6), (100_000, 1)), axis=1)
    lines = ["6 100000", *(" ".join(map(str, row)) for row in ballots.tolist())]
    path = tmp_path / "monroe.profile"
    path.write_text("\n".join(lines) + "\n")
    for extra, expected in (([], '{"score": -175299}'), (["--aggregator", "min"], '{"score": -4}')):
        proc = run_python(
            "-m", "votelab", "score", "monroe", "--profile", path, "--committee", "0,2,4", *extra
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip("\n") == expected


def test_dodgson_on_39_uniform_ballots_over_8_alternatives(tmp_path):
    # The DP stops at its first completion that meets the root bound; run to
    # its last copy, this query passes the default budget and exits 2. The
    # decision is yes at the score and no one below it.
    path = tmp_path / "dodgson.profile"
    vio.write_ballots(DODGSON_M8_BALLOTS, path)
    for extra, expected in (
        ([], '{"score": 34}'),
        (["--threshold", "34"], '{"decision": "yes", "score": 34}'),
        (["--threshold", "33"], '{"decision": "no", "score": 34}'),
    ):
        proc = run_python(
            "-m", "votelab", "score", "dodgson", "--profile", path, "--alt", "1", *extra
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip("\n") == expected


def test_feedback_arcs_on_the_circulant_digraph_over_8_vertices(tmp_path):
    # Arcs u -> u+1, u+2, u+3 (mod 8): an Eulerian digraph whose least
    # feedback arc set has 6 arcs. One below that, the Kemeny decision packs
    # all 112 directed 3-cycles and 420 4-cycles of m=8 before its table
    # answers no.
    g = Digraph.of(8, [(u, (u + k) % 8) for u in range(8) for k in (1, 2, 3)])
    least = next(t for t in range(g.edge_count + 1) if efas_bruteforce(g, t))
    assert least == 6
    path = tmp_path / "efas8.digraph"
    vio.write_digraph(g, path)
    for threshold, expected in ((least, '{"decision": "yes"}'), (least - 1, '{"decision": "no"}')):
        proc = run_python(
            "-m", "votelab", "reduce", "efas-check", "--input", path, "--threshold", threshold
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip("\n") == expected


# The config text as written for the cover driver at pad 4: one Dodgson
# query on the reduction profile decides every matched draw of the run.
COVER_PAD4_CONFIG = """\
{"claim": "cover_driver", "trials": 1000, "seed": 20261018, "pad": 4,
       "instance": {"q": 6, "subsets": [[0, 1, 2], [2, 3, 4], [0, 4, 5], [1, 3, 5]]},
       "model": {"model": "partial_alt", "K": "m1"}}
"""


def test_cover_driver_at_pad_4(tmp_path):
    jsonschema.Draft202012Validator(load_schema("experiment_config.schema.json")).validate(
        json.loads(COVER_PAD4_CONFIG)
    )
    config = tmp_path / "cover_pad4.json"
    config.write_text(COVER_PAD4_CONFIG)
    out = tmp_path / "cover"
    proc = run_python("-m", "votelab", "experiment", "--config", config, "--out-dir", out)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True
    written = {path.name: path for path in out.iterdir()}
    assert len(written) == 2
    assert report_digest(written) == (
        "d37a7e34cc500178ed286a8176335939d76bafa49f2ca93766994b6c4edf53c5"
    )
