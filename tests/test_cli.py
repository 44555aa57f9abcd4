"""End-to-end command dispatch, formats, exit codes, and model loading."""

import json
import os
import subprocess
import sys

import pytest

import scan_oracles as oracle
from roughwork import approx, cli, granular, model_io, negation
from roughwork.approx import RoughClass
from roughwork.cera import CeraModel
from roughwork.cli import main
from roughwork.counting import CLOSURE_MODES
from roughwork.crad import CradModel
from roughwork.granular import from_space
from roughwork.model_io import ModelFormatError, default_model_path, load_model, parse_model
from roughwork.prerough import QuotientAlgebra

LITERAL_TAGS = "1_1 2_1 1_2 1_3 2_3 1_4 2_4 3_4 4_4 5_4 6_4 7_4"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_worked_example(capsys):
    code, out, _ = run(capsys, "eval", "abcq (.) [q]")
    assert code == 0
    assert out.strip() == "[q] bounds=(q,q)"


def test_eval_aggregation(capsys):
    code, out, _ = run(capsys, "eval", "bc (+) [bf]")
    assert code == 0
    assert out.strip() == "[abcef] bounds=(abcef,abcef)"


def test_space_listings(capsys):
    code, out, _ = run(capsys, "space", "triples")
    assert code == 0
    assert len(out.strip().splitlines()) == 63

    code, out, _ = run(capsys, "space", "classes")
    assert code == 0
    assert len(out.strip().splitlines()) == 17


def test_space_show_json(capsys):
    code, out, _ = run(capsys, "space", "show", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["universe"] == ["a", "b", "c", "e", "f", "q"]
    assert obj["blocks"] == ["abc", "ef", "q"]


def test_csv_format_has_header(capsys):
    code, out, _ = run(capsys, "space", "classes", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sample,lower,upper,members"
    assert len(lines) == 18


def test_check_suites_all_pass(capsys):
    for suite in ("gos", "admissible", "cera", "prerough", "essential"):
        code, out, _ = run(capsys, "check", suite)
        assert code == 0
        assert "FAIL" not in out


def test_parthood_dispatch(capsys):
    code, out, _ = run(capsys, "parthood", "very-cautious", "ab", "abc")
    assert code == 0
    assert out.strip() == "True"

    code, out, _ = run(capsys, "parthood", "analyze", "lateral")
    assert code == 0
    assert "reflexive  FAIL  abc" in out

    code, _, _ = run(capsys, "parthood", "no-such-kind", "a", "b")
    assert code == 2


def test_crad_operations(capsys):
    code, out, _ = run(capsys, "crad", "plus", "(a,[a])", "(b,[b])")
    assert code == 0
    assert out.strip() == "(ab, [a] bounds=(0,abc))"

    code, _, err = run(capsys, "crad", "plus", "(a,[a])", "([eq],fq)")
    assert code == 1
    assert "(e (+) a) (+) 0 = a (+) c fails" in err

    # both components type-1 but the pair is no element of the carrier
    code, _, err = run(capsys, "crad", "plus", "(a,b)", "(b,[b])")
    assert code == 1
    assert "not in the pair carrier" in err

    code, out, _ = run(capsys, "crad", "pnat", "(a,[a])", "(b,[b])")
    assert code == 0
    assert out.strip() == "True"


def test_negation_subcommands(capsys):
    code, out, _ = run(capsys, "negation", "check")
    assert code == 0
    # the De Morgan twist keeps boundary classes: meet with the
    # complement is not bottom, so N1 fails while N2-N6 hold
    assert "N1  FAIL" in out
    assert "N4  PASS" in out
    assert "N9  FAIL" in out
    assert "index  (0, 2)" in out

    code, out, _ = run(capsys, "negation", "falsify", "n123-not-n9-witness")
    assert code == 0
    assert "0->3, 1->0, 2->0, 3->0" in out

    code, out, _ = run(capsys, "negation", "falsify", "no-index-0-n")
    assert code == 0
    assert "no counterexample" in out

    code, _, _ = run(capsys, "negation", "falsify", "bogus")
    assert code == 2

    code, _, _ = run(capsys, "negation", "falsify", "no-index-0-n", "--cap", "9")
    assert code == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["negation", "--model", "/nonexistent", "check"],
        ["negation", "--cap", "3", "falsify", "no-index-0-n"],
        ["negation", "--format", "json", "check"],
    ],
)
def test_negation_flags_before_the_action_are_refused(capsys, argv):
    """A flag before the action would be overwritten by the action's
    defaults, so it is an argument error, not a silent misread."""
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (2, "")


def test_negation_flags_after_the_action_are_read(capsys):
    assert run(capsys, "negation", "check", "--cap", "3") == (
        4, "", "cap exceeded: quotient of 18 rough classes exceeds the cap 3\n"
    )
    code, out, _ = run(capsys, "negation", "falsify", "no-index-0-n", "--cap", "3")
    assert (code, out) == (0, "no counterexample on lattices with at most 3 elements\n")
    code, out, _ = run(capsys, "negation", "check", "--format", "csv")
    assert code == 0 and out.splitlines()[:2] == ["check,status,witness", "N1,FAIL,[a]"]


def refuse_poset(self, *args):
    raise AssertionError("the quotient order was rebuilt as a BoundedPoset")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_negation_check_reads_the_quotient_tables_without_a_poset(
    capsys, monkeypatch, ten_atom_model, fmt
):
    for model in ([], ["--model", str(ten_atom_model)]):
        argv = ["negation", "check", "--format", fmt, *model]
        got = run(capsys, *argv)
        assert got[0] == 0 and got[1]
        with monkeypatch.context() as m:
            m.setattr(negation.BoundedPoset, "__init__", refuse_poset)
            assert run(capsys, *argv) == got


def test_opposition_subcommands(capsys):
    code, out, _ = run(capsys, "opposition", "classify", "true", "false")
    assert code == 0
    assert out.strip() == "SubContrariety"

    code, out, _ = run(capsys, "opposition", "hexagon", "aef")
    assert code == 0
    assert "node  L  ef" in out
    assert "figure  L/Lc  Contradiction" in out

    # abc is definite, so its boundary B is empty
    code, out, _ = run(capsys, "opposition", "hexagon", "abc")
    assert code == 0
    assert out.splitlines()[-1].split() == ["degenerate", "B"]

    code, out, _ = run(capsys, "opposition", "tables", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    # 6 four-row tables plus 6 two-row tables plus the header
    assert len(lines) == 6 * 4 + 6 * 2 + 1

    code, out, _ = run(capsys, "opposition", "tsr", "T*", "oppose", "oppose")
    assert code == 0
    assert out.strip() == "T* -> T_* -> T"

    code, _, _ = run(capsys, "opposition", "tsr", "nope", "oppose")
    assert code == 2

    code, out, _ = run(capsys, "opposition", "tsr", "T")
    assert (code, out) == (0, "T\n")


OPPOSITION_MISUSE = [
    (("classify",), "classify <tt> <ff>"),
    (("classify", "T"), "classify <tt> <ff>"),
    (("classify", "T", "F", "extra"), "classify <tt> <ff>"),
    (("hexagon",), "hexagon <set>"),
    (("hexagon", "ab", "cd"), "hexagon <set>"),
    (("tables", "junk"), "tables"),
    (("tsr",), "tsr <grade> [<move> ...]"),
]


@pytest.mark.parametrize(
    "args, usage", OPPOSITION_MISUSE, ids=[" ".join(c[0]) for c in OPPOSITION_MISUSE]
)
def test_opposition_actions_take_their_number_of_arguments(capsys, args, usage):
    assert run(capsys, "opposition", *args) == (2, "", f"error: usage: opposition {usage}\n")


def test_count_ipc_defaults_to_worked_sequence(capsys):
    code, out, _ = run(capsys, "count", "ipc")
    assert code == 0
    assert out.strip() == LITERAL_TAGS


def test_closure_and_opposition_choices_are_the_library_lists(capsys):
    for mode in CLOSURE_MODES:
        assert run(capsys, "count", "ipc", "--closure", mode)[0] == 0
    for argv, choices in (
        (["count", "ipc", "--closure", "bogus"], CLOSURE_MODES),
        (["opposition", "bogus"], ("classify", "hexagon", "tables", "tsr")),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        # argparse's quoting differs between Python versions, so only the names are read
        last = err.splitlines()[-1]
        assert "invalid choice" in last
        assert all(choice in last for choice in choices), last


def test_count_ipc_custom_input(capsys):
    code, out, _ = run(
        capsys, "count", "ipc", "--seq", "x,y,z", "--pairs", "x-y",
    )
    assert code == 0
    assert out.strip() == "1_1 1_2 2_2"

    # with no pairs no element is related to its predecessor, so all count in one block
    assert run(capsys, "count", "ipc", "--seq", "x,y,x") == (0, "1_1 2_1 3_1\n", "")
    # w joins the elements, and closing x-w and w-y relates y to x: a new block
    got = run(capsys, "count", "ipc", "--seq", "x,y", "--pairs", "x-w,w-y")
    assert got == (0, "1_1 1_2\n", "")
    # an explicit empty --pairs names no pairs, with or without --seq, never the default pairs
    assert run(capsys, "count", "ipc", "--seq", "x,y,x", "--pairs", "") == (0, "1_1 2_1 3_1\n", "")
    no_pairs = " ".join(f"{i}_1" for i in range(1, 13))
    assert run(capsys, "count", "ipc", "--pairs", "") == (0, no_pairs + "\n", "")


def test_granulation_search(capsys):
    code, out, _ = run(capsys, "granulation", "search")
    assert code == 0
    assert out.strip().splitlines()[-1] == "admissible families: 12"

    code, _, _ = run(capsys, "granulation", "search", "--cap", "10")
    assert code == 4


@pytest.mark.parametrize("bad", ["0", "-1", "x"])
def test_max_granules_is_refused_before_the_model_loads(capsys, bad):
    argv = ("granulation", "search", "--max-granules", bad, "--model", "/nonexistent")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument --max-granules: expected a positive integer, got '{bad}'" in err


CAPPED = [
    # argv, a cap that passes, the largest cap that is exceeded
    (("parthood", "analyze", "natural-crad"), "128", "127"),
    (("negation", "falsify", "no-index-0-n"), "5", None),
    (("granulation", "search"), "2016", "2015"),
]
# the bundled quotient has 18 classes, the empty one included
QUOTIENT_CAPPED = [(("negation", "check"), "18", "17"), (("check", "prerough"), "18", "17")]
# its 6 atoms have 64 subsets; the mixed carrier adds the 18 classes
CARRIER_CAPPED = [
    (("check", "gos"), "64", "63"),
    (("check", "admissible"), "64", "63"),
    (("check", "cera"), "82", "81"),
]


@pytest.mark.parametrize(
    "argv, fits, short",
    CAPPED + QUOTIENT_CAPPED + CARRIER_CAPPED,
    ids=[c[0][0] for c in CAPPED]
    + [" ".join(c[0]) for c in QUOTIENT_CAPPED + CARRIER_CAPPED],
)
def test_cap_is_a_positive_integer_read_as_given(capsys, argv, fits, short):
    for bad in ("0", "-1", "x"):
        code, out, err = run(capsys, *argv, "--cap", bad)
        assert (code, out) == (2, "")
        assert f"expected a positive integer, got '{bad}'" in err
    code, out, _ = run(capsys, *argv, "--cap", fits)
    assert code == 0 and out
    assert run(capsys, *argv) == run(capsys, *argv, "--cap", fits)
    if short is not None:
        code, _, err = run(capsys, *argv, "--cap", short)
        assert code == 4 and "cap exceeded" in err


def test_check_gos_and_cera_stop_at_a_given_cap(capsys):
    assert run(capsys, "check", "gos", "--cap", "1") == (
        4, "", "cap exceeded: power set of 64 subsets exceeds the cap 1\n"
    )
    assert run(capsys, "check", "cera", "--cap", "10") == (
        4, "", "cap exceeded: carrier of size 82 exceeds identity-check cap\n"
    )


def test_falsify_cap_is_the_size_reported(capsys):
    code, out, _ = run(capsys, "negation", "falsify", "n9-implies-n123", "--cap", "3")
    assert code == 0
    assert out.strip() == "no counterexample on lattices with at most 3 elements"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_class_member_counts_print_as_the_member_listing(capsys, monkeypatch, ten_atom_model, fmt):
    for model in ([], ["--model", str(ten_atom_model)]):
        argv = ["space", "classes", "--format", fmt, *model]
        counted = run(capsys, *argv)
        assert counted[0] == 0
        with monkeypatch.context() as m:
            m.setattr(RoughClass, "member_count", lambda c: sum(1 for _ in c.members()))
            assert run(capsys, *argv) == counted


PAIR_QUERIES = [
    ("crad", "plus", "(a,[a])", "(b,[b])"),
    ("crad", "plus", "(a,[a])", "([eq],fq)"),
    ("crad", "times", "(q,[q])", "([abcq],abcq)"),
    ("crad", "times", "(b,[b])", "([b],b)"),
    ("crad", "pnat", "(a,[a])", "([ab],ab)"),
    ("crad", "pnat", "(a,b)", "(b,[b])"),
    ("parthood", "natural-crad", "([ef],ef)", "(abcef,[abcef])"),
    ("parthood", "analyze", "natural-crad"),
]
TEN_ATOM_PAIR_QUERIES = [
    ("crad", "plus", "(ad,[ad])", "(abcdef,[abcdef])"),
    ("crad", "plus", "(ad,[ad])", "([gi],gi)"),
    ("crad", "times", "(adg,[adg])", "(abcgh,[abcgh])"),
    ("crad", "pnat", "([dj],dj)", "(adij,[adij])"),
    ("parthood", "natural-crad", "(abc,[abc])", "([S],S)"),
]


def test_pair_commands_print_as_with_the_carrier_built_whole(capsys, monkeypatch, ten_atom_model):
    cases = [(q, []) for q in PAIR_QUERIES]
    cases += [(q, ["--model", str(ten_atom_model)]) for q in TEN_ATOM_PAIR_QUERIES]
    codes = set()
    for argv, model in cases:
        for fmt in ("text", "json"):
            full = [*argv, "--format", fmt, *model]
            got = run(capsys, *full)
            with monkeypatch.context() as m:
                m.setattr(cli, "CradModel", oracle.MemberSetCrad)
                assert run(capsys, *full) == got, full
            codes.add(got[0])
    assert codes == {0, 1}


def test_exit_codes_for_bad_input(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "bc (+)")
    assert code == 2
    assert "parse error" in err

    code, _, err = run(capsys, "eval", "neg bc")
    assert code == 1

    code, _, _ = run(capsys, "eval", "xz")
    assert code == 2

    code, _, err = run(capsys, "space", "show", "--seed", "1")
    assert code == 2
    assert "unrecognized arguments: --seed" in err

    code, _, _ = run(capsys, "space", "show", "--model", "/no/such/file.json")
    assert code == 3

    # Each was once misread as characters, misrouted to exit 2, or a traceback.
    for fragment, body in (
        ("partition must be a list", {"universe": ["a", "b"], "partition": "ab"}),
        (
            "entry of granules",
            {"universe": ["a"], "partition": [["a"]], "granules": [[]]},
        ),
        (
            "pair of booleans",
            {
                "universe": ["a"],
                "partition": [["a"]],
                "caseSpaces": {"c": {"worlds": ["w"], "valuation": {"p": {"w": 5}}}},
            },
        ),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        code, _, err = run(capsys, "space", "show", "--model", str(path))
        assert code == 3
        assert "model error" in err and fragment in err


EMPTY_TEXT = "error: empty set text; the empty set is written '0'"
ONE_BLOCK = {"universe": ["a", "b"], "partition": [["a", "b"]]}
UPPER = {"0": "0", "a": "ab", "b": "ab", "ab": "ab"}

# (model file body or None for the bundled model, arguments, exit code, stderr)
REFUSED = [
    (
        {"universe": ["a", "a"], "partition": [["a"]]},
        [],
        3,
        "model error: duplicate atom names in ('a', 'a')",
    ),
    (
        {"universe": ["0"], "partition": [["0"]]},
        [],
        3,
        "model error: atom name '0' is empty or reserved",
    ),
    (
        {
            **ONE_BLOCK,
            "lowerTable": {"0": "0", "a": "0", "b": "0", "ab": "abz"},
            "upperTable": UPPER,
        },
        [],
        3,
        "model error: lowerTable entry 'ab': cannot read an atom at position 2 of 'abz'",
    ),
    (
        {
            **ONE_BLOCK,
            "propertySystem": {"objects": ["g", "g"], "properties": ["h"], "manifests": []},
        },
        [],
        3,
        "model error: propertySystem: duplicate atom names in ('g', 'g')",
    ),
    (
        {**ONE_BLOCK, "lowerTable": {"": "0", "a": "0", "b": "0", "ab": "ab"}, "upperTable": UPPER},
        [],
        3,
        "model error: lowerTable entry '': empty set text; the empty set is written '0'",
    ),
    (
        {**ONE_BLOCK, "caseSpaces": {"c": {"worlds": ["w"], "valuation": {"p": {}}}}},
        [],
        3,
        "model error: case space 'c': sentence 'p' unvalued at 'w'",
    ),
    (
        {"universe": ["a", "b"], "partition": [["a"], ["a", "b"]]},
        [],
        3,
        "model error: blocks overlap at a",
    ),
    (
        None,
        ["opposition", "classify", "maybe", "true"],
        2,
        "error: expected a boolean, got 'maybe'",
    ),
    (None, ["crad", "plus", "a", "(a,[a])"], 2, "error: pair 'a' must look like \"(a,[a])\""),
    (
        None,
        ["crad", "plus", "(a,[a],b)", "(a,[a])"],
        2,
        "error: pair '(a,[a],b)' must have exactly two components",
    ),
    (None, ["eval", ")"], 2, "parse error: unexpected token ')' (at position 0)"),
    (None, ["parthood", "analyze"], 2, "error: usage: parthood analyze <kind>"),
    (None, ["parthood", "lateral", "a"], 2, "error: usage: parthood lateral <a> <b>"),
    # The empty set is written 0; an empty set text is refused, never read as it.
    (None, ["parthood", "lateral", "", "a"], 2, EMPTY_TEXT),
    (None, ["opposition", "hexagon", ""], 2, EMPTY_TEXT),
    (None, ["count", "ipc", "--pairs", "a-b-c"], 2, "error: pair 'a-b-c' must look like x-y"),
    # An empty element is refused, and an explicit empty --seq is not read as the default.
    (None, ["count", "ipc", "--seq", ""], 2, "error: sequence '' names an empty element"),
    (None, ["count", "ipc", "--seq", "a,,b"], 2, "error: sequence 'a,,b' names an empty element"),
    (None, ["count", "ipc", "--pairs", "a-b,,c-d"], 2, "error: pair '' must look like x-y"),
    (None, ["count", "ipc", "--pairs", "a-"], 2, "error: pair 'a-' must look like x-y"),
    # "--pairs -b" as two words is argparse's refusal; joined, the value reaches the check.
    (None, ["count", "ipc", "--pairs=-b"], 2, "error: pair '-b' must look like x-y"),
    (
        None,
        ["parthood", "additive", "a (+) b", "[a]"],
        2,
        "error: operand 'a (+) b' must be a set or class literal",
    ),
]


@pytest.mark.parametrize(
    "body, argv, code, err",
    REFUSED,
    ids=[" ".join(c[1]) or c[3].removeprefix("model error: ") for c in REFUSED],
)
def test_refused_input_exits_with_its_code_and_message(capsys, tmp_path, body, argv, code, err):
    """Validation no other test reaches: a bad model file exits 3, a bad
    argument 2, each with one line on stderr and nothing on stdout."""
    if body is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(body))
        argv = ["space", "show", "--model", str(path)]
    assert run(capsys, *argv) == (code, "", err + "\n")


def test_an_empty_model_path_is_a_model_error_not_the_bundled_model(capsys):
    code, out, err = run(capsys, "space", "show", "--model", "")
    assert (code, out) == (3, "")
    # the message names the empty path, not ".", the directory Path("") means
    assert err == "model error: [Errno 2] No such file or directory: ''\n"


# Every subcommand, then the argument errors, help included.
REUSE_ARGVS = [
    ["space", "show"],
    ["space", "classes", "--format", "csv"],
    ["eval", "abcq (.) [q]"],
    ["eval", "neg bc"],
    ["check", "gos", "--format", "json"],
    ["check", "essential"],
    ["parthood", "very-cautious", "ab", "abc"],
    ["parthood", "analyze", "lateral"],
    ["crad", "plus", "(a,[a])", "(b,[b])"],
    ["negation", "check", "--format", "csv"],
    ["negation", "falsify", "n123-not-n9-witness", "--cap", "4"],
    ["opposition", "tsr", "T*", "oppose", "--format", "json"],
    ["opposition", "hexagon", "aef"],
    ["count", "ipc", "--seq", "x,y,z", "--pairs", "x-y"],
    ["granulation", "search"],
    [],
    ["bogus"],
    ["space", "show", "--cap", "0"],
    ["space", "show", "--format", "xml"],
    ["parthood"],
    ["-h"],
    ["negation", "check", "-h"],
]


def test_a_reused_parser_gives_what_a_fresh_parser_gives(capsys):
    assert cli.build_parser() is cli.build_parser()

    def results(main, argvs):
        out = {}
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            out[tuple(argv)] = (code, captured.out, captured.err)
        return out

    fresh = results(oracle.main_with_a_fresh_parser, REUSE_ARGVS)
    assert {code for code, _, _ in fresh.values()} == {0, 1, 2}
    assert results(main, REUSE_ARGVS) == fresh
    assert results(main, REUSE_ARGVS[::-1]) == fresh


def test_a_model_file_that_is_not_utf8_is_a_model_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"universe": ["\u00e9"], "partition": [["\u00e9"]]}'.encode("latin-1"))
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path)
    code, out, err = run(capsys, "space", "show", "--model", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"model error: {path}: not valid JSON:")


def test_model_file_round_trip(capsys, tmp_path):
    body = {
        "universe": ["a", "b", "c"],
        "relationPairs": [["a", "b"]],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(body))
    code, out, _ = run(capsys, "space", "show", "--model", str(path))
    assert code == 0
    assert "block  ab" in out

    loaded = load_model(path)
    assert [str(b) for b in loaded.space.blocks] == ["ab", "c"]
    assert loaded.property_system is None
    assert loaded.case_spaces == {}


def test_bundled_model_sections():
    from roughwork.model_io import default_model_path

    loaded = load_model(default_model_path())
    assert [str(b) for b in loaded.space.blocks] == ["abc", "ef", "q"]
    assert loaded.property_system is not None
    assert set(loaded.case_spaces) == {"glut-demo"}
    cs = loaded.case_spaces["glut-demo"]
    assert cs.pair("A", "w2") == (True, True)


def test_model_schema_errors(tmp_path):
    def reject(body, fragment):
        with pytest.raises(ModelFormatError, match=fragment):
            parse_model(body)

    reject({"universe": ["a"]}, "exactly one")
    reject(
        {"universe": ["a"], "partition": [["a"]], "relationPairs": []},
        "exactly one",
    )
    reject({"universe": [], "partition": []}, "nonempty")
    reject(
        {"universe": ["a"], "partition": [["a"]], "bogus": 1},
        "unknown keys",
    )
    reject(
        {"universe": ["a", "b"], "partition": [["a"]]},
        "cover",
    )
    reject(
        {"universe": ["a"], "partition": [["a"]], "lowerTable": {}},
        "together",
    )
    reject(
        {
            "universe": ["a"],
            "partition": [["a"]],
            "lowerTable": {"0": "0"},
            "upperTable": {"0": "0"},
        },
        "total",
    )
    reject(
        {"universe": ["a"], "partition": [["a"]], "granules": [["z"]]},
        "granule",
    )
    # Strings are never read as their characters, nor nested lists as atoms.
    reject({"universe": ["a", "b"], "partition": ["ab"]}, "entry of partition")
    reject({"universe": ["a", "b"], "relationPairs": ["ab"]}, "list of 2 atom names")
    reject(
        {"universe": ["a"], "partition": [["a"]], "granules": [[["a"]]]},
        "entry of granules",
    )
    case = {"worlds": ["w"], "valuation": {"p": {"w": "tf"}}}
    reject({"universe": ["a"], "partition": [["a"]], "caseSpaces": {"c": case}}, "pair")
    case = {"worlds": [1], "valuation": {}}
    reject({"universe": ["a"], "partition": [["a"]], "caseSpaces": {"c": case}}, "worlds")
    ps = {"objects": "xy", "properties": "pq", "manifests": [["x", "p"]]}
    reject({"universe": ["a"], "partition": [["a"]], "propertySystem": ps}, "objects must be")
    ps = {"objects": ["x"], "properties": 3, "manifests": []}
    reject({"universe": ["a"], "partition": [["a"]], "propertySystem": ps}, "properties must")
    ps = {"objects": ["x"], "properties": ["p"], "manifests": ["xp"]}
    reject({"universe": ["a"], "partition": [["a"]], "propertySystem": ps}, "list of 2 atom")
    tables = {"lowerTable": {"0": "0", "a": 1}, "upperTable": {"0": "0", "a": "a"}}
    reject({"universe": ["a"], "partition": [["a"]], **tables}, "value must be a set string")
    # Two keys naming one subset: the last would silently win.
    tables = {
        "lowerTable": {"0": "0", "a": "0", "b": "0", "S": "S", "ab": "0"},
        "upperTable": {"0": "0", "a": "S", "b": "S", "S": "S"},
    }
    reject(
        {"universe": ["a", "b"], "partition": [["a", "b"]], **tables},
        "lowerTable keys 'S' and 'ab' name the same subset",
    )

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(bad_json)


def test_explicit_tables_accepted():
    body = {
        "universe": ["a", "b"],
        "partition": [["a", "b"]],
        "lowerTable": {"0": "0", "a": "0", "b": "0", "S": "S"},
        "upperTable": {"0": "0", "a": "S", "b": "S", "S": "S"},
    }
    loaded = parse_model(body)
    u = loaded.space.universe
    assert loaded.granular.lower(u.parse("a")) == u.parse("0")
    assert loaded.granular.upper(u.parse("a")) == u.parse("S")


@pytest.fixture
def model16(tmp_path):
    """A table-less model at the 16-atom cap: 8 blocks of two, 6561 classes."""
    atoms = "abcdefghijklmnop"
    path = tmp_path / "m16.json"
    blocks = [list(atoms[i : i + 2]) for i in range(0, 16, 2)]
    path.write_text(json.dumps({"universe": list(atoms), "partition": blocks}))
    return path


def test_default_tables_are_built_on_the_first_read_of_granular(
    capsys, monkeypatch, model16, tmp_path
):
    def refuse(*args):
        raise AssertionError("default tables built at load")

    bad_table = {"lowerTable": {"0": "0", "a": 1}, "upperTable": {"0": "0"}}
    bad_granule = {"granules": [["z"]]}
    with monkeypatch.context() as m:
        m.setattr(granular, "from_space", refuse)
        m.setattr(model_io, "from_space", refuse)
        m.setattr(approx, "bound_masks", refuse)
        loaded = [load_model(default_model_path()), load_model(model16)]
        for path in (default_model_path(), model16):
            code, out, err = run(capsys, "space", "show", "--model", str(path))
            assert (code, err) == (0, "") and out.startswith("universe  ")
        for body, message in (
            (bad_table, "lowerTable entry 'a': value must be a set string, got 1"),
            (bad_granule, "granule ['z']: unknown atom 'z'"),
        ):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"universe": ["a", "b"], "partition": [["a", "b"]], **body}))
            code, out, err = run(capsys, "space", "show", "--model", str(path))
            assert (code, out, err) == (3, "", f"model error: {message}\n")
    for model in loaded:
        assert model.granular == from_space(model.space)
        assert model.granular is model.granular


def test_a_reader_closing_stdout_early_ends_the_report_quietly(model16):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    # 6560 rows overflow any pipe buffer, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "roughwork.cli", "space", "classes", "--model", str(model16)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b"" and all(line.endswith(b"\n") for line in head)


QUOTIENT_CAP = "cap exceeded: quotient of 6561 rough classes exceeds the cap 1024\n"
CAPPED_16 = [
    (("check", "prerough"), QUOTIENT_CAP),
    (("check", "essential"), QUOTIENT_CAP),
    (("negation", "check"), QUOTIENT_CAP),
    (("check", "cera"), "cap exceeded: carrier of size 72097 exceeds identity-check cap\n"),
]


@pytest.mark.parametrize("argv, err", CAPPED_16, ids=[" ".join(c[0]) for c in CAPPED_16])
def test_quotient_tables_stop_at_their_cap_before_any_carrier(capsys, model16, argv, err):
    assert run(capsys, *argv, "--model", str(model16)) == (4, "", err)


# Each capped command and the carrier statement it sweeps, on a loaded model.
SWEPT_CARRIERS = [
    (("check", "gos"), lambda loaded: loaded.granular.universe.labels()),
    (("check", "admissible"), lambda loaded: loaded.granular.universe.labels()),
    (("check", "cera"), lambda loaded: CeraModel(loaded.space).labels()),
    (("check", "prerough"), lambda loaded: QuotientAlgebra(loaded.space).labels()),
    (("check", "essential"), lambda loaded: QuotientAlgebra(loaded.space).labels()),
    (("negation", "check"), lambda loaded: QuotientAlgebra(loaded.space).labels()),
    (("parthood", "analyze", "lateral"), lambda loaded: loaded.granular.universe.labels()),
    (("parthood", "analyze", "additive"), lambda loaded: CeraModel(loaded.space).labels()),
    (
        ("parthood", "analyze", "natural-crad"),
        lambda loaded: CradModel(CeraModel(loaded.space)).labels(),
    ),
]


@pytest.mark.parametrize(
    "argv, carrier", SWEPT_CARRIERS, ids=[" ".join(c[0]) for c in SWEPT_CARRIERS]
)
def test_cap_messages_name_the_length_of_the_carrier_swept(capsys, model16, argv, carrier):
    for path in (default_model_path(), model16):
        size = len(carrier(load_model(path)))
        code, out, err = run(capsys, *argv, "--cap", str(size - 1), "--model", str(path))
        assert (code, out) == (4, "")
        named = [int(word) for word in err.split() if word.isdecimal()]
        assert named[0] == size and named[1:] in ([], [size - 1]), err
        if path != model16:
            assert run(capsys, *argv, "--cap", str(size), "--model", str(path))[0] == 0
