import json
from pathlib import Path

import pytest

import multiwedge.lp as lp_module
from multiwedge import InternalInvariantError, QVector
from multiwedge.cli import build_parser, main
from multiwedge.operators import RDPInstance, decomposition_ok


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def quadrant_file(tmp_path):
    return write_json(
        tmp_path, "quadrant.json", {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}
    )


@pytest.fixture
def failure_instance_file(tmp_path):
    return write_json(
        tmp_path,
        "ex37.json",
        {
            "wedges": [
                {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
                {"dim": 2, "generators": [["1", "1"]]},
            ],
            "xs": [["2", "0"], ["0", "1"]],
            "ys": [["1", "0"], ["1", "1"]],
        },
    )


def test_wedge_dual_self_dual(capsys, quadrant_file):
    code, out, _ = run_cli(capsys, "wedge", "dual", "-f", quadrant_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [["0", "1"], ["1", "0"]]
    assert payload["halfspaces"] == [["0", "1"], ["1", "0"]]


def test_wedge_is_cone(capsys, quadrant_file):
    code, out, _ = run_cli(capsys, "wedge", "is-cone", "-f", quadrant_file)
    assert code == 0
    assert json.loads(out) == {"is_cone": True}


def test_rdp_check_infeasible_is_success(capsys, failure_instance_file):
    code, out, _ = run_cli(capsys, "rdp", "check", "-f", failure_instance_file)
    assert code == 0
    assert json.loads(out) == {"result": "infeasible"}


def test_msup_empty_is_success(capsys, tmp_path):
    fam = write_json(
        tmp_path,
        "family.json",
        {
            "family": [
                {"apex": ["0", "0"], "wedge": {"dim": 2, "halfspaces": [["1", "0"]]}},
                {"apex": ["0", "0"], "wedge": {"dim": 2, "halfspaces": [["0", "1"]]}},
                {"apex": ["1", "1"], "wedge": {"dim": 2, "halfspaces": [["1", "1"]]}},
            ]
        },
    )
    code, out, _ = run_cli(capsys, "msup", "-f", fam)
    assert code == 0
    assert json.loads(out) == {"result": "empty"}


def test_msup_set_payload(capsys, tmp_path):
    fam = write_json(
        tmp_path,
        "family.json",
        {
            "family": [
                {"apex": ["0", "0"], "wedge": {"dim": 2, "halfspaces": [["1", "0"]]}},
                {"apex": ["0", "0"], "wedge": {"dim": 2, "halfspaces": [["0", "1"]]}},
            ]
        },
    )
    code, out, _ = run_cli(capsys, "msup", "-f", fam)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "result": "set",
        "witness": ["0", "0"],
        "lineality": [],
        "proper": True,
    }


def test_msup_non_proper_payload(capsys, tmp_path):
    fam = write_json(
        tmp_path,
        "halfplane.json",
        {
            "family": [
                {"apex": ["2", "3"], "wedge": {"dim": 2, "halfspaces": [["1", "0"]]}}
            ]
        },
    )
    code, out, _ = run_cli(capsys, "msup", "-f", fam)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "set"
    assert payload["proper"] is False
    assert len(payload["lineality"]) == 1


def test_domain_error_exit_1(capsys, tmp_path):
    fam = write_json(
        tmp_path,
        "unbounded.json",
        {
            "family": [
                {"apex": ["1"], "wedge": {"dim": 1, "halfspaces": [["1"]]}},
                {"apex": ["-1"], "wedge": {"dim": 1, "halfspaces": [["-1"]]}},
            ]
        },
    )
    code, out, _ = run_cli(capsys, "msup", "-f", fam)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "not_multi_bounded_above"


def test_malformed_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "msup", "-f", str(bad))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "msup", "-f", "/nonexistent/file.json")
    assert code == 2
    assert err


_OP = {"rows": 1, "cols": 1, "entries": [["1"]]}
_LINE = {"dim": 1, "generators": [["1"]]}
_QUADRANT = {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}
_STRING_GENERATORS = {"dim": 2, "generators": ["10", "01"]}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["wedge", "sum"], {"wedges": 5}),
        (["wedge", "intersect"], [_LINE]),
        (["lattice-search", "--k", "2"], {"wedges": 5}),
        (["rdp", "check"], {"wedges": 5, "xs": [], "ys": []}),
        (["rdp", "search"], {"wedges": {"dim": 1}}),
        (["rk", "value"], {"operators": 5, "wedges": [_LINE], "codomain_wedge": _LINE}),
        (["rk", "value"], [_OP]),
        (["rk", "op-msup"], {"operators": [_OP], "wedges": 5, "codomain_wedge": _LINE}),
        (["rk", "op-minf"], {"operators": [_OP], "wedges": [_LINE]}),
        (["rk", "functional-msup"], {"functionals": 5, "wedges": [_LINE]}),
        (["rk", "functional-msup"], {"functionals": [["1"]], "wedges": "x"}),
        (["rk", "functional-msup"], 5),
    ],
    ids=[
        "sum-wedges-int",
        "intersect-top-level-array",
        "lattice-search-wedges-int",
        "rdp-check-wedges-int",
        "rdp-search-wedges-object",
        "rk-value-operators-int",
        "rk-value-top-level-array",
        "op-msup-wedges-int",
        "op-minf-no-codomain",
        "functional-msup-functionals-int",
        "functional-msup-wedges-string",
        "functional-msup-top-level-int",
    ],
)
def test_wrongly_typed_array_is_input_error_exit_2(capsys, tmp_path, argv, payload):
    # A top level that is not an object, a wedges/operators/functionals
    # field that is not an array, or a missing field is malformed input,
    # not a crash.
    path = write_json(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, *argv, "-f", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_sides_that_describe_different_wedges_exit_2(capsys, tmp_path):
    # The generators give {0}, the halfspaces the ray x >= 0: `wedge dual`
    # would answer from one side and membership follow the other.
    path = write_json(tmp_path, "bad.json", {"dim": 1, "generators": [], "halfspaces": [["1"]]})
    code, out, err = run_cli(capsys, "wedge", "dual", "-f", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad wedge object: inconsistent double description")
    same = {"dim": 1, "generators": [["2"]], "halfspaces": [["1"]]}
    code, _, _ = run_cli(capsys, "wedge", "dual", "-f", write_json(tmp_path, "ok.json", same))
    assert code == 0


_FS = {
    "s_size": 2,
    "indices": [0, 1],
    "xs": [["1", "0"], ["0", "1"]],
    "ys": [["1", "0"], ["0", "1"]],
}


def _rk_payload(op):
    return {"operators": [op], "wedges": [_LINE], "codomain_wedge": _LINE, "x": ["1"]}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["wedge", "dual"], {"dim": 2, "generators": [["1/0", "1"]]}),
        (["wedge", "dual"], {"dim": 2, "generators": [[True, "1"]]}),
        (["msup"], {"family": [{"apex": ["1/0"], "wedge": _LINE}]}),
        (["rk", "value"], _rk_payload({"rows": 1, "cols": 1, "entries": [["0/0"]]})),
        (["rk", "value"], _rk_payload({"rows": 1, "cols": 1, "entries": [[False]]})),
        (["wedge", "dual"], {"dim": 2.7, "generators": [["1", "0"]]}),
        (["wedge", "dual"], {"dim": True, "generators": [["1"]]}),
        (["wedge", "dual"], {"dim": "1", "generators": [["1"]]}),
        (["rk", "value"], _rk_payload({"rows": 1.5, "cols": 1, "entries": [["1"]]})),
        (["rk", "value"], _rk_payload({"rows": 1, "cols": True, "entries": [["1"]]})),
        (["rdp", "decompose-fs"], dict(_FS, s_size=2.7)),
        (["rdp", "decompose-fs"], dict(_FS, indices=[True, 1])),
        (["msup"], {"family": [{"apex": ["1e10000000"], "wedge": _LINE}]}),
        (["msup"], {"family": [{"apex": ["1.5"], "wedge": _LINE}]}),
        (["msup"], {"family": [{"apex": "12", "wedge": _QUADRANT}]}),
        (["msup"], {"family": [{"apex": ["1", "2"], "wedge": _STRING_GENERATORS}]}),
        (["wedge", "dual"], {"dim": 2, "generators": "10"}),
        (["wedge", "dual"], {"dim": 2, "halfspaces": ["10", "01"]}),
        (["rk", "value"], _rk_payload({"rows": 1, "cols": 1, "entries": ["1"]})),
        (["rk", "value"], _rk_payload({"rows": 1, "cols": 1, "entries": "1"})),
        (["rk", "value"], dict(_rk_payload({"rows": 1, "cols": 1, "entries": [["1"]]}), x="1")),
        (["rdp", "check"], {"wedges": [_LINE], "xs": ["1"], "ys": [["1"]]}),
    ],
    ids=[
        "generator-zero-denominator",
        "generator-true",
        "apex-zero-denominator",
        "operator-entry-zero-over-zero",
        "operator-entry-false",
        "dim-float",
        "dim-true",
        "dim-string",
        "rows-float",
        "cols-true",
        "s-size-float",
        "index-true",
        "apex-exponent",
        "apex-decimal",
        "apex-string",
        "generator-strings",
        "generators-string",
        "halfspace-strings",
        "operator-row-string",
        "operator-entries-string",
        "x-string",
        "xs-entry-string",
    ],
)
def test_bad_number_is_input_error_exit_2(capsys, tmp_path, argv, payload):
    # A zero denominator, a JSON boolean or a decimal or exponent string
    # where a rational belongs, a string where an array belongs, or a size
    # that is not a JSON integer is malformed input: no traceback, and no
    # answer computed for a truncated or coerced value.
    path = write_json(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, *argv, "-f", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_usage_error_exit_2(capsys):
    code = main(["wedge", "frobnicate", "-f", "x.json"])
    assert code == 2


def test_byte_identical_reruns(capsys, tmp_path, quadrant_file):
    _, out1, _ = run_cli(capsys, "wedge", "dual", "-f", quadrant_file)
    _, out2, _ = run_cli(capsys, "wedge", "dual", "-f", quadrant_file)
    assert out1 == out2
    wedges = write_json(
        tmp_path,
        "wedges.json",
        {
            "wedges": [
                {"dim": 2, "halfspaces": [["1", "0"]]},
                {"dim": 2, "halfspaces": [["0", "1"]]},
                {"dim": 2, "halfspaces": [["1", "1"]]},
            ]
        },
    )
    _, s1, _ = run_cli(
        capsys, "lattice-search", "-f", wedges, "--k", "3", "--seed", "5", "--budget", "500"
    )
    _, s2, _ = run_cli(
        capsys, "lattice-search", "-f", wedges, "--k", "3", "--seed", "5", "--budget", "500"
    )
    assert s1 == s2
    assert json.loads(s1)["found"] is True


def test_reused_parser_keeps_nothing_between_calls(capsys, tmp_path):
    assert build_parser() is build_parser()
    wedges = write_json(
        tmp_path,
        "wedges.json",
        {
            "wedges": [
                {"dim": 2, "halfspaces": [["1", "0"]]},
                {"dim": 2, "halfspaces": [["0", "1"]]},
                {"dim": 2, "halfspaces": [["1", "1"]]},
            ]
        },
    )
    search = ["lattice-search", "-f", wedges, "--k", "3", "--budget", "50"]
    assert run_cli(capsys, "lattice-search", "--k")[0] == 2
    code_seeded, seeded, _ = run_cli(capsys, *search, "--seed", "5")
    code_reused, reused, _ = run_cli(capsys, *search)
    build_parser.cache_clear()
    code_fresh, fresh, _ = run_cli(capsys, *search)
    assert code_seeded == code_reused == code_fresh == 0
    assert reused == fresh
    # The seed reaches the output, so a --seed left over from the call before would show.
    assert seeded != fresh


def test_lattice_search_none(capsys, tmp_path):
    wedges = write_json(
        tmp_path,
        "wedges.json",
        {
            "wedges": [
                {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
                {"dim": 2, "generators": [["1", "1"]]},
            ]
        },
    )
    code, out, _ = run_cli(
        capsys, "lattice-search", "-f", wedges, "--k", "2", "--seed", "0", "--budget", "300"
    )
    assert code == 0
    assert json.loads(out) == {"found": False, "apexes": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice-search", "--k", "3", "--budget", "-5"],
        ["rdp", "search", "--budget", "-1"],
        ["examples", "run", "ex2.7", "--budget", "-1"],
    ],
)
def test_negative_budget_is_a_usage_error(capsys, argv):
    # A negative budget used to run zero trials and report "found": false.
    if argv[0] != "examples":
        argv = [*argv, "-f", str(GOLDEN / "wedge-sum.input.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "budget" in err
    zero = [e if e not in ("-5", "-1") else "0" for e in argv]
    assert run_cli(capsys, *zero)[0] == 0


@pytest.mark.parametrize("budget", ["0", "3"])
@pytest.mark.parametrize("argv", [["lattice-search", "--k", "1"], ["rdp", "search", "--m", "1", "--n", "1"]])
def test_mixed_dimension_wedges_are_a_usage_error(capsys, tmp_path, argv, budget):
    # Rejected before the first draw; the verdict used to depend on the
    # draws ("found": false, or an apex that did not match its wedge).
    wedges = write_json(
        tmp_path,
        "wedges.json",
        {"wedges": [{"dim": 2, "generators": [["1", "0"]]}, {"dim": 3, "generators": [["1", "0", "0"]]}]},
    )
    code, out, err = run_cli(capsys, *argv, "-f", wedges, "--budget", budget)
    assert code == 2 and out == "" and "mismatched dimensions" in err


def test_rdp_search_cli(capsys, tmp_path):
    wedges = write_json(
        tmp_path,
        "wedges.json",
        {
            "wedges": [
                {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
                {"dim": 2, "generators": [["1", "1"]]},
            ]
        },
    )
    code, out, _ = run_cli(
        capsys, "rdp", "search", "-f", wedges, "--m", "2", "--n", "2", "--budget", "500"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert "instance" in payload


def test_rdp_decompose_fs_cli(capsys, tmp_path):
    inst = write_json(
        tmp_path,
        "fs.json",
        {
            "s_size": 3,
            "indices": [0, 1],
            "xs": [["1", "0", "0"], ["2", "1", "0"]],
            "ys": [["3", "-1", "-1"], ["0", "2", "1"]],
        },
    )
    code, out, _ = run_cli(capsys, "rdp", "decompose-fs", "-f", inst)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "decomposition"
    assert len(payload["z"]) == 2 and len(payload["z"][0]) == 2


def test_rk_value_cli(capsys, tmp_path):
    data = write_json(
        tmp_path,
        "rk.json",
        {
            "operators": [
                {"rows": 1, "cols": 1, "entries": [["1"]]},
                {"rows": 1, "cols": 1, "entries": [["2"]]},
            ],
            "wedges": [
                {"dim": 1, "generators": [["1"]]},
                {"dim": 1, "generators": [["1"]]},
            ],
            "codomain_wedge": {"dim": 1, "generators": [["1"]]},
            "x": ["1"],
        },
    )
    code, out, _ = run_cli(capsys, "rk", "value", "-f", data)
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == ["2"]
    assert payload["proper"] is True


def test_rk_op_msup_cli(capsys, tmp_path):
    data = write_json(
        tmp_path,
        "ops.json",
        {
            "operators": [
                {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "5"]]},
                {"rows": 2, "cols": 2, "entries": [["4", "0"], ["0", "2"]]},
            ],
            "wedges": [
                {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
                {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
            ],
            "codomain_wedge": {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
        },
    )
    code, out, _ = run_cli(capsys, "rk", "op-msup", "-f", data)
    assert code == 0
    payload = json.loads(out)
    assert payload["representative"]["entries"] == [["4", "0"], ["0", "5"]]


def test_functional_msup_cli(capsys, tmp_path):
    data = write_json(
        tmp_path,
        "funcs.json",
        {
            "functionals": [["1", "0"], ["0", "1"]],
            "wedges": [
                {"dim": 2, "generators": [["1", "0"]]},
                {"dim": 2, "generators": [["0", "1"]]},
            ],
        },
    )
    code, out, _ = run_cli(capsys, "rk", "functional-msup", "-f", data)
    assert code == 0
    payload = json.loads(out)
    assert payload["representative"]["entries"] == [["1", "1"]]


def test_functional_msup_ragged_functionals_exit_2(capsys, tmp_path):
    # Each functional is a 1 x q operator: functionals of two lengths are
    # malformed input, in either order, and nothing reaches stdout. The
    # diagnostic names the functionals' lengths and the wedges' dimensions.
    wedge = {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}
    for phis, lengths in (
        ([["1", "-1"], ["0", "2", "1"]], "[2, 3]"),
        ([["0", "2", "1"], ["1", "-1"]], "[3, 2]"),
    ):
        data = write_json(tmp_path, "funcs.json", {"functionals": phis, "wedges": [wedge, wedge]})
        code, out, err = run_cli(capsys, "rk", "functional-msup", "-f", data)
        assert code == 2 and out == ""
        assert err == f"error: functional lengths {lengths} do not match the wedge dimensions [2, 2]\n"


def test_examples_list(capsys):
    code, out, _ = run_cli(capsys, "examples", "list")
    assert code == 0
    assert json.loads(out) == {"scenarios": ["ex2.7", "ex3.13", "ex3.7"]}


def _golden_cases():
    """(name, argv, status) per line of golden/cases.txt, argv ending in its -f <input>.input.json."""
    cases = []
    for line in (GOLDEN / "cases.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            name, source, status, *argv = line.split()
            if source != "-":
                argv += ["-f", str(GOLDEN / f"{source}.input.json")]
            cases.append((name, argv, int(status)))
    return cases


_CASES = _golden_cases()
_ARGV = {name: argv for name, argv, _ in _CASES}
_SCENARIO_CASES = [(name, argv) for name, argv, _ in _CASES if argv[0] == "examples"]
_WEDGE_CASES = [(name, argv) for name, argv, _ in _CASES if argv[0] == "wedge"]
_LP_CASES = [(name, argv) for name, argv, status in _CASES if argv[0] not in ("examples", "wedge") and status == 0]
_ERROR_CASES = [(name, argv) for name, argv, status in _CASES if status == 1]


def _diff_golden(capsys, name, argv, status):
    """Run ``argv``: exit ``status`` and the recorded <name>.json byte for byte; returns the output."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == status
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
    return out


@pytest.mark.parametrize("name", [name for name, _ in _SCENARIO_CASES])
def test_examples_run_match(capsys, name):
    # Byte for byte the recorded output (also diffed by CI against the
    # installed `mw`).
    out = _diff_golden(capsys, name, _ARGV[name], 0)
    assert json.loads(out)["matches_expected"] is True


@pytest.mark.parametrize("name", [name for name, _ in _WEDGE_CASES], ids=lambda name: name[len("wedge-") :])
def test_wedge_ops_match_golden(capsys, name):
    _diff_golden(capsys, name, _ARGV[name], 0)


@pytest.mark.parametrize("name", ["rdp-check", "rdp-check-rational", "rdp-check-one-x"])
def test_rdp_check_golden_z_decomposes_its_input(name):
    # z is a free witness: a change to the LP may pin another one, but each
    # pinned z must be a decomposition of the instance it answers.
    inst = RDPInstance.from_json(json.loads((GOLDEN / f"{name}.input.json").read_text()))
    payload = json.loads((GOLDEN / f"{name}.json").read_text())
    z = [[QVector.from_json(v) for v in row] for row in payload["z"]]
    assert payload["result"] == "decomposition" and decomposition_ok(inst, z)


@pytest.mark.parametrize("name, argv", _LP_CASES)
def test_lp_commands_match_golden(capsys, name, argv):
    # The commands that solve LPs, byte for byte; golden/cases.txt notes
    # what each case pins.
    _diff_golden(capsys, name, argv, 0)


@pytest.mark.parametrize("name, argv", _ERROR_CASES)
def test_rk_error_verdicts_match_golden(capsys, name, argv):
    # Verdicts that are errors: exit 1 and the recorded JSON byte for byte.
    _diff_golden(capsys, name, argv, 1)


_NO_COLS = '{"lineality_ops": [], "proper": true, "representative": {"cols": 0, "entries": [[]], "rows": 1}}'
_NO_ROWS = '{"lineality_ops": [], "proper": true, "representative": {"cols": 1, "entries": [], "rows": 0}}'
_ZERO_DOMAIN = {
    "operators": [{"rows": 1, "cols": 0, "entries": [[]]}],
    "wedges": [{"dim": 0, "generators": []}],
    "codomain_wedge": {"dim": 1, "generators": [["1"]]},
}
_ZERO_CODOMAIN = {
    "operators": [{"rows": 0, "cols": 1, "entries": []}],
    "wedges": [{"dim": 1, "generators": [["1"]]}],
    "codomain_wedge": {"dim": 0, "generators": []},
}


@pytest.mark.parametrize(
    "op, payload, expected",
    [
        ("op-msup", _ZERO_DOMAIN, _NO_COLS),
        ("op-minf", _ZERO_DOMAIN, _NO_COLS),
        ("functional-msup", {"functionals": [[]], "wedges": _ZERO_DOMAIN["wedges"]}, _NO_COLS),
        ("op-msup", _ZERO_CODOMAIN, _NO_ROWS),
        ("op-minf", _ZERO_CODOMAIN, _NO_ROWS),
    ],
    ids=["op-msup-domain", "op-minf-domain", "functional-msup", "op-msup-codomain", "op-minf-codomain"],
)
def test_rk_zero_dimensional_spaces(capsys, tmp_path, op, payload, expected):
    # A dim-0 wedge is valid input; the operators then have no columns or
    # no rows, and the answer is the only operator there is.
    code, out, _ = run_cli(capsys, "rk", op, "-f", write_json(tmp_path, "in.json", payload))
    assert code == 0
    assert out == expected + "\n"


def test_examples_unknown_exit_2(capsys):
    code, _, err = run_cli(capsys, "examples", "run", "nope")
    assert code == 2
    assert "unknown scenario" in err


def test_table_format(capsys, quadrant_file):
    code, out, _ = run_cli(
        capsys, "wedge", "is-generating", "-f", quadrant_file, "--format", "table"
    )
    assert code == 0
    assert out.strip() == "is_generating: True"


def test_error_codes_are_distinct():
    from multiwedge import errors

    codes = [
        cls.code
        for cls in vars(errors).values()
        if isinstance(cls, type)
        and issubclass(cls, errors.MultiWedgeError)
        and cls is not errors.MultiWedgeError
    ]
    assert len(codes) == len(set(codes))


def test_the_package_has_no_assert():
    # python -O strips assert statements, so internal invariants are
    # MultiWedgeErrors: every module of the package is parsed, and no
    # statement may be an assert.
    import ast

    import multiwedge

    found = []
    for path in sorted(Path(multiwedge.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_the_package_has_no_unused_import_or_private_helper():
    # No dead helpers: every module but __init__, which re-exports, uses
    # each name it imports, and each module-level private function or
    # class is referenced by some module of the package, so that a helper
    # kept only for the tests fails here. So is each private method of a
    # class, and each method of a class that __init__ does not export; for
    # these a string constant counts as a reference, as slots are read by name.
    import ast

    import multiwedge

    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(multiwedge.__file__).parent.glob("*.py"))
    }
    referenced, strings = set(), set()
    unused = []
    for name, tree in trees.items():
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
        referenced |= used
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    private = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and node.name not in referenced
    ]
    exported = {
        alias.name for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    named = referenced | strings
    methods = [
        f"{name}: {cls.name}.{node.name}"
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))
        and (node.name.startswith("_") or cls.name not in exported) and node.name not in named
    ]
    assert unused == []
    assert private == []
    assert methods == []


def test_readme_names_only_real_tests():
    # Every backticked test_ name in README.md is a test module under
    # tests/ or a test function defined in one, so that renaming a test
    # without the README fails here.
    import ast
    import re

    here = Path(__file__).parent
    modules = {p.name for p in here.glob("test_*.py")}
    defined = {
        node.name
        for path in here.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }
    readme = (here.parent / "README.md").read_text()
    names = {name for span in re.findall(r"`([^`\n]+)`", readme) for name in re.findall(r"test_\w+(?:\.py)?", span)}
    named_modules = {name for name in names if name.endswith(".py")}
    assert named_modules and names - named_modules
    assert sorted(named_modules - modules) == [] and sorted(names - named_modules - defined) == []


def test_scenario_rerun_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "examples", "run", "ex2.7", "--seed", "3")
    _, out2, _ = run_cli(capsys, "examples", "run", "ex2.7", "--seed", "3")
    assert out1 == out2


_HALFPLANES = {
    "family": [
        {"apex": ["0", "0"], "wedge": {"dim": 2, "halfspaces": [["1", "0"]]}},
        {"apex": ["1", "1"], "wedge": {"dim": 2, "halfspaces": [["0", "1"]]}},
    ]
}


def test_impossible_lp_status_is_internal_invariant_exit_1(capsys, tmp_path, monkeypatch):
    # An LP whose objective is bounded by construction (a normal of C over
    # P, in msup and in a lattice search's trial) reported unbounded by the
    # phase-2 step that Session.minimize and Warm's cold sessions share,
    # as a ray column >= 0: the caller raises the named error (not an
    # assert, which -O strips) and mw maps it to exit 1 like every domain
    # error.
    monkeypatch.setattr(lp_module.Session, "_phase2", lambda self, c: (None, 0, 1))
    wedges = {"wedges": [tw["wedge"] for tw in _HALFPLANES["family"]]}
    for argv, payload in ((["msup"], _HALFPLANES), (["lattice-search", "--k", "2"], wedges)):
        path = write_json(tmp_path, "input.json", payload)
        code, out, _ = run_cli(capsys, *argv, "-f", path)
        assert code == 1
        assert json.loads(out)["error"] == InternalInvariantError.code == "internal_invariant"


_G = {"dim": 2, "generators": [["1", "0"], ["1", "1"]]}
_H = {"dim": 2, "halfspaces": [["0", "1"], ["1", "-1"]]}


@pytest.mark.parametrize(
    "argv, make",
    [
        (["wedge", "sum"], lambda k: {"wedges": [_H] * k}),
        (["msup"], lambda k: {"family": [{"apex": [str(i), "0"], "wedge": _G} for i in range(k)]}),
        (["rdp", "check"], lambda k: {"wedges": [_G] * k, "xs": [[str(k), "0"]], "ys": [["1", "0"]] * k}),
        (
            ["rk", "value"],
            lambda k: {
                "operators": [{"rows": 1, "cols": 2, "entries": [["1", "0"]]}] * k,
                "wedges": [_G] * k,
                "codomain_wedge": {"dim": 1, "generators": [["1"]]},
                "x": ["1", "0"],
            },
        ),
        (["rk", "functional-msup"], lambda k: {"functionals": [["1", "0"]] * k, "wedges": [_G] * k}),
    ],
)
def test_repeated_wedge_entry_is_converted_once(capsys, tmp_path, conversions, argv, make):
    # Equal JSON entries become one Wedge, so listing a wedge twice
    # converts it no more often than listing it once.
    counts = []
    for k in (1, 2):
        code, _, _ = run_cli(capsys, *argv, "-f", write_json(tmp_path, f"in{k}.json", make(k)))
        assert code == 0
        counts.append(len(conversions))
        conversions.clear()
    assert counts[0] > 0 and counts[1] == counts[0]


def test_every_golden_is_diffed_by_ci_and_by_the_tests():
    # Each golden output has exactly one line in golden/cases.txt, which
    # CI's loop (.github/workflows/ci.yml) runs under `mw` and `python -W error -O`,
    # and which the four golden tests above split among them.
    names = [name for name, _, _ in _CASES]
    outputs = {p.name[: -len(".json")] for p in GOLDEN.glob("*.json") if not p.name.endswith(".input.json")}
    assert len(outputs) >= 46 and sorted(names) == sorted(outputs)
    tested = [name for cases in (_SCENARIO_CASES, _WEDGE_CASES, _LP_CASES, _ERROR_CASES) for name, _ in cases]
    assert sorted(tested) == sorted(names)
    ci = (GOLDEN.parent.parent / ".github" / "workflows" / "ci.yml").read_text()
    assert "done < tests/golden/cases.txt" in ci
