import hashlib
import json
import shlex
import time
from pathlib import Path

import pytest

from macmahon import acceptance, cli, motivic
from macmahon.cli import main
from macmahon.series import FactorProduct

README = Path(__file__).resolve().parent.parent / "README.md"

# every verify target: its check's module and name, and the flags it reads
# in the check's positional order, with their defaults
VERIFY = {
    "macmahon": (acceptance, "check_macmahon_baseline", {"s_order": 4}),
    "vuletic": (acceptance, "check_vuletic", {"s_order": 4, "q_order": 6, "t_order": 4}),
    "limit-class": (acceptance, "check_limit_class", {"max_weight": 4, "l_order": 8}),
    "refined-macmahon": (motivic, "refined_macmahon_check", {"r": 1, "t_order": 4, "q_order": 6}),
    "limit-series": (motivic, "limit_series_check", {"t_order": 4, "l_order": 8}),
    "bb": (motivic, "bb_identity_check", {"r": 1, "n": 3}),
}
VERIFY_FLAGS = sorted({flag for _, _, flags in VERIFY.values() for flag in flags})

CHECKS = [
    "check_macmahon_baseline",
    "check_vuletic",
    "check_limit_class",
    "check_refined_macmahon",
    "check_limit_series",
    "check_bb",
    "check_tangent",
    "check_oracle",
    "check_class_structure",
]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_pp(capsys):
    code, out = _run(capsys, ["enumerate", "pp", "--n", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "ok"
    assert report["payload"]["count"] == 3
    assert report["payload"]["partitions"] == [[[2]], [[1, 1]], [[1], [1]]]


def test_enumerate_with_max_entry(capsys):
    code, out = _run(capsys, ["enumerate", "pp", "--n", "4", "--max-entry", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["count"] == 5


def test_verify_macmahon(capsys):
    code, out = _run(capsys, ["verify", "macmahon", "--s-order", "6"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "match"
    assert report["payload"]["enumerated"] == [1, 1, 3, 6, 13, 24, 48]


def test_verify_macmahon_beyond_known_counts(capsys):
    # the known-count table stops at order 8; enumeration and expansion still agree
    code, out = _run(capsys, ["verify", "macmahon", "--s-order", "12"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "match"
    payload = report["payload"]
    assert sorted(payload) == ["enumerated", "expanded", "match", "name", "order"]
    assert payload["enumerated"] == payload["expanded"]
    assert payload["enumerated"][9:] == [282, 500, 859, 1479]


def test_verify_vuletic_small(capsys):
    code, out = _run(capsys, ["verify", "vuletic", "--s-order", "3", "--q-order", "3", "--t-order", "3"])
    assert code == 0
    assert json.loads(out)["outcome"] == "match"


def test_verify_bb(capsys):
    code, out = _run(capsys, ["verify", "bb", "--r", "1", "--n", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "match"
    assert report["payload"]["lhs"] == report["payload"]["rhs"] == [[3, "1"], [4, "1"]]


def test_verify_refined_macmahon_infinite_rank(capsys):
    code, out = _run(capsys, ["verify", "refined-macmahon", "--r", "inf", "--t-order", "3", "--q-order", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["r"] == "inf"
    assert report["parameters"] == {
        "command": "verify", "target": "refined-macmahon", "r": "inf", "t_order": 3, "q_order": 5
    }


def test_verify_limit_targets(capsys):
    code, out = _run(capsys, ["verify", "limit-class", "--max-weight", "3", "--l-order", "8"])
    assert code == 0
    assert json.loads(out)["outcome"] == "match"
    code, out = _run(capsys, ["verify", "limit-series", "--t-order", "3", "--l-order", "6"])
    assert code == 0
    assert json.loads(out)["outcome"] == "match"


def test_classes_table(capsys):
    code, out = _run(capsys, ["classes", "--r", "2", "--n", "2"])
    assert code == 0
    report = json.loads(out)
    rows = report["payload"]["components"]
    assert [row["partition"] for row in rows] == [[[2]], [[1, 1]], [[1], [1]]]
    by_partition = {json.dumps(row["partition"]): row for row in rows}
    assert by_partition["[[2]]"]["d_plus"] == 2 * 2 + 4
    assert by_partition["[[1, 1]]"]["chi"] == 1
    assert by_partition["[[1], [1]]"]["chi"] == 2


def test_classes_csv(capsys):
    code = main(["--format", "csv", "classes", "--r", "1", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,class,d_plus,chi"
    assert len(lines) == 3
    # the format flag is also accepted after the subcommand
    code = main(["classes", "--r", "1", "--n", "2", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == out


def test_tangent(capsys):
    code, out = _run(capsys, ["tangent", "--tuple", "[[1],[ ]]", "--alpha", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["size"] == 4
    assert report["payload"]["expected_size"] == 4
    assert report["payload"]["d_plus"] == 3
    assert report["payload"]["size_ok"] is True


def test_count_points_grid(capsys):
    # [[4,3]] and [[4],[3]] have no commuting square: one 3x4 map each, whose
    # 3^12 matrices are streamed, never tabulated
    for grid, count in (("[[1,1]]", "2"), ("[[4,3]]", "449280"), ("[[4],[3]]", "449280")):
        code, out = _run(capsys, ["count-points", "--grid", grid, "--p", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["count"] == count
        assert report["payload"]["predicted"] == count
        assert report["outcome"] == "match"


def test_count_points_chain_with_h(capsys):
    code, out = _run(
        capsys,
        ["count-points", "--chain-mu", "[2,2]", "--chain-nu", "[2,1]", "--chain-h", "[[0,1]]", "--p", "2"],
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "match"


def test_count_points_chain_with_four_rows(capsys):
    code, out = _run(capsys, ["count-points", "--chain-mu", "[4]", "--chain-nu", "[4]", "--p", "2"])
    assert code == 0
    assert json.loads(out)["outcome"] == "match"


def test_count_points_budget_refusal(capsys):
    # raw space over the budget; then an in-budget chain whose 2^18 matrices
    # of 18 entries each are too many int64 values to materialize
    for argv in (
        ["--grid", "[[3,3],[3,3]]", "--p", "2"],
        ["--chain-mu", "[18,1]", "--chain-nu", "[0,0]", "--p", "2"],
    ):
        code, out = _run(capsys, ["count-points", *argv])
        assert code == 3
        assert json.loads(out)["outcome"] == "error"


def test_count_points_nonpositive_budget_is_usage_error(capsys):
    code, out = _run(capsys, ["count-points", "--grid", "[[1]]", "--p", "2", "--budget", "-5"])
    assert code == 2
    assert "budget" in json.loads(out)["error"]


def test_count_points_huge_field_refused_fast(capsys):
    # one free entry: p^1 tuples; no free entry: isqrt(p) trial divisions
    for nu in ("[1]", "[0]"):
        started = time.perf_counter()
        code, out = _run(
            capsys, ["count-points", "--chain-mu", "[1]", "--chain-nu", nu, "--p", str(10**18 + 3)]
        )
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert "budget" in json.loads(out)["error"]


def test_count_points_composite_field_is_usage_error(capsys):
    for argv in (["--grid", "[[1,1]]", "--p", "4"], ["--grid", "[]", "--p", "1000000"]):
        code, out = _run(capsys, ["count-points", *argv])
        assert code == 2
        assert "prime" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["count-points", "--grid", "[[1.5]]", "--p", "2"],
        ["tangent", "--tuple", "[[1.7]]"],
        ["tangent", "--tuple", "5"],
        ["count-points", "--chain-mu", "[true]", "--chain-nu", "[1]", "--p", "2"],
        ["count-points", "--grid", "{}", "--p", "2"],
        ["count-points", "--chain-mu", "[2,2]", "--chain-nu", "[2,1]", "--chain-h", "[[0,1.0]]", "--p", "2"],
    ],
)
def test_non_integer_input_is_usage_error(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 2
    assert json.loads(out)["outcome"] == "error"


def test_enumerate_negative_max_entry_is_usage_error(capsys):
    code, out = _run(capsys, ["enumerate", "pp", "--n", "3", "--max-entry", "-2"])
    assert code == 2
    assert json.loads(out)["outcome"] == "error"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    code, out = _run(capsys, ["count-points", "--p", "2"])
    assert code == 2
    assert json.loads(out)["outcome"] == "error"


def test_json_output_is_deterministic(capsys):
    _, first = _run(capsys, ["verify", "bb", "--r", "2", "--n", "2"])
    _, second = _run(capsys, ["verify", "bb", "--r", "2", "--n", "2"])
    assert first == second
    _, third = _run(capsys, ["enumerate", "pp", "--n", "4"])
    _, fourth = _run(capsys, ["enumerate", "pp", "--n", "4"])
    assert third == fourth


def test_table_format(capsys):
    code = main(["--format", "table", "verify", "macmahon", "--s-order", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "match\tTrue" in out


def test_all(capsys):
    code, out = _run(capsys, ["all"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "match"
    names = [c["name"] for c in report["payload"]["checks"]]
    assert names == [
        "macmahon",
        "vuletic",
        "limit-class",
        "refined-macmahon",
        "limit-series",
        "bb",
        "tangent",
        "oracle",
        "class-structure",
    ]
    assert all(c["match"] for c in report["payload"]["checks"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e53dd0b737aed2cd1412068308658985e4ce1e86338ec874eefa66aa01e5fff0"
    )


def test_all_takes_no_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["all", "--desk-scale"])
    assert exc.value.code == 2


def test_all_calls_each_check_once_in_order(capsys, monkeypatch):
    calls = []
    for name in CHECKS:
        def stub(_name=name):
            calls.append(_name)
            return {"name": _name, "match": True}

        monkeypatch.setattr(acceptance, name, stub)
    code, out = _run(capsys, ["all"])
    assert code == 0
    assert calls == CHECKS
    assert [c["name"] for c in json.loads(out)["payload"]["checks"]] == CHECKS


def test_verify_table_matches_cli():
    assert {t: (m, c, tuple(f)) for t, (m, c, f) in VERIFY.items()} == cli.VERIFY
    assert sum(len(flags) for _, _, flags in VERIFY.values()) == 13


@pytest.mark.parametrize("target", VERIFY)
def test_verify_target_defaults(capsys, target):
    code, out = _run(capsys, ["verify", target])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "match"
    assert report["parameters"] == {"command": "verify", "target": target, **VERIFY[target][2]}


@pytest.mark.parametrize(
    "target, flag",
    [(t, f) for t, (_, _, flags) in VERIFY.items() for f in VERIFY_FLAGS if f not in flags],
)
def test_verify_rejects_foreign_flag(capsys, target, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", target, "--" + flag.replace("_", "-"), "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("target", VERIFY)
def test_verify_calls_patched_module_attribute(capsys, monkeypatch, target):
    module, check, flags = VERIFY[target]
    seen = []

    def stub(*args):
        seen.append(args)
        return {"match": False, "lhs": {}, "rhs": {}}

    monkeypatch.setattr(module, check, stub)
    code, out = _run(capsys, ["verify", target])
    assert code == 1
    assert seen == [tuple(flags.values())]
    assert json.loads(out)["outcome"] == "mismatch"


def test_verify_vuletic_mismatch_reports_first_difference(capsys, monkeypatch):
    rhs = acceptance.vuletic_rhs
    extra = FactorProduct.monomial({"s": 1, "q": 2})
    monkeypatch.setattr(
        acceptance, "vuletic_rhs", lambda s, profile: rhs(s, profile) + extra.expand(profile)
    )
    code, out = _run(capsys, ["verify", "vuletic"])
    assert code == 1
    assert json.loads(out)["outcome"] == "mismatch"
    assert '"first_difference":{"exponents":[2,0,1],"lhs":"1","rhs":"2"}' in out


def test_verify_bb_mismatch_reports_first_difference(capsys, monkeypatch):
    lhs = motivic.moduli_space_class
    monkeypatch.setattr(motivic, "moduli_space_class", lambda r, n: {**lhs(r, n), 0: 7})
    code, out = _run(capsys, ["verify", "bb"])
    assert code == 1
    assert json.loads(out)["outcome"] == "mismatch"
    assert '"first_difference":{"exponents":[0],"lhs":"7","rhs":"0"}' in out
    assert '"lhs":[[0,"7"],[4,"1"],[5,"1"],[6,"1"]]' in out


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "pp", "--n", "40"],
        ["classes", "--r", "40", "--n", "40"],
        ["verify", "bb", "--r", "3", "--n", "40"],
    ],
)
def test_enumerations_refused_fast(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("partitions were enumerated")

    for module in (cli, motivic):
        monkeypatch.setattr(module, "enumerate_plane_partitions", refuse)
    started = time.perf_counter()
    code, out = _run(capsys, argv)
    report = json.loads(out)
    assert code == 3
    assert report["outcome"] == "error" and "plane partitions" in report["error"]
    assert time.perf_counter() - started < 1.0


def test_verify_bb_infinite_rank_is_usage_error(capsys):
    code, out = _run(capsys, ["verify", "bb", "--r", "inf"])
    assert code == 2
    assert json.loads(out)["error"] == "bb verification needs a finite rank"


def test_readme_command_lines(capsys):
    # `macmahon all` is left to test_all
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("macmahon ")
    ]
    assert ["all"] in commands
    commands = [argv for argv in commands if argv != ["all"]]
    assert {argv[1] for argv in commands if argv[0] == "verify"} == set(VERIFY)
    for argv in commands:
        assert _run(capsys, argv)[0] == 0, argv
