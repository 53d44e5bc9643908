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

# sha256 of `macmahon all` stdout; CI checks the installed script against it
ALL_STDOUT_SHA256 = "e53dd0b737aed2cd1412068308658985e4ce1e86338ec874eefa66aa01e5fff0"
# sha256 of `macmahon all --format table` stdout: the JSON digest sorts keys,
# so this one pins the key order that table and csv print
ALL_TABLE_SHA256 = "a5ca709234b360174864f341b9bf79eb409f94981e5e9e6c562047fcc3045378"
# sha256 of `macmahon classes --r 4 --n 8` stdout: every class of one listing
CLASSES_R4_N8_SHA256 = "ada3d760ee7fbbfcc134cb0a1cb1d87fb30b71ff52fd372347c67ede9eece3a0"
# sha256 of `macmahon enumerate pp --n 6` stdout: every plane partition of size 6
ENUMERATE_PP_N6_SHA256 = "a2e295b5e09afa0d4236d8d48032dd71f211edc60a61d0b419c18c9d0c008ca9"
# sha256 of `macmahon verify vuletic --s-order 8 --q-order 8 --t-order 8`
# stdout: a weighted identity past the sizes of `all`
VULETIC_S8_SHA256 = "6ecb4745b8a26c1620d0cd0b6fd66dd5395a50fea4ee459cbb4acc898fa3fd98"

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


def _usage_error(capsys, argv) -> dict:
    """The JSON error report of an argv that must exit 2."""
    code, out = _run(capsys, argv)
    assert code == 2, argv
    report = json.loads(out)
    assert report["outcome"] == "error", argv
    return report


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


def test_listing_csv_bytes(capsys):
    code, out = _run(capsys, ["enumerate", "pp", "--n", "2", "--format", "csv"])
    assert code == 0
    assert out == 'partition\n[[2]]\n"[[1, 1]]"\n"[[1], [1]]"\n'


def test_key_value_csv_bytes(capsys):
    code, out = _run(capsys, ["verify", "macmahon", "--s-order", "2", "--format", "csv"])
    assert code == 0
    assert out == (
        "key,value\n"
        "command,verify macmahon --s-order 2 --format csv\n"
        "parameters.command,verify\n"
        "parameters.s_order,2\n"
        "parameters.target,macmahon\n"
        "outcome,match\n"
        "payload.name,macmahon\n"
        "payload.order,2\n"
        'payload.enumerated,"[1, 1, 3]"\n'
        'payload.expanded,"[1, 1, 3]"\n'
        "payload.match,True\n"
    )


def test_tangent(capsys):
    code, out = _run(capsys, ["tangent", "--tuple", "[[1],[ ]]", "--alpha", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["size"] == 4
    assert report["payload"]["expected_size"] == 4
    assert report["payload"]["d_plus"] == 3
    assert report["payload"]["size_ok"] is True


TANGENT_TERMS = (
    '"terms":[{"i":1,"j":1,"multiplicity":1,"t1":0,"t2":1},'
    '{"i":1,"j":1,"multiplicity":1,"t1":1,"t2":0},'
    '{"i":1,"j":2,"multiplicity":1,"t1":1,"t2":1},'
    '{"i":2,"j":1,"multiplicity":1,"t1":0,"t2":0}]'
)


@pytest.mark.parametrize("alpha", ["4", "99999999999999999999"])
def test_tangent_bytes(capsys, alpha):
    # an alpha past int64 is counted on Python ints
    code, out = _run(capsys, ["tangent", "--tuple", "[[1],[]]", "--alpha", alpha])
    assert code == 0
    assert out == (
        f'{{"command":"tangent --tuple [[1],[]] --alpha {alpha}","outcome":"match",'
        f'"parameters":{{"alpha":{alpha},"command":"tangent","tuple":"[[1],[]]"}},'
        f'"payload":{{"alpha":{alpha},"d_plus":3,"expected_size":4,"rank":2,"size":4,'
        f'"size_ok":true,{TANGENT_TERMS},"weight":1}}}}\n'
    )


def test_tangent_nonpositive_alpha_bytes(capsys):
    code, out = _run(capsys, ["tangent", "--tuple", "[[1],[]]", "--alpha", "0"])
    assert code == 2
    assert out == (
        '{"command":"tangent --tuple [[1],[]] --alpha 0","error":"alpha must be positive",'
        '"outcome":"error","parameters":{"alpha":0,"command":"tangent","tuple":"[[1],[]]"}}\n'
    )


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


THREE_STAGES = ["count-points", "--chain-mu", "[2,2,2]", "--chain-nu", "[2,1,1]", "--p", "2"]


@pytest.mark.parametrize("h", [None, "[[[0,1]],[[1]]]", "[[[1,1]],[[1]]]", "[[[1,0]],[[1]]]"])
def test_count_points_three_stage_chain_with_h(capsys, h):
    # a chain of k >= 3 stages takes the JSON list of its k - 1 maps; the
    # count does not depend on them
    code, out = _run(capsys, THREE_STAGES + ([] if h is None else ["--chain-h", h]))
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "match"
    assert report["payload"]["count"] == report["payload"]["predicted"] == "216"


def test_count_points_four_stage_chain_with_h(capsys):
    argv = ["count-points", "--chain-mu", "[2,2,1,1]", "--chain-nu", "[1,1,1,0]", "--p", "3"]
    code, out = _run(capsys, argv + ["--chain-h", "[[[2]],[[1]],[]]"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == payload["predicted"] == json.loads(_run(capsys, argv)[1])["payload"]["count"]


@pytest.mark.parametrize(
    "h, error",
    [
        ("[[[0,1]]]", "expected 2 intertwining maps, got 1"),
        ("[[[0,1]],[[1]],[[1]]]", "expected 2 intertwining maps, got 3"),
        ("[]", "expected 2 intertwining maps, got 0"),
        ("[[0,1]]", "expected 2 intertwining maps, got 1"),  # one bare matrix
        ("[[[1,0],[0,1]],[[1]]]", "map 0 must be 1x2"),
        ("5", "--chain-h must be a JSON list of 2 matrices"),
        ("null", "--chain-h must be a JSON list of 2 matrices"),
        ("[[[0,0]],[[1]]]", "intertwining map 0 is not surjective mod 2"),
    ],
)
def test_count_points_wrong_maps_for_three_stages_is_usage_error(capsys, h, error):
    assert _usage_error(capsys, THREE_STAGES + ["--chain-h", h])["error"] == error


def test_count_points_warm_count_still_refused_over_budget(capsys):
    argv = ["count-points", "--grid", "[[4,3]]", "--p", "3"]
    assert _run(capsys, argv)[0] == 0
    code, out = _run(capsys, argv + ["--budget", str(3**12 - 1)])
    assert code == 3
    assert json.loads(out)["error"] == "3^12 tuples exceed the budget 531440"


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


def test_count_points_past_64_bit_enumeration_refused_fast(capsys):
    # 2^64 matrices fit this budget but not an int64 code
    started = time.perf_counter()
    code, out = _run(
        capsys,
        ["count-points", "--chain-mu", "[8]", "--chain-nu", "[8]", "--p", "2", "--budget", str(10**20)],
    )
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert json.loads(out)["error"] == "matrix space 8x8 over F_2 does not fit 64-bit enumeration"


def test_count_points_grid_and_chain_is_usage_error(capsys):
    report = _usage_error(
        capsys, ["count-points", "--grid", "[[1]]", "--chain-mu", "[1]", "--chain-nu", "[1]", "--p", "2"]
    )
    assert report["error"] == "choose either --grid or --chain-mu/--chain-nu"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "pp", "--n", "-1"],
        ["classes", "--r", "1", "--n", "-1"],
        ["verify", "bb", "--n", "-1"],
        ["verify", "limit-class", "--max-weight", "-1"],
    ],
)
def test_negative_order_is_usage_error(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"] == "weight must be nonnegative"


def test_usage_error_exit_code(capsys):
    _usage_error(capsys, ["verify", "nonsense"])
    _usage_error(capsys, ["count-points", "--p", "2"])


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
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_STDOUT_SHA256


def test_all_table(capsys):
    code, out = _run(capsys, ["all", "--format", "table"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_TABLE_SHA256


def test_classes_listing_bytes(capsys):
    code, out = _run(capsys, ["classes", "--r", "4", "--n", "8"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSES_R4_N8_SHA256


def test_enumerate_listing_bytes(capsys):
    code, out = _run(capsys, ["enumerate", "pp", "--n", "6"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_PP_N6_SHA256


def test_verify_vuletic_s8_bytes(capsys):
    code, out = _run(capsys, ["verify", "vuletic", "--s-order", "8", "--q-order", "8", "--t-order", "8"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VULETIC_S8_SHA256


RANK_ERROR = "argument --r: rank must be a positive integer or 'inf', got {!r}"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["classes", "--r", "0", "--n", "1"], RANK_ERROR.format("0")),
        (["verify", "refined-macmahon", "--r", "0"], RANK_ERROR.format("0")),
        (["classes", "--r", "infinity", "--n", "1"], RANK_ERROR.format("infinity")),
        (["verify", "bb", "--r", "oo"], RANK_ERROR.format("oo")),
        (["verify", "vuletic", "--r", "2"], "unrecognized arguments: --r 2"),
        (["count-points", "--grid", "[[1]]"], "the following arguments are required: --p"),
        ([], "the following arguments are required: command"),
        # a failed parse knows no format, so it reports in JSON
        (["--format", "table", "enumerate", "pp"], "the following arguments are required: --n"),
    ],
)
def test_parse_error_is_a_json_report(capsys, argv, error):
    report = _usage_error(capsys, argv)
    assert report == {"command": " ".join(argv), "parameters": {}, "outcome": "error", "error": error}


def test_help_still_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classes", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: macmahon classes")


def test_all_takes_no_flags(capsys):
    _usage_error(capsys, ["all", "--desk-scale"])


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
    _usage_error(capsys, ["verify", target, "--" + flag.replace("_", "-"), "2"])


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "refined-macmahon", "--r", "1000000", "--t-order", "1", "--q-order", "1"], 0),
        (["verify", "bb", "--r", "1000000", "--n", "0"], 0),
        (["classes", "--r", "1000000", "--n", "0"], 0),
        (["classes", "--r", "1000000", "--n", "1"], 3),
        (["classes", "--r", "4", "--n", "20"], 3),
        (["enumerate", "pp", "--n", "22"], 3),
        (["tangent", "--tuple", "[[1000000]]"], 3),
        (["tangent", "--tuple", json.dumps([[]] * 3000)], 3),
    ],
)
def test_large_rank_or_weight_answered_or_refused_fast(capsys, argv, code):
    started = time.perf_counter()
    assert _run(capsys, argv)[0] == code
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
