import io
import json

import pytest

from chaincodes import zmod
from chaincodes.cli import main
from chaincodes.constructions import ToeplitzSpec
from chaincodes.conv import ConvCode, PolyMatrix
from chaincodes.linalg import RingMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def golden(tmp_path):
    z121 = zmod(121)
    G = PolyMatrix(z121, [RingMatrix(z121, [[1, 2, 1], [11, 22, 11]]),
                          RingMatrix(z121, [[1, 3, 4], [11, 33, 44]])])
    paths = {}
    paths["code322"] = tmp_path / "z121_322.json"
    paths["code322"].write_text(json.dumps(ConvCode(z121, 3, G).to_json()))
    z11 = zmod(11)
    paths["t6"] = tmp_path / "t6_z11.json"
    paths["t6"].write_text(json.dumps(
        ToeplitzSpec(z11, (1, 2, 1, 1, 3, 4)).to_json()))
    Gf = PolyMatrix(z11, [RingMatrix(z11, [[1, 2, 1]]),
                          RingMatrix(z11, [[1, 3, 4]])])
    paths["field311"] = tmp_path / "f11_311.json"
    paths["field311"].write_text(json.dumps(ConvCode(z11, 3, Gf).to_json()))
    z4 = zmod(4)
    Gz = PolyMatrix(z4, [RingMatrix(z4, [[0, 0], [0, 0]]),
                         RingMatrix(z4, [[1, 1], [2, 2]])])
    paths["not_delay_free"] = tmp_path / "zz_stack.json"
    paths["not_delay_free"].write_text(
        json.dumps(ConvCode(z4, 2, Gz).to_json()))
    paths["matrix_z9"] = tmp_path / "m_z9.json"
    paths["matrix_z9"].write_text(
        json.dumps(RingMatrix(zmod(9), [[3, 3], [3, 6]]).to_json()))
    paths["dir"] = tmp_path
    return paths


def test_ring_report(capsys):
    code, doc = run(capsys, "ring", "--ring", "z8")
    assert code == 0
    assert doc["schema"].startswith("chaincodes-report/")
    assert doc["results"]["nu"] == 3
    assert doc["results"]["q"] == 2
    assert doc["results"]["transversal"] == [0, 1]


def test_ring_parse_variants(capsys):
    assert run(capsys, "ring", "--ring", "gr(2,3,3)")[1]["results"]["q"] == 8
    assert run(capsys, "ring", "--ring", "tp(4,2)")[1]["results"]["nu"] == 2
    assert run(capsys, "ring", "--ring", "f9")[1]["results"]["size"] == 9
    assert run(capsys, "ring", "--ring", "garbage")[0] == 2


def test_check_mdp_both(capsys, golden):
    code, doc = run(capsys, "check", "mdp", "--code",
                    str(golden["code322"]), "--method", "both")
    assert code == 0
    assert doc["results"]["mdp"] == {"minors": True, "distances": True}


def test_check_reverse_mdp(capsys, golden):
    code, doc = run(capsys, "check", "reverse-mdp", "--code",
                    str(golden["code322"]))
    assert code == 0
    assert doc["results"]["reverse-mdp"] == {"minors": True}


def test_check_delay_free_fails_with_exit_1(capsys, golden):
    code, doc = run(capsys, "check", "delay-free", "--code",
                    str(golden["not_delay_free"]))
    assert code == 1
    assert doc["results"]["delay-free"] is False


def test_check_precondition_exit_2(capsys, golden):
    # nu does not divide k for this torsion-row code
    z4 = zmod(4)
    G = PolyMatrix(z4, [RingMatrix(z4, [[2, 2]])])
    bad = golden["dir"] / "bad.json"
    bad.write_text(json.dumps(ConvCode(z4, 2, G).to_json()))
    code, doc = run(capsys, "check", "mdp", "--code", str(bad))
    assert code == 2
    assert "divide" in doc["results"]["error"]["message"]


def test_check_missing_file_exit_2(capsys):
    code, doc = run(capsys, "check", "mdp", "--code", "no-such-file.json")
    assert code == 2
    assert "error" in doc["results"]


def test_construct_superregular_matches_lift(capsys, golden):
    code, doc = run(capsys, "construct", "superregular",
                    "--matrix", str(golden["t6"]), "--n", "3", "--k", "1",
                    "--L", "1", "--ring", "z121", "--rows", "example")
    assert code == 0
    code2, doc2 = run(capsys, "construct", "lift",
                      "--field-code", str(golden["field311"]),
                      "--ring", "z121")
    assert code2 == 0
    assert doc["results"]["code"] == doc2["results"]["code"]
    assert doc["results"]["code"] == json.loads(
        golden["code322"].read_text())


def test_construct_pipes_into_check(capsys, golden, monkeypatch, tmp_path):
    code, doc = run(capsys, "construct", "binomial", "--n", "3", "--k", "1",
                    "--delta", "1", "--p", "7")
    assert code == 0
    assert doc["warnings"]  # 7 is below the sufficient field size
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    # a whole report document is accepted wherever a code is expected
    code2, doc2 = run(capsys, "check", "reverse-mdp", "--code", str(report))
    assert code2 == 0
    assert doc2["results"]["reverse-mdp"] == {"minors": True}


def test_distances_report(capsys, golden):
    code, doc = run(capsys, "distances", "--code", str(golden["code322"]),
                    "--max-j", "1")
    assert code == 0
    res = doc["results"]
    assert res["profile"] == [3, 5]
    assert res["saturated"] == [True, True]
    assert res["L"] == 1


def test_distances_budget_exit_2(capsys, golden):
    code, doc = run(capsys, "distances", "--code", str(golden["code322"]),
                    "--max-j", "9", "--budget", "100000")
    assert code == 2
    error = doc["results"]["error"]
    assert error["type"] == "BudgetExceeded"
    # j = 2 is the first j over the budget: (q^k - 1) q^(jk) messages
    # with q = 11, k = 2
    assert (error["requested"], error["allowed"]) == (120 * 121 ** 2, 100000)


def test_bounds_report(capsys):
    code, doc = run(capsys, "bounds", "--n", "3", "--k", "2",
                    "--delta", "2", "--nu", "2")
    assert code == 0
    res = doc["results"]
    assert res["L"] == 1
    assert res["column_distance_bounds"] == [3, 5]
    assert res["generalized_singleton"] == 6
    assert res["embedding_preserves_L"] is False


def test_blockcode_reports(capsys, golden):
    m = str(golden["matrix_z9"])
    code, doc = run(capsys, "blockcode", "shape", "--matrix", m)
    assert code == 0 and doc["results"]["shape"] == [0, 2]
    code, doc = run(capsys, "blockcode", "params", "--matrix", m)
    assert code == 0 and doc["results"]["parameters"] == [0, 2]
    code, doc = run(capsys, "blockcode", "standard-form", "--matrix", m)
    assert code == 0
    assert doc["results"]["standard_form"]["entries"] == [3, 0, 0, 3]
    code, doc = run(capsys, "blockcode", "mindist", "--matrix", m)
    assert code == 0
    assert doc["results"]["min_distance"] == 1
    assert doc["results"]["is_mds"] is False


def test_search_exhaustive(capsys):
    code, doc = run(capsys, "search", "superregular", "--ell", "2",
                    "--ring", "f2")
    assert code == 0
    assert doc["results"]["count"] == 1


def test_search_random_needs_seed(capsys):
    code, doc = run(capsys, "search", "superregular", "--ell", "3",
                    "--ring", "z11", "--strategy", "random")
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"


def test_search_random_deterministic(capsys):
    args = ("search", "superregular", "--ell", "3", "--ring", "z11",
            "--strategy", "random", "--seed", "1", "--budget", "60",
            "--reverse")
    _, doc1 = run(capsys, *args)
    _, doc2 = run(capsys, *args)
    assert doc1["results"]["hits"] == doc2["results"]["hits"]
    assert doc1["results"]["count"] == 36


def assert_usage_error_report(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.out)
    assert doc["schema"] == "chaincodes-report/1"
    assert doc["command"] == argv
    assert doc["results"]["error"]["type"] == "UsageError"
    assert captured.err.startswith("usage: chaincodes")


def test_threads_flag_rejected(capsys):
    assert_usage_error_report(capsys, ["--threads", "4", "ring",
                                       "--ring", "z4"])


@pytest.mark.parametrize("argv", [
    ["distances", "--code", "code.json"],  # missing --max-j
    ["ring", "--ring", "z4", "--bogus"],   # unknown flag after a subcommand
    [],                                    # missing subcommand
    # options that only some construction kinds need
    ["construct", "binomial", "--k", "1", "--delta", "1", "--p", "7"],
    ["construct", "lift", "--ring", "z121"],
    ["construct", "lift", "--field-code", "code.json"],
    ["construct", "superregular", "--n", "3", "--k", "1", "--L", "1"],
    ["construct", "superregular", "--matrix", "t6.json", "--n", "3",
     "--k", "1"]])
def test_usage_errors_report_json(capsys, argv):
    assert_usage_error_report(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["search", "superregular", "--ell", "3", "--ring", "z11",
     "--max-hits", "-1"],
    ["distances", "--code", "code.json", "--max-j", "-1"],
    ["bounds", "--n", "3", "--k", "2", "--delta", "2", "--nu", "2",
     "--max-j", "-1"]])
def test_negative_counts_are_usage_errors(capsys, argv):
    assert_usage_error_report(capsys, argv)


def test_search_max_hits_zero_lists_none(capsys):
    code, doc = run(capsys, "search", "superregular", "--ell", "3",
                    "--ring", "z5", "--max-hits", "0")
    assert code == 0
    assert doc["results"]["count"] == 12 and doc["results"]["hits"] == []
    assert doc["warnings"] == ["only the first 0 of 12 hits are listed"]


@pytest.fixture()
def full_code(tmp_path):
    """All of Z4 as a code of length 1: k = nu * n, so L is undefined."""
    z4 = zmod(4)
    path = tmp_path / "full_z4.json"
    G = PolyMatrix(z4, [RingMatrix(z4, [[1], [2]])])
    path.write_text(json.dumps(ConvCode(z4, 1, G).to_json()))
    return str(path)


def test_L_undefined_exits_2_or_is_omitted(capsys, full_code):
    code, doc = run(capsys, "bounds", "--n", "2", "--k", "4", "--delta", "3",
                    "--nu", "2")
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"
    for prop in ("mdp", "reverse-mdp"):
        code, doc = run(capsys, "check", prop, "--code", full_code)
        assert code == 2
        assert doc["results"]["error"]["type"] == "InvalidParams"
    code, doc = run(capsys, "distances", "--code", full_code, "--max-j", "0")
    assert code == 0
    assert doc["results"]["profile"] == [1]
    assert "L" not in doc["results"]
    assert doc["warnings"] == ["L needs n > k/nu; got n=1, k=2, nu=2"]


@pytest.mark.parametrize("text", ["5", "[1, 2]", '"x"', "null"])
@pytest.mark.parametrize("argv", [
    ["check", "mdp", "--code"],
    ["blockcode", "shape", "--matrix"],
    ["construct", "superregular", "--n", "3", "--k", "1", "--L", "1",
     "--matrix"]])
def test_json_that_is_not_an_object_is_invalid(capsys, tmp_path, monkeypatch,
                                                text, argv):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, doc = run(capsys, *argv, str(path))
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, doc = run(capsys, *argv, "-")
    assert code == 2
    assert doc["results"]["error"] == {
        "type": "InvalidParams", "message": "- does not hold a JSON object"}


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: chaincodes")
    assert captured.err == ""


def test_check_reverse_mdp_both(capsys, golden):
    code, doc = run(capsys, "check", "reverse-mdp", "--code",
                    str(golden["code322"]), "--method", "both")
    assert code == 0
    assert doc["results"]["reverse-mdp"] == {"minors": True,
                                             "distances": True}


@pytest.mark.parametrize("name", ["gr(4,2,1)", "gr(6,1,1)", "gr(1,1,1)"])
def test_ring_with_composite_p_rejected(capsys, name):
    code, doc = run(capsys, "ring", "--ring", name)
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("name", [
    "tp(4,0)", "gr(2,0,1)", "gr(2,2,0)",
    '{"family": "galois", "p": 3, "r": 0, "s": 2}',
    '{"family": "truncated", "q": 9, "nu": 0}',
    '{"family": "galois", "p": 3, "s": 2}',
    '{"family": "galois", "p": 3, "r": "2", "s": 2}',
    '{"family": "truncated", "q": 4}'])
def test_ring_with_degenerate_or_missing_parameters_rejected(capsys, name):
    code, doc = run(capsys, "ring", "--ring", name)
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"
