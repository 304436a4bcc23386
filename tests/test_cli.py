import io
import json
import os
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from chaincodes import TruncatedPolyRing, errors, zmod
from chaincodes.cli import main
from chaincodes.constructions import ToeplitzSpec
from chaincodes.conv import ConvCode, PolyMatrix
from chaincodes.linalg import RingMatrix
from chaincodes.rings import ChainRing


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


def test_check_reduced(capsys, golden, tmp_path):
    code, doc = run(capsys, "check", "reduced", "--code",
                    str(golden["code322"]))
    assert code == 0
    assert doc["results"]["reduced"] is True
    # rows (1, 1 + z) and (0, z) over Z5: the leading rows are (0, 1) twice
    z5 = zmod(5)
    G = PolyMatrix(z5, [RingMatrix(z5, [[1, 1], [0, 0]]),
                        RingMatrix(z5, [[0, 1], [0, 1]])])
    path = tmp_path / "z5_not_reduced.json"
    path.write_text(json.dumps({"ring": z5.descriptor(), "n": 2,
                                "encoder": G.to_json()}))
    code, doc = run(capsys, "check", "reduced", "--code", str(path))
    assert code == 1
    assert doc["results"]["reduced"] is False


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


def test_check_gamma_basis_of_a_degree_zero_encoder(capsys, tmp_path):
    # a T-digit search of the later rows' span would lift 11^7 candidates
    z121 = zmod(121)
    G = PolyMatrix(z121, [RingMatrix(z121, [[1, 1, 0, 0, 0, 0, 0]] + [
        [11 if j == i else 0 for j in range(7)] for i in range(7)])])
    path = tmp_path / "z121_degree0.json"
    path.write_text(json.dumps(ConvCode(z121, 7, G).to_json()))
    code, doc = run(capsys, "check", "gamma-basis", "--code", str(path))
    assert code == 0
    assert doc["results"]["gamma-basis"] is True


def z4_code_json(coeff_rows, n, claimed=None):
    """A code JSON over Z4 written out by hand, with no ConvCode built."""
    ring = {"family": "galois", "p": 2, "r": 2, "s": 1, "modulus": [0, 1],
            "convention": "digits"}
    k = len(coeff_rows[0])
    obj = {"ring": ring, "n": n,
           "encoder": {"k": k, "n": n, "coeffs": [
               {"ring": ring, "rows": k, "cols": n,
                "entries": [e for row in rows for e in row]}
               for rows in coeff_rows]}}
    if claimed is not None:
        obj["claimed"] = claimed
    return json.dumps(obj)


def test_check_gamma_basis_of_a_non_basis_exits_1(capsys, tmp_path):
    # both rows (1, 1): dependent
    path = tmp_path / "dependent.json"
    path.write_text(z4_code_json([[[1, 1], [1, 1]]], 2, {"k": 2}))
    code, doc = run(capsys, "check", "gamma-basis", "--code", str(path))
    assert code == 1
    assert doc["results"]["gamma-basis"] is False
    # every other check loads a ConvCode, which refuses the rows
    code, doc = run(capsys, "check", "delay-free", "--code", str(path))
    assert code == 2
    assert doc["results"]["error"]["type"] == "CodeLoadError"


def test_check_gamma_basis_of_three_rows_in_f5_z_squared_exits_1(
        capsys, tmp_path):
    # G(z) = [[1+3z, 4+4z], [4, 1+4z], [2, 4+3z]]: not delay-free, and its
    # dependency needs digits of degree 2
    z5 = zmod(5)
    G = PolyMatrix(z5, [RingMatrix(z5, [[1, 4], [4, 1], [2, 4]]),
                        RingMatrix(z5, [[3, 4], [0, 4], [0, 3]])])
    path = tmp_path / "z5_three_rows.json"
    path.write_text(json.dumps({"ring": z5.descriptor(), "n": 2,
                                "encoder": G.to_json()}))
    code, doc = run(capsys, "check", "gamma-basis", "--code", str(path))
    assert code == 1
    assert doc["results"]["gamma-basis"] is False
    for prop in ("delay-free", "mdp"):
        code, doc = run(capsys, "check", prop, "--code", str(path))
        assert code == 2
        assert doc["results"]["error"]["type"] == "CodeLoadError"


def test_check_gamma_basis_of_five_times_those_rows_in_z25_exits_1(
        capsys, tmp_path):
    # 5 G(z) over Z25, every entry of valuation nu - 1: decided as G(z)
    # over F_5, whose dependency needs digits of degree 2
    z25 = zmod(25)
    G = PolyMatrix(z25, [RingMatrix(z25, [[5, 20], [20, 5], [10, 20]]),
                         RingMatrix(z25, [[15, 20], [0, 20], [0, 15]])])
    path = tmp_path / "z25_three_rows.json"
    path.write_text(json.dumps({"ring": z25.descriptor(), "n": 2,
                                "encoder": G.to_json()}))
    code, doc = run(capsys, "check", "gamma-basis", "--code", str(path))
    assert code == 1
    assert doc["results"]["gamma-basis"] is False
    code, doc = run(capsys, "check", "delay-free", "--code", str(path))
    assert code == 2
    assert doc["results"]["error"]["type"] == "CodeLoadError"


@pytest.mark.parametrize("coeff_rows, claimed, error", [
    # rows z and 3z have no gamma-degree
    ([[[0], [0]], [[1], [3]]], {"delta": 2}, "NotReduced"),
    ([[[1, 0], [0, 1]]], {"k": 3}, "CodeLoadError"),
])
def test_check_gamma_basis_checks_the_claims(capsys, tmp_path, coeff_rows,
                                             claimed, error):
    path = tmp_path / "claimed.json"
    path.write_text(z4_code_json(coeff_rows, len(coeff_rows[0][0]),
                                 claimed))
    code, doc = run(capsys, "check", "gamma-basis", "--code", str(path))
    assert code == 2
    assert doc["results"]["error"]["type"] == error


def assert_cross_check_failed(capsys, argv, message):
    code, doc = run(capsys, *argv)
    assert code == 2
    error = doc["results"]["error"]
    assert error["type"] == "CrossCheckFailed" and message in error["message"]


def test_minors_that_disagree_with_distances_exit_2(capsys, golden,
                                                    monkeypatch):
    from chaincodes import cli
    monkeypatch.setattr(cli, "is_mdp",
                        lambda code, method, budget: method == "minors")
    assert_cross_check_failed(
        capsys, ["check", "mdp", "--code", str(golden["code322"]),
                 "--method", "both"],
        "minors verdict True disagrees with distances verdict False")


def test_a_first_hit_that_fails_the_recheck_exits_2(capsys, monkeypatch):
    from chaincodes import cli
    monkeypatch.setattr(cli, "is_gamma_superregular",
                        lambda spec, cross_check: not cross_check)
    assert_cross_check_failed(
        capsys, ["search", "superregular", "--ell", "2", "--ring", "f2"],
        "first hit fails the cross-checked re-verification")


def test_a_transversal_that_does_not_start_with_0_and_1_exits_2(
        capsys, golden, monkeypatch):
    # the column-distance walk counts on reps[0] = 0 and reps[1] = 1
    real = ChainRing.representatives
    monkeypatch.setattr(ChainRing, "representatives",
                        lambda ring: real(ring)[::-1])
    assert_cross_check_failed(
        capsys, ["distances", "--code", str(golden["code322"]),
                 "--max-j", "0"],
        "transversal does not start with 0 and 1")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 13: the budget gate formats |R|^(ell - 1), here 6,245 "
    "digits, into its message, Python refuses to print an int of more than "
    "4,300 digits, and the report is a ValueError"))
def test_search_far_over_budget_reports_budget_exceeded(capsys):
    code, doc = run(capsys, "search", "superregular", "--ell", "3000",
                    "--ring", "z121", "--budget", "10")
    assert code == 2
    assert doc["results"]["error"]["type"] == "BudgetExceeded"


@pytest.mark.parametrize("argv", [
    ["check", "mdp"], ["check", "gamma-basis"], ["distances", "--max-j", "1"],
], ids=" ".join)
@pytest.mark.parametrize("claimed", [[1], [], False, 0, ""], ids=repr)
def test_claimed_that_is_not_an_object_exits_2(capsys, tmp_path, argv,
                                               claimed):
    # rows (1, 1) and 2 (1, 1): a delay-free gamma-basis, so only the
    # claims can make the load fail
    path = tmp_path / "claimed.json"
    path.write_text(z4_code_json([[[1, 1], [2, 2]]], 2, claimed))
    code, doc = run(capsys, *argv, "--code", str(path))
    assert code == 2
    assert doc["results"]["error"]["type"] == "CodeLoadError"
    assert "claimed must be an object" in doc["results"]["error"]["message"]


def test_check_missing_file_exit_2(capsys):
    code, doc = run(capsys, "check", "mdp", "--code", "no-such-file.json")
    assert code == 2
    assert "error" in doc["results"]


def test_construct_superregular_matches_lift(capsys, golden):
    code, doc = run(capsys, "construct", "superregular",
                    "--matrix", str(golden["t6"]), "--n", "3", "--k", "1",
                    "--L", "1", "--ring", "z121")
    assert code == 0
    code2, doc2 = run(capsys, "construct", "lift",
                      "--field-code", str(golden["field311"]),
                      "--ring", "z121")
    assert code2 == 0
    assert doc["results"]["code"] == doc2["results"]["code"]
    assert doc["results"]["code"] == json.loads(
        golden["code322"].read_text())


def test_construct_superregular_from_the_whole_matrix(capsys, tmp_path):
    # the full Toeplitz matrix gives the report of its first row; a broken
    # Toeplitz pattern, or a ring with nu > 1, is refused
    def construct(obj):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(obj))
        code, doc = run(capsys, "construct", "superregular", "--matrix",
                        str(path), "--n", "3", "--k", "1", "--L", "1")
        del doc["command"], doc["timing_seconds"]
        return code, doc

    first_row = (1, 2, 1, 1, 3, 4)
    spec = ToeplitzSpec(zmod(11), first_row)
    code, doc = construct(spec.to_json())
    assert code == 0
    full = spec.materialize().to_json()
    assert construct(full) == (0, doc)
    full["entries"][7] = 5  # row 1, column 1, on the diagonal of 1s
    code, doc = construct(full)
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"
    code, doc = construct(
        ToeplitzSpec(zmod(121), first_row).materialize().to_json())
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"


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


BINOMIAL_731 = ("construct", "binomial", "--n", "3", "--k", "1",
                "--delta", "1", "--p", "7")


def test_construct_refuses_a_ring_over_another_residue_field(capsys):
    code, doc = run(capsys, *BINOMIAL_731, "--ring", "z5")
    assert code == 2
    assert doc["results"]["error"] == {"type": "InvalidParams",
                                       "message": "residue fields differ"}


def test_construct_lift_refuses_a_code_over_a_ring_with_nu_above_1(
        capsys, golden):
    code, doc = run(capsys, "construct", "lift", "--field-code",
                    str(golden["code322"]), "--ring", "z1331")
    assert code == 2
    assert doc["results"]["error"] == {
        "type": "InvalidParams",
        "message": "lift input must live over a nu=1 ring"}


def test_construct_with_a_nu_1_ring_keeps_the_code(capsys, golden):
    # a --ring of nu = 1 lifts too, and the lift is the code itself
    superregular = ("construct", "superregular", "--matrix",
                    str(golden["t6"]), "--n", "3", "--k", "1", "--L", "1")
    for argv, ring in ((BINOMIAL_731, 7), (superregular, 11)):
        docs = []
        for extra in ((), ("--ring", f"z{ring}")):
            code, doc = run(capsys, *argv, *extra)
            assert code == 0
            del doc["command"], doc["timing_seconds"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["results"]["code"]["ring"] == zmod(ring).descriptor()


def test_construct_lifts_to_a_truncated_ring_of_nu_1(capsys):
    code, doc = run(capsys, *BINOMIAL_731, "--ring", "tp(7,1)")
    assert code == 0
    assert doc["results"]["code"]["ring"] == \
        TruncatedPolyRing(7, 1).descriptor()
    assert (doc["results"]["k"], doc["results"]["delta"]) == (1, 1)


def test_construct_validates_one_code(capsys, golden, monkeypatch):
    # the lift is the only code built: no field code is built and dropped
    from chaincodes import conv
    calls = []
    real = conv._is_gamma_basis

    def counting(G, pivots):
        calls.append(G.ring)
        return real(G, pivots)

    monkeypatch.setattr(conv, "_is_gamma_basis", counting)
    code, doc = run(capsys, "construct", "superregular", "--matrix",
                    str(golden["t6"]), "--n", "3", "--k", "1", "--L", "1",
                    "--ring", "z121")
    assert code == 0
    assert calls == [zmod(121)]


def test_distances_report(capsys, golden):
    code, doc = run(capsys, "distances", "--code", str(golden["code322"]),
                    "--max-j", "1")
    assert code == 0
    res = doc["results"]
    assert res["profile"] == [3, 5]
    assert res["saturated"] == [True, True]
    assert res["L"] == 1


def test_distances_omit_the_optimal_bounds_when_nu_does_not_divide_k(
        capsys, tmp_path):
    # 2(1 + z, 1) over Z4: k = 1, nu = 2, and d_2 = 3 exceeds the formula's
    # 2, so the profile comes without optimal_bounds and saturated
    z4 = zmod(4)
    G = PolyMatrix(z4, [RingMatrix(z4, [[2, 2]]), RingMatrix(z4, [[2, 0]])])
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(ConvCode(z4, 2, G).to_json()))
    code, doc = run(capsys, "distances", "--code", str(path), "--max-j", "3")
    assert code == 0
    res = doc["results"]
    assert res["profile"] == [2, 3, 3, 3]
    assert "optimal_bounds" not in res and "saturated" not in res
    assert "L" not in res
    assert any("no column-distance bound at j=1" in w for w in doc["warnings"])
    code, doc = run(capsys, "distances", "--code", str(path), "--max-j", "0")
    assert code == 0 and doc["results"]["optimal_bounds"] == [2]


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
     "--k", "1"],
    # there is one row convention, so no --rows
    ["construct", "superregular", "--matrix", "t6.json", "--n", "3",
     "--k", "1", "--L", "1", "--rows", "example"]])
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


@pytest.mark.parametrize("name", [
    "gr(4,2,1)", "gr(6,1,1)", "gr(1,1,1)",
    # a modulus or field size that is not a prime power
    "z12", "z1", "tp(6,2)", "f6", '{"family": "truncated", "q": 6, "nu": 2}'])
def test_ring_with_composite_p_rejected(capsys, name):
    code, doc = run(capsys, "ring", "--ring", name)
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("ring", [
    {"family": "truncated", "q": 6, "nu": 2},
    {"family": "galois", "p": 6, "r": 1, "s": 1}])
def test_code_over_a_ring_that_is_not_a_chain_ring_is_invalid(
        capsys, tmp_path, golden, ring):
    obj = json.loads(golden["code322"].read_text())
    obj["ring"] = ring
    path = tmp_path / "code.json"
    path.write_text(json.dumps(obj))
    code, doc = run(capsys, "distances", "--code", str(path), "--max-j", "0")
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


def test_matrix_without_a_ring_is_invalid(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
    code, doc = run(capsys, "blockcode", "shape", "--matrix", "-")
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"


# an entry count that is not rows*cols, an entry that is no integer, a
# wrong coordinate count and an unknown ring family
MALFORMED_VALUES = {
    "entry count": lambda d: d["entries"].pop(),
    "entry": lambda d: d["entries"].__setitem__(-1, "x"),
    "coordinates": lambda d: d["entries"].__setitem__(-1, [1, 0]),
    "family": lambda d: d.__setitem__("ring", {"family": "padic", "p": 3}),
}


# defects of an encoder coefficient that only a code file has, with the
# error each gives: every coefficient is read over its own ring, which
# must be the code's (Z121 with digit representatives)
COEFFICIENT_DEFECTS = {
    "another ring": (lambda e: e["coeffs"][0].__setitem__(
        "ring", zmod(9).descriptor()), "CodeLoadError"),
    "another ring, trailing zero": (lambda e: e["coeffs"].append(
        RingMatrix.zeros(zmod(5), 2, 3).to_json()), "CodeLoadError"),
    "another convention": (lambda e: e["coeffs"][1]["ring"].__setitem__(
        "convention", "teichmuller"), "CodeLoadError"),
    "no ring": (lambda e: e["coeffs"][0].pop("ring"), "InvalidParams"),
}


@pytest.mark.parametrize("defect", [*MALFORMED_VALUES, *COEFFICIENT_DEFECTS])
def test_malformed_descriptor_values_are_invalid(capsys, tmp_path, golden,
                                                 defect):
    path = tmp_path / "bad.json"
    obj = json.loads(golden["code322"].read_text())
    if defect in COEFFICIENT_DEFECTS:
        mutate, error = COEFFICIENT_DEFECTS[defect]
        mutate(obj["encoder"])
        path.write_text(json.dumps(obj))
        for argv in (["check", "mdp"], ["distances", "--max-j", "1"]):
            code, doc = run(capsys, *argv, "--code", str(path))
            assert code == 2
            assert doc["results"]["error"]["type"] == error
        return
    mutate = MALFORMED_VALUES[defect]
    matrix = RingMatrix(zmod(9), [[1, 0], [0, 1]]).to_json()
    mutate(matrix)
    path.write_text(json.dumps(matrix))
    for argv in (["blockcode", "params", "--matrix"],
                 ["construct", "superregular", "--n", "3", "--k", "1",
                  "--L", "1", "--matrix"]):
        code, doc = run(capsys, *argv, str(path))
        assert code == 2
        assert doc["results"]["error"]["type"] == "InvalidParams"
    # the same defect in a code file: in its first encoder coefficient, or
    # in its ring
    mutate(obj if defect == "family" else obj["encoder"]["coeffs"][0])
    path.write_text(json.dumps(obj))
    code, doc = run(capsys, "check", "mdp", "--code", str(path))
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("ring, first_row", [
    (zmod(11).descriptor(), [1, "x"]),
    (zmod(11).descriptor(), [1, [1, 0]]),
    ({"family": "padic", "p": 11}, [1, 2, 1, 1, 3, 4])],
    ids=["entry", "coordinates", "family"])
def test_malformed_toeplitz_rows_are_invalid(capsys, tmp_path, ring,
                                             first_row):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ring": ring, "first_row": first_row}))
    code, doc = run(capsys, "construct", "superregular", "--n", "3", "--k",
                    "1", "--L", "1", "--matrix", str(path))
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"


def test_ring_descriptor_without_a_family_is_invalid(capsys):
    code, doc = run(capsys, "ring", "--ring", "{}")
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"


def test_ring_file_holding_a_list_is_invalid(capsys, tmp_path):
    path = tmp_path / "ring.json"
    path.write_text("[1]")
    code, doc = run(capsys, "ring", "--ring", str(path))
    assert code == 2
    assert doc["results"]["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("p", ["4", "9"])
def test_construct_binomial_rejects_a_prime_power(capsys, p):
    code, doc = run(capsys, "construct", "binomial", "--n", "3", "--k", "1",
                    "--delta", "1", "--p", p)
    assert code == 2
    assert doc["results"]["error"] == {
        "type": "InvalidParams",
        "message": f"the binomial encoder needs a prime p; got p={p}"}


def run_python(source):
    """Standard output of `source` run by a fresh interpreter (module-level
    caches such as the field cache start empty there)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", source], capture_output=True,
                          text=True, env=env, check=True).stdout


RING_BUILDS_NO_TABLE = """
import contextlib, io
from chaincodes import cli
from chaincodes.fields import get_field
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["ring", "--ring", "gr(11,2,5)"])
print(code, type(get_field(11, 5)._exp).__name__)
"""


def test_ring_report_builds_no_field_table():
    code, kind = run_python(RING_BUILDS_NO_TABLE).split()
    assert code == "0"
    assert kind != "list"


IMPORTED_BY_CLI = """
import sys
before = set(sys.modules)
import chaincodes.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_leaves_out_slow_stdlib_modules():
    imported = set(run_python(IMPORTED_BY_CLI).split())
    assert "chaincodes.cli" in imported
    assert not {"dataclasses", "inspect", "fractions"} & imported
    # the runtime is stdlib-only: every module the CLI loads is the
    # standard library's or the package's own
    assert {name for name in imported
            if name.partition(".")[0] not in sys.stdlib_module_names
            and name.partition(".")[0] != "chaincodes"} == set()


def test_matrix_with_negative_sizes_is_invalid(capsys, tmp_path):
    # (-1) * (-1) matches the single entry
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": zmod(4).descriptor(), "rows": -1,
                                "cols": -1, "entries": [1]}))
    code, doc = run(capsys, "blockcode", "params", "--matrix", str(path))
    assert code == 2
    assert doc["results"]["error"] == {
        "type": "InvalidParams", "message": "matrix size -1x-1 is negative"}


def test_empty_toeplitz_matrix_is_invalid(capsys, tmp_path):
    # as a 0x0 matrix or as an empty first row, whatever the sizes
    path = tmp_path / "m.json"
    for obj in (RingMatrix(zmod(11), [], cols=0).to_json(),
                ToeplitzSpec(zmod(11), ()).to_json()):
        path.write_text(json.dumps(obj))
        for n, k, L in (("3", "1", "1"), ("1", "1", "-1")):
            code, doc = run(capsys, "construct", "superregular", "--n", n,
                            "--k", k, "--L", L, "--matrix", str(path))
            assert code == 2
            assert doc["results"]["error"] == {
                "type": "InvalidParams",
                "message": "Toeplitz matrix file must be square and nonempty"}


def _integer_grid(count, values=("-1", "0", "1", "3")):
    """Every `count`-tuple of `values`, with one more value that runs
    through all of them as the tuple varies in any one place."""
    return [(*t, values[sum(map(values.index, t)) % len(values)])
            for t in product(values, repeat=count)]


def test_integer_options_keep_the_exit_contract(capsys, tmp_path):
    # every report exits 0, 1 or 2, and an exit 2 names a ChainCodesError
    # subclass, never a bare ValueError, IndexError or ZeroDivisionError
    argvs = []
    for first_row in ((1, 2, 1, 1, 3, 4), (1,), ()):
        path = tmp_path / f"t{len(first_row)}.json"
        path.write_text(json.dumps(ToeplitzSpec(zmod(11),
                                                first_row).to_json()))
        argvs += [["construct", "superregular", "--matrix", str(path),
                   "--n", n, "--k", k, "--L", L]
                  for n, k, L, _ in _integer_grid(3)]
    argvs += [["construct", "binomial", "--n", n, "--k", k, "--delta", d,
               "--p", p] for n, k, d, p in _integer_grid(3)]
    argvs += [["bounds", "--n", n, "--k", k, "--delta", d, "--nu", nu,
               "--max-j", j] for n, k, d, nu, j in _integer_grid(4)]
    argvs += [["search", "superregular", "--ring", "z5", "--strategy",
               strategy, "--ell", ell, "--seed", seed, "--budget", budget,
               "--max-hits", hits]
              for strategy in ("exhaustive", "random")
              for ell, seed, budget, hits in _integer_grid(3)]
    exits = Counter()
    for argv in argvs:
        code, doc = run(capsys, *argv)
        exits[code] += 1
        assert code in (0, 1, 2), argv
        if code == 2:
            assert issubclass(getattr(errors, doc["results"]["error"]["type"],
                                      Exception), errors.ChainCodesError), \
                (argv, doc["results"]["error"])
    # none of these commands checks a property, so none exits 1
    assert len(argvs) == 640 and set(exits) == {0, 2}, exits


def test_search_with_ell_zero_is_invalid(capsys):
    code, doc = run(capsys, "search", "superregular", "--ell", "0",
                    "--ring", "z5")
    assert code == 2
    assert doc["results"]["error"] == {
        "type": "InvalidParams", "message": "search needs ell >= 1; got ell=0"}


@pytest.mark.parametrize("argv", [
    ["check", "mdp"], ["check", "gamma-basis"], ["distances", "--max-j", "1"],
], ids=" ".join)
@pytest.mark.parametrize("key, value", [("k", 5), ("n", 9)])
def test_encoder_shape_that_disagrees_with_its_coefficients_exits_2(
        capsys, golden, tmp_path, argv, key, value):
    # the README code with a wrong k or n in its encoder object
    obj = json.loads(golden["code322"].read_text())
    obj["encoder"][key] = value
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(obj))
    code, doc = run(capsys, *argv, "--code", str(path))
    assert code == 2
    assert doc["results"]["error"]["type"] == "CodeLoadError"
    assert f"{key}={value}" in doc["results"]["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["check", "mdp", "--code", "code.json", "--method", "minors",
     "--budget", "-3"],
    ["distances", "--code", "code.json", "--max-j", "1", "--budget", "-1"],
    ["blockcode", "mindist", "--matrix", "m.json", "--budget", "-1"],
    ["search", "superregular", "--ell", "3", "--ring", "z11",
     "--strategy", "random", "--seed", "1", "--budget", "-5"]])
def test_negative_budgets_are_usage_errors(capsys, argv):
    assert_usage_error_report(capsys, argv)


def test_zero_budget_is_a_budget(capsys, golden):
    code, doc = run(capsys, "blockcode", "mindist", "--matrix",
                    str(golden["matrix_z9"]), "--budget", "0")
    assert code == 2
    error = doc["results"]["error"]
    assert (error["type"], error["requested"], error["allowed"]) == \
        ("BudgetExceeded", 9, 0)


def test_blockcode_mindist_walks_once(capsys, tmp_path, monkeypatch):
    # 3 (1, 0, 2, 4) + 2 (0, 3, 6, 3) = (3, 6, 0, 0) has weight 2 and no
    # nonzero word has weight 1; the Singleton bound is 4 - 1 + 1 = 3
    from chaincodes import block
    walks = []
    real = block.column_distance

    def counting(C, j, budget):
        walks.append(j)
        return real(C, j, budget=budget)

    monkeypatch.setattr(block, "column_distance", counting)
    path = tmp_path / "z9.json"
    path.write_text(json.dumps(RingMatrix(zmod(9), [
        [1, 0, 2, 4], [0, 3, 6, 3]]).to_json()))
    code, doc = run(capsys, "blockcode", "mindist", "--matrix", str(path))
    assert code == 0
    assert doc["results"] == {"min_distance": 2, "singleton_bound": 3,
                              "is_mds": False}
    assert walks == [0]


def test_blockcode_mindist_of_a_zero_matrix_exits_2(capsys, tmp_path):
    # the code {0}, of zero rows or of none, has no minimum distance: the
    # error is the whole result
    path = tmp_path / "zero.json"
    for generator in (RingMatrix.zeros(zmod(9), 2, 3),
                      RingMatrix(zmod(9), [], cols=3)):
        path.write_text(json.dumps(generator.to_json()))
        code, doc = run(capsys, "blockcode", "mindist", "--matrix", str(path))
        assert code == 2
        assert list(doc["results"]) == ["error"]
        assert doc["results"]["error"]["type"] == "InvalidParams"
        assert "the code is {0}" in doc["results"]["error"]["message"]
