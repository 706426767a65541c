"""End-to-end tests of the command-line interface, run in process.

Covers payload shapes, exit codes (0 pass / 1 report failure / 2 usage /
3 enumeration refusal), byte-determinism of JSON output, stdin and file
plumbing, and the text renderer.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from hopfgal.cli import main
from hopfgal.gp_enum import full_galois_group, cyclotomic_subgroup, instance_to_json
from hopfgal.reporting import Report
from hopfgal.smash_end import SmashElt, to_end_matrix


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# construction commands


def test_basis_pinned_vector(capsys):
    code, data = run_json(capsys, "basis", "--p", "3", "--n", "1", "--i", "1")
    assert code == 0
    assert data["command"] == "basis" and (data["p"], data["n"]) == (3, 1)
    assert data["elements"] == [{
        "i": 1,
        "coefficients": [["1/3", "0/1"], ["-1/3", "-1/3"], ["0/1", "1/3"]],
    }]


def test_basis_emits_all_indices_by_default(capsys):
    code, data = run_json(capsys, "basis", "--p", "3", "--n", "1")
    assert code == 0
    assert [e["i"] for e in data["elements"]] == [0, 1, 2]


def test_act_idempotent_projects_the_root(capsys):
    code, data = run_json(capsys, "act", "--p", "3", "--n", "1", "--i", "1")
    assert code == 0
    assert data["radicand"] == "2/1"
    assert data["output"] == {"radicand": "2/1",
                              "coords": ["0/1", "1/1", "0/1"]}


def test_act_rejects_pth_power_radicand(capsys):
    assert main(["act", "--p", "3", "--n", "1", "--a", "8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_act_rejects_malformed_rational(capsys):
    assert main(["act", "--p", "3", "--n", "1", "--a", "2//3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_act_rejects_wrong_coordinate_count(capsys):
    assert main(["act", "--p", "3", "--n", "1", "--h-coords", "1,0"]) == 2
    assert "3 comma-separated" in capsys.readouterr().err


def test_smash_product_wraps_into_radicand(capsys):
    code, data = run_json(capsys, "smash", "--p", "3", "--n", "1",
                          "--left", "1,2", "--right", "2,0")
    assert code == 0
    assert data["left"]["terms"] == [[1, 2, "1/1"]]
    assert data["right"]["terms"] == [[2, 0, "1/1"]]
    # w * w^2 = w^3 = 2 and the idempotent indices line up, so the
    # product collapses to twice the (0, 0) basis monomial
    assert data["product"]["terms"] == [[0, 0, "2/1"]]


def test_smash_product_annihilates_mismatched_indices(capsys):
    code, data = run_json(capsys, "smash", "--p", "3", "--n", "1",
                          "--left", "1,1", "--right", "2,0")
    assert code == 0
    assert data["product"]["terms"] == []


def test_smash_rejects_malformed_pair(capsys):
    assert main(["smash", "--p", "3", "--n", "1", "--left", "1"]) == 2
    assert main(["smash", "--p", "3", "--n", "1", "--left", "a,b"]) == 2


# ---------------------------------------------------------------------------
# decompose: stdin and file input


def test_decompose_from_stdin(capsys, monkeypatch):
    matrix = to_end_matrix(SmashElt.basis(3, 1, 2, 1, 2))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(matrix.to_json())))
    code, data = run_json(capsys, "decompose")
    assert code == 0
    assert data["terms"] == [[1, 2, "1/1"]]
    assert (data["p"], data["n"], data["radicand"]) == (3, 1, "2/1")


def test_decompose_from_file_with_consistency_checks(capsys, tmp_path):
    matrix = to_end_matrix(SmashElt.basis(3, 1, 2, 0, 0))
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix.to_json()))
    code, data = run_json(capsys, "decompose", "--matrix", str(path),
                          "--p", "3", "--n", "1", "--a", "2")
    assert code == 0 and data["terms"] == [[0, 0, "1/1"]]
    assert main(["decompose", "--matrix", str(path), "--p", "5"]) == 2
    assert "contradicts" in capsys.readouterr().err


def test_decompose_missing_file(capsys):
    assert main(["decompose", "--matrix", "/nonexistent/m.json"]) == 2


def test_decompose_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["decompose", "--matrix", str(path)]) == 2


# ---------------------------------------------------------------------------
# truncation


def test_nu_lowers_an_idempotent(capsys):
    code, data = run_json(capsys, "nu", "--p", "3", "--n", "2", "--i", "3")
    assert code == 0
    assert (data["source"], data["target"]) == (2, 1)
    assert data["output"] == ["0/1", "1/1", "0/1"]  # index 3 maps to 3/3 = 1


def test_nu_kills_indices_prime_to_p(capsys):
    code, data = run_json(capsys, "nu", "--p", "3", "--n", "2", "--i", "2")
    assert code == 0
    assert data["output"] == ["0/1", "0/1", "0/1"]


def test_nu_requires_level_at_least_two(capsys):
    assert main(["nu", "--p", "3", "--n", "1"]) == 2


# ---------------------------------------------------------------------------
# report-producing commands


def test_profinite_suite_passes(capsys):
    code, data = run_json(capsys, "profinite", "--p", "3")
    assert code == 0
    assert data["reports"] and all(r["status"] == "pass"
                                   for r in data["reports"])


def test_variants_level_two_skips_truncation_checks(capsys):
    code, data = run_json(capsys, "variants", "--p", "3", "--n", "2")
    assert code == 0
    claims = [r["claim"] for r in data["reports"]]
    assert claims.count("variant-complements") == 1
    assert claims.count("variant-hopf-rank") == 3
    assert claims.count("variant-action") == 4  # one per index + distinctness
    assert "variant-truncation" not in claims


def test_variants_single_index(capsys):
    code, data = run_json(capsys, "variants", "--p", "3", "--n", "2",
                          "--i", "1")
    assert code == 0
    assert len(data["reports"]) == 3


def test_census_pinned_instances_pass(capsys):
    code, data = run_json(capsys, "census")
    assert code == 0
    assert len(data["reports"]) == 6  # two reports for each pinned instance
    assert all(r["status"] == "pass" for r in data["reports"])


def test_census_accepts_instance_file(capsys, tmp_path):
    data = instance_to_json(full_galois_group(3, 1), cyclotomic_subgroup(3, 1))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    code, payload = run_json(capsys, "census", str(path))
    assert code == 0
    assert payload["command"] == "census"
    assert payload["count"] == 1
    assert payload["subgroups"][0]["cyclic"] is True


def test_census_refuses_oversized_instance(capsys, tmp_path):
    images = [(i + 1) % 30 for i in range(30)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"degree": 30,
                                "gamma_generators": [images],
                                "delta_generators": []}))
    assert main(["census", str(path)]) == 3
    assert "refused:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify-all


def test_verify_all_filtered_slice_passes(capsys):
    code, data = run_json(capsys, "verify-all", "--p", "3", "--n", "2")
    assert code == 0
    assert data["summary"]["fail"] == 0
    assert data["summary"]["pass"] > 0
    assert [c["name"] for c in data["criteria"]] == [
        "dual-basis", "fixed-ring", "measuring", "fixed-field",
        "smash-endomorphism", "base-change", "inverse-system",
        "hom-subalgebra", "variants", "census",
    ]


def test_verify_all_reports_failure_with_exit_one(capsys, monkeypatch):
    failing = Report("dual-pairing-identity", {"p": 3, "n": 1}, "fail",
                     witness={"entry": [0, 1]})
    monkeypatch.setattr("hopfgal.cli.full_suite",
                        lambda **kw: [("dual-basis", [failing])])
    code, out = run(capsys, "verify-all")
    assert code == 1
    assert "witness=" in out and "1 fail" in out


def test_verify_all_rejects_bad_radicand(capsys):
    assert main(["verify-all", "--p", "3", "--a", "0"]) == 2


# ---------------------------------------------------------------------------
# output plumbing


def test_json_output_is_deterministic(capsys):
    code1, out1 = run(capsys, "verify-all", "--p", "3", "--n", "1",
                      "--format", "json")
    code2, out2 = run(capsys, "verify-all", "--p", "3", "--n", "1",
                      "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [
    ("verify-all", "--p", "3", "--n", "1"),
    ("variants", "--p", "3", "--n", "2"),
], ids=["verify_all_p3_n1", "variants_p3_n2"])
def test_json_output_matches_golden_bytes(capsys, request, argv):
    # the files hold the output captured before the elimination and
    # coordinate code was unified; any byte difference is a regression
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    golden = GOLDEN / (request.node.callspec.id + ".json")
    assert out == golden.read_text()


def test_timings_flag_adds_elapsed_ms(capsys):
    _, plain = run_json(capsys, "profinite", "--p", "3")
    code, timed = run_json(capsys, "profinite", "--p", "3", "--timings")
    assert code == 0
    assert all("elapsed_ms" not in r for r in plain["reports"])
    assert all("elapsed_ms" in r for r in timed["reports"])


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "basis.json"
    code = main(["basis", "--p", "3", "--n", "1", "--format", "json",
                 "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["command"] == "basis"


def test_text_renderer_summary_line(capsys):
    code, out = run(capsys, "profinite", "--p", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "== profinite =="
    n = len(lines) - 2  # header and totals line bracket the reports
    assert lines[-1] == "%d checks: %d pass, 0 fail, 0 skipped" % (n, n)


def test_missing_required_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--n", "1"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
