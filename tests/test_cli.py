"""End-to-end tests of the command-line interface, run in process.

Covers payload shapes, exit codes (0 pass / 1 report failure / 2 usage /
3 refusal), the size guard of `basis`, `profinite`, `smash`, `act`, `nu`
and `variants`, byte-determinism of JSON output, stdin and file plumbing,
and the text renderer.  The exit-at-once cases also run in a fresh process.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hopfgal
from hopfgal import cli, cyclotomic, verify
from hopfgal.cli import MAX_REQUEST_SIZE, main
from hopfgal.gp_enum import (beta_subgroup, cyclotomic_subgroup,
                             full_galois_group, instance_to_json,
                             zeta1_galois_group)
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


def test_act_names_a_zero_denominator(capsys):
    assert main(["act", "--p", "3", "--n", "1", "--a", "1/0"]) == 2
    assert "zero denominator in '1/0'" in capsys.readouterr().err


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


def _malformed_matrix(**change) -> dict:
    data = to_end_matrix(SmashElt.basis(3, 1, 2, 0, 0)).to_json()
    data.update(change)
    return data


@pytest.mark.parametrize("data", [
    _malformed_matrix(rows=[["1/0", "0/1", "0/1"]] + [["0/1"] * 3] * 2),
    _malformed_matrix(rows=5),
    _malformed_matrix(rows=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    _malformed_matrix(a=2),
    _malformed_matrix(p="3"),
    [_malformed_matrix()],
], ids=["zero-denominator", "rows-not-a-list", "integer-entries",
        "integer-radicand", "string-prime", "top-level-list"])
def test_decompose_malformed_matrix_is_a_usage_error(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["decompose", "--matrix", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_profinite_refuses_an_over_cap_level_before_any_report(capsys, monkeypatch):
    # level 6 is admitted now; level 7 is over the size bound
    def no_report(p, n):
        raise AssertionError("a report ran before the size refusal")

    monkeypatch.setattr(verify, "nu_consistency_check", no_report)
    assert main(["profinite", "--p", "3", "--level", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: ")
    assert "size %d exceeds the bound %d" % (4 * 8 * 3 ** 14, MAX_REQUEST_SIZE) \
        in captured.err


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the size refusal")


class _WorkStarted(Exception):
    """Raised in place of a command's work, once its size was admitted."""


def _start_work(*args, **kwargs):
    raise _WorkStarted


def _patch_work(monkeypatch, work):
    """Put `work` in place of every command's work, and forbid building a
    field, so that only the size guard runs."""
    monkeypatch.setattr(cyclotomic.FieldDescriptor, "__new__", _no_work)
    for name in ("e_basis", "criterion", "variant_reports"):
        monkeypatch.setattr(cli, name, work)


@pytest.mark.parametrize("argv", [
    # profinite measures 4 x (level + 1) x p^(2 level), variants
    # p(p-1)p^3n / 8
    ("profinite", "--p", "11", "--level", "3"),
    ("profinite", "--p", "3", "--level", "7"),
    ("profinite", "--p", "5", "--level", "5"),
    ("profinite", "--p", "7", "--level", "4"),
    ("profinite", "--p", "1999", "--level", "1"),  # 4M idempotent cells held
    ("variants", "--p", "11", "--n", "2"),
    ("variants", "--p", "3", "--n", "6"),
    ("variants", "--p", "5", "--n", "4"),
    ("basis", "--p", "3", "--n", "7"),
], ids=["profinite_p11_l3", "profinite_p3_l7", "profinite_p5_l5", "profinite_p7_l4",
        "profinite_p1999_l1", "variants_p11_n2", "variants_p3_n6", "variants_p5_n4",
        "basis_p3_n7"])
def test_oversized_request_is_refused_at_once(capsys, monkeypatch, argv):
    _patch_work(monkeypatch, _no_work)
    t0 = time.perf_counter()
    assert main(list(argv)) == 3
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refused: " in captured.err and "exceeds the bound" in captured.err


@pytest.mark.parametrize("argv", [
    ("profinite", "--p", "4", "--level", "40"),
    ("profinite", "--p", "3", "--level", "0"),
    ("basis", "--p", "3", "--n", "0"),
], ids=["profinite_p4_l40", "profinite_p3_l0", "basis_p3_n0"])
def test_invalid_level_is_a_usage_error_at_any_size(capsys, monkeypatch, argv):
    monkeypatch.setattr(verify, "nu_consistency_check", _no_work)
    monkeypatch.setattr(cli, "e_basis", _no_work)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_level_zero_messages_name_their_flag(capsys):
    assert main(["profinite", "--p", "3", "--level", "0"]) == 2
    assert capsys.readouterr().err == "error: --level must be >= 1, got 0\n"
    assert main(["basis", "--p", "3", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: n must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, size", [
    (("--left", "0,0"), 3 ** 16),
    (("--left", "0,0", "--right", "1,1"), 3 * 3 ** 16),
], ids=["one_matrix", "three_matrices"])
def test_smash_over_the_bound_is_refused_at_once(capsys, monkeypatch, argv, size):
    # the size is the matrices emitted times their p^2n rationals
    monkeypatch.setattr(cli, "to_end_matrix", _no_work)
    monkeypatch.setattr(cli, "smash_mult", _no_work)
    t0 = time.perf_counter()
    assert main(["smash", "--p", "3", "--n", "8", *argv]) == 3
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: ")
    assert "size %d exceeds the bound %d" % (size, MAX_REQUEST_SIZE) in captured.err


@pytest.mark.parametrize("argv", [
    # each runs in at most 13 s (README's calibration table)
    ("profinite", "--p", "3", "--level", "5"),
    ("profinite", "--p", "7", "--level", "3"),
    ("profinite", "--p", "5", "--level", "4"),
    ("profinite", "--p", "3", "--level", "6"),
    ("variants", "--p", "3", "--n", "2"),
    ("variants", "--p", "3", "--n", "3"),
    ("variants", "--p", "5", "--n", "2"),
    ("variants", "--p", "3", "--n", "4"),
    ("variants", "--p", "7", "--n", "2"),
    ("variants", "--p", "5", "--n", "3"),
    ("variants", "--p", "3", "--n", "5"),
], ids=["profinite_p3_l5", "profinite_p7_l3", "profinite_p5_l4", "profinite_p3_l6",
        "variants_p3_n2", "variants_p3_n3", "variants_p5_n2", "variants_p3_n4",
        "variants_p7_n2", "variants_p5_n3", "variants_p3_n5"])
def test_request_under_the_bound_starts_its_work(monkeypatch, argv):
    _patch_work(monkeypatch, _start_work)
    with pytest.raises(_WorkStarted):
        main(list(argv))


def _basis_argv(p: int, n: int, all_indices: bool) -> list[str]:
    return ["basis", "--p", str(p), "--n", str(n), *([] if all_indices else ["--i", "0"])]


@pytest.mark.parametrize("p, n, all_indices", [
    (3, 1, False), (3, 1, True), (3, 2, True),    # basis in tests and golden files
    (3, 3, True), (3, 4, True), (5, 3, True),
    (3, 5, True), (13, 2, True), (3, 7, False),
])
def test_size_guard_admits(monkeypatch, p, n, all_indices):
    # basis measures its idempotents x p^n * phi(p^n) rationals
    _patch_work(monkeypatch, _start_work)
    with pytest.raises(_WorkStarted):
        main(_basis_argv(p, n, all_indices))


@pytest.mark.parametrize("p, n", [(7, 3), (5, 4), (3, 6), (3, 7)])
def test_size_guard_refuses(capsys, monkeypatch, p, n):
    _patch_work(monkeypatch, _no_work)
    assert main(_basis_argv(p, n, True)) == 3
    assert "exceeds the bound" in capsys.readouterr().err


def _child_env() -> dict:
    """The environment of a fresh process that imports this hopfgal."""
    src = str(Path(hopfgal.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


_MATRIX_P4 = {"p": 4, "n": 1, "a": "2/1", "rows": [["0/1"] * 4] * 4}
_MATRIX_HUGE_N = {"p": 3, "n": 100_000_000, "a": "2/1", "rows": []}
_INSTANCE_DEGREE_3E5 = {"degree": 300_000, "gamma_generators": [], "delta_generators": []}
_INSTANCE_DEGREE_4E6 = {"degree": 4_000_000, "gamma_generators": [], "delta_generators": []}


@pytest.mark.parametrize("argv, code, message", [
    # p and n are checked on every data subcommand
    (("smash", "--p", "3", "--n", "-1", "--left", "0,0"), 2, "n must be >= 1"),
    (("act", "--p", "3", "--n", "-1"), 2, "n must be >= 1"),
    (("act", "--p", "3", "--n", "0"), 2, "n must be >= 1"),
    (("smash", "--p", "4", "--n", "1", "--left", "0,0"), 2, "odd prime, got 4"),
    (("act", "--p", "4", "--n", "1"), 2, "odd prime, got 4"),
    (("nu", "--p", "4", "--n", "2"), 2, "odd prime, got 4"),
    (("decompose", "--matrix", _MATRIX_P4), 2, "odd prime, got 4"),
    # the size is decided before any field is built or power computed
    (("basis", "--p", "10007", "--n", "1"), 3, "size 1002001330294 exceeds"),
    (("profinite", "--p", "3", "--level", "1000000"), 3, "p^n alone exceeds"),
    (("profinite", "--p", "3", "--level", "100000000"), 3, "p^n alone exceeds"),
    (("smash", "--p", "3", "--n", "100000000", "--left", "0,0"), 3,
     "p^n alone exceeds"),
    (("decompose", "--matrix", _MATRIX_HUGE_N), 2, "expected a p^n x p^n matrix"),
    # act emits 3 * p^n rationals, nu p^n + p^(n-1)
    (("act", "--p", "3", "--n", "25"), 3, "p^n alone exceeds"),
    (("act", "--p", "3", "--n", "15"), 3, "size 43046721 exceeds"),
    (("nu", "--p", "3", "--n", "15"), 3, "size 19131876 exceeds"),
    (("nu", "--p", "3", "--n", "25"), 3, "p^n alone exceeds"),
    # variants measures the p(p-1)p^3n / 8 exponent sums its matrices fold
    (("variants", "--p", "3", "--n", "100000000"), 3, "p^n alone exceeds"),
    (("variants", "--p", "3", "--n", "16"), 3,
     "size %d exceeds" % (3 * 2 * 3 ** 48 // 8)),
    (("variants", "--p", "4", "--n", "1"), 2, "odd prime, got 4"),
    (("variants", "--p", "13", "--n", "1"), 2, "need level >= 2"),
    (("variants", "--p", "3", "--n", "0"), 2, "n must be >= 1"),
    # verify-all's filters name a field too, before any check runs
    (("verify-all", "--p", "4"), 2, "odd prime, got 4"),
    (("verify-all", "--p", "2"), 2, "odd prime, got 2"),
    (("verify-all", "--n", "0"), 2, "n must be >= 1"),
    # a census instance's degree is bounded before any permutation is built
    (("census", _INSTANCE_DEGREE_3E5), 2, "'degree' must be <= 4096, got 300000"),
    (("census", _INSTANCE_DEGREE_4E6), 2, "'degree' must be <= 4096, got 4000000"),
    # primality is decided by Miller-Rabin at once: 10^18 + 3 is prime and
    # refused by size; 2^89 - 1 is prime but past the bound of the bases
    (("basis", "--p", "1000000000000000003", "--n", "1"), 3, "exceeds the bound 16000000"),
    (("basis", "--p", str(2 ** 89 - 1), "--n", "1"), 2, "is not decided"),
    (("verify-all", "--p", str(2 ** 89 - 1)), 2, "is not decided"),
], ids=["smash_n_negative", "act_n_negative", "act_n_zero", "smash_p4", "act_p4",
        "nu_p4", "decompose_p4", "basis_p10007", "profinite_l1e6",
        "profinite_l1e8", "smash_n1e8", "decompose_n1e8", "act_n25", "act_n15",
        "nu_n15", "nu_n25", "variants_n1e8", "variants_n16", "variants_p4",
        "variants_p13_n1", "variants_n_zero", "verify_all_p4", "verify_all_p2",
        "verify_all_n_zero", "census_degree_3e5", "census_degree_4e6",
        "basis_p1e18", "basis_p_past_primality_bound",
        "verify_all_p_past_primality_bound"])
def test_bad_or_oversized_request_exits_at_once(tmp_path, argv, code, message):
    if isinstance(argv[-1], dict):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(argv[-1]))
        argv = (*argv[:-1], str(path))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hopfgal.cli", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == code, proc.stderr
    assert elapsed < 1.0, elapsed
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("refused: " if code == 3 else "error: ")
    assert message in proc.stderr


def test_profinite_level_five_passes_within_budget():
    # a fresh process, so that the peak resident memory is this run's alone
    child = ("import resource, sys\n"
             "from hopfgal.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
             "sys.exit(code)\n")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", child, "profinite", "--p", "3",
                           "--level", "5", "--format", "json"],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=300)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)["reports"]
    assert len(reports) == 17 and all(r["status"] == "pass" for r in reports)
    peak_mb = int(proc.stderr.split()[-1]) / 1024  # ru_maxrss is in KiB
    assert elapsed <= 60.0, elapsed
    assert peak_mb <= 500.0, peak_mb


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


def test_census_malformed_instance_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"degree": 3, "gamma_generators": 5,
                                "delta_generators": []}))
    assert main(["census", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"degree": 3, "gamma_generators": [[1, None, 0]], "delta_generators": []},
    [{"degree": 3, "gamma_generators": [[1, 2, 0]], "delta_generators": []}],
], ids=["null-generator-entry", "top-level-list"])
def test_census_mistyped_instance_is_a_usage_error(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["census", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ({"degree": 0, "gamma_generators": [], "delta_generators": []},
     "'degree' must be >= 1"),
    ({"degree": 3, "delta_generators": []}, "'gamma_generators' is missing"),
], ids=["degree-0", "no-gamma"])
def test_census_instance_of_degree_0_or_a_missing_field_is_a_usage_error(
        capsys, tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["census", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    assert message in captured.err


def test_census_refuses_oversized_instance(capsys, tmp_path):
    images = [(i + 1) % 30 for i in range(30)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"degree": 30,
                                "gamma_generators": [images],
                                "delta_generators": []}))
    assert main(["census", str(path)]) == 3
    assert "refused:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["census", "verify-all"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_budget_that_is_negative_or_not_finite_is_a_usage_error(
        capsys, command, value):
    # a nan budget would never run out: no clock reading compares above it
    with pytest.raises(SystemExit) as exc:
        main([command, "--budget-seconds", value])
    assert exc.value.code == 2
    assert "finite number of seconds >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["census", "verify-all"])
def test_zero_budget_is_accepted(command):
    args = cli.build_parser().parse_args([command, "--budget-seconds", "0"])
    assert args.budget_seconds == 0.0


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


def test_verify_all_skips_every_criterion_for_an_odd_prime_outside_the_matrix(capsys):
    code, data = run_json(capsys, "verify-all", "--p", "11")
    assert code == 0
    assert data["summary"] == {"pass": 0, "fail": 0, "skipped": 10}


def test_verify_all_on_a_large_prime_outside_the_matrix_exits_at_once():
    # 10^18 + 3 is prime: thirteen modular powers decide it, where trial
    # division would take 10^9 steps; it then skips like any other prime
    outcomes = {}
    for p in ("11", "1000000000000000003"):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hopfgal.cli", "verify-all",
                               "--p", p, "--format", "json"],
                              capture_output=True, text=True, env=_child_env(),
                              timeout=60)
        assert time.perf_counter() - t0 < 5.0
        outcomes[p] = proc.returncode, json.loads(proc.stdout)["summary"]
    assert outcomes["1000000000000000003"] == outcomes["11"] == \
        (0, {"pass": 0, "fail": 0, "skipped": 10})


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
    # the truncation-only variants instance, (3,3)
    ("verify-all", "--p", "3", "--n", "3"),
    # the filter paths: --p 5 empties the hom-subalgebra, variants and
    # census families; --n 2 keeps both inverse-system primes, a family
    # filtered on p alone; --p 11 empties every family into its skip report
    ("verify-all", "--p", "5"),
    ("verify-all", "--n", "2"),
    ("verify-all", "--p", "11"),
    ("variants", "--p", "3", "--n", "2"),
    ("profinite", "--p", "3", "--level", "3"),
    ("basis", "--p", "3", "--n", "2"),
    ("census",),
    ("smash", "--p", "3", "--n", "2", "--left", "4,7", "--right", "2,5"),
    ("variants", "--p", "3", "--n", "3", "--i", "2"),
    # zeros in both factors, so the supports overlap only in part
    ("act", "--p", "3", "--n", "2", "--a", "3/5",
     "--h-coords", "1,0,-2/3,0,5,0,7/2,1,0",
     "--x-coords", "0,4,1/2,0,-3,0,0,2/7,6"),
    ("nu", "--p", "3", "--n", "3", "--coords",
     "1,0,0,-2/3,5,0,0,0,7/2,4,0,1,0,0,-1,3/4,0,0,2,0,0,0,1/9,0,-5,0,8"),
], ids=["verify_all_p3_n1", "verify_all_p3_n3", "verify_all_p5",
        "verify_all_n2", "verify_all_p11", "variants_p3_n2",
        "profinite_p3_l3", "basis_p3_n2", "census", "smash_p3_n2",
        "variants_p3_n3_i2", "act_p3_n2", "nu_p3_n3"])
def test_json_output_matches_golden_bytes(capsys, request, argv):
    # each file holds the output captured before a rewrite of the code it
    # runs through (the unified elimination and coordinates, the integer
    # cyclotomic core, the census catalogue, the sparse matrix model, the
    # variant algebras kept as fixed-space terms, the sparse Hopf and radical
    # elements, the report-layer cuts, the criteria table); any byte
    # difference is a regression
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    golden = GOLDEN / (request.node.callspec.id + ".json")
    assert out == golden.read_text()


def test_decompose_matches_golden_bytes(capsys, tmp_path):
    # the product matrix of the smash golden file, w^6 # e_5 with its wrap
    # into the radicand, decomposed back
    product = json.loads((GOLDEN / "smash_p3_n2.json").read_text())["product"]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(product["matrix"]))
    code, out = run(capsys, "decompose", "--matrix", str(path), "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "decompose_p3_n2.json").read_text()


@pytest.mark.parametrize("p,over_q,golden", [
    # degree 9 over Q(zeta_3): three structures, with their elements and flags
    (3, False, "census_deg9_over_zeta3.json"),
    # degree 25 over Q(zeta_5): five structures, the largest pinned search
    (5, False, "census_deg25_over_zeta5.json"),
    # degree 25 over Q: one structure, from the largest coset action (|Γ| = 500)
    (5, True, "census_deg25_over_Q.json"),
], ids=["deg9_over_zeta3", "deg25_over_zeta5", "deg25_over_Q"])
def test_census_instance_matches_golden_bytes(capsys, tmp_path, p, over_q,
                                              golden):
    instance = (instance_to_json(full_galois_group(p, 2),
                                 cyclotomic_subgroup(p, 2)) if over_q else
                instance_to_json(zeta1_galois_group(p, 2), beta_subgroup(p, 2)))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code, out = run(capsys, "census", str(path), "--format", "json")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


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


def test_out_file_bytes_equal_stdout_bytes(capsys, tmp_path):
    argv = ["basis", "--p", "3", "--n", "2", "--format", "json"]
    code, out = run(capsys, *argv)
    path = tmp_path / "basis.json"
    assert main(argv + ["--out", str(path)]) == code == 0
    assert path.read_bytes() == out.encode()
    assert out == (GOLDEN / "basis_p3_n2.json").read_text()


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
