"""Acceptance gate: the ten verification criteria on their default instances.

Every check is exact (canonical-form equality; tolerance zero).  Each test
runs one entry of `verify.CRITERIA` end to end through `verify.criterion`,
prints a single pass/fail line with the check count and elapsed time,
asserts that every report passes, and enforces the criterion's wall-clock
budget.  Instance families are pinned here so a refactor cannot silently
shrink the coverage.
"""

from __future__ import annotations

import time
from collections import Counter

from hopfgal import verify


def run_criterion(number: int, slug: str, budget_seconds: float):
    # the number is the criterion's place in the table
    assert verify.CRITERIA[number - 1].slug == slug
    t0 = time.perf_counter()
    reports = verify.criterion(slug)
    elapsed = time.perf_counter() - t0
    failures = [r for r in reports if not r.ok]
    status = "FAIL" if failures else "PASS"
    print("criterion %02d %-20s %s  (%d checks, %.2fs, budget %.0fs)"
          % (number, slug, status, len(reports), elapsed, budget_seconds))
    assert not failures, [(r.claim, r.parameters, r.witness) for r in failures]
    # the default families must actually run everything, not skip
    assert all(r.status == "pass" for r in reports)
    assert elapsed < budget_seconds, (
        "criterion %d took %.1fs, budget %.0fs" % (number, elapsed,
                                                   budget_seconds))
    return reports


def claims(reports) -> Counter:
    return Counter(r.claim for r in reports)


def test_criterion_01_dual_basis():
    assert verify.MAIN_INSTANCES == ((3, 1), (3, 2), (5, 1), (7, 1), (3, 3))
    reports = run_criterion(1, "dual-basis", 10)
    assert claims(reports) == {"dual-pairing-identity": 5}


def test_criterion_02_fixed_ring():
    reports = run_criterion(2, "fixed-ring", 60)
    assert claims(reports) == {"fixed-ring-dimension": 5,
                               "fixed-ring-span": 5}


def test_criterion_03_measuring():
    assert verify.MEASURING_INSTANCES == ((3, 1), (3, 2), (5, 1))
    reports = run_criterion(3, "measuring", 30)
    assert claims(reports) == {"measuring": 3}


def test_criterion_04_fixed_field():
    reports = run_criterion(4, "fixed-field", 5)
    assert claims(reports) == {"fixed-field": 5}


def test_criterion_05_smash_endomorphism():
    assert verify.ISO_INSTANCES == ((3, 1), (3, 2), (5, 1))
    reports = run_criterion(5, "smash-endomorphism", 60)
    assert claims(reports) == {"smash-end-iso": 3, "nine-matrices": 1}


def test_criterion_06_base_change():
    assert verify.BASE_CHANGE_TRIPLES == ((3, 2, 1), (3, 3, 1), (3, 3, 2),
                                          (5, 2, 1))
    reports = run_criterion(6, "base-change", 10)
    assert claims(reports) == {"base-change": 4}


def test_criterion_07_inverse_system():
    assert verify.PROFINITE_PRIMES == (3, 5)
    assert verify.PROFINITE_LEVEL == 3
    reports = run_criterion(7, "inverse-system", 120)
    assert claims(reports) == {"truncation-compat": 4,
                               "truncation-commutes": 6,
                               "coherent-sequences": 2,
                               "padic-model": 2,
                               "limit-fixed-points": 2}


def test_criterion_08_hom_subalgebra():
    assert verify.HOM_SUBALGEBRA_PRIME == 3
    assert verify.HOM_SUBALGEBRA_PAIRS == ((1, 2), (2, 1), (2, 2))
    reports = run_criterion(8, "hom-subalgebra", 10)
    assert claims(reports) == {"hom-subalgebra-dimension": 3,
                               "hom-subalgebra-closure": 3}


def test_criterion_09_variants():
    assert verify.VARIANT_INSTANCES == ((3, 2),)
    assert verify.VARIANT_NU_INSTANCES == ((3, 3),)
    reports = run_criterion(9, "variants", 120)
    assert claims(reports) == {"variant-complements": 1,
                               "variant-hopf-rank": 3,
                               "variant-action": 4,
                               "variant-truncation": 2}


def test_criterion_10_census():
    assert set(verify.CENSUS_LEVELS) == {
        "cubic-radical-over-Q",
        "ninth-root-radical-over-Q",
        "ninth-root-radical-over-cyclotomic",
    }
    reports = run_criterion(10, "census", 300)
    assert claims(reports) == {"census-counts": 3, "census-cyclic": 3}
