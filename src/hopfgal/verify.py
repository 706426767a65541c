"""Criterion-organized verification suites shared by the CLI and the tests.

Each ``criterion_*`` function runs the exact checks for one acceptance
criterion on its default desk-scale instance family and returns the list of
resulting reports.  ``full_suite`` assembles all ten criteria, optionally
filtered to a single prime / level via the same flags the CLI exposes, and
returns ``(criterion_slug, reports)`` groups in a fixed deterministic order.
"""

from __future__ import annotations

from fractions import Fraction

from .gp_enum import census_instances, census_reports
from .hopfgalois import (base_change_report, dual_pairing_report,
                         fixed_field_check, fixed_ring_reports,
                         measuring_check)
from .profinite import (coherent_sequence_check, commute_square_check,
                        fixed_truncation_check, nu_consistency_check,
                        padic_model_check)
from .reporting import Report
from .smash_end import (hom_subalgebra_closure_check,
                        hom_subalgebra_dimension_report, iso_check,
                        nine_matrices_report)
from .variants import variant_reports

# Default desk-scale instance families.  The heavier checks run on smaller
# subsets so each criterion stays inside its runtime budget.
MAIN_INSTANCES = ((3, 1), (3, 2), (5, 1), (7, 1), (3, 3))
MEASURING_INSTANCES = ((3, 1), (3, 2), (5, 1))
ISO_INSTANCES = ((3, 1), (3, 2), (5, 1))
BASE_CHANGE_TRIPLES = ((3, 2, 1), (3, 3, 1), (3, 3, 2), (5, 2, 1))
PROFINITE_PRIMES = (3, 5)
PROFINITE_LEVEL = 3
HOM_SUBALGEBRA_PRIME = 3
HOM_SUBALGEBRA_PAIRS = ((1, 2), (2, 1), (2, 2))
VARIANT_INSTANCES = ((3, 2),)
VARIANT_NU_INSTANCES = ((3, 3),)
CENSUS_LEVELS = {
    "cubic-radical-over-Q": (3, 1),
    "ninth-root-radical-over-Q": (3, 2),
    "ninth-root-radical-over-cyclotomic": (3, 2),
}
DEFAULT_RADICAND = Fraction(2)
DEFAULT_SEED = 20240901


def skipped(claim: str, parameters: dict) -> Report:
    return Report(claim=claim, parameters=parameters, status="skipped")


def criterion_dual_basis(instances=MAIN_INSTANCES) -> list[Report]:
    """Dual pairing of the idempotent basis against group generators is the identity."""
    if not instances:
        return [skipped("dual-pairing-identity", {"instances": []})]
    return [dual_pairing_report(p, n) for p, n in instances]


def criterion_fixed_ring(instances=MAIN_INSTANCES) -> list[Report]:
    """Fixed subring of the cyclotomic group ring has the right dimension and span."""
    if not instances:
        return [skipped("fixed-ring-dimension", {"instances": []})]
    out: list[Report] = []
    for p, n in instances:
        out.extend(fixed_ring_reports(p, n))
    return out


def criterion_measuring(instances=MEASURING_INSTANCES,
                        a=DEFAULT_RADICAND) -> list[Report]:
    """Exhaustive measuring identity on the radical extension."""
    if not instances:
        return [skipped("measuring", {"instances": []})]
    return [measuring_check(p, n, a) for p, n in instances]


def criterion_fixed_field(instances=MAIN_INSTANCES,
                          a=DEFAULT_RADICAND) -> list[Report]:
    """The invariants of the radical extension under the full algebra are the rationals."""
    if not instances:
        return [skipped("fixed-field", {"instances": []})]
    return [fixed_field_check(p, n, a) for p, n in instances]


def criterion_smash_end(instances=ISO_INSTANCES, a=DEFAULT_RADICAND,
                        seed: int = DEFAULT_SEED) -> list[Report]:
    """Smash product is isomorphic to the endomorphism algebra; pinned matrices match."""
    if not instances:
        return [skipped("smash-end-iso", {"instances": []})]
    out = [iso_check(p, n, a, seed=seed) for p, n in instances]
    if (3, 1) in instances:
        out.append(nine_matrices_report(a))
    return out


def criterion_base_change(triples=BASE_CHANGE_TRIPLES) -> list[Report]:
    """Scalar extension turns the level-m generator into a power of the level-n one."""
    if not triples:
        return [skipped("base-change", {"instances": []})]
    return [base_change_report(p, n, m) for p, n, m in triples]


def criterion_profinite(primes=PROFINITE_PRIMES,
                        level: int = PROFINITE_LEVEL) -> list[Report]:
    """Truncation tower: compatibility, commuting squares, coherent sequences,
    residue-model action, and fixed points of the limit action."""
    if not primes:
        return [skipped("truncation-compat", {"primes": []})]
    out: list[Report] = []
    for p in primes:
        for source in range(2, level + 1):
            out.append(nu_consistency_check(p, source))
            for target in range(1, source):
                out.append(commute_square_check(p, source, target))
        out.append(coherent_sequence_check(p, level))
        out.append(padic_model_check(p, level))
        out.append(fixed_truncation_check(p, level))
    return out


def criterion_hom_subalgebra(pairs=HOM_SUBALGEBRA_PAIRS,
                             p: int = HOM_SUBALGEBRA_PRIME,
                             a=DEFAULT_RADICAND) -> list[Report]:
    """Cross-level hom spaces: dimension count and multiplicative closure."""
    if not pairs:
        return [skipped("hom-subalgebra-dimension", {"instances": []})]
    out: list[Report] = []
    for n, m in pairs:
        out.append(hom_subalgebra_dimension_report(p, n, m, a))
        out.append(hom_subalgebra_closure_check(p, n, m, a))
    return out


def criterion_variants(instances=VARIANT_INSTANCES,
                       nu_instances=VARIANT_NU_INSTANCES,
                       a=DEFAULT_RADICAND) -> list[Report]:
    """Twisted-complement algebra family: complement count, ranks, actions,
    generator assignment under truncation, and the fixed-field containment
    pattern across levels."""
    if not instances and not nu_instances:
        return [skipped("variant-complements", {"instances": []})]
    out: list[Report] = []
    for p, n in instances:
        out.extend(variant_reports(p, n, a))
    for p, n in nu_instances:
        out.extend(variant_reports(p, n, a, algebras=False))
    return out


def criterion_census(labels=None, engine: str = "auto",
                     budget_seconds: float = 300.0) -> list[Report]:
    """Regular-subgroup census counts and structure types on the pinned instances."""
    chosen = [inst for inst in census_instances()
              if labels is None or inst.label in labels]
    if not chosen:
        return [skipped("census-counts", {"instances": []})]
    out: list[Report] = []
    for inst in chosen:
        out.extend(census_reports(inst, engine=engine,
                                  budget_seconds=budget_seconds))
    return out


def _pair_filter(p: int | None, n: int | None):
    def keep(pair):
        return (p is None or pair[0] == p) and (n is None or pair[1] == n)
    return keep


def full_suite(p: int | None = None, n: int | None = None,
               a=DEFAULT_RADICAND, seed: int = DEFAULT_SEED,
               engine: str = "auto",
               budget_seconds: float = 300.0) -> list[tuple[str, list[Report]]]:
    """All ten criteria in deterministic order, filtered by optional p / n.

    With no filter this is the default acceptance matrix; with a filter, each
    criterion keeps only its matching default instances and reports a skip
    when nothing remains.
    """
    keep = _pair_filter(p, n)
    main = tuple(t for t in MAIN_INSTANCES if keep(t))
    measuring = tuple(t for t in MEASURING_INSTANCES if keep(t))
    iso = tuple(t for t in ISO_INSTANCES if keep(t))
    triples = tuple(t for t in BASE_CHANGE_TRIPLES if keep((t[0], t[1])))
    primes = tuple(q for q in PROFINITE_PRIMES if p is None or q == p)
    pairs = (HOM_SUBALGEBRA_PAIRS if p in (None, HOM_SUBALGEBRA_PRIME)
             else ())
    pairs = tuple(t for t in pairs if n is None or t[0] == n)
    variant = tuple(t for t in VARIANT_INSTANCES if keep(t))
    variant_nu = tuple(t for t in VARIANT_NU_INSTANCES if keep(t))
    labels = {label for label, level in CENSUS_LEVELS.items() if keep(level)}

    return [
        ("dual-basis", criterion_dual_basis(main)),
        ("fixed-ring", criterion_fixed_ring(main)),
        ("measuring", criterion_measuring(measuring, a)),
        ("fixed-field", criterion_fixed_field(main, a)),
        ("smash-endomorphism", criterion_smash_end(iso, a, seed)),
        ("base-change", criterion_base_change(triples)),
        ("inverse-system", criterion_profinite(primes)),
        ("hom-subalgebra", criterion_hom_subalgebra(pairs, a=a)),
        ("variants", criterion_variants(variant, variant_nu, a)),
        ("census", criterion_census(labels, engine, budget_seconds)),
    ]
