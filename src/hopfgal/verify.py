"""Criterion-organized verification suites shared by the CLI and the tests.

`CRITERIA` is the one ordered table of the ten acceptance criteria: a new
criterion is one more `Criterion` entry.  `criterion` runs one entry on its
default desk-scale family or on given instances; `full_suite` runs them all
in table order, optionally filtered to a single prime / level, and returns
``(slug, reports)`` groups.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .gp_enum import SEARCH_BUDGET_SECONDS, census_instances, census_reports
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
from .variants import truncation_reports, variant_reports

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


class Options(NamedTuple):
    """What a criterion's reports read besides its family."""
    a: Fraction = DEFAULT_RADICAND
    seed: int = DEFAULT_SEED
    level: int = PROFINITE_LEVEL
    budget_seconds: float = SEARCH_BUDGET_SECONDS


class Criterion(NamedTuple):
    """One criterion: its reports on a family, and how `--p` / `--n` filter it."""
    slug: str
    family: tuple
    key: Callable      # family member -> (p, n); None matches any value
    skip: tuple        # (claim, parameter key) of an emptied family's report
    reports: Callable  # (family, Options) -> list[Report]


def _smash_end(instances, o: Options) -> list[Report]:
    """Smash product is isomorphic to the endomorphism algebra; pinned matrices match."""
    out = [iso_check(p, n, o.a, seed=o.seed) for p, n in instances]
    if (3, 1) in instances:
        out.append(nine_matrices_report(o.a))
    return out


def _inverse_system(primes, o: Options) -> list[Report]:
    """Truncation tower: compatibility, commuting squares, coherent sequences,
    residue-model action, and fixed points of the limit action."""
    out: list[Report] = []
    for p in primes:
        for source in range(2, o.level + 1):
            out.append(nu_consistency_check(p, source))
            for target in range(1, source):
                out.append(commute_square_check(p, source, target))
        out.append(coherent_sequence_check(p, o.level))
        out.append(padic_model_check(p, o.level))
        out.append(fixed_truncation_check(p, o.level))
    return out


def _hom_subalgebra(pairs, o: Options) -> list[Report]:
    """Cross-level hom spaces: dimension count and multiplicative closure."""
    out: list[Report] = []
    for n, m in pairs:
        out.append(hom_subalgebra_dimension_report(HOM_SUBALGEBRA_PRIME, n, m, o.a))
        out.append(hom_subalgebra_closure_check(HOM_SUBALGEBRA_PRIME, n, m, o.a))
    return out


def _census(levels, o: Options) -> list[Report]:
    """Regular-subgroup census counts and structure types on the pinned instances."""
    labels = {label for label, _ in levels}
    return [r for inst in census_instances() if inst.label in labels
            for r in census_reports(inst, o.budget_seconds)]


CRITERIA = (
    Criterion("dual-basis", MAIN_INSTANCES, lambda t: t,
              ("dual-pairing-identity", "instances"),
              lambda family, o: [dual_pairing_report(p, n) for p, n in family]),
    Criterion("fixed-ring", MAIN_INSTANCES, lambda t: t,
              ("fixed-ring-dimension", "instances"),
              lambda family, o: [r for p, n in family
                                 for r in fixed_ring_reports(p, n)]),
    Criterion("measuring", MEASURING_INSTANCES, lambda t: t,
              ("measuring", "instances"),
              lambda family, o: [measuring_check(p, n, o.a) for p, n in family]),
    Criterion("fixed-field", MAIN_INSTANCES, lambda t: t,
              ("fixed-field", "instances"),
              lambda family, o: [fixed_field_check(p, n, o.a) for p, n in family]),
    Criterion("smash-endomorphism", ISO_INSTANCES, lambda t: t,
              ("smash-end-iso", "instances"), _smash_end),
    Criterion("base-change", BASE_CHANGE_TRIPLES, lambda t: t[:2],
              ("base-change", "instances"),
              lambda family, o: [base_change_report(*t) for t in family]),
    Criterion("inverse-system", PROFINITE_PRIMES, lambda p: (p, None),
              ("truncation-compat", "primes"), _inverse_system),
    Criterion("hom-subalgebra", HOM_SUBALGEBRA_PAIRS,
              lambda pair: (HOM_SUBALGEBRA_PRIME, pair[0]),
              ("hom-subalgebra-dimension", "instances"), _hom_subalgebra),
    # complement counts, ranks and actions, then the truncation checks
    Criterion("variants",
              tuple((variant_reports, p, n) for p, n in VARIANT_INSTANCES)
              + tuple((truncation_reports, p, n) for p, n in VARIANT_NU_INSTANCES),
              lambda t: t[1:], ("variant-complements", "instances"),
              lambda family, o: [r for check, p, n in family
                                 for r in check(p, n, o.a)]),
    Criterion("census", tuple(CENSUS_LEVELS.items()), lambda t: t[1],
              ("census-counts", "instances"), _census),
)


def criterion(slug: str, instances=None, **options) -> list[Report]:
    """The reports of one criterion on `instances` (default: its family),
    or its one skip report when `instances` is empty.  `options` are the
    fields of `Options`."""
    entry = {c.slug: c for c in CRITERIA}[slug]
    family = entry.family if instances is None else tuple(instances)
    if not family:
        claim, key = entry.skip
        return [Report(claim=claim, parameters={key: []}, status="skipped")]
    return entry.reports(family, Options(**options))


def full_suite(p: int | None = None, n: int | None = None,
               a=DEFAULT_RADICAND, seed: int = DEFAULT_SEED,
               budget_seconds: float = SEARCH_BUDGET_SECONDS
               ) -> list[tuple[str, list[Report]]]:
    """All ten criteria in deterministic order, filtered by optional p / n.

    With no filter this is the default acceptance matrix; with a filter, each
    criterion keeps only its matching default instances and reports a skip
    when nothing remains.
    """
    def keep(key):
        return all(want is None or got in (None, want)
                   for got, want in zip(key, (p, n)))

    return [(c.slug, criterion(c.slug, [t for t in c.family if keep(c.key(t))],
                               a=a, seed=seed, budget_seconds=budget_seconds))
            for c in CRITERIA]
