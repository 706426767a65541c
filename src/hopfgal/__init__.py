"""Exact-arithmetic Hopf algebras acting on radical extensions of the rationals.

The package constructs, over explicit cyclotomic coefficients, the algebra of
idempotents dual to a cyclic Galois-like group acting on Q(a^(1/p^n)): its
group-ring model, the smash product with the field and its identification
with the full endomorphism algebra, the truncation tower connecting the
levels, the twisted variant algebras attached to the normal complements of
the cyclotomic part, and a permutation-group census of the regular normalized
subgroups that classify such structures.  All arithmetic is exact; every
claim is checked by a report-producing function, and the CLI exposes the
whole suite.
"""

from .cyclotomic import CycloElt, FieldDescriptor, parse_rat, rat_str
from .gp_enum import (CapExceeded, CensusInstance, EnumerationRefusal,
                      FiniteGroup, Perm, SearchBudgetExceeded,
                      UnsupportedInstance, census_instances, census_reports,
                      enumerate_regular_normalized)
from .groupring import GroupRingElt
from .hopfgalois import HopfElt, RadicalElt, act, e_basis, validate_radicand
from .profinite import CoherentH, PadicTrunc, nu_groupring, nu_h
from .reporting import Report, checked
from .smash_end import (QMatrix, SmashElt, decompose_endomorphism, smash_mult,
                        to_end_matrix)
from .variants import TowerAut, h_variant
from .verify import full_suite

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "CensusInstance", "CoherentH", "CycloElt",
    "EnumerationRefusal", "FieldDescriptor", "FiniteGroup", "GroupRingElt",
    "HopfElt", "PadicTrunc", "Perm", "QMatrix", "RadicalElt", "Report",
    "SearchBudgetExceeded", "SmashElt", "TowerAut",
    "UnsupportedInstance", "act", "census_instances",
    "census_reports", "checked", "decompose_endomorphism", "e_basis",
    "enumerate_regular_normalized", "full_suite", "h_variant", "nu_groupring",
    "nu_h", "parse_rat", "rat_str", "smash_mult", "to_end_matrix",
    "validate_radicand", "__version__",
]
