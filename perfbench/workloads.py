"""The four benchmark workloads: seeded inputs, the calls, and the known answers.

Every workload is a closed loop with one client: a list of calls into the
public hopfgal API, each started only after the previous one returned.  The
expected answers are pinned here, never read from the code under test, and
are checked after the timed region.

Each workload is a function ``(seed, size) -> Plan`` whose docstring says
why it is in the benchmark; ``size`` is ``"full"`` for the measured runs and
``"tiny"`` for the benchmark's self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# layer modules are looked up at call time (``hg.e_basis(...)``), so that the
# tracer's wrappers see every call the workload makes
from hopfgal import (gp_enum, hopfgalois as hg, profinite as pf, smash_end as se,
                     variants as vr)


@dataclass
class Plan:
    calls: list[tuple[str, Callable[[], Any]]]
    # check(outputs, plant) -> (attempted, failure descriptions); an output is
    # the call's return value, or the exception it raised
    check: Callable[[list, bool], tuple[int, list[str]]]


# ---------------------------------------------------------------------------
# report workloads (tower, kernels): every report must pass with the pinned claim

def _report_plan(entries) -> Plan:
    """entries: (label, thunk, expected claims of the returned report(s))."""
    calls = [(label, thunk) for label, thunk, _ in entries]
    expected = [claims for _, _, claims in entries]

    def check(outputs, plant):
        want = [list(claims) for claims in expected]
        if plant:
            want[0][0] = "planted-wrong-claim"
        attempted, failures = 0, []
        for (label, _), claims, out in zip(calls, want, outputs):
            attempted += len(claims)
            if isinstance(out, BaseException):
                failures.extend("%s: raised %r" % (label, out) for _ in claims)
                continue
            reports = out if isinstance(out, list) else [out]
            for k, claim in enumerate(claims):
                got = reports[k] if k < len(reports) else None
                if got is None or got.claim != claim or got.status != "pass":
                    failures.append("%s: expected a passing %r report, got %r"
                                    % (label, claim, got and (got.claim, got.status)))
        return attempted, failures

    return Plan(calls, check)


def radicand(rng: random.Random) -> Fraction:
    """A positive rational that is not a p-th power for any odd prime p.

    Numerators and denominators are drawn from integers that are not perfect
    powers, and equal pairs (which give 1) are redrawn.
    """
    while True:
        a = Fraction(rng.choice((2, 3, 5, 6, 7, 10, 11)),
                     rng.choice((1, 1, 1, 2, 3, 5, 7)))
        if a != 1:
            return a


def tower(seed: int, size: str) -> Plan:
    """Cyclotomic field arithmetic: the dual-basis, base-change and variants
    criteria on their pinned families, plus the truncation-tower suite at p=3
    one level above the pinned depth.  The seed does not change the input."""
    a = Fraction(2)
    if size == "tiny":
        main, triples, level = ((3, 1),), ((3, 2, 1),), 2
    else:
        main = ((3, 1), (3, 2), (5, 1), (7, 1), (3, 3))
        triples = ((3, 2, 1), (3, 3, 1), (3, 3, 2), (5, 2, 1))
        level = 4
    e = []
    for p, n in main:
        e.append(("dual-pairing %d,%d" % (p, n),
                  lambda p=p, n=n: hg.dual_pairing_report(p, n),
                  ("dual-pairing-identity",)))
    for p, n, m in triples:
        e.append(("base-change %d,%d,%d" % (p, n, m),
                  lambda p=p, n=n, m=m: hg.base_change_report(p, n, m),
                  ("base-change",)))
    # criterion_variants on its pinned family: (3,2) and, for truncation, (3,3)
    e.append(("complements 3,2", lambda: vr.complements_report(3, 2),
              ("variant-complements",)))
    if size != "tiny":
        for i in range(3):
            e.append(("variant-rank 3,2,%d" % i,
                      lambda i=i: vr.h_variant_rank_certificate(3, 2, i, a),
                      ("variant-hopf-rank",)))
            e.append(("variant-action 3,2,%d" % i,
                      lambda i=i: vr.variant_action_check(3, 2, i, a),
                      ("variant-action",)))
        e.append(("distinct-images 3,2",
                  lambda: vr.distinct_action_images(3, 2, a),
                  ("variant-action",)))
        e.append(("variant-nu 3,3", lambda: vr.variant_nu_check(3, 3),
                  ("variant-truncation",)))
        e.append(("e-containment 3,3", lambda: vr.e_containment_check(3, 3, a),
                  ("variant-truncation",)))
    # criterion_profinite at p=3, in its call order
    p = 3
    for source in range(2, level + 1):
        e.append(("nu-consistency %d" % source,
                  lambda s=source: pf.nu_consistency_check(p, s),
                  ("truncation-compat",)))
        for target in range(1, source):
            e.append(("commute-square %d,%d" % (source, target),
                      lambda s=source, t=target: pf.commute_square_check(p, s, t),
                      ("truncation-commutes",)))
    e.append(("coherent %d" % level, lambda: pf.coherent_sequence_check(p, level),
              ("coherent-sequences",)))
    e.append(("padic %d" % level, lambda: pf.padic_model_check(p, level),
              ("padic-model",)))
    e.append(("fixed-truncation %d" % level,
              lambda: pf.fixed_truncation_check(p, level),
              ("limit-fixed-points",)))
    return _report_plan(e)


def kernels(seed: int, size: str) -> Plan:
    """Exact elimination (sparse echelon, dense rref) in the fixed-ring,
    fixed-field, smash-endomorphism, hom-subalgebra and variant-rank checks,
    above the pinned sizes.  The seed picks the radicand and the iso_check
    seed."""
    rng = random.Random(seed)
    a = radicand(rng)
    iso_seed = rng.randrange(2 ** 31)
    if size == "tiny":
        rings = fields = iso = ((3, 1),)
        hom_pairs = ((1, 2),)
        ranks = ((3, 2, 0),)
    else:
        main = ((3, 1), (3, 2), (5, 1), (7, 1), (3, 3))
        rings = ((3, 4), (7, 2)) + main
        fields = ((3, 4),) + main
        iso = ((3, 1), (3, 2), (5, 1))
        hom_pairs = ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2))
        ranks = ((3, 3, 0), (3, 3, 1), (3, 3, 2), (5, 2, 1))
    e = []
    for p, n in rings:
        e.append(("fixed-ring %d,%d" % (p, n),
                  lambda p=p, n=n: hg.fixed_ring_reports(p, n),
                  ("fixed-ring-dimension", "fixed-ring-span")))
    for p, n in fields:
        e.append(("fixed-field %d,%d" % (p, n),
                  lambda p=p, n=n: hg.fixed_field_check(p, n, a),
                  ("fixed-field",)))
    for p, n in iso:
        e.append(("smash-end-iso %d,%d" % (p, n),
                  lambda p=p, n=n: se.iso_check(p, n, a, seed=iso_seed),
                  ("smash-end-iso",)))
    e.append(("nine-matrices", lambda: se.nine_matrices_report(a),
              ("nine-matrices",)))
    for n, m in hom_pairs:
        e.append(("hom-dimension 3,%d,%d" % (n, m),
                  lambda n=n, m=m: se.hom_subalgebra_dimension_report(3, n, m, a),
                  ("hom-subalgebra-dimension",)))
        e.append(("hom-closure 3,%d,%d" % (n, m),
                  lambda n=n, m=m: se.hom_subalgebra_closure_check(3, n, m, a),
                  ("hom-subalgebra-closure",)))
    for p, n, i in ranks:
        e.append(("variant-rank %d,%d,%d" % (p, n, i),
                  lambda p=p, n=n, i=i: vr.h_variant_rank_certificate(p, n, i, a),
                  ("variant-hopf-rank",)))
    return _report_plan(e)


# ---------------------------------------------------------------------------
# census: pinned counts on relabeled instances

# (structures, almost-classical) per pinned instance (Greither-Pareigis /
# Byott counts for the cubic and ninth-root radical extensions)
CENSUS_COUNTS = {
    "cubic-radical-over-Q": (1, 1),
    "ninth-root-radical-over-Q": (1, 1),
    "ninth-root-radical-over-cyclotomic": (3, 3),
}


def _compose(f: tuple, g: tuple) -> tuple:
    return tuple(f[x] for x in g)


def _regular(images: list[tuple]) -> bool:
    """A closed, transitive, fixed-point-free group of permutations, checked
    on bare image tuples (no hopfgal code)."""
    members = set(images)
    if not images:
        return False
    degree = len(images[0])
    ident = tuple(range(degree))
    if len(members) != degree or ident not in members:
        return False
    if any(_compose(f, g) not in members for f in members for g in members):
        return False
    if any(f != ident and any(f[x] == x for x in range(degree)) for f in members):
        return False
    return {f[0] for f in members} == set(range(degree))


def census(seed: int, size: str) -> Plan:
    """The regular-subgroup search of gp_enum alone.  The seed relabels each
    pinned instance by a random permutation of its grid points, which keeps
    the counts and changes the search order."""
    rng = random.Random(seed)
    instances = gp_enum.census_instances()
    if size == "tiny":
        instances = instances[:1]
    calls, expected = [], []
    for inst in instances:
        degree = inst.gamma.degree
        perm = list(range(degree))
        rng.shuffle(perm)
        pi = gp_enum.Perm(tuple(perm))
        pinv = pi.inverse()

        def relabel(group):
            return gp_enum.FiniteGroup([pi * g * pinv for g in group.generators])

        gamma, delta = relabel(inst.gamma), relabel(inst.delta)
        structures, classical = CENSUS_COUNTS[inst.label]
        calls.append(("census %s" % inst.label,
                      lambda g=gamma, d=delta:
                      gp_enum.enumerate_regular_normalized(g, d)))
        expected.append(structures)
        calls.append(("almost-classical %s" % inst.label,
                      lambda g=gamma, d=delta: gp_enum.almost_classical(g, d)))
        expected.append(classical)

    def check(outputs, plant):
        want = list(expected)
        if plant:
            want[0] += 1
        failures = []
        for k, ((label, _), count, out) in enumerate(zip(calls, want, outputs)):
            if isinstance(out, BaseException):
                failures.append("%s: raised %r" % (label, out))
            elif len(out) != count:
                failures.append("%s: %d found, expected %d"
                                % (label, len(out), count))
            elif k % 2 == 0 and not all(_regular([g.images for g in grp.elements])
                                        for grp in out):
                failures.append("%s: a structure is not regular" % label)
        return len(calls), failures

    return Plan(calls, check)
