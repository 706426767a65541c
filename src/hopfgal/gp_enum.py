"""Regular subgroups of coset actions and the structure census.

A finite Galois group acting on the left cosets of a subgroup turns the
coset set S into a transitive permutation module, read only on generators
(`coset_action` maps one element at a time).  This module lists every
regular subgroup of Perm(S) normalized by the image of that action by a
holomorph search: for each model N, a regular group given by its
generators, Hol(N) = N·Aut(N) with Aut(N) read off equivariant labelings;
each generator of the action image gets an element of Hol(N), and an
assignment is kept when S admits an equivariant bijective labeling by N,
which is then the homomorphism into Hol(N) — feasible up to `MAX_DEGREE`.
Each generator is offered only the elements of its own order.  The models,
their holomorphs and the holomorph elements grouped by order depend on the
degree alone, not on the instance or its labels: `_search_table` builds
them on first use and keeps them for the process.  It reads each holomorph
element's order off its factorization x = t·a, t in N and a in Aut(N):
with m = ord(a), x^m lies in the regular group N, so ord(x) is m times
the order of the element of N that takes 0 to x^m(0), a few point steps
where a cycle walk would visit every point.  The image's generating pair
(`_generating_sequence`) skips every element that a refuted pair already
rules out.  A time budget that is negative, nan or infinite is refused
before any coset action is built.
The tests check the search against an exhaustive search over
fixed-point-free candidates (`oracle_regular_normalized` in
`tests/oracle_tools.py`).

The normal complements of the subgroup in the big group ("descent" data)
are the kernels of its retractions, found by an edge-checked walk over the
big group that shares no code with the search.  The big group is numbered
once in walk order, so each candidate retraction is checked on integer
tables.  That walk and the coset table know each element of the big group
by its base key (`_base`), its images on a few points that tell the
group's elements apart, so neither composes permutations on all the
points of the exponent grid; the coset action refuses a permutation
outside the big group, which a key cannot tell apart from a member.
Pushing a complement through the coset action (the closure of its
generators' images) always lands in the enumerated family.  The models
come from one catalogue (`_models`): every group of order m is cyclic when
gcd(m, phi(m)) = 1, and of order p^2 cyclic or elementary abelian; any
other degree is refused rather than enumerated incompletely.

`Perm` checks its images once, in its constructor, where data comes in
(`Perm(...)`, `instance_from_json`, `grid_aut`, `_models`).  Inside the
kernels (`mulclose`, `FiniteGroup`'s closure, the labelings and the
holomorph products) elements are bare image tuples: x*g is
`tuple(map(x.__getitem__, g))`, and hashing, equality and sorting are the
tuple's, all in C; the coset table and the retraction walk compose base
keys the same way.  A composition of bijections is a bijection, so each
result that leaves a loop is wrapped in a `Perm` once, by the trusted
constructor `new_perm`.

The census instances are Galois groups of radical towers Q(zeta, w),
w^(p^n) rational, acting on the exponents of zeta^A w^B: the grid point
A*p^n + B.  `grid_aut` builds their generators there, and no other module
knows that layout.
"""

from __future__ import annotations

import functools
import itertools
import time
from math import gcd, inf, isqrt, lcm
from dataclasses import dataclass, field

from ._terms import maker
from .cyclotomic import primitive_root
from .reporting import Report, checked


class EnumerationRefusal(Exception):
    """Base class for explicit refusals of an enumeration request."""


class CapExceeded(EnumerationRefusal):
    def __init__(self, size: int, cap: int):
        self.size, self.cap = size, cap
        super().__init__("degree %d exceeds the configured cap %d" % (size, cap))


class UnsupportedInstance(EnumerationRefusal):
    pass


class SearchBudgetExceeded(EnumerationRefusal):
    pass


# the largest degree the census enumerates; larger ones are refused for cost
MAX_DEGREE = 25

# the largest point count of an instance that `instance_from_json` reads: the
# grid of a degree-m census over Q has m^2 points, 2,401 at degree 49
MAX_INSTANCE_DEGREE = 4096

# the default wall-clock budget of one enumeration, in seconds
SEARCH_BUDGET_SECONDS = 300.0


# ---------------------------------------------------------------------------
# permutations and permutation groups

@dataclass(frozen=True, slots=True, order=True)
class Perm:
    """A permutation of 0..d-1 given by its image vector, which the
    constructor checks (`int`s, not `bool`s, forming a bijection) and
    stores as a tuple; products and inverses are built trusted."""

    images: tuple

    def __post_init__(self):
        images = tuple(self.images)
        if any(type(x) is not int for x in images):
            raise ValueError("image vector must hold integers, got %r"
                             % (images,))
        if sorted(images) != list(range(len(images))):
            raise ValueError("image vector is not a bijection on 0..%d"
                             % (len(images) - 1))
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(tuple(range(degree)))

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (self * other)(x) = self(other(x))."""
        if len(self.images) != len(other.images):
            raise ValueError("permutations of degrees %d and %d do not compose"
                             % (len(self.images), len(other.images)))
        return new_perm(tuple(map(self.images.__getitem__, other.images)))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def inverse(self) -> "Perm":
        return new_perm(_inverse(self.images))

    def order(self) -> int:
        return _order(self.images)

    def is_fixed_point_free(self) -> bool:
        return all(j != i for i, j in enumerate(self.images))


new_perm = maker(Perm)


def _order(images: tuple) -> int:
    """The order of the permutation with this image tuple: the lcm of its
    cycle lengths."""
    seen, result = [False] * len(images), 1
    for start in range(len(images)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        result = lcm(result, length)
    return result


def _inverse(images: tuple) -> tuple:
    """The image tuple of the inverse: the points sorted by their images."""
    return tuple(sorted(range(len(images)), key=images.__getitem__))


def _closure(gens) -> set:
    """The image tuples of the group generated by the permutations `gens`.

    The walk composes image tuples, x*g = x[g[0]], x[g[1]], ..., and keeps
    them in a set of tuples, so composing, hashing and comparing run in C;
    no `Perm` is built."""
    gens = [g.images for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators act on different point sets")
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for x in frontier:
            image = x.__getitem__
            for g in gens:
                y = tuple(map(image, g))
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def mulclose(gens) -> set:
    """Closure of a set of permutations under composition, as the set of
    group elements."""
    return {new_perm(t) for t in _closure(gens)}


# eq=False: equality and hashing are on the element set, whatever generators
# produced it, so `__eq__` and `__hash__` stay hand-written
@dataclass(frozen=True, slots=True, eq=False)
class FiniteGroup:
    """A concrete permutation group: its generators, and `elements`, the
    sorted closure that the constructor computes from them.  `_set` holds
    the elements' image tuples."""

    generators: tuple
    elements: tuple = field(init=False, repr=False)
    degree: int = field(init=False)
    _set: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        closure = sorted(_closure(gens))
        object.__setattr__(self, "degree", len(closure[0]))
        object.__setattr__(self, "elements",
                           tuple([new_perm(t) for t in closure]))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_set", frozenset(closure))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm: Perm) -> bool:
        return perm.images in self._set

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteGroup)
                and self.degree == other.degree and self._set == other._set)

    def __hash__(self) -> int:
        return hash((self.degree, self._set))

    def __le__(self, other: "FiniteGroup") -> bool:
        return self.degree == other.degree and self._set <= other._set

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def is_cyclic(self) -> bool:
        return any(g.order() == self.order for g in self.elements)


# ---------------------------------------------------------------------------
# coset actions

def _base(group: FiniteGroup) -> tuple:
    """A base of the group: points b_1, ..., b_k whose images tell its
    elements apart, so that an element x is known by its base key
    (x(b_1), ..., x(b_k)).  Each b_i is the least point that some
    nonidentity element fixing b_1, ..., b_(i-1) moves, until only the
    identity fixes them all: then x and y with one key are equal, since
    x^-1·y fixes every base point.

    The key of a product x*g is x(g(b_1)), ..., x(g(b_k)), k lookups in x
    once g's key is known, where the product itself is a composition over
    all the points.  A key tells apart only the group's own elements: a
    permutation outside the group may share one."""
    # the identity is the least image tuple, so elements[0]
    base, fixing, point = [], [x.images for x in group.elements[1:]], 0
    while fixing:
        while all(x[point] == point for x in fixing):
            point += 1
        base.append(point)
        fixing = [x for x in fixing if x[point] == point]
    return tuple(base)


def coset_action(gamma: FiniteGroup, delta: FiniteGroup):
    """Action of gamma on the left cosets of delta.

    Returns (number of cosets, act), act(g) the coset permutation of one
    element g, built when asked; act refuses a permutation outside gamma.
    The identity coset gets index 0 and coset indices follow the first
    appearance of a coset when scanning gamma's canonical element order, so
    the construction is deterministic.  The table from elements to cosets is
    keyed by base keys (`_base`): the coset of g*r is read off g's images on
    the points r(b) of the base, never from the product on all points.
    """
    if not delta <= gamma:
        raise ValueError("delta is not a subgroup of gamma")
    base = _base(gamma)
    d_keys = [tuple(map(d.images.__getitem__, base)) for d in delta.elements]
    elt_to_coset: dict[tuple, int] = {}
    reps: list[tuple] = []
    for g in gamma.elements:
        image = g.images.__getitem__
        key = tuple(map(image, base))
        if key in elt_to_coset:
            continue
        idx = len(reps)
        reps.append(key)
        for d in d_keys:
            elt_to_coset[tuple(map(image, d))] = idx

    def act(g: Perm) -> Perm:
        if g not in gamma:
            raise ValueError("the permutation is not an element of gamma")
        image = g.images.__getitem__
        return new_perm(tuple([elt_to_coset[tuple(map(image, r))] for r in reps]))

    return len(reps), act


def is_regular(group: FiniteGroup, size: int) -> bool:
    """Regular on 0..size-1: of order size, and no nonidentity element fixes
    a point.  Such a group acts freely, so each of its orbits has size
    points and it is transitive."""
    if group.degree != size or group.order != size:
        return False
    ident = group.identity()
    return all(g == ident or g.is_fixed_point_free() for g in group.elements)


# ---------------------------------------------------------------------------
# almost-classical complements: kernels of retractions

def _walk(members: dict, base: tuple, moves) -> tuple[dict, list]:
    """The group `members`, a map from each element's base key (`_base`)
    to the element, numbered in the order of a walk from the identity
    (index 0, its key the base itself) along x -> x*g, each generator g
    given by its key `moves`: (number, steps), `number` the map from each
    element's key to its index, in walk order, and steps[x] the indices of
    x*g for the generators g in turn.

    The key of x*g is x's images at g's key, so each step is found among
    the members by k lookups and one dict lookup; no product is composed on
    all the points."""
    number, steps = {base: 0}, []
    walk = [members[base].images]
    for x in walk:  # the list grows while it is walked
        image, step = x.__getitem__, []
        for g in moves:
            y = tuple(map(image, g))
            k = number.get(y)
            if k is None:
                k = number[y] = len(walk)
                walk.append(members[y].images)
            step.append(k)
        steps.append(step)
    return number, steps


def _retraction(steps, moves) -> list | None:
    """The homomorphism on gamma with g_i -> h_i, or None, as the list of
    the delta indices r(x) of gamma's elements x in walk order.

    `steps` is gamma numbered by `_walk` on the g_i, and moves[i][a] is the
    index of d_a*h_i among delta's elements d_a (the identity is index 0
    on both sides).  The walk checks every edge, r(x*g_i) = r(x)*h_i, with
    two list lookups: the first conflict refutes the assignment, and a map
    that passes is a homomorphism.
    """
    r = [-1] * len(steps)
    r[0] = 0
    for x, step in enumerate(steps):
        rx = r[x]
        for y, move in zip(step, moves):
            want, got = move[rx], r[y]
            if got == -1:
                r[y] = want
            elif got != want:
                return None
    return r


def almost_classical(gamma: FiniteGroup, delta: FiniteGroup) -> list[FiniteGroup]:
    """Normal complements of delta in gamma, as subgroups of gamma.

    N is a normal complement (N ∩ delta = 1, N·delta = gamma) exactly when
    it is the kernel of a retraction r: gamma -> delta, r|delta = id, and
    then r(n·d) = d is unique.  Each generator in an irredundant generating
    sequence of gamma is sent to itself if it lies in delta, else to each
    element of delta of order dividing its own; the candidates `_retraction`
    extends that fix delta's generators give the complements.  Gamma is
    numbered once (`_walk`), each element found by its base key (`_base`),
    and delta's right multiplications by the candidate images are index
    lists built once on those keys, so every walk runs on integer tables and
    no product is composed on all the points.  Push the complements through
    the coset action to land in the enumerated regular family.
    """
    if not delta <= gamma:
        raise ValueError("delta is not a subgroup of gamma")
    ident = tuple(range(gamma.degree))
    index = gamma.order // delta.order
    kept, closed = [], {ident}
    for g in gamma.generators:
        # the closure of the kept generators, built only to test the next one
        if closed is None:
            closed = _closure(kept)
        if g.images not in closed:
            kept.append(g)
            closed = None
    base = _base(gamma)

    def key(x: tuple) -> tuple:
        return tuple(map(x.__getitem__, base))

    members = {key(x.images): x for x in gamma.elements}
    gens = [key(g.images) for g in kept]
    number, steps = _walk(members, base, gens)
    # delta's elements are sorted, so the identity is index 0; gamma's base
    # tells them apart, and a generator lies in delta when its key is theirs
    ds = [key(d.images) for d in delta.elements]
    d_number = {d: k for k, d in enumerate(ds)}
    d_orders = [d.order() for d in delta.elements]
    candidates = []
    for g, gk in zip(kept, gens):
        if gk in d_number:
            candidates.append([d_number[gk]])
        else:
            g_order = g.order()
            candidates.append([k for k, o in enumerate(d_orders)
                               if g_order % o == 0])
    # column k: the index of d*ds[k] for each d, for every candidate image;
    # the key of d*e is d's images at e's key
    right = {k: [d_number[tuple(map(d.images.__getitem__, ds[k]))]
                 for d in delta.elements]
             for k in {k for ks in candidates for k in ks}}
    fixed = [(number[k], d_number[k]) for k in
             (key(d.images) for d in delta.generators)]
    walk = [members[k] for k in number]
    out = []
    for images in itertools.product(*candidates):
        r = _retraction(steps, [right[k] for k in images])
        if r is None or any(r[x] != a for x, a in fixed):
            continue
        kernel = [walk[x] for x, a in enumerate(r) if a == 0]
        if len(kernel) != index:
            raise AssertionError("order count violated by a complement")
        out.append(FiniteGroup(_generating_sequence(kernel)))
    out.sort(key=lambda g: [p.images for p in g.elements])
    return out


def push_through_action(act, subgroup: FiniteGroup) -> FiniteGroup:
    """Image of a subgroup of gamma inside the coset symmetric group, the
    closure of its generators' images under `coset_action`'s act."""
    return FiniteGroup([act(g) for g in subgroup.generators])


def _generating_sequence(elements) -> list[Perm]:
    """Small deterministic generating sequence for a closed element list.

    Sorted by decreasing order, then by image tuple, the first element
    `top` is returned alone if it generates; else with the first b in that
    order such that top and b generate; else the greedy sequence of the
    elements not yet in the closure of those before them.  The pair scan
    skips every b that lies in <top> or in a <top, b'> already refuted:
    top and such a b generate at most that proper subgroup, so b would
    fail too, and the pair returned is the one an unpruned scan returns.
    """
    elements = list(elements)
    full = {p.images for p in elements}
    if len(full) == 1:
        return [elements[0]]
    by_order = sorted(elements, key=lambda p: (-p.order(), p.images))
    top = by_order[0]
    if top.order() == len(full):
        return [top]
    refuted = _closure([top])
    for b in by_order:
        if b.images in refuted:
            continue
        closed = _closure([top, b])
        if closed == full:
            return [top, b]
        refuted |= closed
    gens, closed = [], None
    for x in by_order:
        if closed is not None and x.images in closed:
            continue
        gens.append(x)
        closed = _closure(gens)
        if closed == full:
            return gens
    raise AssertionError("element list is not closed")


# ---------------------------------------------------------------------------
# the holomorph search: label the cosets by an abstract group

def _deadline_check(deadline: float):
    if time.monotonic() > deadline:
        raise SearchBudgetExceeded("enumeration exceeded its time budget")


def _normalizes(lam_gens, members: frozenset) -> bool:
    """Whether conjugation by each image tuple of `lam_gens` maps the image
    tuples `members` into themselves: g x g^-1 = g[x[gi[0]]], ..."""
    for g in lam_gens:
        g_image, gi = g.__getitem__, _inverse(g)
        for x in members:
            if tuple(map(g_image, map(x.__getitem__, gi))) not in members:
                return False
    return True


def _label_cosets(size: int, lam_gens, hol_images) -> list | None:
    """Equivariant labeling of the cosets by group points, basepoint 0 -> 0.

    Walks the action graph; every edge is checked, so an inconsistent
    assignment (one that does not factor through the point stabilizer) is
    rejected, as is a non-bijective labeling.  A labeling L that passes has
    L(g_i(x)) = h_i(L(x)) for every point x and generator g_i, so
    h_i = L g_i L^-1 and the assignment extends to the homomorphism
    g -> L g L^-1.  Against a regular group's own generators, with each h_i
    in the group, the labelings are its automorphisms (see `_holomorph`).
    The g_i and h_i are given by their image tuples.
    """
    edges = list(zip(lam_gens, hol_images))
    labels = [-1] * size
    labels[0] = 0
    frontier = [0]
    while frontier:
        fresh = []
        for x in frontier:
            label = labels[x]
            for g, h in edges:
                y = g[x]
                want = h[label]
                if labels[y] == -1:
                    labels[y] = want
                    fresh.append(y)
                elif labels[y] != want:
                    return None
        frontier = fresh
    if sorted(labels) != list(range(size)):
        return None
    return labels


def _by_order(elements) -> tuple:
    """The image tuples `elements` grouped by element order, each order
    computed by `_order`: see `_grouped`."""
    return _grouped(elements, map(_order, elements))


def _grouped(elements, orders) -> tuple:
    """The image tuples `elements`, of the given orders, as a tuple of
    (order, group) pairs sorted by order, each group the tuple of the
    elements of that order in the order of `elements`."""
    groups: dict[int, list] = {}
    for h, k in zip(elements, orders):
        groups.setdefault(k, []).append(h)
    return tuple(sorted((k, tuple(v)) for k, v in groups.items()))


def _candidates(groups, gens) -> list[tuple]:
    """For each generator (an image tuple), the group of `groups` (made by
    `_by_order`) of its order: the elements of exactly its order."""
    of_order = dict(groups)
    return [of_order.get(_order(g), ()) for g in gens]


def _holomorph(model: FiniteGroup) -> list[tuple]:
    """Hol(N) = N·Aut(N) for a regular permutation group N, the model, as
    image tuples, listed as the products t·a with t running over N's
    elements and, for each t, a over Aut(N): the entry at i·|Aut(N)| + j is
    the i-th element of N times the j-th automorphism.  N's elements are
    sorted, so the identity comes first, and the first |Aut(N)| entries are
    Aut(N) itself, the stabilizer of 0.

    A permutation fixing 0 normalizes N exactly when it is a `_label_cosets`
    labeling against N's generators, each sent to an element of its order.
    The products t·a are formed on image tuples.
    """
    gens = [g.images for g in model.generators]
    elements = [t.images for t in model.elements]
    aut = []
    for images in itertools.product(*_candidates(_by_order(elements), gens)):
        labels = _label_cosets(model.degree, gens, images)
        if labels is not None:
            aut.append(labels)
    return [tuple(map(t.__getitem__, a)) for t in elements for a in aut]


@functools.lru_cache(maxsize=None)
def _search_table(size: int) -> tuple | None:
    """What the holomorph search reads at one degree: for each model N of
    `_models(size)`, the pair (N, Hol(N) grouped by element order, as
    `_by_order` groups it); None where the catalogue does not cover the
    degree.

    Each order is read off the element's factorization x = t·a, t in N and
    a in Aut(N) fixing 0, which `_holomorph`'s listing gives.  With
    m = ord(a), x^m = t·(a t a^-1)···(a^(m-1) t a^(1-m)) lies in N, since a
    normalizes N, and N is regular, so x^m is the element of N that takes 0
    to x^m(0), and ord(x) = m·ord_N(x^m(0)).  That costs |N| + |Aut(N)|
    `_order` calls and m point steps per element, where `_by_order` walks
    every cycle of every element.

    It depends on the degree alone, not on the instance or its labels, so
    it is built on first use and kept for the process, at most one per
    degree up to `MAX_DEGREE` (the only degrees `_enumerate` asks for).  It
    holds only tuples, ints and frozen groups, which no caller can change.
    """
    models = _models(size)
    if models is None:
        return None
    table = []
    for model in models:
        hol = _holomorph(model)
        aut_orders = [_order(a) for a in hol[:len(hol) // size]]
        point_order = [0] * size
        for t in model.elements:
            point_order[t.images[0]] = _order(t.images)
        orders = []
        for x, m in zip(hol, itertools.cycle(aut_orders)):
            y = 0
            for _ in range(m):
                y = x[y]
            orders.append(m * point_order[y])
        table.append((model, _grouped(hol, orders)))
    return tuple(table)


def _holomorph_search(lam_gens, model: FiniteGroup, groups, deadline) -> set:
    """Regular subgroups of the model's abstract type normalized by the
    action image, given by a generating sequence `lam_gens`, each as the
    frozenset of its elements' image tuples; `groups` is Hol(model) grouped
    by element order, from `_search_table`.

    Labeling the cosets by such an N from a basepoint gives a homomorphism
    of the action image into Hol(model), under which the labeling is
    equivariant.  So each generator g_i is assigned a holomorph element h_i
    of exactly its own order (a labeling L that passes makes h_i =
    L g_i L^-1, a conjugate of g_i), and an assignment is kept exactly when
    `_label_cosets` finds that labeling (the image is transitive, so it
    checks every edge and *is* the homomorphism); moving the model back
    along it recovers every N.
    """
    size = model.degree
    lam = [g.images for g in lam_gens]
    model_images = [t.images for t in model.elements]
    found: set[frozenset] = set()
    count = 0
    for assignment in itertools.product(*_candidates(groups, lam)):
        count += 1
        if count % 512 == 0:
            _deadline_check(deadline)
        labels = _label_cosets(size, lam, assignment)
        if labels is None:
            continue
        position = _inverse(labels).__getitem__
        members = frozenset(tuple(map(position, map(t.__getitem__, labels)))
                            for t in model_images)
        if members in found:
            continue
        if not _normalizes(lam, members):
            raise AssertionError("holomorph transport produced an "
                                 "unnormalized subgroup")
        found.add(members)
    return found


# ---------------------------------------------------------------------------
# the public enumeration

def _models(size: int) -> list[FiniteGroup] | None:
    """Every group of order `size`, each as a regular permutation group on
    0..size-1, or None when the catalogue does not cover that order.

    Every group of order m is cyclic exactly when gcd(m, phi(m)) = 1
    (Szele, 1947); a group of order p^2, p prime, is cyclic or elementary
    abelian.  Those are the only orders covered.
    """
    cyclic = FiniteGroup([Perm(tuple((x + 1) % size for x in range(size)))])
    phi = sum(1 for u in range(1, size + 1) if gcd(u, size) == 1)
    if gcd(size, phi) == 1:
        return [cyclic]
    p = isqrt(size)
    if p * p == size and phi == size - p:  # phi(p^2) = p^2 - p iff p is prime
        return [cyclic, FiniteGroup([
            Perm(tuple((x + p) % size for x in range(size))),
            Perm(tuple(x - x % p + (x + 1) % p for x in range(size)))])]
    return None


def enumerate_regular_normalized(gamma: FiniteGroup, delta: FiniteGroup,
                                 budget_seconds: float = SEARCH_BUDGET_SECONDS
                                 ) -> list[FiniteGroup]:
    """All regular subgroups of the coset symmetric group normalized by
    the image of gamma, deduplicated and canonically sorted.

    Refuses degrees over `MAX_DEGREE`, degrees whose group types `_models`
    does not list, and searches that blow the time budget.  A budget that
    is negative, nan or infinite is a ValueError, raised before any work.
    """
    return _enumerate(gamma, delta, budget_seconds)[2]


def _enumerate(gamma: FiniteGroup, delta: FiniteGroup, budget_seconds: float):
    """(size, act, structures): `enumerate_regular_normalized`'s structures
    with the coset action `coset_action` built for the search, so that a
    caller pushes the complements through the same action."""
    if not 0 <= budget_seconds < inf:
        raise ValueError("budget must be a finite number of seconds >= 0, "
                         "got %r" % (budget_seconds,))
    if not delta <= gamma:
        raise ValueError("delta is not a subgroup of gamma")
    # the degree is the index, known from the orders: refuse before the action
    size = gamma.order // delta.order
    if size > MAX_DEGREE:
        raise CapExceeded(size, MAX_DEGREE)
    table = _search_table(size)
    if table is None:
        raise UnsupportedInstance(
            "degree %d admits group types beyond cyclic and elementary "
            "abelian of rank two; refusing an incomplete enumeration" % size)
    _, act = coset_action(gamma, delta)
    lam_gens = _generating_sequence(mulclose([act(g) for g in gamma.generators]))
    deadline = time.monotonic() + budget_seconds
    found: set[frozenset] = set()
    for model, groups in table:
        found |= _holomorph_search(lam_gens, model, groups, deadline)

    results = []
    for members in sorted(found, key=sorted):
        group = FiniteGroup(_generating_sequence([new_perm(t) for t in members]))
        if not is_regular(group, size):
            raise AssertionError("enumeration produced a non-regular group")
        results.append(group)
    return size, act, results


# ---------------------------------------------------------------------------
# JSON interfaces

def instance_from_json(data: dict):
    """Parse {degree, gamma_generators, delta_generators} into groups; a
    missing field, a degree that is not an integer from 1 to
    `MAX_INSTANCE_DEGREE` or a generator that is not a permutation of
    0..degree-1 is a ValueError.  The degree and the generators' lengths
    are checked before any `Perm` is built."""
    if not isinstance(data, dict):
        raise ValueError("instance JSON must be an object, got %s"
                         % type(data).__name__)
    for key in ("degree", "gamma_generators", "delta_generators"):
        if key not in data:
            raise ValueError("instance field %r is missing" % key)
    degree = data["degree"]
    if type(degree) is not int:
        raise ValueError("instance field 'degree' must be an integer")
    if degree < 1:
        raise ValueError("instance field 'degree' must be >= 1, got %d" % degree)
    if degree > MAX_INSTANCE_DEGREE:
        raise ValueError("instance field 'degree' must be <= %d, got %d"
                         % (MAX_INSTANCE_DEGREE, degree))
    def parse(key):
        rows = data[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("instance field %r must be a list of lists" % key)
        if any(type(x) is not int for images in rows for x in images):
            raise ValueError("instance field %r must hold integers" % key)
        for images in rows:
            if len(images) != degree:
                raise ValueError("%s entry has degree %d, expected %d"
                                 % (key, len(images), degree))
        return FiniteGroup([Perm(tuple(images)) for images in rows]
                           or [Perm.identity(degree)])
    return parse("gamma_generators"), parse("delta_generators")


def instance_to_json(gamma: FiniteGroup, delta: FiniteGroup) -> dict:
    return {
        "degree": gamma.degree,
        "gamma_generators": [list(g.images) for g in gamma.generators],
        "delta_generators": [list(g.images) for g in delta.generators],
    }


def census_json(gamma: FiniteGroup, delta: FiniteGroup,
                budget_seconds: float = SEARCH_BUDGET_SECONDS) -> dict:
    """The enumeration of one instance, serialized with structural flags per
    subgroup; one coset action serves the search and the complements."""
    size, act, results = _enumerate(gamma, delta, budget_seconds)
    pushed = {frozenset(push_through_action(act, n).elements)
              for n in almost_classical(gamma, delta)}
    subgroups = []
    for group in results:
        subgroups.append({
            "elements": [list(p.images) for p in group.elements],
            "regular": True,
            "normalized": True,
            "cyclic": group.is_cyclic(),
            "almost_classical": frozenset(group.elements) in pushed,
        })
    return {"degree": size, "count": len(results), "subgroups": subgroups}


# ---------------------------------------------------------------------------
# Galois groups of the radical towers, and the frozen census

def grid_aut(p: int, n: int, u: int, s: int) -> Perm:
    """zeta -> zeta^u, w -> zeta^s w as the map (A, B) -> (uA + sB, B) on
    the exponents of zeta^A w^B.  Automorphisms do not permute the reduced
    monomial basis (high zeta exponents re-expand); on the exponent grid
    each acts by exactly this permutation."""
    pn = p ** n
    if u % p == 0:
        raise ValueError("zeta-multiplier must be a unit")
    return Perm(tuple(((u * A + s * B) % pn) * pn + B
                      for A in range(pn) for B in range(pn)))


def full_galois_group(p: int, n: int) -> FiniteGroup:
    """Galois group of the level-n closure over Q, on the exponent grid:
    sigma (w -> zeta w) and zeta -> zeta^pi, pi the primitive root."""
    return FiniteGroup([grid_aut(p, n, 1, 1), grid_aut(p, n, primitive_root(p), 0)])


def zeta1_galois_group(p: int, n: int) -> FiniteGroup:
    """Galois group of the level-n closure over the level-1 cyclotomic:
    sigma and beta (zeta -> zeta^(pi^(p-1)))."""
    return FiniteGroup([grid_aut(p, n, 1, 1),
                        grid_aut(p, n, pow(primitive_root(p), p - 1, p ** n), 0)])


def cyclotomic_subgroup(p: int, n: int) -> FiniteGroup:
    """Subgroup fixing the radical generator (full cyclotomic part)."""
    return FiniteGroup([grid_aut(p, n, primitive_root(p), 0)])


def beta_subgroup(p: int, n: int) -> FiniteGroup:
    """Subgroup fixing the radical generator over the level-1 cyclotomic."""
    return FiniteGroup([grid_aut(p, n, pow(primitive_root(p), p - 1, p ** n), 0)])


@dataclass(frozen=True, slots=True)
class CensusInstance:
    label: str
    gamma: FiniteGroup
    delta: FiniteGroup
    expected_structures: int
    expected_almost_classical: int


def census_instances() -> list[CensusInstance]:
    return [
        CensusInstance("cubic-radical-over-Q",
                       full_galois_group(3, 1), cyclotomic_subgroup(3, 1),
                       1, 1),
        CensusInstance("ninth-root-radical-over-Q",
                       full_galois_group(3, 2), cyclotomic_subgroup(3, 2),
                       1, 1),
        CensusInstance("ninth-root-radical-over-cyclotomic",
                       zeta1_galois_group(3, 2), beta_subgroup(3, 2),
                       3, 3),
    ]


def census_reports(instance: CensusInstance,
                   budget_seconds: float = SEARCH_BUDGET_SECONDS) -> list[Report]:
    """Count check plus cyclic-structure check for one census instance.

    The count report enumerates the structures and the cyclic report reads
    them: `checked` runs the first report before the second is built, and
    it either stores the enumeration or raises."""
    params = {"label": instance.label,
              "gamma_order": instance.gamma.order,
              "delta_order": instance.delta.order}
    size, results = 0, []

    def counts():
        nonlocal size, results
        size, act, results = _enumerate(instance.gamma, instance.delta,
                                        budget_seconds)
        if len(results) != instance.expected_structures:
            return False, {"stage": "structure-count", "got": len(results),
                           "expected": instance.expected_structures}
        complements = almost_classical(instance.gamma, instance.delta)
        if len(complements) != instance.expected_almost_classical:
            return False, {"stage": "complement-count",
                           "got": len(complements),
                           "expected": instance.expected_almost_classical}
        enumerated = {frozenset(g.elements) for g in results}
        for comp in complements:
            image = push_through_action(act, comp)
            if frozenset(image.elements) not in enumerated:
                return False, {"stage": "complement-not-enumerated"}
        return True, None

    def cyclic():
        for group in results:
            if not group.is_cyclic() or group.order != size:
                return False, {"stage": "non-cyclic-structure",
                               "order": group.order}
        return True, None

    report_counts = checked("census-counts", dict(params), counts)
    report_cyclic = checked("census-cyclic", dict(params), cyclic)
    return [report_counts, report_cyclic]
