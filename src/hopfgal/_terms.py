"""Sorted nonzero (key, value) terms: the storage of every sparse value class.

`GroupRingElt`, `HopfElt`, `RadicalElt` and `QMatrix` each keep a tuple of
(key, value) pairs, one per nonzero entry, sorted by key, so equal elements
have equal storage; `SmashElt` keeps the same pairs as a dict.  The values
need only `+`, `-`, `*` and truth (`Fraction` and `CycloElt` both serve),
and no helper makes a zero of its own: the caller passes in its field's
zero where a dense view needs one.  Each helper runs its own loop, one
element operation per step, so the hot paths gain no call per term.
The frozen slotted classes are built trusted in two ways: `fill` sets
the fields of an instance that the class's own `__init__` has made, and
`maker(cls)` gives the one bound constructor per class, which each class's
module binds once, at import (`GroupRingElt`'s `new_groupring`, say).
"""

from __future__ import annotations

from dataclasses import fields


def canonical(cells: dict) -> tuple:
    """The terms of {key: value}: zero values, as a cancellation leaves
    them, dropped; sorted by key."""
    return tuple(sorted((k, c) for k, c in cells.items() if c))


def sparse(values) -> tuple:
    """The terms of a dense sequence: (index, value) for each nonzero value."""
    return tuple((i, c) for i, c in enumerate(values) if c)


def add(x, y) -> tuple:
    """The terms of x + y.  x holds distinct keys; y is any iterable of
    pairs and may repeat a key, so `add((), pairs)` sums pairs by key.  A
    key absent from x takes y's value itself: no typed zero is made."""
    cells = dict(x)
    for k, c in y:
        a = cells.get(k)
        cells[k] = c if a is None else a + c
    return canonical(cells)


def sub(x, y) -> tuple:
    """The terms of x - y, under `add`'s rules: an absent key reads -c."""
    return add(x, ((k, -c) for k, c in y))


def pointwise(x, y) -> tuple:
    """The terms of x_k * y_k: they live on the intersection of the two
    supports, in y's order, and a product of nonzero values is nonzero."""
    cells = dict(x)
    return tuple((k, cells[k] * c) for k, c in y if k in cells)


def dense(terms, length: int, zero, convert=None) -> list:
    """The dense list of `length` entries: each term's value at its index
    and the one object `zero` everywhere else.  With `convert` (a JSON
    form, say) each stored value goes through it; `zero` is then the
    converted zero."""
    out = [zero] * length
    for i, c in terms:
        out[i] = c if convert is None else convert(c)
    return out


def grid(terms, size: int, zero, convert=None) -> list:
    """The dense size x size view of ((row, col), value) terms, as `dense`
    gives it: a list of rows, each the `dense` list of its row's terms.
    The rows with no term are all one shared row of `zero`s."""
    rows: dict = {}
    for (r, k), c in terms:
        rows.setdefault(r, []).append((k, c))
    out = [[zero] * size] * size
    for r, row in rows.items():
        out[r] = dense(row, size, zero, convert)
    return out


_setters: dict[type, tuple] = {}


def _slot_setters(cls) -> tuple:
    """The `__set__` of each field's slot of `cls`, in declaration order."""
    return _setters.setdefault(cls, tuple(getattr(cls, f.name).__set__
                                          for f in fields(cls)))


def fill(obj, *values) -> None:
    """Set the fields of `obj`, an instance of a frozen slotted dataclass,
    to `values` in declaration order, through the slots themselves."""
    cls = type(obj)
    for set_slot, value in zip(_setters.get(cls) or _slot_setters(cls), values):
        set_slot(obj, value)


def maker(cls):
    """The trusted constructor of the frozen slotted dataclass `cls`: a
    function of its field values, in declaration order, that returns an
    instance with none of the public constructor's checks or conversions.
    It is a closure over the allocator and the slot setters that sets each
    field by its own call, with no loop and no lookup per element.  Each
    value class binds its maker once, at import, beside the class; `act`,
    the truncations, the group-ring sums and the permutation products call
    it once per element they build.  The value classes have one, three or
    four fields; unpacking refuses any other count."""
    alloc = object.__new__
    setters = _slot_setters(cls)
    if len(setters) == 1:
        s0, = setters

        def make(v0):
            obj = alloc(cls)
            s0(obj, v0)
            return obj
    elif len(setters) == 4:
        s0, s1, s2, s3 = setters

        def make(v0, v1, v2, v3):
            obj = alloc(cls)
            s0(obj, v0)
            s1(obj, v1)
            s2(obj, v2)
            s3(obj, v3)
            return obj
    else:
        s0, s1, s2 = setters

        def make(v0, v1, v2):
            obj = alloc(cls)
            s0(obj, v0)
            s1(obj, v1)
            s2(obj, v2)
            return obj
    return make
