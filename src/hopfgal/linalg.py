"""Exact linear algebra over Q: one sparse reduced echelon on Python ints.

`SparseEchelon` maintains the reduced row echelon form of the rows inserted
so far, incrementally -- no floats, no pivoting that depends on magnitude.
Every stored row has pivot value 1 at its smallest column and is zero in
every other pivot column.  That form is unique for a row space, so ranks and
kernel bases do not depend on the order rows arrive in.

Elimination runs on `int`s, fraction-free in the spirit of Bareiss (Math.
Comp. 22, 1968).  A stored row is a dict of integer numerators over one
positive integer denominator.  An incoming row may hold ints or Fractions:
its denominators are cleared once, since a row's span does not depend on
its scale.  `Fraction`s appear only at the boundary: the values of
`SparseEchelon.kernel_basis` and the `SparseEchelon.pivot_rows` view, and
rows that callers build from exact values.  `sparse_rank` and
`sparse_nullspace` are the one-shot wrappers.

Vectors over a grid of cyclotomic cells use the flat layout of
`cyclotomic.terms_to_row`: coordinate A of cell c is column c*phi + A.  Its
integer numerators, over the lcm of the cells' denominators, are the rows
that `insert`, `contains` and `sparse_rank` take when only the span counts;
`cyclotomic.terms_to_vector` is the same row as exact values.
A space fixed by Galois maps that permute such cells is not eliminated on
the whole grid: `cyclotomic.fixed_space` runs one `SparseEchelon` on phi
columns per orbit of cells.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping

_ONE = Fraction(1)


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of ints or Fractions over the lcm of their
    denominators.  Their gcd with that denominator is 1."""
    values = list(values)
    den = lcm(*[v.denominator for v in values])
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def _integer_row(row) -> dict[int, int]:
    """The nonzero entries of a row of ints or Fractions, times the lcm of
    their denominators, as a fresh dict: `_reduce` and `insert` mutate it."""
    den = lcm(*[v.denominator for v in row.values()])
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


class SparseEchelon:
    """Incrementally maintained reduced echelon of sparse rational rows.

    Rows are dicts {col: int or Fraction}.  The row with pivot column q is
    stored as ``(d, tail)``: a positive int denominator d and the dict tail
    {col: int} of its other nonzero numerators.  The pivot numerator is d
    itself, left implicit, so the pivot value is 1.  The gcd of d and the
    tail's numerators is 1, and no tail touches a pivot column.  So the
    stored integers are the unique scaling of the unique reduced echelon
    form, and inserting a pivot hit can only introduce free columns: one
    pass reduces a row.
    """

    def __init__(self) -> None:
        # pivot column -> (denominator, {free column: numerator})
        self._rows: dict[int, tuple[int, dict[int, int]]] = {}
        # column -> set of pivot columns whose stored row touches it
        self._occur: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivot_rows(self) -> Mapping[int, dict[int, Fraction]]:
        """Read-only view {pivot column: {column: Fraction}} of the stored
        rows, built on each access."""
        return MappingProxyType({
            q: {q: _ONE, **{c: Fraction(v, d) for c, v in tail.items()}}
            for q, (d, tail) in self._rows.items()})

    def _reduce(self, x: dict[int, int]) -> dict[int, int]:
        """Reduce the integer row `x` in place against the stored pivots;
        the result spans the same line modulo the stored rows.

        Step by step this is x <- d_c*x - x_c*row_c for each pivot hit c.  No
        stored row touches another pivot column, so the hits' values do not
        change along the way, and the steps are taken together: x is scaled
        once by the lcm L of the hit denominators, then row_c is subtracted
        x_c*L/d_c times for each hit.
        """
        rows = self._rows
        hits = [c for c in x if c in rows]
        if not hits:
            return x
        scale = lcm(*[rows[c][0] for c in hits])
        if scale != 1:
            for c in x:
                x[c] *= scale
        for c in hits:
            d, tail = rows[c]
            f = x.pop(c) // d
            for cc, v in tail.items():
                nv = x.get(cc, 0) - f * v
                if nv:
                    x[cc] = nv
                else:
                    del x[cc]
        return x

    def insert(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        x = self._reduce(_integer_row(row))
        if not x:
            return False
        pc = min(x)
        d = x.pop(pc)
        g = gcd(d, *x.values())
        if d < 0:
            g = -g
        if g != 1:
            d //= g
            x = {c: v // g for c, v in x.items()}
        rows, occur = self._rows, self._occur
        # knock the new pivot column out of every stored row that touches it:
        # (d*row_q - s*new) over d_q*d, then divide out the gcd
        for q in sorted(occur.pop(pc, ())):
            dq, tail = rows[q]
            s = tail.pop(pc)
            if d != 1:
                for cc in tail:
                    tail[cc] *= d
                dq *= d
            for cc, v in x.items():
                nv = tail.get(cc, 0) - s * v
                if nv:
                    if cc not in tail:
                        occur.setdefault(cc, set()).add(q)
                    tail[cc] = nv
                else:
                    del tail[cc]
                    occur[cc].discard(q)
            g = gcd(dq, *tail.values())
            if g != 1:
                dq //= g
                for cc in tail:
                    tail[cc] //= g
            rows[q] = (dq, tail)
        rows[pc] = (d, x)
        for cc in x:
            occur.setdefault(cc, set()).add(pc)
        return True

    def contains(self, row: dict) -> bool:
        return not self._reduce(_integer_row(row))

    def kernel_basis(self, ncols: int) -> list[dict[int, Fraction]]:
        """Kernel of the matrix whose rows were inserted (one vector per free
        col), for a matrix of `ncols` columns.  Raises ValueError if an
        inserted row has a column >= ncols."""
        rows, occur = self._rows, self._occur
        top = max([c for c, qs in occur.items() if qs] + list(rows), default=-1)
        if top >= ncols:
            raise ValueError("an inserted row has column %d, outside the %d "
                             "columns of the kernel" % (top, ncols))
        basis = []
        for f in range(ncols):
            if f in rows:
                continue
            v = {f: _ONE}
            for q in sorted(occur.get(f, ())):
                d, tail = rows[q]
                v[q] = Fraction(-tail[f], d)
            basis.append(v)
        return basis


def sparse_rank(rows) -> int:
    ech = SparseEchelon()
    for row in rows:
        ech.insert(row)
    return ech.rank


def sparse_nullspace(rows, ncols: int) -> list[dict[int, Fraction]]:
    ech = SparseEchelon()
    for row in rows:
        ech.insert(row)
    return ech.kernel_basis(ncols)
