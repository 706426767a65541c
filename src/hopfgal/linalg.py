"""Exact linear algebra over Q: one sparse reduced echelon.

`SparseEchelon` keeps rows as ``{column: coefficient}`` dicts with
`fractions.Fraction` values and maintains their reduced row echelon form
incrementally -- no floats, no pivoting that depends on magnitude.  Every
stored row is scaled to pivot value 1, has its pivot at its smallest column,
and is zero in every other pivot column.  That form is unique for a row
space, so ranks and kernel bases do not depend on the order rows arrive in.
`sparse_rank` and `sparse_nullspace` are the one-shot wrappers; `mat_mul`
multiplies small dense matrices.

Vectors over a grid of cyclotomic cells use the flat layout of
`cyclotomic.cells_to_vector`: coordinate A of cell c is column c*phi + A.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list[Fraction]]:
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


class SparseEchelon:
    """Incrementally maintained reduced echelon of sparse rational rows.

    Rows are dicts {col: Fraction-compatible}.  Stored pivot rows are scaled
    to pivot value 1 and mutually reduced, so the support of a stored row is
    its pivot column plus free columns only.  That keeps insertion a single
    pass: eliminating a pivot hit can only introduce free columns.
    """

    def __init__(self) -> None:
        self.pivot_rows: dict[int, dict[int, Fraction]] = {}
        # column -> set of pivot columns whose stored row touches it
        self._occur: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivot_rows)

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """Return `row` reduced against the stored pivots (row is not mutated)."""
        out = {c: Fraction(v) for c, v in row.items() if v}
        hits = sorted(c for c in out if c in self.pivot_rows)
        for c in hits:
            f = out.pop(c, None)
            if not f:
                continue
            for cc, vv in self.pivot_rows[c].items():
                if cc == c:
                    continue
                nv = out.get(cc, 0) - f * vv
                if nv:
                    out[cc] = nv
                else:
                    out.pop(cc, None)
        return out

    def insert(self, row: dict[int, Fraction]) -> bool:
        """Insert a row; returns True if it increased the rank."""
        red = self.reduce(row)
        if not red:
            return False
        pc = min(red)
        pv = red[pc]
        newrow = {c: v / pv for c, v in red.items()}
        # knock the new pivot column out of every stored row that touches it
        for q in sorted(self._occur.get(pc, ())):
            stored = self.pivot_rows[q]
            f = stored.pop(pc)
            self._occur[pc].discard(q)
            for cc, vv in newrow.items():
                if cc == pc:
                    continue
                nv = stored.get(cc, 0) - f * vv
                if nv:
                    if cc not in stored:
                        self._occur.setdefault(cc, set()).add(q)
                    stored[cc] = nv
                elif cc in stored:
                    del stored[cc]
                    self._occur[cc].discard(q)
        self.pivot_rows[pc] = newrow
        for cc in newrow:
            if cc != pc:
                self._occur.setdefault(cc, set()).add(pc)
        return True

    def contains(self, row: dict[int, Fraction]) -> bool:
        return not self.reduce(row)

    def kernel_basis(self, ncols: int) -> list[dict[int, Fraction]]:
        """Kernel of the matrix whose rows were inserted (one vector per free col)."""
        basis = []
        pivset = self.pivot_rows
        for f in range(ncols):
            if f in pivset:
                continue
            v = {f: Fraction(1)}
            for p in sorted(self._occur.get(f, ())):
                v[p] = -self.pivot_rows[p][f]
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

