"""Independent oracles for cross-checking library results.

Everything here goes through sympy (polynomial arithmetic modulo the explicit
minimal polynomial, exact matrices) or direct counting, never through the
library's own reduction/elimination code, so a test comparing the two routes
is a genuine dual computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy

_X = sympy.Symbol("x")


@lru_cache(maxsize=None)
def minimal_poly(p: int, n: int) -> sympy.Poly:
    """1 + x^s + x^(2s) + ... + x^((p-1)s) with s = p^(n-1)."""
    s = p ** (n - 1)
    top = (p - 1) * s
    cs = [1 if (top - k) % s == 0 else 0 for k in range(top + 1)]
    return sympy.Poly(cs, _X, domain="QQ")


def degree(p: int, n: int) -> int:
    return p ** (n - 1) * (p - 1)


def _to_rational(c) -> sympy.Rational:
    if isinstance(c, Fraction):
        return sympy.Rational(c.numerator, c.denominator)
    return sympy.Rational(c)


def vec_to_poly(coeffs) -> sympy.Poly:
    cs = [_to_rational(c) for c in reversed(list(coeffs))]
    return sympy.Poly(cs, _X, domain="QQ")


def poly_to_vec(p: int, n: int, poly: sympy.Poly) -> list[Fraction]:
    rem = poly.rem(minimal_poly(p, n))
    cs = [sympy.Rational(c) for c in reversed(rem.all_coeffs())]
    cs += [sympy.Rational(0)] * (degree(p, n) - len(cs))
    return [Fraction(int(c.p), int(c.q)) for c in cs]


def oracle_cyclo_mul(p: int, n: int, xs, ys) -> list[Fraction]:
    return poly_to_vec(p, n, vec_to_poly(xs) * vec_to_poly(ys))


def oracle_cyclo_inverse(p: int, n: int, xs) -> list[Fraction]:
    inv = sympy.invert(vec_to_poly(xs).as_expr(),
                       minimal_poly(p, n).as_expr(), _X)
    return poly_to_vec(p, n, sympy.Poly(inv, _X, domain="QQ"))


def oracle_zeta_power(p: int, n: int, e: int) -> list[Fraction]:
    e %= p ** n
    return poly_to_vec(p, n, sympy.Poly([1] + [0] * e, _X, domain="QQ"))


def oracle_idempotent(p: int, n: int, i: int) -> list[list[Fraction]]:
    """Coefficient vector (per group exponent j) of the i-th idempotent:
    (1/p^n) * zeta^(-i j) at sigma^j."""
    go = p ** n
    out = []
    for j in range(go):
        vec = oracle_zeta_power(p, n, (-i * j) % go)
        out.append([Fraction(c, go) for c in vec])
    return out


def oracle_pairing(p: int, n: int, i: int, k: int) -> Fraction:
    """(1/p^n) * sum_j zeta^((k-i) j), which the root-of-unity geometric sum
    makes the indicator of k == i mod p^n."""
    go = p ** n
    counts = [0] * go
    for j in range(go):
        counts[((k - i) * j) % go] += 1
    vec = poly_to_vec(p, n, vec_to_poly(counts))
    assert all(c == 0 for c in vec[1:]), "pairing value must be rational"
    return Fraction(vec[0], go)


def to_sympy_matrix(rows) -> sympy.Matrix:
    return sympy.Matrix([[_to_rational(v) for v in row] for row in rows])


def oracle_rank(rows) -> int:
    if not rows:
        return 0
    return to_sympy_matrix(rows).rank()


def oracle_nullity(rows, ncols: int) -> int:
    if not rows:
        return ncols
    return ncols - to_sympy_matrix(rows).rank()


def oracle_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Nonzero rows of the reduced row echelon form, and the pivot columns."""
    red, pivots = to_sympy_matrix(rows).rref()
    return ([[Fraction(int(v.p), int(v.q)) for v in red.row(i)]
             for i in range(len(pivots))], list(pivots))


def oracle_multiplicative_order(g: int, modulus: int) -> int:
    return int(sympy.ntheory.n_order(g, modulus))


def oracle_primitive_root(modulus: int) -> int:
    return int(sympy.ntheory.primitive_root(modulus))
