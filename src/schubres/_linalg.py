"""Exact linear algebra helpers: the Cartan inverse and integer checks."""

from __future__ import annotations

from fractions import Fraction


def mat_inv(m):
    """Invert an exact matrix by Gauss-Jordan elimination."""
    n = len(m)
    aug = [
        [Fraction(m[i][j]) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_pivot = 1 / aug[col][col]
        aug[col] = [x * inv_pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n + j] for j in range(n)) for i in range(n))


def as_int(x) -> int:
    """Exact conversion of a rational to int; a non-integral value means
    an upstream invariant failed."""
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer value, got {x}")
    return x.numerator


def div_exact(vec, d: int):
    """The integer vector ``vec / d``; raises unless ``d`` divides every
    coordinate, since a remainder means an upstream invariant failed."""
    if any(c % d for c in vec):
        raise ArithmeticError(f"{vec} is not divisible by {d}")
    return tuple(c // d for c in vec)
