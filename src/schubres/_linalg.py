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


def as_int(x):
    """Exact conversion to int; rejects non-integral rationals."""
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"expected an integer value, got {x}")
    return f.numerator
