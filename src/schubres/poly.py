"""Exact polynomial arithmetic over the simple-root variables.

Two representations are used side by side:

* :class:`FactoredPoly` -- a rational scalar times a multiset of linear
  forms, the shape in which chain and subword contributions arise;
* :class:`Polynomial` -- a sparse exponent-map polynomial with exact
  rational coefficients, the shape in which restrictions are reported.

A polynomial stores an integral coefficient as ``int`` and any other as
``Fraction``, so the usual all-integer case never builds a ``Fraction``;
the two compare, hash and print alike.  No floating point is used
anywhere: no ``/`` is taken between two ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: A linear form sum_i c_i alpha_i as a coordinate tuple.
LinearForm = tuple


class CancellationError(ArithmeticError):
    """No factor proportional to the requested linear form."""


def _rational(x) -> Fraction:
    """``x`` as a Fraction.  A float is refused: it is a binary fraction,
    not the decimal it was written as."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not exact; pass an int or a Fraction")
    return Fraction(x)


def _coefficient(c):
    """``c`` as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = _rational(c)
    return c.numerator if c.denominator == 1 else c


def _term_sort_key(exponents):
    return (sum(exponents), tuple(-e for e in exponents))


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    >>> p = Polynomial(2, {(1, 0): 1, (0, 1): 1})
    >>> (p * p).to_text()
    'a1^2 + 2*a1*a2 + a2^2'
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = rank
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exponents, coeff in items:
                coeff = _coefficient(coeff)
                if not coeff:
                    continue
                exponents = tuple(exponents)
                if len(exponents) != rank:
                    raise ValueError("exponent vector length does not match rank")
                acc = clean.get(exponents)
                if acc is None:
                    clean[exponents] = coeff
                else:
                    acc += coeff
                    if acc:
                        clean[exponents] = acc
                    else:
                        del clean[exponents]
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def constant(cls, rank, value):
        return cls(rank, {(0,) * rank: value})

    @classmethod
    def one(cls, rank):
        return cls.constant(rank, 1)

    @classmethod
    def from_linear(cls, form):
        form = tuple(form)
        rank = len(form)
        p = cls(rank)
        for i, c in enumerate(form):
            if c:
                e = [0] * rank
                e[i] = 1
                p.terms[tuple(e)] = _coefficient(c)
        return p

    # -- structure

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        return len({sum(e) for e in self.terms}) <= 1

    # -- ring operations

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc += c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        p = Polynomial.zero(self.rank)
        p.terms = out
        return p

    def __neg__(self):
        p = Polynomial.zero(self.rank)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coefficient(other)
            p = Polynomial.zero(self.rank)
            if other:
                p.terms = {e: c * other for e, c in self.terms.items()}
            return p
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e)
                if acc is None:
                    out[e] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc:
                        out[e] = acc
                    else:
                        del out[e]
        p = Polynomial.zero(self.rank)
        p.terms = out
        return p

    __rmul__ = __mul__

    # -- evaluation

    def evaluate(self, values) -> Fraction:
        values = tuple(_rational(v) for v in values)
        if len(values) != self.rank:
            raise ValueError("value vector length does not match rank")
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term *= v**k
            total += term
        return total

    # -- serialization

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _term_sort_key(item[0]))

    def to_text(self, var="a"):
        """Canonical text form, e.g. ``a1^2 + 2*a1*a2 + a2^2``."""
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self._sorted_terms():
            mono = "*".join(
                f"{var}{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def to_latex(self):
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self._sorted_terms():
            mono = "".join(
                f"\\alpha_{{{i + 1}}}" + (f"^{{{k}}}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            mag = abs(c)
            if mag.denominator != 1:
                coeff = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            else:
                coeff = str(mag.numerator)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = coeff + mono
            else:
                body = coeff
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def to_json(self):
        """List of ``{exponents, numerator, denominator}`` records."""
        return [
            {
                "exponents": list(e),
                "numerator": c.numerator,
                "denominator": c.denominator,
            }
            for e, c in self._sorted_terms()
        ]

    @classmethod
    def from_json(cls, data, rank=None):
        if rank is None:
            if not data:
                raise ValueError("rank required to parse an empty polynomial")
            rank = len(data[0]["exponents"])
        return cls(
            rank,
            {
                tuple(item["exponents"]): Fraction(
                    item["numerator"], item["denominator"]
                )
                for item in data
            },
        )

    def __repr__(self):
        return f"Polynomial({self.to_text()})"


@dataclass(frozen=True)
class FactoredPoly:
    """A rational scalar times a multiset of nonzero linear forms."""

    scalar: Fraction
    factors: tuple
    rank: int

    def __post_init__(self):
        if type(self.scalar) is not Fraction:
            object.__setattr__(self, "scalar", _rational(self.scalar))
        factors = tuple(sorted(tuple(f) for f in self.factors))
        for f in factors:
            if len(f) != self.rank:
                raise ValueError("factor length does not match rank")
            if not any(f):
                raise ValueError("zero linear form cannot be a factor")
        object.__setattr__(self, "factors", factors)

    def degree(self):
        return len(self.factors)

    def evaluate(self, values) -> Fraction:
        values = tuple(_rational(v) for v in values)
        total = self.scalar
        for f in self.factors:
            total *= sum(c * v for c, v in zip(f, values))
        return total

    def __repr__(self):
        facs = " * ".join(
            "(" + Polynomial.from_linear(f).to_text() + ")" for f in self.factors
        )
        if not facs:
            return f"FactoredPoly({self.scalar})"
        return f"FactoredPoly({self.scalar} * {facs})"


def expand(f: FactoredPoly) -> Polynomial:
    """Exact expansion; the degree equals the number of factors."""
    out = Polynomial.constant(f.rank, f.scalar)
    for form in f.factors:
        out = out * Polynomial.from_linear(form)
    return out


def proportionality_ratio(g, d):
    """The rational c with g = c * d, or None when not proportional."""
    k = next((i for i, c in enumerate(d) if c), None)
    if k is None:
        raise ValueError("zero linear form")
    gk, dk = g[k], d[k]
    if not gk:
        return None
    # g = (gk / dk) d, cross-multiplied to stay in integers.
    if all(gj * dk == gk * dj for gj, dj in zip(g, d)):
        return Fraction(gk, dk)
    return None


def cancel_factor(f: FactoredPoly, d) -> FactoredPoly:
    """Divide out the linear form ``d`` against one proportional factor.

    Removes the first factor g = c * d (in sorted order) and multiplies
    the scalar by c.  A nonpositive ratio indicates a logic error
    upstream and raises rather than silently flipping signs.
    """
    d = tuple(d)
    for idx, g in enumerate(f.factors):
        c = proportionality_ratio(g, d)
        if c is None:
            continue
        if c <= 0:
            raise CancellationError(
                f"factor {g} is a nonpositive multiple of {d}"
            )
        rest = f.factors[:idx] + f.factors[idx + 1 :]
        return FactoredPoly(f.scalar * c, rest, f.rank)
    raise CancellationError(f"no factor of {f!r} is proportional to {d}")


def divide_linear(p: Polynomial, d):
    """Exact quotient p / d for a linear form d, or None if not divisible.

    Eliminates the first variable with a nonzero coefficient in d and
    checks that the remainder vanishes.
    """
    d = tuple(Fraction(c) for c in d)
    k = next((i for i, c in enumerate(d) if c), None)
    if k is None:
        raise ValueError("division by the zero linear form")
    ck = d[k]
    quotient = {}
    remainder = dict(p.terms)
    while True:
        level = max((e[k] for e in remainder if e[k] > 0), default=0)
        if level == 0:
            break
        for e in [e for e in remainder if e[k] == level]:
            c = remainder.pop(e)
            me = list(e)
            me[k] -= 1
            me = tuple(me)
            mc = c / ck
            acc = quotient.get(me)
            quotient[me] = mc if acc is None else acc + mc
            # remainder -= mc * alpha^me * d; the j == k part cancels the
            # popped term exactly, so it is skipped.
            for j, dj in enumerate(d):
                if not dj or j == k:
                    continue
                key = list(me)
                key[j] += 1
                key = tuple(key)
                acc = remainder.get(key, Fraction(0)) - mc * dj
                if acc:
                    remainder[key] = acc
                elif key in remainder:
                    del remainder[key]
    if remainder:
        return None
    return Polynomial(p.rank, quotient)


def evaluate(p: Polynomial, alpha_values) -> Fraction:
    """Exact substitution of rational values for the variables."""
    return p.evaluate(alpha_values)
