"""Exact polynomial arithmetic over the simple-root variables.

Two representations are used side by side:

* :class:`FactoredPoly` -- a rational scalar times a multiset of linear
  forms, the shape in which chain and subword contributions arise;
* :class:`Polynomial` -- a sparse polynomial with exact rational
  coefficients, the shape in which restrictions are reported.

A polynomial maps each monomial, packed into one int by :func:`pack`, to
its coefficient.  The key's bytes, most significant first, are the total
degree and then the exponents of variables 1 to rank, so the key of a
product of monomials is the sum of their keys, and the canonical term
order (total degree ascending, then the exponent vector descending) is
read off the key.  The degree of a monomial is at most ``MAX_DEGREE`` =
255, against at most |Phi+| = 225 in B15 and C15 at the CLI's largest
rank, so no field ever carries into the next; a polynomial or product
past it raises ``OverflowError``.  Exponent tuples are unpacked only for
output, evaluation and division.  Adding the key of alpha_i to every key
multiplies by alpha_i, so :meth:`Polynomial.times_linear` multiplies by a
linear form with one shifted copy of the terms per nonzero coordinate;
the subword dynamic program adds such a product straight into a term
dict with the same kernel, :func:`_add_times_linear`.

A polynomial's coefficients are ``int`` numerators over one positive
denominator ``den``, in lowest terms, so arithmetic runs in integers and
the usual integral case (``den == 1``) never takes a gcd.  ``Fraction``
appears only at the edges: rational input, a rational scalar factor,
:meth:`Polynomial.from_json`, the value of :meth:`Polynomial.evaluate`
and :class:`FactoredPoly`.  No floating point is used anywhere: no ``/``
is taken between two ints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .record import Record

#: A linear form sum_i c_i alpha_i as a coordinate tuple.
LinearForm = tuple

#: Bits of one field of a packed monomial: a byte, so that
#: ``int.to_bytes`` unpacks a key.
FIELD_BITS = 8
#: Largest total degree of a monomial, so that every exponent fits its
#: field; also the mask of one field.
MAX_DEGREE = (1 << FIELD_BITS) - 1


class CancellationError(ArithmeticError):
    """No factor proportional to the requested linear form."""


def pack(exponents) -> int:
    """The packed key of the monomial with these exponents: the bytes of
    its degree and its exponents, read as one big-endian int.

    >>> pack((1, 0)) > pack((0, 1)) > pack((0, 0))
    True
    >>> unpack(pack((2, 0)) + pack((1, 3)), 2)
    (3, 3)
    """
    exponents = tuple(exponents)
    if min(exponents, default=0) < 0:
        raise ValueError(f"negative exponent in {exponents}")
    degree = sum(exponents)
    if degree > MAX_DEGREE:
        raise OverflowError(f"degree {degree} exceeds the bound {MAX_DEGREE}")
    return int.from_bytes(bytes((degree,) + exponents), "big")


def unpack(key: int, rank: int) -> tuple:
    """The exponent tuple of a packed key."""
    return tuple(key.to_bytes(rank + 1, "big")[1:])


def _rational(x) -> Fraction:
    """``x`` as a Fraction.  A float is refused: it is a binary fraction,
    not the decimal it was written as."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not exact; pass an int or a Fraction")
    return Fraction(x)


def _cleared(values):
    """Exact rationals (ints or Fractions; a float is refused) as ints
    over a common denominator: (ints, denominator)."""
    values = tuple(x if type(x) in (int, Fraction) else _rational(x) for x in values)
    scale = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values), scale


def _scaled(terms, factor):
    """A new dict of ``terms`` times the int ``factor``."""
    if factor == 1:
        return dict(terms)
    return {e: c * factor for e, c in terms.items()}


def _add_times_linear(out, terms, form, rank):
    """Add ``terms * form`` into the term dict ``out`` in place and return
    it; ``out=None`` starts a new dict.  The product is one shifted copy
    of ``terms`` per nonzero coordinate of the nonzero int tuple ``form``,
    on the packed keys, and a sum that reaches zero is deleted.

    The caller checks the degree: every key must stay within
    ``MAX_DEGREE`` after the shift.
    """
    degree_one = 1 << FIELD_BITS * rank
    items = terms.items()
    for i, c in enumerate(form):
        if not c:
            continue
        up = degree_one | 1 << FIELD_BITS * (rank - 1 - i)
        if out is None:
            out = {e + up: n * c for e, n in items}
            continue
        get = out.get
        for e, n in items:
            e += up
            # n * c is nonzero, so a zero sum means the key was there.
            acc = get(e, 0) + n * c
            if acc:
                out[e] = acc
            else:
                del out[e]
    return out


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps the packed key of each monomial (see :func:`pack`) to
    the nonzero ``int`` numerator of its coefficient, and ``den`` is the
    one denominator of them all: the coefficient of a key is
    ``terms[key] / den``.  The form is canonical: ``den >= 1``, the gcd of
    ``den`` and the numerators is 1, and the zero polynomial has
    ``den == 1``.

    >>> p = Polynomial(2, {(1, 0): 1, (0, 1): 1})
    >>> (p * p).to_text()
    'a1^2 + 2*a1*a2 + a2^2'
    """

    __slots__ = ("rank", "terms", "den")

    def __init__(self, rank, terms=None):
        self.rank, self.terms, self.den = rank, {}, 1
        if not terms:
            return
        items = list(terms.items() if isinstance(terms, dict) else terms)
        numerators, den = _cleared(c for _, c in items)
        clean = {}
        for (exponents, _), coeff in zip(items, numerators):
            if not coeff:
                continue
            exponents = tuple(exponents)
            if len(exponents) != rank:
                raise ValueError("exponent vector length does not match rank")
            key = pack(exponents)
            acc = clean.get(key, 0) + coeff
            if acc:
                clean[key] = acc
            else:
                del clean[key]
        p = self._of(rank, clean, den)
        self.terms, self.den = p.terms, p.den

    @classmethod
    def _of(cls, rank, terms, den):
        """The polynomial ``terms / den`` for nonzero int numerators and
        den > 0, brought to lowest terms; the gcd is skipped when den is 1."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {e: c // g for e, c in terms.items()}
        p = cls.__new__(cls)
        p.rank = rank
        p.terms = terms
        p.den = den
        return p

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
        """The linear form sum_i c_i alpha_i: the constant 1, whose key is
        0, times it."""
        form = tuple(form)
        return cls._of(len(form), {0: 1}, 1).times_linear(form)

    # -- structure

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.rank, self.den, self.terms) == (other.rank, other.den, other.terms)

    def __hash__(self):
        return hash((self.rank, self.den, frozenset(self.terms.items())))

    def degree(self):
        """Total degree; -1 for the zero polynomial.  The degree is the
        key's top byte, so the largest key has it."""
        if not self.terms:
            return -1
        return max(self.terms) >> FIELD_BITS * self.rank

    def is_homogeneous(self):
        shift = FIELD_BITS * self.rank
        return len({key >> shift for key in self.terms}) <= 1

    # -- ring operations

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        den = math.lcm(self.den, other.den)
        out = _scaled(self.terms, den // self.den)
        lift = den // other.den
        for e, c in other.terms.items():
            c *= lift
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc += c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return Polynomial._of(self.rank, out, den)

    def __neg__(self):
        return Polynomial._of(self.rank, _scaled(self.terms, -1), self.den)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial(self.rank)
            return Polynomial._of(
                self.rank,
                _scaled(self.terms, other.numerator),
                self.den * other.denominator,
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        if not self.terms or not other.terms:
            return Polynomial(self.rank)
        # A product whose degree fits cannot carry from one exponent field
        # into the next.
        degree = self.degree() + other.degree()
        if degree > MAX_DEGREE:
            raise OverflowError(f"degree {degree} exceeds the bound {MAX_DEGREE}")
        out = {}
        get = out.get
        items = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in items:
                e = e1 + e2
                acc = get(e)
                if acc is None:
                    out[e] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc:
                        out[e] = acc
                    else:
                        del out[e]
        return Polynomial._of(self.rank, out, self.den * other.den)

    __rmul__ = __mul__

    def times_linear(self, form):
        """``self * Polynomial.from_linear(form)``, built as one shifted
        copy of the terms per nonzero coordinate of ``form``, int or
        Fraction coordinates cleared to ints over a common denominator."""
        form = tuple(form)
        rank = self.rank
        if len(form) != rank:
            raise ValueError("rank mismatch")
        den = self.den
        if any(type(c) is not int for c in form):
            form, scale = _cleared(form)
            den *= scale
        if not self.terms or not any(form):
            return Polynomial(rank)
        degree = self.degree() + 1
        if degree > MAX_DEGREE:
            raise OverflowError(f"degree {degree} exceeds the bound {MAX_DEGREE}")
        terms = _add_times_linear(None, self.terms, form, rank)
        return Polynomial._of(rank, terms, den)

    # -- evaluation

    def evaluate(self, values) -> Fraction:
        """The value at ``values`` of the simple-root variables, summed in
        integers over the values' common denominator."""
        values, scale = _cleared(values)
        if len(values) != self.rank:
            raise ValueError("value vector length does not match rank")
        if not self.terms:
            return Fraction(0)
        # A term of degree d is scale^d times too large at the cleared
        # values: lift it by scale^(top - d) and divide once by scale^top.
        shift = FIELD_BITS * self.rank
        top = self.degree()
        lifts = [scale ** (top - d) for d in range(top + 1)]
        total = 0
        for key, c in self.terms.items():
            term = lifts[key >> shift] * c
            for v, k in zip(values, unpack(key, self.rank)):
                if k:
                    term *= v**k
            total += term
        return Fraction(total, self.den * scale**top)

    # -- serialization

    def _sorted_keys(self):
        """The packed keys by total degree, then by exponent vector
        descending: the key of degree d and exponent fields r sorts as
        d * 2^s - r."""
        shift = FIELD_BITS * self.rank
        return sorted(self.terms, key=lambda k: ((k >> shift) << (shift + 1)) - k)

    def _sorted_terms(self):
        """``(exponents, numerator, denominator)`` of each coefficient in
        lowest terms, in the order of :meth:`_sorted_keys`."""
        keys = self._sorted_keys()
        rank, terms, den = self.rank, self.terms, self.den
        if den == 1:
            return [(unpack(k, rank), terms[k], 1) for k in keys]
        return [
            (unpack(k, rank), terms[k] // (g := math.gcd(terms[k], den)), den // g)
            for k in keys
        ]

    def _render(self, power, fraction, joiner):
        """The terms in canonical order with their signs: ``power(i, k)``
        renders the factor a_i^k, ``fraction % (n, d)`` a positive
        coefficient n/d with d > 1, and ``joiner`` goes between the factors
        of a term."""
        if not self.terms:
            return "0"
        pieces = []
        for e, n, d in self._sorted_terms():
            mono = joiner.join(power(i + 1, k) for i, k in enumerate(e) if k)
            number = str(abs(n)) if d == 1 else fraction % (abs(n), d)
            if not mono:
                body = number
            elif number == "1":
                body = mono
            else:
                body = number + joiner + mono
            if not pieces:
                pieces.append(body if n > 0 else f"-{body}")
            else:
                pieces.append(("+ " if n > 0 else "- ") + body)
        return " ".join(pieces)

    def to_text(self):
        """Canonical text form, e.g. ``a1^2 + 2*a1*a2 + a2^2``."""
        return self._render(
            lambda i, k: f"a{i}" + (f"^{k}" if k > 1 else ""), "%d/%d", "*"
        )

    def to_latex(self):
        return self._render(
            lambda i, k: f"\\alpha_{{{i}}}" + (f"^{{{k}}}" if k > 1 else ""),
            "\\frac{%d}{%d}",
            "",
        )

    def to_json(self):
        """List of ``{exponents, numerator, denominator}`` records."""
        return [
            {"exponents": list(e), "numerator": n, "denominator": d}
            for e, n, d in self._sorted_terms()
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


class FactoredPoly(Record):
    """A rational scalar times a multiset of nonzero linear forms."""

    __slots__ = ("scalar", "factors", "rank")

    def __init__(self, scalar: Fraction, factors: tuple, rank: int):
        if type(scalar) is not Fraction:
            scalar = _rational(scalar)
        factors = tuple(sorted(tuple(f) for f in factors))
        for f in factors:
            if len(f) != rank:
                raise ValueError("factor length does not match rank")
            if not any(f):
                raise ValueError("zero linear form cannot be a factor")
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "rank", rank)

    def evaluate(self, values) -> Fraction:
        values = tuple(_rational(v) for v in values)
        if len(values) != self.rank:
            raise ValueError("value vector length does not match rank")
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
        out = out.times_linear(form)
    return out


def divide_linear(p: Polynomial, d):
    """Exact quotient p / d for a linear form d, or None if not divisible.

    Eliminates the first variable x with a nonzero coefficient c in the
    cleared d by pseudo-division: the numerators are scaled by c^L, L the
    degree of p in x, so that each elimination step divides exactly, and
    the remainder must vanish.
    """
    d, d_den = _cleared(d)
    k = next((i for i, c in enumerate(d) if c), None)
    if k is None:
        raise ValueError("division by the zero linear form")
    ck = d[k]
    rank = p.rank
    degree_one = 1 << FIELD_BITS * rank
    field = FIELD_BITS * (rank - 1 - k)
    # A key minus ``down`` has one factor alpha_k less; plus an ``up``, it
    # has one factor alpha_j more.
    down = degree_one | 1 << field
    ups = [
        (degree_one | 1 << FIELD_BITS * (rank - 1 - j), dj)
        for j, dj in enumerate(d)
        if dj and j != k
    ]
    # Every coefficient of alpha_k-degree l in the remainder stays a
    # multiple of ck^l, so each step's // is exact.
    lift = ck ** max(((e >> field) & MAX_DEGREE for e in p.terms), default=0)
    quotient = {}
    remainder = _scaled(p.terms, lift)
    while True:
        level = max(((e >> field) & MAX_DEGREE for e in remainder), default=0)
        if level == 0:
            break
        for e in [e for e in remainder if (e >> field) & MAX_DEGREE == level]:
            # Each popped key is distinct and never comes back, so each
            # quotient key is set once.
            me = e - down
            mc = quotient[me] = remainder.pop(e) // ck
            # remainder -= mc * alpha^me * d; the alpha_k part cancels the
            # popped term exactly, so it is skipped.
            for up, dj in ups:
                key = me + up
                acc = remainder.get(key, 0) - mc * dj
                if acc:
                    remainder[key] = acc
                else:
                    remainder.pop(key, None)
    if remainder:
        return None
    # p = quotient * d_int / (p.den * lift) and d = d_int / d_den.
    den = p.den * lift
    sign = -1 if den < 0 else 1
    return Polynomial._of(rank, _scaled(quotient, sign * d_den), sign * den)
