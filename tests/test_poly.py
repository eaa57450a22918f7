"""Exact polynomial arithmetic: expansion, division, evaluation, output."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubres.poly import (
    MAX_DEGREE,
    FactoredPoly,
    Polynomial,
    divide_linear,
    expand,
    pack,
    unpack,
)
from schubres.rootsys import root_system
from schubres.schubert import chain_contribution, enumerate_c0, tau_chain
from schubres.weyl import enumerate_elements


def poly(rank, terms):
    return Polynomial(rank, terms)


class TestExpand:
    def test_empty_product_is_one(self):
        assert expand(FactoredPoly(1, (), 2)) == Polynomial.one(2)

    def test_product_of_two_forms(self):
        # (a1 + a2)(a1 + a2 + a3), multiplied out by hand
        f = FactoredPoly(1, ((1, 1, 0), (1, 1, 1)), 3)
        assert expand(f) == poly(
            3,
            {
                (2, 0, 0): 1,
                (1, 1, 0): 2,
                (0, 2, 0): 1,
                (1, 0, 1): 1,
                (0, 1, 1): 1,
            },
        )

    def test_scalar_half(self):
        f = FactoredPoly(Fraction(1, 2), ((1, 0),), 2)
        assert expand(f) == poly(2, {(1, 0): Fraction(1, 2)})

    def test_degree_equals_factor_count(self):
        f = FactoredPoly(3, ((1, 0), (1, 1), (0, 1)), 2)
        assert expand(f).degree() == 3

    def test_multiset_merge_is_multiplicative(self):
        a = FactoredPoly(2, ((1, 0), (1, 1)), 2)
        b = FactoredPoly(Fraction(1, 3), ((0, 1),), 2)
        merged = FactoredPoly(a.scalar * b.scalar, a.factors + b.factors, 2)
        assert expand(merged) == expand(a) * expand(b)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            FactoredPoly(1, ((0, 0),), 2)


class TestDivideLinear:
    def test_simple_quotient(self):
        p = poly(2, {(2, 0): 1, (1, 1): 1})
        assert divide_linear(p, (1, 0)) == poly(2, {(1, 0): 1, (0, 1): 1})

    def test_not_divisible(self):
        p = poly(2, {(1, 0): 1, (0, 1): 1})
        assert divide_linear(p, (1, 0)) is None

    def test_zero_dividend(self):
        assert divide_linear(Polynomial.zero(2), (1, 1)) == Polynomial.zero(2)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            divide_linear(Polynomial.one(2), (0, 0))

    def test_divisor_without_leading_variable(self):
        p = expand(FactoredPoly(1, ((0, 1), (1, 1)), 2))
        assert divide_linear(p, (0, 1)) == poly(2, {(1, 0): 1, (0, 1): 1})


@st.composite
def linear_forms(draw, rank=3):
    coords = draw(
        st.lists(
            st.integers(min_value=-4, max_value=4), min_size=rank, max_size=rank
        )
    )
    if not any(coords):
        coords[draw(st.integers(min_value=0, max_value=rank - 1))] = 1
    return tuple(coords)


@st.composite
def polynomials(draw, rank=3):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        e = tuple(
            draw(st.integers(min_value=0, max_value=3)) for _ in range(rank)
        )
        terms[e] = terms.get(e, 0) + draw(
            st.integers(min_value=-9, max_value=9)
        )
    return Polynomial(rank, terms)


class TestProperties:
    @given(q=polynomials(), d=linear_forms())
    @settings(deadline=None)
    def test_division_roundtrip(self, q, d):
        product = q * Polynomial.from_linear(d)
        assert divide_linear(product, d) == q

    @given(p=polynomials(), d=linear_forms())
    @settings(deadline=None)
    def test_division_exactness(self, p, d):
        quotient = divide_linear(p, d)
        if quotient is not None:
            assert quotient * Polynomial.from_linear(d) == p

    @given(
        forms=st.lists(linear_forms(), max_size=4),
        scalar=st.fractions(
            min_value=Fraction(-5), max_value=Fraction(5)
        ).filter(bool),
        point=st.lists(
            st.integers(min_value=-5, max_value=5), min_size=3, max_size=3
        ),
    )
    @settings(deadline=None)
    def test_expand_matches_factored_evaluation(self, forms, scalar, point):
        f = FactoredPoly(scalar, tuple(forms), 3)
        assert expand(f).evaluate(point) == f.evaluate(point)


class TestEvaluate:
    def test_constant(self):
        assert Polynomial.one(2).evaluate((7, 9)) == 1

    def test_linear(self):
        assert Polynomial.from_linear((1, 1)).evaluate((2, 3)) == 5

    def test_product_at_ones(self):
        p = expand(FactoredPoly(1, ((1, 1, 0), (1, 1, 1)), 3))
        assert p.evaluate((1, 1, 1)) == 6


class TestSerialization:
    def test_text_canonical_order(self):
        square = expand(FactoredPoly(1, ((1, 1), (1, 1)), 2))
        assert square.to_text() == "a1^2 + 2*a1*a2 + a2^2"

    def test_text_fractions_and_signs(self):
        p = poly(2, {(1, 0): Fraction(-1, 2), (0, 0): 3})
        assert p.to_text() == "3 - 1/2*a1"
        assert Polynomial.zero(2).to_text() == "0"

    def test_latex(self):
        p = poly(2, {(2, 0): 1, (1, 1): Fraction(1, 2)})
        assert p.to_latex() == "\\alpha_{1}^{2} + \\frac{1}{2}\\alpha_{1}\\alpha_{2}"

    def test_json_roundtrip(self):
        p = poly(3, {(2, 0, 0): 1, (1, 1, 0): Fraction(3, 4), (0, 0, 0): -2})
        data = json.loads(json.dumps(p.to_json()))
        assert Polynomial.from_json(data) == p

    def test_json_zero_requires_rank(self):
        assert Polynomial.from_json([], rank=2) == Polynomial.zero(2)
        with pytest.raises(ValueError):
            Polynomial.from_json([])

    def test_homogeneity_helpers(self):
        assert Polynomial.zero(2).is_homogeneous()
        assert poly(2, {(1, 0): 1, (0, 1): 2}).is_homogeneous()
        assert not poly(2, {(1, 0): 1, (0, 0): 2}).is_homogeneous()


def canonical(p):
    """p is in its canonical form: nonzero int numerators over a positive
    denominator, the two coprime (so the zero polynomial has den 1)."""
    return (
        type(p.den) is int
        and p.den > 0
        and all(type(c) is int and c for c in p.terms.values())
        and math.gcd(p.den, *p.terms.values()) == 1
    )


class TestIntegerCoefficients:
    def test_integral_input_has_den_one(self):
        p = Polynomial(2, {(1, 0): Fraction(3)})
        assert p.den == 1 and p.terms == {pack((1, 0)): 3}
        q = Polynomial(2, {(1, 0): Fraction(1, 2)})
        assert q.den == 2 and q.terms == {pack((1, 0)): 1}
        linear = Polynomial.from_linear((Fraction(2), 1))
        assert linear.den == 1 and linear == Polynomial.from_linear((2, 1))

    def test_int_and_fraction_inputs_agree(self):
        with_int = Polynomial(2, {(1, 0): 3, (0, 1): Fraction(1, 2)})
        with_fraction = Polynomial(2, {(1, 0): Fraction(3), (0, 1): Fraction(1, 2)})
        assert canonical(with_int) and canonical(with_fraction)
        assert with_int == with_fraction
        assert hash(with_int) == hash(with_fraction)
        assert with_int.to_text() == with_fraction.to_text()
        assert with_int.to_latex() == with_fraction.to_latex()
        assert json.dumps(with_int.to_json()) == json.dumps(with_fraction.to_json())

    def test_integral_results_have_den_one(self):
        half = Polynomial(1, {(1,): Fraction(1, 2)})
        three_halves = Polynomial(1, {(1,): Fraction(3, 2), (0,): Fraction(1, 2)})
        results = [
            half + half,  # a1
            half * 2,  # a1
            half * Polynomial(1, {(1,): 2}),  # a1^2
            three_halves * Polynomial(1, {(1,): 2, (0,): -2}),  # 3 a1^2 - 2 a1 - 1
            half - half,  # 0
        ]
        for p in results:
            assert canonical(p) and p.den == 1, p
        assert results[3] == Polynomial(1, {(2,): 3, (1,): -2, (0,): -1})
        assert (half * 3).den == 2

    def test_fraction_products_reduce_to_den_one(self):
        three_halves = Polynomial(1, {(1,): Fraction(3, 2)})
        results = [
            # (3/2 a1)(2/3 a1 + 4/3) = a1^2 + 2 a1
            three_halves * Polynomial(1, {(1,): Fraction(2, 3), (0,): Fraction(4, 3)}),
            three_halves * Fraction(2, 3),  # a1
        ]
        for p in results:
            assert canonical(p) and p.den == 1, p
        assert results == [Polynomial(1, {(2,): 1, (1,): 2}), Polynomial(1, {(1,): 1})]

    def test_restrictions_have_den_one(self):
        rs = root_system("B", 3)
        elements = enumerate_elements(rs)
        table = [tau_chain(u, v) for u in elements for v in elements]
        # Restrictions have integer coefficients, also when summed from
        # chain contributions that carry 1/2.
        assert all(p.den == 1 for p in table)
        contributions = [
            expand(chain_contribution(gamma, v))
            for u in elements
            for v in elements
            for gamma in enumerate_c0(u, v)
        ]
        assert any(
            p.den > 1 for p in contributions
        ), "B3 chain contributions have non-integral coefficients"
        p = poly(2, {(2, 0): 3, (1, 1): 5, (0, 2): 2})  # (3 a1 + 2 a2)(a1 + a2)
        quotients = [divide_linear(p, (1, 1)), divide_linear(p, (3, 2))]
        quotients.append(divide_linear(p, (Fraction(3, 2), 1)))
        scaled = [p * Fraction(1, 3), p * Fraction(4, 2), p * 2]
        assert all(map(canonical, table + contributions + quotients + scaled))


# The exponent-tuple arithmetic that the packed keys replaced, kept as the
# reference: a polynomial is a dict from exponent tuples to nonzero
# coefficients, integral ones stored as int.


def _term_sort_key(exponents):
    return (sum(exponents), tuple(-e for e in exponents))


def _normal(c):
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def ref_accumulate(out, e, c):
    acc = out.get(e, 0) + c
    if acc:
        out[e] = _normal(acc)
    else:
        out.pop(e, None)


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        ref_accumulate(out, e, c)
    return out


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            ref_accumulate(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return out


def ref_linear(d):
    """The reference polynomial of the linear form ``d``."""
    rank = len(d)
    return {
        tuple(int(i == j) for j in range(rank)): _normal(Fraction(c))
        for i, c in enumerate(d)
        if c
    }


def ref_scale(a, s):
    return {e: _normal(c * s) for e, c in a.items()} if s else {}


def ref_divide(a, d):
    d = tuple(Fraction(c) for c in d)
    k = next(i for i, c in enumerate(d) if c)
    quotient = {}
    remainder = dict(a)
    while True:
        level = max((e[k] for e in remainder if e[k] > 0), default=0)
        if level == 0:
            break
        for e in [e for e in remainder if e[k] == level]:
            mc = remainder.pop(e) / d[k]
            me = e[:k] + (e[k] - 1,) + e[k + 1 :]
            ref_accumulate(quotient, me, mc)
            for j, dj in enumerate(d):
                if dj and j != k:
                    key = me[:j] + (me[j] + 1,) + me[j + 1 :]
                    ref_accumulate(remainder, key, -mc * dj)
    return None if remainder else quotient


def ref_evaluate(a, values):
    total = Fraction(0)
    for e, c in a.items():
        term = Fraction(c)
        for v, k in zip(values, e):
            term *= Fraction(v) ** k
        total += term
    return total


def ref_json(a):
    return [
        {"exponents": list(e), "numerator": c.numerator, "denominator": c.denominator}
        for e, c in sorted(a.items(), key=lambda item: _term_sort_key(item[0]))
    ]


def as_tuples(p):
    """The coefficients of a Polynomial keyed by exponent tuples."""
    return {unpack(key, p.rank): Fraction(c, p.den) for key, c in p.terms.items()}


def same(p, ref):
    """p is canonical and has the reference's terms."""
    return canonical(p) and as_tuples(p) == ref


exact = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    ),
)


@st.composite
def tuple_polys(draw, rank):
    """A reference polynomial of the rank; few small exponents, so sums
    and products often cancel."""
    ref = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        e = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(rank))
        ref_accumulate(ref, e, draw(exact))
    return ref


@st.composite
def poly_pairs(draw):
    rank = draw(st.integers(min_value=1, max_value=6))
    a = draw(tuple_polys(rank))
    b = draw(tuple_polys(rank))
    if draw(st.booleans()):
        # b shares terms with -a, so a + b cancels them
        b = ref_add(b, ref_neg(a))
    return rank, a, b


@st.composite
def forms(draw, rank):
    d = [draw(exact) for _ in range(rank)]
    if not any(d):
        d[draw(st.integers(min_value=0, max_value=rank - 1))] = 1
    return tuple(d)


@st.composite
def divisions(draw):
    rank, a, _ = draw(poly_pairs())
    return rank, a, draw(forms(rank))


@st.composite
def linear_products(draw):
    """A reference polynomial and a linear form of its rank, which may be
    the zero form."""
    rank, a, _ = draw(poly_pairs())
    return rank, a, tuple(draw(exact) for _ in range(rank))


class TestPackedAgainstTuples:
    @given(pair=poly_pairs())
    @settings(deadline=None)
    def test_ring_operations(self, pair):
        rank, a, b = pair
        p, q = Polynomial(rank, a), Polynomial(rank, b)
        assert same(p, a) and same(q, b)
        assert same(p + q, ref_add(a, b))
        assert same(p - q, ref_add(a, ref_neg(b)))
        assert same(-p, ref_neg(a))
        assert same(p * q, ref_mul(a, b))
        assert same(p * q + p * -q, {})
        total = Polynomial(rank, ref_add(a, b))
        assert p + q == total and hash(p + q) == hash(total)

    @given(pair=poly_pairs(), s=exact)
    @settings(deadline=None)
    def test_scalar_product(self, pair, s):
        rank, a, _ = pair
        assert same(Polynomial(rank, a) * s, ref_scale(a, s))
        assert same(s * Polynomial(rank, a), ref_scale(a, s))

    @given(case=divisions())
    # A C2 long root, with leading coefficient 2, on a polynomial it
    # divides and on one it does not.
    @example(case=(2, {(2, 0): 2, (1, 1): 3, (0, 2): 1}, (2, 1)))
    @example(case=(2, {(2, 0): 1, (0, 1): 1}, (2, 1)))
    # A negative leading coefficient: the pseudo-division's scale c^L is
    # negative for the odd L of the product.
    @example(case=(2, {(2, 0): 1, (0, 1): Fraction(1, 2)}, (-2, 3)))
    # A non-primitive form, whose quotient has halves.
    @example(case=(2, {(1, 0): 1, (0, 1): 1}, (2, 2)))
    @settings(deadline=None)
    def test_divide_linear(self, case):
        rank, a, d = case
        product = ref_mul(a, ref_linear(d))
        assert same(divide_linear(Polynomial(rank, product), d), a)
        expected = ref_divide(a, d)
        got = divide_linear(Polynomial(rank, a), d)
        assert got is None if expected is None else same(got, expected)

    @given(case=linear_products())
    # (a1 + a2)(a1 - a2): the two a1*a2 terms cancel.
    @example(case=(2, {(1, 0): 1, (0, 1): 1}, (1, -1)))
    # Halves and thirds over the denominator 6, times a Fraction form
    # whose product is integral again.
    @example(case=(2, {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 2)}, (3, 0)))
    @example(case=(2, {(0, 0): Fraction(2, 3)}, (Fraction(3, 2), Fraction(-9, 4))))
    @example(case=(3, {}, (1, Fraction(1, 2), -1)))
    @example(case=(2, {(1, 1): 5}, (0, 0)))
    @settings(deadline=None)
    def test_times_linear(self, case):
        rank, a, d = case
        p = Polynomial(rank, a)
        got = p.times_linear(d)
        assert got == p * Polynomial.from_linear(d)
        assert same(got, ref_mul(a, ref_linear(d)))

    @given(data=st.data())
    @settings(deadline=None)
    def test_evaluate(self, data):
        rank, a, _ = data.draw(poly_pairs())
        values = data.draw(st.lists(exact, min_size=rank, max_size=rank))
        got = Polynomial(rank, a).evaluate(values)
        assert type(got) is Fraction and got == ref_evaluate(a, values)

    @given(pair=poly_pairs())
    @settings(deadline=None)
    def test_json_order(self, pair):
        rank, a, b = pair
        product = Polynomial(rank, a) * Polynomial(rank, b)
        assert canonical(product)
        assert Polynomial(rank, a).to_json() == ref_json(a)
        assert product.to_json() == ref_json(ref_mul(a, b))

    def test_product_past_the_degree_bound_raises(self):
        x2 = Polynomial.from_linear((0, 1))
        top = Polynomial(2, {(0, MAX_DEGREE - 1): 1}) * x2
        assert top.to_json() == ref_json({(0, MAX_DEGREE): 1})
        # One more factor of a2 would carry the a2 field into the a1 field.
        with pytest.raises(OverflowError):
            top * x2
        with pytest.raises(OverflowError):
            x2 * top
        for form in ((0, 1), (Fraction(1, 2), -3)):
            with pytest.raises(OverflowError):
                top.times_linear(form)
        with pytest.raises(OverflowError):
            Polynomial(2, {(1, MAX_DEGREE): 1})


class TestFloatsRejected:
    def test_divisor(self):
        p = Polynomial.from_linear((1, 1))
        with pytest.raises(TypeError):
            divide_linear(p, (0.1, 0.1))
        tenth = Fraction(1, 10)
        assert divide_linear(p, (tenth, tenth)) == Polynomial.constant(2, 10)

    def test_polynomial_coefficients(self):
        with pytest.raises(TypeError):
            Polynomial(1, {(1,): 0.1})
        with pytest.raises(TypeError):
            Polynomial.constant(2, 0.5)
        with pytest.raises(TypeError):
            Polynomial.from_linear((1, 0.5))

    def test_factored_scalar(self):
        with pytest.raises(TypeError):
            FactoredPoly(0.1, (), 1)

    def test_evaluation_points(self):
        p = Polynomial.from_linear((1, 1))
        f = FactoredPoly(1, ((1, 1),), 2)
        for values in ((0.5, 1), (1, 2.0)):
            with pytest.raises(TypeError):
                p.evaluate(values)
            with pytest.raises(TypeError):
                f.evaluate(values)
        assert p.evaluate((Fraction(1, 2), 1)) == f.evaluate((Fraction(1, 2), 1))
        for values in ((1,), (1, 2, 3)):
            for poly in (p, f):
                with pytest.raises(ValueError, match="does not match rank"):
                    poly.evaluate(values)
