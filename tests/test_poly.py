"""Exact polynomial arithmetic: expansion, cancellation, division."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubres.poly import (
    CancellationError,
    FactoredPoly,
    Polynomial,
    cancel_factor,
    divide_linear,
    evaluate,
    expand,
    proportionality_ratio,
)
from schubres.rootsys import root_system
from schubres.schubert import tau_chain
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


class TestCancelFactor:
    def test_exact_factor(self):
        f = FactoredPoly(1, ((1, 0), (0, 1), (1, 1)), 2)
        out = cancel_factor(f, (1, 1))
        assert out == FactoredPoly(1, ((1, 0), (0, 1)), 2)

    def test_doubled_form_gives_half_scalar(self):
        f = FactoredPoly(1, ((1, 0), (1, 1), (1, 2)), 2)
        out = cancel_factor(f, (2, 2))
        assert out.scalar == Fraction(1, 2)
        assert out.factors == ((1, 0), (1, 2))

    def test_no_proportional_factor(self):
        f = FactoredPoly(1, ((1, 0),), 2)
        with pytest.raises(CancellationError):
            cancel_factor(f, (0, 1))

    def test_negative_ratio_rejected(self):
        f = FactoredPoly(1, ((1, 0),), 2)
        with pytest.raises(CancellationError):
            cancel_factor(f, (-1, 0))

    def test_agrees_with_polynomial_division(self):
        f = FactoredPoly(Fraction(3, 2), ((1, 0), (1, 1), (1, 2)), 2)
        d = (2, 2)
        cancelled = cancel_factor(f, d)
        quotient = divide_linear(expand(f), d)
        assert quotient == expand(cancelled)


class TestProportionality:
    def test_ratio(self):
        assert proportionality_ratio((2, 4), (1, 2)) == 2
        assert proportionality_ratio((1, 2), (2, 4)) == Fraction(1, 2)
        assert proportionality_ratio((1, 0), (1, 1)) is None
        assert proportionality_ratio((0, 1), (1, 1)) is None


def old_proportionality_ratio(g, d):
    """The ratio test as it stood over Fractions, the oracle for the
    cross-multiplied one."""
    k = next(i for i, c in enumerate(d) if c)
    if not g[k]:
        return None
    c = Fraction(g[k]) / Fraction(d[k])
    if all(Fraction(gc) == c * Fraction(dc) for gc, dc in zip(g, d)):
        return c
    return None


coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


class TestProportionalityProperty:
    @given(
        g=st.lists(coefficients, min_size=3, max_size=3),
        d=st.lists(coefficients, min_size=3, max_size=3).filter(any),
        scale=st.one_of(st.none(), coefficients),
    )
    @settings(deadline=None)
    def test_matches_fraction_definition(self, g, d, scale):
        if scale is not None:
            g = [scale * c for c in d]  # proportional by construction
        got = proportionality_ratio(tuple(g), tuple(d))
        expected = old_proportionality_ratio(g, d)
        assert got == expected
        assert type(got) is type(expected)


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
        assert evaluate(Polynomial.one(2), (7, 9)) == 1

    def test_linear(self):
        assert evaluate(Polynomial.from_linear((1, 1)), (2, 3)) == 5

    def test_product_at_ones(self):
        p = expand(FactoredPoly(1, ((1, 1, 0), (1, 1, 1)), 3))
        assert evaluate(p, (1, 1, 1)) == 6


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


def all_coefficients(polys):
    return [c for p in polys for c in p.terms.values()]


class TestIntegerCoefficients:
    def test_integral_fraction_is_stored_as_int(self):
        p = Polynomial(2, {(1, 0): Fraction(3)})
        assert type(p.terms[(1, 0)]) is int and p.terms[(1, 0)] == 3
        q = Polynomial(2, {(1, 0): Fraction(1, 2)})
        assert type(q.terms[(1, 0)]) is Fraction
        assert type(Polynomial.from_linear((Fraction(2), 1)).terms[(1, 0)]) is int

    def test_int_and_fraction_coefficients_agree(self):
        with_int = Polynomial(2, {(1, 0): 3, (0, 1): Fraction(1, 2)})
        with_fraction = Polynomial(2, {(1, 0): 3, (0, 1): Fraction(1, 2)})
        with_fraction.terms[(1, 0)] = Fraction(3)  # bypasses the constructor
        assert with_int == with_fraction
        assert hash(with_int) == hash(with_fraction)
        assert with_int.to_text() == with_fraction.to_text()
        assert with_int.to_latex() == with_fraction.to_latex()
        assert with_int.to_json() == with_fraction.to_json()
        assert json.dumps(with_int.to_json()) == json.dumps(with_fraction.to_json())

    def test_no_float_coefficients(self):
        rs = root_system("B", 3)  # type B chain contributions carry 1/2
        elements = enumerate_elements(rs)
        table = [tau_chain(u, v) for u in elements for v in elements]
        assert any(
            type(c) is Fraction for c in all_coefficients(table)
        ), "B3 has non-integral coefficients"
        p = poly(2, {(2, 0): 3, (1, 1): 5, (0, 2): 2})  # (3 a1 + 2 a2)(a1 + a2)
        quotients = [divide_linear(p, (1, 1)), divide_linear(p, (3, 2))]
        quotients.append(divide_linear(p, (Fraction(3, 2), 1)))
        scaled = [p * Fraction(1, 3), p * Fraction(4, 2), p * 2]
        for c in all_coefficients(table + quotients + scaled):
            assert type(c) in (int, Fraction)


class TestFloatsRejected:
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
                evaluate(p, values)
            with pytest.raises(TypeError):
                f.evaluate(values)
        assert p.evaluate((Fraction(1, 2), 1)) == f.evaluate((Fraction(1, 2), 1))
