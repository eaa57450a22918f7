"""Root system construction, pairings, reflections and the h statistic."""

import math
from fractions import Fraction

import pytest

from schubres.rootsys import (
    LieType,
    bilinear,
    build_root_system,
    h_root,
    pairing,
    reflect,
    root_system,
)

ALL_SMALL = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3)]


def brute_pairing(rs, lam, beta):
    """Independent oracle: 2 (lam, beta) / (beta, beta) expanded by hand
    from the Gram matrix, bypassing the library helpers."""
    n = rs.rank
    dot_lb = sum(
        Fraction(lam[a]) * rs.gram[a][b] * Fraction(beta[b])
        for a in range(n)
        for b in range(n)
    )
    dot_bb = sum(
        Fraction(beta[a]) * rs.gram[a][b] * Fraction(beta[b])
        for a in range(n)
        for b in range(n)
    )
    return 2 * dot_lb / dot_bb


class TestConstruction:
    def test_a2_positive_roots(self):
        rs = root_system("A", 2)
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}

    def test_b2_positive_roots(self):
        rs = root_system("B", 2)
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}

    def test_c2_positive_roots(self):
        # alpha_2 is the long root, so the non-simple roots are
        # alpha_1 + alpha_2 and 2 alpha_1 + alpha_2.
        rs = root_system("C", 2)
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1)}

    @pytest.mark.parametrize("family,rank", ALL_SMALL)
    def test_positive_root_count(self, family, rank):
        rs = root_system(family, rank)
        expected = rank * (rank + 1) // 2 if family == "A" else rank * rank
        assert len(rs.positive_roots) == expected

    @pytest.mark.parametrize("family,rank", ALL_SMALL)
    def test_positive_roots_in_nonnegative_cone(self, family, rank):
        rs = root_system(family, rank)
        for beta in rs.positive_roots:
            assert any(beta)
            assert all(isinstance(c, int) and c >= 0 for c in beta)

    def test_rank_one_type_a(self):
        rs = root_system("A", 1)
        assert rs.positive_roots == ((1,),)
        assert rs.fundamental_weights == ((Fraction(1, 2),),)

    def test_rejects_degenerate_types(self):
        with pytest.raises(ValueError):
            LieType("A", 0)
        with pytest.raises(ValueError):
            LieType("B", 1)
        with pytest.raises(ValueError):
            LieType("C", 1)
        with pytest.raises(ValueError):
            LieType("D", 4)

    def test_build_returns_fresh_instance(self):
        lt = LieType("A", 2)
        assert build_root_system(lt) is not build_root_system(lt)
        assert root_system("A", 2) is not root_system("A", 2)

    @pytest.mark.parametrize("family,rank", ALL_SMALL)
    def test_last_root_length_convention(self, family, rank):
        rs = root_system(family, rank)
        last = rs.gram[rank - 1][rank - 1]
        # In type B the last simple root is short; in A and C it is long.
        assert last == (1 if family == "B" else 2)
        if rank >= 2:
            assert rs.gram[0][0] == (2 if family in ("A", "B") else 1)

    @pytest.mark.parametrize("family,rank", ALL_SMALL)
    def test_gram_symmetric_positive_definite(self, family, rank):
        rs = root_system(family, rank)
        g = rs.gram
        n = rs.rank
        assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))

        def det(m):
            if len(m) == 1:
                return m[0][0]
            total = Fraction(0)
            for j in range(len(m)):
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * m[0][j] * det(minor)
            return total

        for k in range(1, n + 1):
            leading = [[g[i][j] for j in range(k)] for i in range(k)]
            assert det(leading) > 0


class TestPairing:
    def test_defining_property_a2(self):
        rs = root_system("A", 2)
        assert pairing(rs, rs.fundamental_weights[0], rs.simple_roots[0]) == 1

    @pytest.mark.parametrize("family,rank", ALL_SMALL)
    def test_weights_dual_to_simple_roots(self, family, rank):
        rs = root_system(family, rank)
        for i, omega in enumerate(rs.fundamental_weights):
            for j, alpha in enumerate(rs.simple_roots):
                assert pairing(rs, omega, alpha) == int(i == j)

    def test_a2_highest_root(self):
        rs = root_system("A", 2)
        value = pairing(rs, rs.fundamental_weights[0], (1, 1))
        assert value == brute_pairing(rs, rs.fundamental_weights[0], (1, 1)) == 1

    def test_c2_long_root(self):
        rs = root_system("C", 2)
        omega1 = rs.fundamental_weights[0]
        assert pairing(rs, omega1, (2, 1)) == brute_pairing(rs, omega1, (2, 1)) == 1

    def test_b2_long_root(self):
        rs = root_system("B", 2)
        omega1 = rs.fundamental_weights[0]
        assert pairing(rs, omega1, (1, 2)) == brute_pairing(rs, omega1, (1, 2)) == 1

    def test_zero_beta_rejected(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError):
            pairing(rs, (1, 0), (0, 0))

    @pytest.mark.parametrize("family,rank", ALL_SMALL)
    def test_integrality_on_roots(self, family, rank):
        rs = root_system(family, rank)
        for omega in rs.fundamental_weights:
            for beta in rs.positive_roots:
                assert pairing(rs, omega, beta).denominator == 1


class TestReflect:
    def test_negates_own_root(self):
        rs = root_system("A", 2)
        assert reflect(rs, (1, 0), (1, 0)) == (-1, 0)

    def test_simple_reflection_of_neighbor(self):
        rs = root_system("A", 2)
        assert reflect(rs, (1, 0), (0, 1)) == (1, 1)

    def test_fixes_orthogonal_vectors(self):
        rs = root_system("A", 2)
        omega2 = rs.fundamental_weights[1]
        assert bilinear(rs, omega2, (1, 0)) == 0
        assert reflect(rs, (1, 0), omega2) == tuple(omega2)

    def test_rejects_non_roots(self):
        rs = root_system("A", 2)
        with pytest.raises(ValueError):
            reflect(rs, (1, 2), (1, 0))

    @pytest.mark.parametrize("family,rank", ALL_SMALL)
    def test_permutes_the_root_set(self, family, rank):
        rs = root_system(family, rank)
        for beta in rs.positive_roots:
            images = {reflect(rs, beta, gamma) for gamma in rs.roots}
            assert images == rs.roots

    @pytest.mark.parametrize("family,rank", ALL_SMALL)
    def test_simple_reflection_permutes_other_positives(self, family, rank):
        rs = root_system(family, rank)
        for i, alpha in enumerate(rs.simple_roots):
            for beta in rs.positive_roots:
                if beta == alpha:
                    continue
                image = reflect(rs, alpha, beta)
                assert image in rs.positive_roots


class TestHRoot:
    def test_examples(self):
        assert h_root((1, 1)) == 1
        assert h_root((0, 1)) == 2
        assert h_root((0, 0, 0, 1)) == 4

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            h_root((0, 0))


#: Every rank whose closed-form weights are checked against their
#: defining property.
CLOSED_FORM_RANKS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
)


class TestWeightTable:
    @pytest.mark.parametrize("family,rank", CLOSED_FORM_RANKS)
    def test_closed_form_weights_invert_the_cartan_matrix(self, family, rank):
        rs = build_root_system(LieType(family, rank))
        n, scale, omegas = rs.rank, rs.scale, rs.omegas
        for i in range(n):
            for j in range(n):
                got = sum(omegas[i][a] * rs.cartan[a][j] for a in range(n))
                assert got == (scale if i == j else 0)
        assert math.gcd(scale, *(c for row in omegas for c in row)) == 1
        assert rs.fundamental_weights == tuple(
            tuple(Fraction(c, scale) for c in row) for row in omegas
        )

    @pytest.mark.parametrize("family,rank", CLOSED_FORM_RANKS)
    def test_pairings_match_pairing(self, family, rank):
        rs = build_root_system(LieType(family, rank))
        for beta in rs.roots:
            got = rs.pairings(beta)
            assert all(type(c) is int for c in got)
            assert got == tuple(
                pairing(rs, omega, beta) for omega in rs.fundamental_weights
            )
        assert len(rs._pairings) == len(rs.roots)

    @pytest.mark.parametrize("family,rank", ALL_SMALL)
    def test_scaled_weights_are_integral(self, family, rank):
        rs = root_system(family, rank)
        assert rs.scale == (rank + 1 if family == "A" else 2)
        for omega, scaled in zip(rs.fundamental_weights, rs.omegas):
            assert all(type(c) is int for c in scaled)
            assert scaled == tuple(rs.scale * c for c in omega)

    def test_pairings_memoized_per_root(self):
        rs = build_root_system(LieType("B", 3))
        assert rs._pairings == {}
        rs.pairings((0, 1, 1))
        assert len(rs._pairings) == 1
        rs.pairings((0, 1, 1))
        assert len(rs._pairings) == 1
        rs.pairings((1, 1, 0))
        assert len(rs._pairings) == 2


#: Every family at ranks 1 to 6 (B1 and C1 are not supported).
CLOSURE_RANKS = [
    (family, n) for family in ("A", "B", "C") for n in range(1, 7)
    if family == "A" or n >= 2
]


class TestClosure:
    """The one closure of the simple roots: the group table of ``weyl``
    reads its images and its tree and does no root arithmetic."""

    @pytest.mark.parametrize("family,rank", CLOSURE_RANKS)
    def test_images_are_the_simple_reflections(self, family, rank):
        rs = build_root_system(LieType(family, rank))
        assert len(rs._images) == len(rs.positive_roots)
        for beta, images in zip(rs.positive_roots, rs._images):
            expected = tuple(reflect(rs, alpha, beta) for alpha in rs.simple_roots)
            assert images == expected, beta

    @pytest.mark.parametrize("family,rank", CLOSURE_RANKS)
    def test_tree_reaches_each_non_simple_root_once(self, family, rank):
        rs = build_root_system(LieType(family, rank))
        reached = [beta for beta, _, _ in rs._tree]
        assert len(reached) == len(set(reached))
        assert set(reached) == set(rs.positive_roots) - set(rs.simple_roots)
        earlier = set(rs.simple_roots)
        for beta, i, parent in rs._tree:
            assert parent in earlier, (beta, parent)
            assert reflect(rs, rs.simple_roots[i], parent) == beta
            earlier.add(beta)
