"""Permutation codec, inversion sets, the explicit formula and equivalence."""

import doctest
import random

import pytest

import schubres.poly
import schubres.typea
from schubres.poly import FactoredPoly, Polynomial, expand
from schubres.rootsys import h_root
from schubres.schubert import enumerate_c0, lambda_minus, tau_chain
from schubres.typea import (
    canonical_word_iv,
    canonical_word_iv_segments,
    chain_deleted_pairs,
    element_to_perm,
    format_oneline,
    inv_set,
    parse_oneline,
    perm_to_element,
    root_to_xdiff,
    tau_typea,
    typea_system,
    verify_equivalence,
    xdiff_to_alpha,
)
from schubres.weyl import (
    covers_above,
    element_from_word,
    enumerate_elements,
    identity,
)


def test_doctests():
    for module in (schubres.typea, schubres.poly):
        failures, _ = doctest.testmod(module)
        assert failures == 0


class TestParsing:
    def test_digits(self):
        assert parse_oneline("3421") == (3, 4, 2, 1)

    def test_commas(self):
        assert parse_oneline("10,3,2,1,4,5,6,7,8,9") == (10, 3, 2, 1, 4, 5, 6, 7, 8, 9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_oneline("1224")

    @pytest.mark.parametrize("n", [3, 9, 10, 16])
    def test_format_roundtrip(self, n):
        # Digits up to n = 9, commas above, so every label reads back.
        rng = random.Random(n)
        perms = [tuple(range(n, 0, -1))]
        for _ in range(20):
            perms.append(tuple(rng.sample(range(1, n + 1), n)))
        for p in perms:
            text = format_oneline(p)
            assert ("," in text) == (n > 9)
            assert parse_oneline(text) == p


class TestCodec:
    def test_identity(self):
        rs = typea_system(4)
        assert perm_to_element(rs, (1, 2, 3, 4)) == identity(rs)
        assert element_to_perm(identity(rs)) == (1, 2, 3, 4)

    def test_golden_2143(self):
        rs = typea_system(4)
        el = perm_to_element(rs, (2, 1, 4, 3))
        assert el.length == 2
        assert el == element_from_word(rs, (1, 3))

    def test_golden_3421(self):
        rs = typea_system(4)
        el = perm_to_element(rs, (3, 4, 2, 1))
        assert el == element_from_word(rs, (2, 1, 3, 2, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_roundtrip(self, n):
        rs = typea_system(n)
        for el in enumerate_elements(rs):
            perm = element_to_perm(el)
            assert perm_to_element(rs, perm) == el

    def test_isomorphism(self):
        rs = typea_system(4)
        for el in enumerate_elements(rs):
            for word in ((1,), (2,), (3,)):
                other = element_from_word(rs, word)
                lhs = element_to_perm(el * other)
                pa = element_to_perm(el)
                pb = element_to_perm(other)
                composed = tuple(pa[pb[i] - 1] for i in range(4))
                assert lhs == composed

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_read_off_the_roots_equals_the_word_replay(self, n):
        # element_to_perm reads the steps u(j+1) - u(j) off the roots
        # u(alpha_j); replaying the canonical word on positions is the
        # reference, on every element of A1 to A5.
        rs = typea_system(n)
        for el in enumerate_elements(rs):
            cur = list(range(1, n + 1))
            for i in el.canonical_word:
                cur[i - 1], cur[i] = cur[i], cur[i - 1]
            assert element_to_perm(el) == tuple(cur)

    def test_size_mismatch(self):
        rs = typea_system(3)
        with pytest.raises(ValueError):
            perm_to_element(rs, (2, 1, 4, 3))

    def test_non_type_a_rejected(self):
        from schubres.rootsys import root_system

        rs = root_system("B", 2)
        with pytest.raises(ValueError):
            element_to_perm(identity(rs))


class TestInversions:
    def test_identity_empty(self):
        assert inv_set((1, 2, 3, 4)) == frozenset()

    def test_golden_3421(self):
        assert inv_set((3, 4, 2, 1)) == frozenset(
            {(2, 3), (1, 3), (2, 4), (1, 4), (1, 2)}
        )

    def test_golden_2143(self):
        assert inv_set((2, 1, 4, 3)) == frozenset({(1, 2), (3, 4)})

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cardinality_is_length(self, n):
        rs = typea_system(n)
        for el in enumerate_elements(rs):
            assert len(inv_set(element_to_perm(el))) == el.length

    def test_lambda_minus_matches_inversion_product(self):
        rs = typea_system(4)
        for el in enumerate_elements(rs):
            perm = element_to_perm(el)
            expected = tuple(
                sorted(xdiff_to_alpha(a, b, 4) for a, b in inv_set(perm))
            )
            assert lambda_minus(el).factors == expected


class TestTranslation:
    def test_xdiff_roundtrip(self):
        for a in range(1, 4):
            for b in range(a + 1, 5):
                assert root_to_xdiff(xdiff_to_alpha(a, b, 4)) == (a, b)

    def test_rejects_non_roots(self):
        with pytest.raises(ValueError):
            root_to_xdiff((1, 0, 1))
        with pytest.raises(ValueError):
            root_to_xdiff((2, 1, 0))


class TestBruhatCoverCriterion:
    def test_right_transposition_ascends_iff_values_increase(self):
        rs = typea_system(4)
        for el in enumerate_elements(rs):
            perm = element_to_perm(el)
            cover_labels = set()
            for beta, _ in covers_above(el):
                cover_labels.add(root_to_xdiff(beta))
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    swapped = list(perm)
                    swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
                    is_cover = (i, j) in cover_labels
                    ascends = perm[i - 1] < perm[j - 1]
                    jump = perm_to_element(rs, tuple(swapped)).length - el.length
                    assert ascends == (jump > 0)
                    assert is_cover == (ascends and jump == 1)


class TestTauTypeA:
    def test_golden(self):
        expected = expand(FactoredPoly(1, ((1, 1, 0), (1, 1, 1)), 3))
        assert tau_typea((2, 1, 4, 3), (3, 4, 2, 1)) == expected

    def test_identity_class(self):
        for v in ((1, 2, 3), (3, 2, 1), (2, 3, 1)):
            assert tau_typea((1, 2, 3), v) == Polynomial.one(2)

    def test_deleted_pair_of_first_edge(self):
        # The edge 2143 -> 3142 by the transposition at positions (1, 4)
        # removes the inversion factor x2 - x3.
        rs = typea_system(4)
        u = perm_to_element(rs, (2, 1, 4, 3))
        v = perm_to_element(rs, (3, 4, 2, 1))
        for gamma in enumerate_c0(u, v):
            assert element_to_perm(gamma.elements[1]) == (3, 1, 4, 2)
            assert chain_deleted_pairs(gamma)[0] == (2, 3)

    def test_deleted_pairs_equal_those_of_the_converted_elements(self):
        # chain_deleted_pairs reads p(a) off the edge label p(beta); the
        # reference converts every chain element, over all C0 chains of A3.
        rs = typea_system(4)
        elements = enumerate_elements(rs)
        chains = 0
        for u in elements:
            for v in elements:
                v_perm = element_to_perm(v)
                for gamma in enumerate_c0(u, v):
                    chains += 1
                    assert chain_deleted_pairs(gamma) == tuple(
                        (element_to_perm(p)[h_root(beta) - 1], v_perm[h_root(beta) - 1])
                        for p, beta in zip(gamma.elements, gamma.betas)
                    )
        assert chains == 261

    def test_matches_chain_formula_on_s4(self):
        rs = typea_system(4)
        elements = enumerate_elements(rs)
        for u in elements:
            for v in elements:
                assert tau_typea(
                    element_to_perm(u), element_to_perm(v)
                ) == tau_chain(u, v)

    def test_matches_chain_formula_on_random_s5_pairs(self):
        import random

        rs = typea_system(5)
        perms = [element_to_perm(el) for el in enumerate_elements(rs)]
        rng = random.Random(99)
        for _ in range(200):
            pu, pv = rng.choice(perms), rng.choice(perms)
            assert tau_typea(pu, pv) == tau_chain(
                perm_to_element(rs, pu), perm_to_element(rs, pv)
            )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            tau_typea((1, 2), (1, 2, 3))

    def test_repeated_deleted_pair_is_an_arithmetic_error(self, monkeypatch):
        # A chain whose edges delete one inversion twice cannot be valued.
        def repeat_first(gamma):
            pairs = chain_deleted_pairs(gamma)
            return pairs[:1] + pairs

        monkeypatch.setattr(schubres.typea, "chain_deleted_pairs", repeat_first)
        with pytest.raises(ArithmeticError, match="is not an unused inversion of"):
            tau_typea((2, 1, 4, 3), (3, 4, 2, 1))


class TestCanonicalWord:
    def test_identity(self):
        assert canonical_word_iv((1, 2, 3, 4)) == ()

    def test_single_reflection(self):
        assert canonical_word_iv((1, 3, 2, 4)) == (2,)

    def test_golden_segments(self):
        assert canonical_word_iv_segments((3, 4, 2, 1)) == ((2, 1), (3, 2), (3,))
        assert canonical_word_iv((3, 4, 2, 1)) == (2, 1, 3, 2, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_is_a_reduced_word_with_descending_runs(self, n):
        rs = typea_system(n)
        for el in enumerate_elements(rs):
            perm = element_to_perm(el)
            word = canonical_word_iv(perm)
            assert element_from_word(rs, word) == el
            assert len(word) == el.length
            segments = canonical_word_iv_segments(perm)
            assert sum(segments, ()) == word
            for j, segment in enumerate(segments, start=1):
                if segment:
                    assert segment[-1] == j
                    assert all(x - 1 == y for x, y in zip(segment, segment[1:]))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_residual_property(self, n):
        # After the first j segments, the residual word uses letters > j.
        rs = typea_system(n)
        for el in enumerate_elements(rs):
            word = canonical_word_iv(element_to_perm(el))
            segments = canonical_word_iv_segments(element_to_perm(el))
            consumed = 0
            for j, segment in enumerate(segments, start=1):
                consumed += len(segment)
                rest = word[consumed:]
                assert all(letter > j for letter in rest)

    @pytest.mark.parametrize("n", [10, 16])
    def test_seeded_permutations_up_to_the_rank_cap(self, n):
        # S16 is A15, the largest supported rank.
        rs = typea_system(n)
        rng = random.Random(n)
        perms = [tuple(range(n, 0, -1))]
        for _ in range(50):
            perms.append(tuple(rng.sample(range(1, n + 1), n)))
        for p in perms:
            assert element_to_perm(perm_to_element(rs, p)) == p
            word = canonical_word_iv(p)
            assert element_from_word(rs, word).length == len(word) == len(inv_set(p))
            for j, segment in enumerate(canonical_word_iv_segments(p), start=1):
                assert segment == tuple(range(j + len(segment) - 1, j - 1, -1))


class TestEquivalence:
    def test_golden_pair(self):
        report = verify_equivalence((2, 1, 4, 3), (3, 4, 2, 1))
        assert report.ok
        assert report.chain_count == report.subword_count == 2
        assert report.word == (2, 1, 3, 2, 3)

    def test_identity_bottom(self):
        report = verify_equivalence((1, 2, 3, 4), (3, 4, 2, 1))
        assert report.ok
        assert report.chain_count == 1

    def test_incomparable_pair(self):
        report = verify_equivalence((2, 1, 3, 4), (1, 3, 2, 4))
        assert report.ok
        assert report.chain_count == report.subword_count == 0

    def test_exhaustive_s3(self):
        rs = typea_system(3)
        perms = [element_to_perm(el) for el in enumerate_elements(rs)]
        for pu in perms:
            for pv in perms:
                assert verify_equivalence(pu, pv).ok
