"""Chain and subword formulas, moment-map evaluation, subword map, GKM."""

import random
from fractions import Fraction

import pytest

from schubres.poly import FactoredPoly, Polynomial, expand, proportionality_ratio
from schubres.rootsys import h_root, root_system
from schubres.schubert import (
    Chain,
    NonGenericPointError,
    Subword,
    _subword_sums,
    chain_contribution,
    enumerate_c0,
    enumerate_max_chains,
    enumerate_reduced_subwords,
    f_i_map,
    gkm_check_class,
    gt_term_eval,
    lambda_minus,
    subword_contribution,
    tau_billey,
    tau_chain,
    tau_gt_eval,
)
from schubres.weyl import (
    all_reduced_words,
    element_from_word,
    enumerate_elements,
    identity,
    longest_element,
    simple_reflection,
)


@pytest.fixture(scope="module")
def a2():
    return root_system("A", 2)


@pytest.fixture(scope="module")
def a3():
    return root_system("A", 3)


@pytest.fixture(scope="module")
def b2():
    return root_system("B", 2)


@pytest.fixture(scope="module")
def c2():
    return root_system("C", 2)


def chain_by_elements(chains, words):
    """Pick the chain whose elements have the given canonical words."""
    for gamma in chains:
        if tuple(el.canonical_word for el in gamma.elements) == tuple(
            tuple(w) for w in words
        ):
            return gamma
    raise AssertionError(f"no chain through {words}")


class TestLambdaMinus:
    def test_identity(self, a2):
        f = lambda_minus(identity(a2))
        assert f.scalar == 1 and f.factors == ()

    def test_a2_long_element(self, a2):
        f = lambda_minus(element_from_word(a2, (1, 2, 1)))
        assert f.scalar == 1
        assert f.factors == ((0, 1), (1, 0), (1, 1))

    def test_a3_golden(self, a3):
        # inversion factors of 3421: x2-x3, x1-x3, x2-x4, x1-x4, x1-x2
        f = lambda_minus(element_from_word(a3, (2, 1, 3, 2, 3)))
        assert set(f.factors) == {
            (0, 1, 0),
            (1, 1, 0),
            (0, 1, 1),
            (1, 1, 1),
            (1, 0, 0),
        }

    def test_matches_reduced_word_prefix_product(self, b2):
        for v in enumerate_elements(b2):
            word = v.canonical_word
            prefix = identity(b2)
            factors = []
            for letter in word:
                factors.append(prefix.act(b2.simple_roots[letter - 1]))
                prefix = prefix * simple_reflection(b2, letter)
            assert tuple(sorted(factors)) == lambda_minus(v).factors
            assert len(factors) == v.length


class TestChainEnumeration:
    def test_a2_sigma_and_c0(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        sigma = enumerate_max_chains(u, v)
        assert len(sigma) == 2
        c0 = enumerate_c0(u, v)
        assert len(c0) == 1
        assert c0[0].h_sequence() == (1, 2)

    def test_c2_sigma_and_c0(self, c2):
        u = simple_reflection(c2, 1)
        v = element_from_word(c2, (1, 2, 1, 2))
        assert len(enumerate_max_chains(u, v)) == 4
        assert len(enumerate_c0(u, v)) == 1

    def test_equal_endpoints_gives_empty_chain(self, a2):
        u = simple_reflection(a2, 1)
        chains = enumerate_max_chains(u, u)
        assert chains == (Chain((u,), ()),)
        assert enumerate_c0(u, u) == chains

    def test_incomparable_gives_no_chains(self, a2):
        s1 = simple_reflection(a2, 1)
        s2 = simple_reflection(a2, 2)
        assert enumerate_max_chains(s1, s2) == ()
        assert enumerate_c0(s1, s2) == ()

    def test_a3_c0_matches_worked_chains(self, a3):
        u = element_from_word(a3, (1, 3))  # 2143
        v = element_from_word(a3, (2, 1, 3, 2, 3))  # 3421
        c0 = enumerate_c0(u, v)
        assert len(c0) == 2
        beta_sets = {gamma.betas for gamma in c0}
        assert beta_sets == {
            ((1, 1, 1), (0, 1, 0), (0, 0, 1)),  # via 3142, 3412
            ((1, 1, 1), (0, 1, 1), (0, 1, 0)),  # via 3142, 3241
        }

    @pytest.mark.parametrize(
        "family,rank", [("A", 2), ("B", 2), ("C", 2), ("A", 3)]
    )
    def test_c0_equals_filtered_sigma(self, family, rank):
        rs = root_system(family, rank)
        elements = enumerate_elements(rs)
        for u in elements:
            for v in elements:
                sigma = enumerate_max_chains(u, v)
                filtered = tuple(
                    gamma
                    for gamma in sigma
                    if all(
                        x <= y
                        for x, y in zip(
                            gamma.h_sequence(), gamma.h_sequence()[1:]
                        )
                    )
                )
                assert set(enumerate_c0(u, v)) == set(filtered)

    def test_chains_are_saturated_and_ascending(self, b2):
        u = identity(b2)
        v = longest_element(b2)
        for gamma in enumerate_max_chains(u, v):
            assert gamma.is_maximal_length()
            for k, beta in enumerate(gamma.betas):
                assert beta in b2.positive_roots
                assert gamma.elements[k + 1].length == gamma.elements[k].length + 1


class TestChainContribution:
    def test_a2_surviving_chain(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        gamma = enumerate_c0(u, v)[0]
        assert expand(chain_contribution(gamma, v)) == Polynomial(
            2, {(1, 0): 1, (0, 1): 1}
        )

    def test_b2_half_contribution(self, b2):
        u = simple_reflection(b2, 2)
        v = element_from_word(b2, (1, 2, 1))
        gamma = chain_by_elements(
            enumerate_c0(u, v), [(2,), (1, 2), (1, 2, 1)]
        )
        f = chain_contribution(gamma, v)
        assert f == FactoredPoly(Fraction(1, 2), ((1, 0),), 2)

    def test_a3_both_contributions(self, a3):
        u = element_from_word(a3, (1, 3))
        v = element_from_word(a3, (2, 1, 3, 2, 3))
        contributions = {
            chain_contribution(g, v).factors for g in enumerate_c0(u, v)
        }
        assert contributions == {
            ((0, 1, 1), (1, 1, 0)),  # (a2+a3)(a1+a2) = (x1-x3)(x2-x4)
            ((1, 0, 0), (1, 1, 0)),  # a1 (a1+a2)    = (x1-x3)(x1-x2)
        }

    def test_rejects_non_monotone_chain(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        other = next(
            g
            for g in enumerate_max_chains(u, v)
            if g not in enumerate_c0(u, v)
        )
        with pytest.raises(ValueError):
            chain_contribution(other, v)

    def test_cancelled_denominators_are_independent(self, a3, b2, c2):
        for rs in (a3, b2, c2):
            elements = enumerate_elements(rs)
            for u in elements:
                for v in elements:
                    for gamma in enumerate_c0(u, v):
                        denoms = []
                        for k, beta in enumerate(gamma.betas):
                            i = h_root(beta)
                            omega = rs.fundamental_weights[i - 1]
                            p = gamma.elements[k]
                            denoms.append(
                                tuple(
                                    a - b
                                    for a, b in zip(p.act(omega), v.act(omega))
                                )
                            )
                        for x in range(len(denoms)):
                            for y in range(x + 1, len(denoms)):
                                assert (
                                    proportionality_ratio(denoms[x], denoms[y])
                                    is None
                                )


class TestTauChain:
    def test_a3_golden(self, a3):
        u = element_from_word(a3, (1, 3))
        v = element_from_word(a3, (2, 1, 3, 2, 3))
        expected = expand(FactoredPoly(1, ((1, 1, 0), (1, 1, 1)), 3))
        assert tau_chain(u, v) == expected

    def test_identity_class_is_constant_one(self, b2):
        e = identity(b2)
        for v in enumerate_elements(b2):
            assert tau_chain(e, v) == Polynomial.one(2)

    def test_a2_golden(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        assert tau_chain(u, v) == Polynomial(2, {(1, 0): 1, (0, 1): 1})

    def test_zero_outside_flow_up(self, a2):
        s1 = simple_reflection(a2, 1)
        s2 = simple_reflection(a2, 2)
        assert tau_chain(s1, s2) == Polynomial.zero(2)

    def test_normalization(self, c2):
        for u in enumerate_elements(c2):
            assert tau_chain(u, u) == expand(lambda_minus(u))


class TestSubwords:
    def test_golden_masks(self, a3):
        u = element_from_word(a3, (1, 3))
        masks = {
            s.display() for s in enumerate_reduced_subwords(u, (2, 1, 3, 2, 3))
        }
        assert masks == {(0, 1, 3, 0, 0), (0, 1, 0, 0, 3)}

    def test_identity_has_single_empty_subword(self, a3):
        subwords = enumerate_reduced_subwords(identity(a3), (2, 1, 3, 2, 3))
        assert len(subwords) == 1
        assert subwords[0].mask == (0, 0, 0, 0, 0)

    def test_c2_counts_for_both_words(self, c2):
        u = simple_reflection(c2, 1)
        for word in ((1, 2, 1, 2), (2, 1, 2, 1)):
            assert len(enumerate_reduced_subwords(u, word)) == 2

    def test_non_reduced_word_rejected(self, a2):
        with pytest.raises(ValueError):
            enumerate_reduced_subwords(identity(a2), (1, 1))

    def test_golden_contributions(self, a3):
        word = (2, 1, 3, 2, 3)
        j1 = Subword(word, (0, 1, 1, 0, 0))
        j2 = Subword(word, (0, 1, 0, 0, 1))
        assert subword_contribution(a3, j1).factors == ((0, 1, 1), (1, 1, 0))
        assert subword_contribution(a3, j2).factors == ((1, 0, 0), (1, 1, 0))

    def test_all_ones_mask_gives_lambda_minus(self, b2):
        v = longest_element(b2)
        word = v.canonical_word
        full = Subword(word, (1,) * len(word))
        assert subword_contribution(b2, full) == lambda_minus(v)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            Subword((1, 2), (1,))
        with pytest.raises(ValueError):
            Subword((1, 2), (1, 2))


class TestTauBilley:
    def test_a3_golden_with_both_words(self, a3):
        u = element_from_word(a3, (1, 3))
        v = element_from_word(a3, (2, 1, 3, 2, 3))
        expected = expand(FactoredPoly(1, ((1, 1, 0), (1, 1, 1)), 3))
        assert tau_billey(u, v, (2, 1, 3, 2, 3)) == expected
        assert tau_billey(u, v) == expected  # canonical word default

    def test_normalization_and_support(self, a2):
        elements = enumerate_elements(a2)
        for u in elements:
            assert tau_billey(u, u) == expand(lambda_minus(u))
        s1 = simple_reflection(a2, 1)
        s2 = simple_reflection(a2, 2)
        assert tau_billey(s1, s2) == Polynomial.zero(2)

    def test_word_must_be_reduced_and_match_v(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        with pytest.raises(ValueError):
            tau_billey(u, v, (1, 2))
        with pytest.raises(ValueError):
            tau_billey(u, v, (1, 2, 1, 1, 2))

    def test_independent_of_word_choice(self, b2):
        from schubres.weyl import all_reduced_words

        elements = enumerate_elements(b2)
        for v in elements:
            words = all_reduced_words(v)
            for u in elements:
                values = {
                    tau_billey(u, v, word).to_text() for word in words
                }
                assert len(values) == 1


def billey_by_subwords(u, word):
    """The subword sum term by term, one reduced subword at a time: the
    reference the dynamic program of ``tau_billey`` is checked against."""
    total = Polynomial.zero(u.rs.rank)
    for subword in enumerate_reduced_subwords(u, word):
        total = total + expand(subword_contribution(u.rs, subword))
    return total


class TestSubwordProgram:
    def check_word(self, elements, v, word):
        sums = _subword_sums(v.rs, word)
        for u in elements:
            expected = billey_by_subwords(u, word)
            assert tau_billey(u, v, word) == expected, (u, v, word)
            assert sums.get(u, Polynomial.zero(v.rs.rank)) == expected

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_every_pair_of_rank_3_with_canonical_word(self, family):
        rs = root_system(family, 3)
        elements = enumerate_elements(rs)
        for v in elements:
            self.check_word(elements, v, v.canonical_word)

    def test_every_reduced_word_in_a3(self, a3):
        elements = enumerate_elements(a3)
        for v in elements:
            for word in all_reduced_words(v):
                self.check_word(elements, v, word)

    @pytest.mark.parametrize("family", ["B", "C"])
    def test_seeded_rank_4_pairs(self, family):
        rs = root_system(family, 4)
        elements = enumerate_elements(rs)
        rng = random.Random(4)
        for _ in range(50):
            v = rng.choice(elements)
            # A subword of a word for v gives an element below v.
            word = v.canonical_word
            u = element_from_word(rs, [l for l in word if rng.random() < 0.5])
            assert tau_billey(u, v) == billey_by_subwords(u, word), (u, v)

    def test_target_outside_the_interval(self, a3):
        u = element_from_word(a3, (3,))
        v = element_from_word(a3, (1, 2, 1))
        assert _subword_sums(a3, v.canonical_word, u) == {}
        assert tau_billey(u, v) == Polynomial.zero(3)


class TestGtEvaluation:
    def test_a2_term_values(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        chains = enumerate_max_chains(u, v)
        gamma1 = chain_by_elements(chains, [(1,), (2, 1), (1, 2, 1)])
        gamma2 = chain_by_elements(chains, [(1,), (1, 2), (1, 2, 1)])
        mu = (1, 1)
        ones = (1, 1)
        assert gt_term_eval(gamma1, v, mu, ones) == Fraction(4, 3)
        assert gt_term_eval(gamma2, v, mu, ones) == Fraction(2, 3)
        assert tau_gt_eval(u, v, mu, ones) == 2

    def test_empty_sigma_gives_zero(self, a2):
        s1 = simple_reflection(a2, 1)
        s2 = simple_reflection(a2, 2)
        assert tau_gt_eval(s1, s2, (1, 1), (5, 7)) == 0

    def test_a3_golden_at_ones(self, a3):
        u = element_from_word(a3, (1, 3))
        v = element_from_word(a3, (2, 1, 3, 2, 3))
        for mu in ((1, 1, 1), (2, 5, 3), (7, 1, 11)):
            assert tau_gt_eval(u, v, mu, (1, 1, 1)) == 6

    def test_matches_polynomial_evaluation(self, b2):
        elements = enumerate_elements(b2)
        mu = (3, 2)
        alpha = (17, 5)
        for u in elements:
            for v in elements:
                assert tau_gt_eval(u, v, mu, alpha) == tau_chain(u, v).evaluate(
                    alpha
                )

    def test_non_generic_point_detected(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        gamma2 = chain_by_elements(
            enumerate_max_chains(u, v), [(1,), (1, 2), (1, 2, 1)]
        )
        with pytest.raises(NonGenericPointError):
            gt_term_eval(gamma2, v, (1, 1), (1, 0))

    def test_mu_must_be_positive(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        gamma = enumerate_max_chains(u, v)[0]
        with pytest.raises(ValueError):
            gt_term_eval(gamma, v, (1, 0), (1, 1))


class TestFIMap:
    def test_c2_images(self, c2):
        u = simple_reflection(c2, 1)
        v = element_from_word(c2, (1, 2, 1, 2))
        word = (1, 2, 1, 2)
        images = {
            gamma.h_sequence(): f_i_map(gamma, word).mask
            for gamma in enumerate_max_chains(u, v)
        }
        assert images == {
            (1, 1, 2): (0, 0, 1, 0),  # the h-monotone chain
            (2, 1, 1): (0, 0, 1, 0),
            (1, 2, 1): (0, 0, 1, 0),
            (2, 1, 2): (1, 0, 0, 0),
        }

    def test_empty_chain_keeps_everything(self, c2):
        v = element_from_word(c2, (1, 2, 1, 2))
        gamma = Chain((v,), ())
        assert f_i_map(gamma, (1, 2, 1, 2)).mask == (1, 1, 1, 1)

    def test_non_maximal_chain_leaves_extra_letters(self, c2):
        # One ascending step of length 3: the image keeps 3 letters, so it
        # is a word for u but not a reduced one.
        u = simple_reflection(c2, 1)
        v = element_from_word(c2, (1, 2, 1, 2))
        gamma = Chain((u, v), ((1, 1),))
        image = f_i_map(gamma, (1, 2, 1, 2))
        assert image.mask == (1, 1, 0, 1)
        assert element_from_word(c2, image.selected()) == u
        assert image.ones() != u.length

    def test_length_dichotomy(self, b2):
        u = simple_reflection(b2, 2)
        v = longest_element(b2)
        word = v.canonical_word
        for gamma in enumerate_max_chains(u, v):
            assert f_i_map(gamma, word).ones() == u.length

    def test_image_is_a_reduced_subword_for_maximal_chains(self, c2):
        u = simple_reflection(c2, 1)
        v = element_from_word(c2, (1, 2, 1, 2))
        word = (2, 1, 2, 1)
        masks = {s.mask for s in enumerate_reduced_subwords(u, word)}
        for gamma in enumerate_max_chains(u, v):
            assert f_i_map(gamma, word).mask in masks

    def test_rejects_mismatched_word(self, c2):
        u = simple_reflection(c2, 1)
        v = element_from_word(c2, (1, 2, 1, 2))
        gamma = enumerate_max_chains(u, v)[0]
        with pytest.raises(ValueError):
            f_i_map(gamma, (1, 2, 1))


class TestGkm:
    def test_constant_class_passes(self, a2):
        values = {u: Polynomial.one(2) for u in enumerate_elements(a2)}
        report = gkm_check_class(a2, values)
        assert report.ok
        # |W| * |positive roots| / 2 unordered edges
        assert report.edges_checked == 6 * 3 // 2

    def test_computed_class_passes(self, a2):
        s1 = simple_reflection(a2, 1)
        values = {v: tau_chain(s1, v) for v in enumerate_elements(a2)}
        assert gkm_check_class(a2, values).ok

    def test_corrupted_class_fails(self, a2):
        s1 = simple_reflection(a2, 1)
        values = {v: tau_chain(s1, v) for v in enumerate_elements(a2)}
        values[longest_element(a2)] = values[longest_element(a2)] + Polynomial.one(2)
        report = gkm_check_class(a2, values)
        assert not report.ok
        assert len(report.failures) >= 1

    def test_incomplete_class_rejected(self, a2):
        values = {identity(a2): Polynomial.one(2)}
        with pytest.raises(ValueError):
            gkm_check_class(a2, values)
