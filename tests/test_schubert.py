"""Chain and subword formulas, moment-map evaluation, subword map, GKM."""

import itertools
import random
from fractions import Fraction

import pytest

from schubres import schubert, verify
from schubres.poly import CancellationError, FactoredPoly, Polynomial, expand
from schubres.rootsys import LieType, build_root_system, h_root, root_system
from schubres.schubert import (
    Chain,
    NonGenericPointError,
    Subword,
    _edge_term,
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
    _inversions,
    all_reduced_words,
    bruhat_leq,
    covers_above,
    element_from_word,
    enumerate_elements,
    h_pair,
    identity,
    lower_ideals,
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


def h_monotone_chains(u, v):
    """The maximal chains from u to v with nondecreasing h, by the paper's
    definition: the reference ``enumerate_c0`` is checked against."""
    return {
        gamma
        for gamma in enumerate_max_chains(u, v)
        if all(x <= y for x, y in zip(gamma.h_sequence(), gamma.h_sequence()[1:]))
    }


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
        "family,rank", [("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3)]
    )
    def test_c0_equals_filtered_sigma(self, family, rank):
        rs = root_system(family, rank)
        elements = enumerate_elements(rs)
        for u in elements:
            for v in elements:
                assert set(enumerate_c0(u, v)) == h_monotone_chains(u, v)

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_c0_equals_filtered_sigma_on_seeded_rank_4_pairs(self, family):
        # Sigma grows fast with the length of the interval (one of length
        # 16 in B4 has millions of maximal chains), so the sample keeps
        # intervals of length at most 8: up to 12096 chains each.
        rs = root_system(family, 4)
        elements = enumerate_elements(rs)
        rng = random.Random(4)
        sampled = 0
        while sampled < 50:
            v = rng.choice(elements)
            # A subword of a word for v gives an element below v.
            word = v.canonical_word
            u = element_from_word(rs, [l for l in word if rng.random() < 0.5])
            if v.length - u.length <= 8:
                sampled += 1
                assert set(enumerate_c0(u, v)) == h_monotone_chains(u, v), (u, v)

    @pytest.mark.parametrize(
        "family,rank,covers",
        [("A", 3, 383), ("B", 3, 1977), ("C", 3, 1977), ("A", 4, 10780)],
    )
    def test_a_cover_below_v_has_h_at_least_h_pair(self, family, rank, covers):
        # h(p, p s_beta) = h(beta) and h(p, r) <= h(p, q) for p < q < r give
        # h(beta) >= h_pair(p, v) for every cover p -beta-> w <= v; the
        # chain walk follows a cover exactly when the two are equal.
        rs = root_system(family, rank)
        ideals = lower_ideals(rs)
        seen = 0
        for v in enumerate_elements(rs):
            for p in enumerate_elements(rs):
                if p == v or ideals[p] & ideals[v] != ideals[p]:
                    continue
                for beta, w in covers_above(p):
                    if ideals[w] & ideals[v] == ideals[w]:
                        seen += 1
                        assert h_root(beta) >= h_pair(p, v), (p, beta, v)
        assert seen == covers

    def test_chains_are_saturated_and_ascending(self, b2):
        u = identity(b2)
        v = enumerate_elements(b2)[-1]
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
                                # Not proportional: some 2x2 minor is nonzero.
                                dx, dy = denoms[x], denoms[y]
                                assert any(
                                    dx[i] * dy[j] != dx[j] * dy[i]
                                    for i in range(rs.rank)
                                    for j in range(i + 1, rs.rank)
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


def chain_by_chain(u, v):
    """The chain sum one h-monotone chain at a time: the reference the
    dynamic program of ``tau_chain`` is checked against."""
    total = Polynomial.zero(u.rs.rank)
    for gamma in enumerate_c0(u, v):
        total = total + expand(chain_contribution(gamma, v))
    return total


def assert_int_states(rs):
    """Every sum held by the cached chain column is an int."""
    column = rs._cache.get("chain_column")
    if column is not None:
        for key, sums in column.states.items():
            assert all(type(c) is int for c in sums.values()), key


class TestChainProgram:
    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_every_pair_of_rank_3(self, family):
        rs = root_system(family, 3)
        elements = enumerate_elements(rs)
        for v in elements:
            for u in elements:
                assert tau_chain(u, v) == chain_by_chain(u, v), (u, v)
            assert_int_states(rs)

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_seeded_rank_4_pairs(self, family):
        rs = root_system(family, 4)
        elements = enumerate_elements(rs)
        rng = random.Random(4)
        outside = 0
        for _ in range(100):
            u, v = rng.choice(elements), rng.choice(elements)
            if rng.random() < 0.5:
                # A subword of a word for v gives an element below v.
                word = v.canonical_word
                u = element_from_word(rs, [l for l in word if rng.random() < 0.5])
            value = tau_chain(u, v)
            outside += not value
            assert value == chain_by_chain(u, v), (u, v)
            assert_int_states(rs)
        assert outside, "the sample has pairs with u not below v"

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 2)])
    def test_fill_order_does_not_matter(self, family, rank):
        # Fresh systems, so neither fill starts from the other's caches;
        # with u outside, every call replaces the one cached column.
        by_u = build_root_system(LieType(family, rank))
        by_v = build_root_system(LieType(family, rank))
        us = enumerate_elements(by_u)
        vs = enumerate_elements(by_v)
        rows = [[tau_chain(u, v) for v in us] for u in us]
        columns = [[tau_chain(u, v) for u in vs] for v in vs]
        assert rows == [list(row) for row in zip(*columns)]
        assert [u.canonical_word for u in us] == [v.canonical_word for v in vs]

    def test_fill_equals_tau_chain_on_another_system(self):
        # The fill reads u <= v off the lower ideals of one fresh system and
        # values each pair below from its column; tau_chain walks each pair
        # of a second fresh system on its own.
        filled = build_root_system(LieType("B", 3))
        walked = build_root_system(LieType("B", 3))
        table = schubert._tau_table(enumerate_elements(filled))
        twin = dict(zip(enumerate_elements(filled), enumerate_elements(walked)))
        assert all(u.canonical_word == w.canonical_word for u, w in twin.items())
        pairs = 0
        for v in twin:
            for u in twin:
                assert table[u][v] == tau_chain(twin[u], twin[v]), (u, v)
                pairs += 1
        assert pairs == 2304

    def test_edge_term_guards(self, a3, monkeypatch):
        u = element_from_word(a3, (1, 3))
        v = element_from_word(a3, (2, 1, 3, 2, 3))
        gamma = enumerate_c0(u, v)[0]
        p, beta = gamma.elements[0], gamma.betas[0]
        # The factors of lambda_minus(v) are the bits of N(v^-1).
        factors = _inversions(v.inverse())
        # The doubled ratio: its ratio is 1.
        assert _edge_term(p, beta, v, factors)[1] == 2
        with pytest.raises(CancellationError, match="no factor .* is proportional"):
            _edge_term(p, beta, v, 0)
        # With p and v exchanged the denominator is the factor's negative.
        with pytest.raises(CancellationError, match="nonpositive multiple"):
            _edge_term(v, beta, p, factors)
        real_div = schubert.div_exact

        def quadrupled(vec, d):
            # A denominator form four times as large: the ratio is 1/4,
            # which doubled is still not an integer.
            return tuple(4 * c for c in real_div(vec, d))

        with monkeypatch.context() as m:
            m.setattr(schubert, "div_exact", quadrupled)
            with pytest.raises(CancellationError, match="has the ratio 1/4"):
                _edge_term(p, beta, v, factors)
        # Every edge of the chain claims the factor of its first edge.
        real = schubert._edge_term
        first = real(p, beta, v, factors)[0]

        def collapsed(q, b, top, mask):
            return first, real(q, b, top, mask)[1]

        monkeypatch.setattr(schubert, "_edge_term", collapsed)
        with pytest.raises(CancellationError, match="cancelled twice"):
            chain_contribution(gamma, v)

    def test_cache_holds_the_last_column(self):
        rs = build_root_system(LieType("B", 2))
        elements = enumerate_elements(rs)
        for v in elements[1:]:
            for u in elements:
                tau_chain(u, v)
            assert rs._cache["chain_column"].v == v
        # The column is the only chain memo: no table of results per pair.
        assert "tau_chain" not in rs._cache


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

    def test_every_mask_of_every_canonical_word_in_b3(self):
        # Against all 2^m masks: the walk follows only selections that stay
        # a left prefix of u, and must still find every reduced subword.
        rs = root_system("B", 3)
        elements = enumerate_elements(rs)
        for v in elements:
            word = v.canonical_word
            by_element = {u: set() for u in elements}
            for mask in itertools.product((0, 1), repeat=len(word)):
                letters = [l for l, keep in zip(word, mask) if keep]
                u = element_from_word(rs, letters)
                if u.length == len(letters):
                    by_element[u].add(mask)
            for u in elements:
                got = [s.mask for s in enumerate_reduced_subwords(u, word)]
                assert got == sorted(by_element[u]), (u, v)

    def test_golden_contributions(self, a3):
        word = (2, 1, 3, 2, 3)
        j1 = Subword(word, (0, 1, 1, 0, 0))
        j2 = Subword(word, (0, 1, 0, 0, 1))
        assert subword_contribution(a3, j1).factors == ((0, 1, 1), (1, 1, 0))
        assert subword_contribution(a3, j2).factors == ((1, 0, 0), (1, 1, 0))

    def test_all_ones_mask_gives_lambda_minus(self, b2):
        v = enumerate_elements(b2)[-1]
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

    def test_a_step_leaves_its_input_states_untouched(self):
        # Trie siblings share their parent's states, and a skipped state
        # keeps its input polynomial, so a step must copy a term dict
        # before it adds into it.
        rs = root_system("B", 3)
        seen = []
        # The trie is lazy: a node's children are stepped after it is seen.
        for _, _, states in verify._reduced_word_trie(rs):
            seen.append((states, {w: dict(p.terms) for w, p in states.items()}))
        assert len(seen) > 1
        for states, snapshot in seen:
            assert {w: dict(p.terms) for w, p in states.items()} == snapshot

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_targeted_states_are_left_prefixes_of_the_target(
        self, family, monkeypatch
    ):
        # The step tests a left prefix by one bit of N(u^-1); every state it
        # keeps must be one by the product definition.
        rs = root_system(family, 3)
        elements = enumerate_elements(rs)
        kept = []
        real = schubert._subword_step

        def spy(*args):
            states = real(*args)
            kept.append(states)
            return states

        monkeypatch.setattr(schubert, "_subword_step", spy)
        for v in elements:
            for u in elements:
                kept.clear()
                tau_billey(u, v)
                assert len(kept) == v.length
                for states in kept:
                    for w in states:
                        assert (u.inverse() * w).length == u.length - w.length, (
                            u, v, w,
                        )

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

    def test_floats_rejected(self, a2):
        e = identity(a2)
        w0 = enumerate_elements(a2)[-1]
        gamma = enumerate_max_chains(e, w0)[0]
        for mu, alpha in (((0.1, 0.3), (1, 1)), ((1, 3), (0.5, 1))):
            with pytest.raises(TypeError):
                tau_gt_eval(e, w0, mu, alpha)
            with pytest.raises(TypeError):
                gt_term_eval(gamma, w0, mu, alpha)
        assert tau_gt_eval(e, w0, (Fraction(1, 10), 3), (1, 1)) == 1

    def test_mu_must_be_positive(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        gamma = enumerate_max_chains(u, v)[0]
        with pytest.raises(ValueError):
            gt_term_eval(gamma, v, (1, 0), (1, 1))


def gt_by_chains(u, v, mu, alpha):
    """The moment-map sum one maximal chain at a time: the reference the
    path sum of ``tau_gt_eval`` is checked against.  None when some
    chain's term has a vanishing denominator."""
    total = Fraction(0)
    try:
        for gamma in enumerate_max_chains(u, v):
            total += gt_term_eval(gamma, v, mu, alpha)
    except NonGenericPointError:
        return None
    return total


def gt_by_program(u, v, mu, alpha):
    """``tau_gt_eval``, or None where it finds a vanishing denominator."""
    try:
        return tau_gt_eval(u, v, mu, alpha)
    except NonGenericPointError:
        return None


def seeded_points(rank, count, seed):
    rng = random.Random(seed)
    return [
        (
            tuple(rng.randint(1, 1000) for _ in range(rank)),
            tuple(rng.randint(-10**6, 10**6) for _ in range(rank)),
        )
        for _ in range(count)
    ]


class TestGtProgram:
    # Every pair of A3 at three seeded int points and a Fraction point;
    # every pair of B3 and of C3 at one point each, since their 51630
    # maximal chains make the reference cost seconds per point.
    @pytest.mark.parametrize(
        "family,points",
        [
            (
                "A",
                seeded_points(3, 3, 6)
                + [((Fraction(1, 10), 3, Fraction(7, 2)), (5, Fraction(-2, 3), 11))],
            ),
            ("B", seeded_points(3, 1, 7)),
            ("C", [((Fraction(1, 10), 3, 2), (Fraction(3, 4), 7, Fraction(-5, 6)))]),
        ],
    )
    def test_every_pair_of_rank_3(self, family, points):
        rs = root_system(family, 3)
        elements = enumerate_elements(rs)
        for mu, alpha in points:
            for v in elements:
                for u in elements:
                    expected = gt_by_chains(u, v, mu, alpha)
                    assert expected == tau_chain(u, v).evaluate(alpha), (u, v)
                    assert tau_gt_eval(u, v, mu, alpha) == expected, (u, v, mu, alpha)

    def test_a2_non_generic_point(self, a2):
        u = simple_reflection(a2, 1)
        v = element_from_word(a2, (1, 2, 1))
        assert gt_by_chains(u, v, (1, 1), (1, 0)) is None
        with pytest.raises(NonGenericPointError):
            tau_gt_eval(u, v, (1, 1), (1, 0))

    @pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("A", 3)])
    def test_non_generic_exactly_when_a_chain_term_is(self, family, rank):
        # Small alpha values put many points on the vanishing locus of
        # some denominator; the path sum must raise at exactly those.
        rs = root_system(family, rank)
        pairs = [
            (u, v)
            for u in enumerate_elements(rs)
            for v in enumerate_elements(rs)
            if u != v
        ]
        rng = random.Random(rank)
        raised = 0
        for _ in range(300):
            u, v = rng.choice(pairs)
            mu = tuple(rng.randint(1, 3) for _ in range(rank))
            alpha = tuple(rng.randint(-2, 2) for _ in range(rank))
            expected = gt_by_chains(u, v, mu, alpha)
            assert gt_by_program(u, v, mu, alpha) == expected, (u, v, mu, alpha)
            raised += expected is None
        assert 0 < raised < 300


class TestSharedColumn:
    @pytest.mark.parametrize(
        "family,rank,u,v,states,value",
        [
            (
                "B", 3, 2, (3, 2, 3, 1, 2, 3), 8,
                {(1, 0, 0): 1, (0, 1, 0): 3, (0, 0, 1): 4},
            ),
            (
                "C", 4, 1, (1, 2, 3, 4, 3, 2, 1, 2, 3, 4), 10,
                {(1, 0, 0, 0): 2, (0, 1, 0, 0): 2, (0, 0, 1, 0): 2, (0, 0, 0, 1): 1},
            ),
        ],
    )
    def test_chain_sum_visits_only_states_that_can_reach_v(
        self, family, rank, u, v, states, value
    ):
        # One state per element, v's own included; a cover p -beta-> is
        # followed only if h(beta) = h_pair(p, v), so the sums visit 7
        # elements below v in B3 and 9 in C4.
        rs = build_root_system(LieType(family, rank))
        v = element_from_word(rs, v)
        got = tau_chain(simple_reflection(rs, u), v)
        assert got == Polynomial(rank, value)
        assert len(schubert._chain_column(v).states) == states

    def test_a_fill_holds_one_state_per_pair_and_values_each_edge_once(
        self, monkeypatch
    ):
        # A fresh A4 fill: each of the 3781 pairs u <= v gets one state in
        # the column of v, and each cover a column follows has its term
        # computed once.
        rs = build_root_system(LieType("A", 4))
        columns = []
        terms = []

        class Kept(schubert._ChainColumn):
            __slots__ = ()

            def __init__(self, v):
                columns.append(self)
                super().__init__(v)

        def counted(*args):
            terms.append(args[:3])
            return real(*args)

        real = schubert._edge_term
        monkeypatch.setattr(schubert, "_ChainColumn", Kept)
        monkeypatch.setattr(schubert, "_edge_term", counted)
        schubert._tau_table(enumerate_elements(rs))
        assert sum(len(column.states) for column in columns) == 3781
        assert len(terms) == len(set(terms)) == 4652

    def test_every_route_checks_each_edge_of_the_interval_once(self, monkeypatch):
        # A fresh system, so the column starts empty; all four walks up to
        # v, the moment-map sum at 20 points, share its checked edges.
        rs = build_root_system(LieType("B", 3))
        u = simple_reflection(rs, 2)
        v = element_from_word(rs, (3, 2, 3, 1, 2, 3))
        interval = {
            w for w in enumerate_elements(rs) if bruhat_leq(u, w) and bruhat_leq(w, v)
        }
        edges = {
            (p, beta)
            for p in interval
            for beta, w in covers_above(p)
            if w in interval
        }
        real = schubert._edge_fault
        checked = []

        def counting(p, beta, w):
            checked.append((p, beta))
            return real(p, beta, w)

        monkeypatch.setattr(schubert, "_edge_fault", counting)
        assert tau_chain(u, v)
        assert enumerate_c0(u, v)
        assert len(enumerate_max_chains(u, v)) == 72
        for mu, alpha in seeded_points(3, 20, 11):
            gt_by_program(u, v, mu, alpha)
        assert len(checked) == len(edges) == len(set(checked))
        assert set(checked) == edges

    @pytest.mark.parametrize("family,rank,covers", [("A", 4, 444), ("B", 3, 138)])
    def test_a_fill_checks_each_cover_once_and_walks_no_pair(
        self, monkeypatch, family, rank, covers
    ):
        # A fresh system: the fill reads u <= v off the lower ideals, and
        # the columns of every v share the system's checked covers.
        rs = build_root_system(LieType(family, rank))
        elements = enumerate_elements(rs)
        distinct = {(p, beta) for p in elements for beta, _ in covers_above(p)}
        real = schubert._edge_fault
        checked = []
        walks = []

        def counting(p, beta, w):
            checked.append((p, beta))
            return real(p, beta, w)

        monkeypatch.setattr(schubert, "_edge_fault", counting)
        monkeypatch.setattr(schubert, "bruhat_leq", lambda u, v: walks.append((u, v)))
        schubert._tau_table(elements)
        assert walks == []
        assert len(checked) == len(distinct) == covers
        assert set(checked) == distinct


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
        v = enumerate_elements(b2)[-1]
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


def invalid_chain(rs, case):
    """A chain of C2 that no per-chain route may accept, the element v it
    is passed with, a reduced word for its end, and the expected error."""
    u = simple_reflection(rs, 1)
    w0 = element_from_word(rs, (1, 2, 1, 2))
    if case == "wrong root":
        gamma = enumerate_max_chains(u, w0)[0]
        wrong = next(b for b in rs.positive_roots if b != gamma.betas[1])
        betas = gamma.betas[:1] + (wrong,) + gamma.betas[2:]
        return Chain(gamma.elements, betas), w0, (1, 2, 1, 2), "right reflection"
    if case == "descending edge":
        # s1 s2 -> s1 is right multiplication by s_alpha2, one step down.
        top = element_from_word(rs, (1, 2))
        return Chain((top, u), ((0, 1),)), u, (1,), "not ascending"
    if case == "length jump":
        # The ascending step of test_non_maximal_chain_leaves_extra_letters.
        return Chain((u, w0), ((1, 1),)), w0, (1, 2, 1, 2), "maximal length"
    assert case == "not ending at v"
    v = element_from_word(rs, (1, 2, 1))
    return enumerate_max_chains(u, v)[0], w0, (1, 2, 1, 2), "does not end at v"


class TestInvalidChains:
    CASES = ["wrong root", "descending edge", "length jump", "not ending at v"]

    @pytest.mark.parametrize("case", CASES)
    def test_chain_contribution_rejects(self, c2, case):
        gamma, v, _, message = invalid_chain(c2, case)
        with pytest.raises(ValueError, match=message):
            chain_contribution(gamma, v)

    @pytest.mark.parametrize("case", CASES)
    def test_gt_term_eval_rejects(self, c2, case):
        gamma, v, _, message = invalid_chain(c2, case)
        with pytest.raises(ValueError, match=message):
            gt_term_eval(gamma, v, (1, 2), (1, 1))

    @pytest.mark.parametrize("case", CASES[:2])
    def test_f_i_map_rejects(self, c2, case):
        gamma, _, word, message = invalid_chain(c2, case)
        with pytest.raises(ValueError, match=message):
            f_i_map(gamma, word)


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
        w0 = enumerate_elements(a2)[-1]
        values[w0] = values[w0] + Polynomial.one(2)
        report = gkm_check_class(a2, values)
        assert not report.ok
        assert len(report.failures) >= 1

    def test_incomplete_class_rejected(self, a2):
        values = {identity(a2): Polynomial.one(2)}
        with pytest.raises(ValueError):
            gkm_check_class(a2, values)
