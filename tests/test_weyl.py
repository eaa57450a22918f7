"""Group arithmetic, words, Bruhat order, h statistic and weight drops."""

import pytest

from schubres import weyl
from schubres.rootsys import (
    LieType,
    build_root_system,
    h_root,
    reflect,
    root_system,
)
from schubres.schubert import (
    chain_contribution,
    enumerate_c0,
    enumerate_max_chains,
    tau_billey,
    tau_chain,
    tau_gt_eval,
)
from schubres.weyl import (
    INFINITY,
    WeylElement,
    all_reduced_words,
    bruhat_leq,
    covers_above,
    element_from_word,
    enumerate_elements,
    h_pair,
    identity,
    inversion_roots,
    lower_ideals,
    omega_drop,
    reflection,
    right_descents,
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


def mat_mul(a, b):
    """Integer matrix product, the oracle for the group product."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_apply(m, vec):
    return tuple(sum(row[k] * vec[k] for k in range(len(vec))) for row in m)


def is_negative(vec):
    return any(vec) and all(c <= 0 for c in vec)


GROUPS_RANK_3 = [("A", 3), ("B", 3), ("C", 3)]


class TestRepresentation:
    """Root permutations against the action matrices derived from them."""

    @pytest.mark.parametrize("family,rank", GROUPS_RANK_3)
    def test_product_matches_matrix_product(self, family, rank):
        rs = root_system(family, rank)
        elements = enumerate_elements(rs)
        for u in elements:
            for v in elements:
                assert (u * v).matrix == mat_mul(u.matrix, v.matrix)
        # A product by s_i is read back from u after its first use: the same
        # object, still the matrix product.  An s_i of another system is
        # refused, of the same type or not (B3 and C3 permute root sets of
        # one size), on a miss and on a hit of u's memo.
        twin = build_root_system(LieType(family, rank))
        mixed = root_system({"A": "B", "B": "C", "C": "B"}[family], rank)
        for i in range(1, rank + 1):
            s = simple_reflection(rs, i)
            others = (simple_reflection(twin, i), simple_reflection(mixed, i))
            with pytest.raises(ValueError, match="different root systems"):
                identity(twin) * s
            for u in elements:
                for t in others:
                    with pytest.raises(ValueError, match="different root systems"):
                        u * t
                assert u * s is u * s
                assert (u * s).matrix == mat_mul(u.matrix, s.matrix)
                for t in others:
                    with pytest.raises(ValueError, match="different root systems"):
                        u * t

    @pytest.mark.parametrize("family,rank", GROUPS_RANK_3)
    def test_inverse_length_and_action(self, family, rank):
        rs = root_system(family, rank)
        e = identity(rs)
        roots = rs.positive_roots + tuple(
            tuple(-c for c in beta) for beta in rs.positive_roots
        )
        for u in enumerate_elements(rs):
            assert u.inverse() * u is e
            assert u.length == sum(
                is_negative(mat_apply(u.matrix, beta)) for beta in rs.positive_roots
            )
            for beta in roots:
                assert u.act(beta) == mat_apply(u.matrix, beta)

    @pytest.mark.parametrize("family,rank", GROUPS_RANK_3)
    def test_reflections_match_reflect(self, family, rank):
        rs = root_system(family, rank)
        for positive in rs.positive_roots:
            for beta in (positive, tuple(-c for c in positive)):
                columns = [reflect(rs, beta, alpha) for alpha in rs.simple_roots]
                expected = tuple(zip(*columns))
                assert reflection(rs, beta).matrix == expected
        for bad in [(0,) * rank, (1, -1) + (0,) * (rank - 2), (3,) + (0,) * (rank - 1)]:
            with pytest.raises(ValueError, match="is not a root"):
                reflection(rs, bad)

    @pytest.mark.parametrize("family,rank", GROUPS_RANK_3)
    def test_group_table_is_built_with_the_root_table(self, family, rank, monkeypatch):
        rs = build_root_system(LieType(family, rank))
        products = []
        mul = WeylElement.__mul__

        def counted(x, y):
            products.append((x, y))
            return mul(x, y)

        monkeypatch.setattr(WeylElement, "__mul__", counted)
        e = identity(rs)
        monkeypatch.undo()
        # Two products, s_i s_beta s_i, per non-simple positive root only.
        assert len(products) == {"A": 6, "B": 12, "C": 12}[family]
        assert set(rs._cache) == {"root_table", "elements"}
        for i, alpha in enumerate(rs.simple_roots, 1):
            s = simple_reflection(rs, i)
            assert s * s is e
            assert reflection(rs, alpha) is s
        negatives = tuple(tuple(-c for c in b) for b in rs.positive_roots)
        by_sign = [reflection(rs, b) for b in rs.positive_roots + negatives]
        assert by_sign[: len(negatives)] == by_sign[len(negatives):]
        assert len(set(by_sign)) == len(negatives)
        assert set(rs._cache) == {"root_table", "elements"}

    def test_inversion_roots_match_matrix_inverse_images(self, a3):
        for v in enumerate_elements(a3):
            vinv = v.inverse()
            assert inversion_roots(v) == tuple(
                beta
                for beta in a3.positive_roots
                if is_negative(mat_apply(vinv.matrix, beta))
            )


def h_pair_by_fractions(p, q):
    """The h statistic from its definition, over the rational weights."""
    for i, omega in enumerate(p.rs.fundamental_weights):
        if p.act(omega) != q.act(omega):
            return i + 1
    return INFINITY


#: Every entry point that takes two elements, as a call on (u, v).
TWO_ELEMENT_CALLS = {
    "tau_chain": tau_chain,
    "tau_billey": tau_billey,
    "tau_gt_eval": lambda u, v: tau_gt_eval(u, v, (1, 2, 3), (4, 5, 6)),
    "enumerate_c0": enumerate_c0,
    "enumerate_max_chains": enumerate_max_chains,
    "bruhat_leq": bruhat_leq,
    "h_pair": h_pair,
    "u * s": lambda u, v: u * v,
}


class TestOneSystem:
    """Elements compare by identity, and elements of two root systems of
    one type never meet."""

    def test_equality_is_identity(self):
        rs, twin = build_root_system(LieType("B", 3)), build_root_system(LieType("B", 3))
        word = (1, 2, 3, 2)
        assert element_from_word(rs, word) is element_from_word(rs, word)
        assert element_from_word(rs, word) != element_from_word(twin, word)
        assert WeylElement.__eq__ is object.__eq__
        assert WeylElement.__hash__ is object.__hash__

    @pytest.mark.parametrize("name", list(TWO_ELEMENT_CALLS))
    def test_elements_of_two_systems_are_refused(self, name):
        call = TWO_ELEMENT_CALLS[name]
        rs, twin = build_root_system(LieType("B", 3)), build_root_system(LieType("B", 3))
        # u = s2 against v = u, and against v = s1 s2 s3 s2 s1 above it (s1
        # for "u * s"): a walk that ends at once must refuse a pair too.
        top = (1,) if name == "u * s" else (1, 2, 3, 2, 1)
        for low, high in ((rs, twin), (twin, rs)):
            u = element_from_word(low, (2,))
            for word in ((2,), top):
                assert call(u, element_from_word(low, word)) is not None
                with pytest.raises(ValueError, match="different root systems"):
                    call(u, element_from_word(high, word))


class TestWeightImages:
    """Integer weight images against the rational action they replace."""

    @pytest.mark.parametrize("family,rank", GROUPS_RANK_3)
    def test_omega_images_match_scaled_action(self, family, rank):
        rs = root_system(family, rank)
        scale = rs.scale
        for u in enumerate_elements(rs):
            for image, omega in zip(u.omega_images, rs.fundamental_weights):
                assert all(type(c) is int for c in image)
                assert image == tuple(scale * c for c in u.act(omega))

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
    def test_h_pair_matches_fraction_definition(self, family, rank):
        elements = enumerate_elements(root_system(family, rank))
        for p in elements:
            for q in elements:
                assert h_pair(p, q) == h_pair_by_fractions(p, q)

    @staticmethod
    def _b3_chain(rs):
        v = element_from_word(rs, (3, 2, 3))
        return enumerate_c0(identity(rs), v)[0], v

    def test_wrong_scale_after_build_raises(self):
        rs = build_root_system(LieType("B", 3))
        gamma, v = self._b3_chain(rs)
        assert chain_contribution(gamma, v).scalar
        rs.scale = 3
        with pytest.raises(ArithmeticError, match="not divisible by 3"):
            chain_contribution(gamma, v)


class TestWords:
    def test_empty_word_is_identity(self, a2):
        assert element_from_word(a2, ()) == identity(a2)

    def test_braid_relation_a2(self, a2):
        assert element_from_word(a2, (1, 2, 1)) == element_from_word(a2, (2, 1, 2))

    def test_braid_relation_c2(self, c2):
        assert element_from_word(c2, (1, 2, 1, 2)) == element_from_word(
            c2, (2, 1, 2, 1)
        )

    def test_out_of_range_letter(self, a2):
        with pytest.raises(ValueError):
            element_from_word(a2, (3,))

    def test_mixed_systems_rejected(self, a2, b2):
        with pytest.raises(ValueError):
            identity(a2) * identity(b2)


class TestGroupStructure:
    def test_inverse_roundtrip(self, a3):
        u = element_from_word(a3, (2, 1, 3, 2, 3))
        assert u * u.inverse() == identity(a3)
        assert u.inverse().inverse() == u

    def test_compose_matches_word(self, a2):
        s1 = simple_reflection(a2, 1)
        s2 = simple_reflection(a2, 2)
        assert s1 * s2 == element_from_word(a2, (1, 2))

    def test_reflections_are_involutions(self, c2):
        for beta in c2.positive_roots:
            assert reflection(c2, beta).inverse() == reflection(c2, beta)

    def test_action_is_a_homomorphism(self, a3):
        u = element_from_word(a3, (1, 2))
        v = element_from_word(a3, (3, 2, 1))
        for beta in a3.positive_roots:
            assert (u * v).act(beta) == u.act(v.act(beta))


class TestLength:
    def test_identity(self, a2):
        assert identity(a2).length == 0

    def test_golden_lengths_a3(self, a3):
        assert element_from_word(a3, (2, 1, 3, 2, 3)).length == 5
        assert element_from_word(a3, (1, 3)).length == 2

    def test_simple_multiplication_changes_length_by_one(self, a3):
        for u in enumerate_elements(a3):
            for i in range(1, 4):
                v = u * simple_reflection(a3, i)
                assert abs(v.length - u.length) == 1

    @pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 3)])
    def test_length_counts_roots_sent_negative(self, family, rank):
        rs = root_system(family, rank)
        for u in enumerate_elements(rs):
            count = sum(is_negative(u.act(beta)) for beta in rs.positive_roots)
            assert u.length == count, u

    def test_length_counts_inverse_inversions(self, b2):
        for u in enumerate_elements(b2):
            count = 0
            uinv = u.inverse()
            for beta in b2.positive_roots:
                image = uinv.act(beta)
                first = next(c for c in image if c)
                count += first < 0
            assert count == u.length


class TestRightDescents:
    @pytest.mark.parametrize(
        "family,rank,total",
        [("A", 3, 36), ("B", 3, 72), ("C", 3, 72),
         ("B", 2, 8), ("C", 2, 8), ("A", 4, 240)],
    )
    def test_bits_are_the_letters_that_shorten(self, family, rank, total):
        # Each s_i is a descent of exactly half the group (w <-> w s_i), so
        # the popcounts sum to rank |W| / 2.
        rs = root_system(family, rank)
        elements = enumerate_elements(rs)
        for w in elements:
            for i in range(1, rank + 1):
                shorter = (w * simple_reflection(rs, i)).length < w.length
                assert bool(right_descents(w) >> (i - 1) & 1) == shorter, (w, i)
        assert right_descents(identity(rs)) == 0
        assert right_descents(elements[-1]) == (1 << rank) - 1
        assert sum(right_descents(w).bit_count() for w in elements) == total
        assert total == rank * len(elements) // 2


class TestReducedWords:
    def test_identity_words(self, a2):
        assert identity(a2).canonical_word == ()
        assert all_reduced_words(identity(a2)) == ((),)

    def test_a2_long_element_words(self, a2):
        w0 = element_from_word(a2, (1, 2, 1))
        assert set(all_reduced_words(w0)) == {(1, 2, 1), (2, 1, 2)}
        assert w0.canonical_word == (1, 2, 1)

    def test_c2_long_element_words(self, c2):
        w0 = element_from_word(c2, (1, 2, 1, 2))
        assert len(all_reduced_words(w0)) == 2

    def test_canonical_is_lexicographically_smallest(self, a3, b2):
        for rs in (a3, b2):
            for u in enumerate_elements(rs):
                words = all_reduced_words(u)
                assert u.canonical_word == min(words)
                assert all(
                    element_from_word(rs, w) == u and len(w) == u.length
                    for w in words
                )
                assert len(set(words)) == len(words)

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_canonical_word_reads_the_least_left_descents(self, family):
        # canonical_word walks the right descents of w^-1; the reference
        # sorts every reduced word.
        rs = build_root_system(LieType(family, 3))
        for w in enumerate_elements(rs):
            assert w.canonical_word == all_reduced_words(w)[0]


class TestAction:
    def test_identity_action(self, a2):
        for beta in a2.positive_roots:
            assert identity(a2).act(beta) == beta

    def test_s2_moves_alpha1(self, a2):
        s2 = simple_reflection(a2, 2)
        assert s2.act((1, 0)) == (1, 1)

    def test_prefix_actions_match_worked_example(self, a3):
        # In x coordinates: s2 s1 maps x3 - x4 to x2 - x4, and
        # s2 s1 s3 maps x2 - x3 to x1 - x4.
        s2s1 = element_from_word(a3, (2, 1))
        assert s2s1.act((0, 0, 1)) == (0, 1, 1)
        s2s1s3 = element_from_word(a3, (2, 1, 3))
        assert s2s1s3.act((0, 1, 0)) == (1, 1, 1)


class TestCovers:
    def test_covers_of_s1_in_a2(self, a2):
        s1 = simple_reflection(a2, 1)
        got = covers_above(s1)
        assert set(got) == {
            ((1, 1), element_from_word(a2, (2, 1))),
            ((0, 1), element_from_word(a2, (1, 2))),
        }

    def test_longest_element_has_no_covers(self, a2, b2, c2):
        for rs in (a2, b2, c2):
            assert covers_above(enumerate_elements(rs)[-1]) == ()

    @pytest.mark.parametrize(
        "family,rank",
        [("A", 3), ("B", 3), ("C", 3), ("A", 4), ("B", 4), ("C", 4)],
    )
    def test_match_definition(self, family, rank):
        rs = root_system(family, rank)
        for u in enumerate_elements(rs):
            expected = [
                (beta, u * reflection(rs, beta))
                for beta in rs.positive_roots
                if (u * reflection(rs, beta)).length == u.length + 1
            ]
            assert list(covers_above(u)) == expected, u

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("A", 4)])
    def test_the_list_is_its_h_classes_concatenated(self, family, rank):
        # Fresh systems: one asks for each class before the whole list, the
        # other for the whole list first.
        by_class = build_root_system(LieType(family, rank))
        whole = build_root_system(LieType(family, rank))
        twins = zip(enumerate_elements(by_class), enumerate_elements(whole))
        for u, twin in twins:
            classes = [covers_above(u, h) for h in range(rank, 0, -1)]
            full = covers_above(twin)
            assert [c for part in classes for c in part] == [
                (beta, u * reflection(by_class, beta)) for beta, _ in full
            ], u
            assert list(covers_above(u)) == [c for part in classes for c in part]
            for h, part in zip(range(rank, 0, -1), classes):
                assert all(h_root(beta) == h for beta, _ in part), (u, h)
                assert covers_above(twin, h) == tuple(
                    c for c in full if h_root(c[0]) == h
                ), (u, h)

    def test_a_class_outside_1_to_n_is_refused(self, a2):
        for h in (0, 3, INFINITY):
            with pytest.raises(ValueError, match="no h class"):
                covers_above(identity(a2), h)

    def test_atoms_of_identity(self, a2):
        assert set(covers_above(identity(a2))) == {
            ((1, 0), simple_reflection(a2, 1)),
            ((0, 1), simple_reflection(a2, 2)),
        }


class TestBruhat:
    def test_reflexive(self, a3):
        u = element_from_word(a3, (1, 3))
        assert bruhat_leq(u, u)

    def test_golden_pair_a3(self, a3):
        u = element_from_word(a3, (1, 3))
        v = element_from_word(a3, (2, 1, 3, 2, 3))
        assert bruhat_leq(u, v)

    def test_distinct_atoms_incomparable(self, a2):
        assert not bruhat_leq(simple_reflection(a2, 1), simple_reflection(a2, 2))
        assert not bruhat_leq(simple_reflection(a2, 2), simple_reflection(a2, 1))

    @pytest.mark.parametrize(
        "family,rank",
        [("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3), ("A", 4)],
    )
    def test_agrees_with_cover_closure(self, family, rank):
        rs = root_system(family, rank)
        elements = enumerate_elements(rs)
        reachable = {u: {u} for u in elements}
        for u in sorted(elements, key=lambda e: -e.length):
            for _, v in covers_above(u):
                reachable[u] |= reachable[v]
        for u in elements:
            for v in elements:
                assert bruhat_leq(u, v) == (v in reachable[u])

    def test_subword_criterion(self, a3):
        # u <= v iff some reduced word for v has a subword forming a
        # reduced word for u; checked against an independent mask scan.
        from itertools import combinations

        elements = enumerate_elements(a3)
        for v in elements:
            word = v.canonical_word
            for u in elements:
                found = False
                for size in range(len(word) + 1):
                    if size != u.length:
                        continue
                    for keep in combinations(range(len(word)), size):
                        sub = tuple(word[i] for i in keep)
                        if element_from_word(a3, sub) == u:
                            found = True
                            break
                    if found:
                        break
                assert bruhat_leq(u, v) == found


class TestLowerIdeals:
    @pytest.mark.parametrize(
        "family,rank,below",
        [("A", 3, 213), ("B", 3, 847), ("C", 3, 847), ("A", 4, 3781)],
    )
    def test_ideals_are_the_walked_order(self, family, rank, below):
        rs = build_root_system(LieType(family, rank))
        elements = enumerate_elements(rs)
        ideals = lower_ideals(rs)
        assert lower_ideals(rs) is ideals is rs._cache["ideals"]
        found = 0
        for v in elements:
            for k, u in enumerate(elements):
                leq = bruhat_leq(u, v)
                assert (ideals[v] >> k & 1 == 1) == leq, (u, v)
                assert (ideals[u] & ideals[v] == ideals[u]) == leq, (u, v)
                found += leq
        assert found == below


class TestHPair:
    def test_equal_elements_give_infinity(self, a2):
        u = element_from_word(a2, (1, 2))
        assert h_pair(u, u) == INFINITY

    def test_a2_example(self, a2):
        # p^-1 q = s1 s2 s1 whose reduced words all contain the letter 1.
        p = simple_reflection(a2, 1)
        q = element_from_word(a2, (2, 1))
        pq = p.inverse() * q
        assert min(min(w) for w in all_reduced_words(pq)) == 1
        assert h_pair(p, q) == 1

    def test_identity_to_simple_reflection(self, a3):
        for j in range(1, 4):
            assert h_pair(identity(a3), simple_reflection(a3, j)) == j


class TestOmegaDrop:
    def test_a3_golden(self, a3):
        u = element_from_word(a3, (1, 3))  # one-line 2143
        drop, kind = omega_drop(u, 1)
        assert drop == (1, 0, 0) and kind == "root"

    def test_b2_twice_root(self, b2):
        u = element_from_word(b2, (1, 2, 1))
        drop, kind = omega_drop(u, 1)
        assert drop == (2, 2) and kind == "twice-root"

    def test_c2_long_root(self, c2):
        u = element_from_word(c2, (1, 2, 1))
        drop, kind = omega_drop(u, 1)
        assert drop == (2, 1) and kind == "root"

    def test_precondition_verified(self, b2):
        u = element_from_word(b2, (1, 2, 1))
        with pytest.raises(ValueError):
            omega_drop(u, 2)
        with pytest.raises(ValueError):
            omega_drop(identity(b2), 1)

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3)])
    def test_matches_direct_difference(self, family, rank):
        rs = root_system(family, rank)
        e = identity(rs)
        for u in enumerate_elements(rs):
            if u == e:
                continue
            j = h_pair(e, u)
            omega = rs.fundamental_weights[j - 1]
            direct = tuple(a - b for a, b in zip(omega, u.act(omega)))
            drop, _ = omega_drop(u, j)
            assert drop == direct


class TestEnumeration:
    def test_orders(self):
        assert len(enumerate_elements(root_system("A", 2))) == 6
        assert len(enumerate_elements(root_system("B", 2))) == 8
        assert len(enumerate_elements(root_system("A", 3))) == 24

    def test_deterministic_and_sorted(self, a3):
        elements = enumerate_elements(a3)
        assert elements == enumerate_elements(a3)
        keys = [(e.length, e.canonical_word) for e in elements]
        assert keys == sorted(keys)
        assert len(set(elements)) == len(elements)

    def test_bound_is_enforced(self, monkeypatch):
        monkeypatch.setattr(weyl, "MAX_GROUP_ORDER", 5)
        message = "group order 6 of A2 exceeds the enumeration cap 5"
        with pytest.raises(ValueError, match=message):
            enumerate_elements(build_root_system(LieType("A", 2)))

    @pytest.mark.parametrize("family,rank", [("A", 8), ("B", 7), ("C", 7)])
    def test_refusal_caches_nothing(self, family, rank):
        # The smallest groups over the cap are refused before any element
        # is built, and a second call is refused the same way.
        rs = build_root_system(LieType(family, rank))
        message = f"of {family}{rank} exceeds the enumeration cap 100000"
        for enumerate_group in (enumerate_elements, lower_ideals, enumerate_elements):
            with pytest.raises(ValueError, match=message):
                enumerate_group(rs)
        assert "all_elements" not in rs._cache
        assert "ideals" not in rs._cache
