"""Suite bookkeeping: case counts and failure messages."""

import random
from fractions import Fraction

import pytest

from schubres import schubert, verify, weyl
from schubres.poly import FactoredPoly, Polynomial
from schubres.rootsys import LieType, build_root_system, root_system
from schubres.schubert import (
    _subword_sums,
    _tau_table,
    enumerate_c0,
    tau_billey,
    tau_chain,
)
from schubres.verify import (
    SuiteResult,
    suite_characterization,
    suite_lemmas,
    suite_oracle,
    suite_positivity,
)
from schubres.weyl import (
    all_reduced_words,
    bruhat_leq,
    element_from_word,
    enumerate_elements,
    identity,
    simple_reflection,
)


def test_message_is_built_only_on_failure():
    def unreachable():
        raise AssertionError("message built for a passing case")

    result = SuiteResult("demo")
    result.check(True, unreachable)
    result.check(False, lambda: "second case fails")
    assert result.cases == 2
    assert result.failures == ["second case fails"]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("A", 4)])
def test_bruhat_pairs_are_those_of_the_walk_in_order(family, rank):
    rs = build_root_system(LieType(family, rank))
    elements = enumerate_elements(rs)
    walked = [(u, v) for v in elements for u in elements if bruhat_leq(u, v)]
    assert verify.bruhat_pairs(rs) == walked
    # One decoder of the ideal bits: verify reads the order layer's.
    assert verify.bruhat_pairs is weyl.bruhat_pairs


def test_mutated_value_gives_exact_messages(monkeypatch):
    # Perturb the chain value at (s1, s1) the way the gkm suite's mutation
    # control does; the subword and type A routes must then disagree with it.
    # The suite's table values each pair below v from the column of v.
    rs = root_system("A", 1)
    s1 = simple_reflection(rs, 1)
    real = schubert._ChainColumn.value

    def mutated(column, u):
        value = real(column, u)
        if (u, column.v) == (s1, s1):
            value = value + Polynomial.one(rs.rank)
        return value

    monkeypatch.setattr(schubert._ChainColumn, "value", mutated)
    result = suite_oracle(rs)
    assert result.cases == 7
    assert result.failures == [
        "tau mismatch at u=<A1 1>, v=<A1 1>, word=(1,): "
        "billey Polynomial(a1) vs chain Polynomial(1 + a1)",
        "typea mismatch at u=<A1 1>, v=<A1 1>",
    ]


def test_half_integer_total_fails_positivity_in_type_b(monkeypatch):
    # tau_e(s1) = 1 has one chain of one edge, so 3/2 lies in the 2^-L Z
    # that single type-B chain contributions may reach; a total may not.
    rs = root_system("B", 2)
    e = identity(rs)
    s1 = simple_reflection(rs, 1)
    real = schubert.tau_chain

    def mutated(u, v):
        value = real(u, v)
        if (u, v) == (e, s1):
            value = value + Polynomial.one(rs.rank) * Fraction(1, 2)
        return value

    cases = suite_positivity(rs).cases
    monkeypatch.setattr(verify, "tau_chain", mutated)
    result = suite_positivity(rs)
    assert result.cases == cases
    assert result.failures == [
        "restriction not a nonnegative integer polynomial at u=<B2 e>, v=<B2 1>",
    ]


def test_mutated_subword_step_gives_exact_messages(monkeypatch):
    # Doubling every selected letter's factor breaks the subword route at
    # each word that selects a letter.  A step is linear in its factor, so
    # with the factor doubled each state gains twice what it gains by the
    # step.
    rs = root_system("A", 1)
    real = verify._subword_step
    zero = Polynomial.zero(rs.rank)

    def mutated(states, w, i):
        stepped = real(states, w, i)
        return {x: p * 2 - states.get(x, zero) for x, p in stepped.items()}

    monkeypatch.setattr(verify, "_subword_step", mutated)
    result = suite_oracle(rs)
    assert result.cases == 7
    assert result.failures == [
        "tau mismatch at u=<A1 1>, v=<A1 1>, word=(1,): "
        "billey Polynomial(2*a1) vs chain Polynomial(a1)",
    ]


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_trie_visits_each_reduced_word_once(family):
    rs = root_system(family, 3)
    elements = enumerate_elements(rs)
    visited = list(verify._reduced_word_trie(rs))
    words = [word for word, _, _ in visited]
    assert len(words) == sum(len(all_reduced_words(v)) for v in elements)
    assert set(words) == {w for v in elements for w in all_reduced_words(v)}
    assert words == sorted(words)
    for word, v, states in visited:
        assert element_from_word(rs, word) == v
        assert states == _subword_sums(rs, word), word


def test_trie_composes_each_right_neighbour_once(monkeypatch):
    # Every step of the trie and of its subword states is a product
    # v * s_i, and each one met before is read back from v: on a fresh B3
    # system (48 elements, rank 3) at most |W| * rank = 144 permutations
    # are composed, against 3896 when every product is composed anew.
    rs = build_root_system(LieType("B", 3))
    identity(rs)  # builds the root table, whose products are not counted
    composed = []
    real = weyl._element

    def counted(rs, perm):
        composed.append(perm)
        return real(rs, perm)

    monkeypatch.setattr(weyl, "_element", counted)
    # 209 reduced words: the oracle's 10032 cases are 209 words x 48 u.
    assert len(list(verify._reduced_word_trie(rs))) == 209
    assert len(composed) <= 48 * 3


@pytest.fixture
def built_columns(monkeypatch):
    """The top element of every chain column built, in order."""
    built = []

    class Counting(schubert._ChainColumn):
        __slots__ = ()

        def __init__(self, v):
            built.append(v)
            super().__init__(v)

    monkeypatch.setattr(schubert, "_ChainColumn", Counting)
    return built


@pytest.mark.parametrize(
    "suite,options,cases,builds,columns",
    [
        pytest.param(
            verify.suite_positivity, {}, 2366, 48, 48, id="suite_positivity-2366-48"
        ),
        pytest.param(
            verify.suite_limits, {}, 51630, 47, 47, id="suite_limits-51630-47"
        ),
        pytest.param(
            verify.suite_gt, {"samples": 1}, 847, 48, 48, id="suite_gt-847-48"
        ),
        pytest.param(
            verify.suite_gt,
            {"samples": 1, "pairs": 50, "seed": 3},
            50,
            24,
            24,
            id="suite_gt-sampled-50-24",
        ),
    ],
)
def test_suites_build_one_column_per_top_element(
    built_columns, suite, options, cases, builds, columns
):
    # A fresh system, so no column is cached; visiting each v's pairs
    # together builds the column of each of the 48 elements at most once
    # a pass.  The chain walks of limits need none for the identity, whose
    # only pair is (e, e); positivity's tau_chain(e, e) reads its column.
    # gt keeps the points of each sampled pair as drawn, but values the
    # pairs and sums their moment-map paths v-major: each column once.
    rs = build_root_system(LieType("B", 3))
    result = suite(rs, **options)
    assert (result.cases, result.failures) == (cases, [])
    assert (len(built_columns), len(set(built_columns))) == (builds, columns)
    assert len(enumerate_elements(rs)) == 48


@pytest.mark.parametrize(
    "options,cases,columns",
    [
        pytest.param({}, 576, 24, id="every-pair"),
        pytest.param({"pairs": 50, "seed": 3}, 50, 23, id="sampled"),
    ],
)
def test_equivalence_builds_one_column_per_top_element(
    built_columns, options, cases, columns
):
    # The pairs are visited v-major, all of them or a seeded sample, so
    # each column is built once.  Every pair reads the column of its v,
    # the identity's too, since the column decides whether u <= v.
    rs = build_root_system(LieType("A", 3))
    result = verify.suite_equivalence_typea(rs, **options)
    assert (result.cases, result.failures) == (cases, [])
    assert (len(built_columns), len(set(built_columns))) == (columns, columns)


@pytest.mark.parametrize("every,failures", [(False, 1), (True, 38)])
def test_limits_fail_on_a_doubled_contribution(monkeypatch, every, failures):
    # Doubling the contribution of the C_0 chain e -> s1 (or of every C_0
    # chain) moves it off its exact limit.
    rs = root_system("B", 2)
    chain = schubert.Chain((identity(rs), simple_reflection(rs, 1)), ((1, 0),))
    real = verify.chain_contribution

    def doubled(gamma, v):
        got = real(gamma, v)
        if every or gamma == chain:
            got = FactoredPoly(2 * got.scalar, got.factors, got.rank)
        return got

    monkeypatch.setattr(verify, "chain_contribution", doubled)
    result = verify.suite_limits(rs)
    assert result.cases == 60
    assert len(result.failures) == failures
    assert "surviving chain off its limit at u=<B2 e>, v=<B2 1>: valuation 0" in (
        result.failures
    )


@pytest.mark.parametrize("every,failures", [(False, 1), (True, 22)])
def test_limits_fail_on_a_non_monotone_survivor(monkeypatch, every, failures):
    # Counting the chain e -> s2 -> s1 s2 (or every maximal chain) as
    # surviving fails it: its t-valuation is 3 - 1 = 2, not 0.
    rs = root_system("C", 2)
    pair = (identity(rs), element_from_word(rs, (1, 2)))
    real = verify.enumerate_c0

    def widened(u, v):
        if every or (u, v) == pair:
            return verify.enumerate_max_chains(u, v)
        return real(u, v)

    monkeypatch.setattr(verify, "enumerate_c0", widened)
    result = verify.suite_limits(rs)
    assert result.cases == 60
    assert len(result.failures) == failures
    assert "surviving chain off its limit at u=<C2 e>, v=<C2 1,2>: valuation 2" in (
        result.failures
    )


def test_limits_fail_on_a_dropped_survivor(monkeypatch):
    # Leaving the C_0 chain e -> s1 -> s1 s2 out of C_0 fails it: its
    # t-valuation is 0, so it does not vanish.
    rs = root_system("C", 2)
    pair = (identity(rs), element_from_word(rs, (1, 2)))
    real = verify.enumerate_c0
    monkeypatch.setattr(
        verify, "enumerate_c0", lambda u, v: () if (u, v) == pair else real(u, v)
    )
    result = verify.suite_limits(rs)
    assert (result.cases, result.failures) == (
        60,
        ["vanishing chain off its limit at u=<C2 e>, v=<C2 1,2>: valuation 0"],
    )


@pytest.mark.parametrize("family,cases", [("A", 1797), ("B", 10032), ("C", 10032)])
def test_oracle_case_counts(family, cases):
    result = suite_oracle(root_system(family, 3))
    assert result.failures == []
    assert result.cases == cases


@pytest.mark.parametrize("family,cases", [("A", 2101), ("B", 11808), ("C", 11808)])
def test_lemmas_case_counts(family, cases):
    result = suite_lemmas(root_system(family, 3))
    assert result.failures == []
    assert result.cases == cases


def test_no_per_system_cache_is_keyed_by_a_pair():
    # Single queries, a table fill and two suites leave one table per
    # element, cover, root or mask, and the one column of the last v.
    rs = build_root_system(LieType("B", 3))
    u, v = element_from_word(rs, (2,)), element_from_word(rs, (1, 2, 3, 2))
    assert tau_chain(u, v) == tau_billey(u, v)
    assert list(enumerate_c0(u, v))
    assert all_reduced_words(v)
    _tau_table(enumerate_elements(rs))
    assert suite_lemmas(rs).ok and suite_characterization(rs).ok
    assert set(rs._cache) == {
        "elements", "root_table", "covers_above", "all_elements", "ideals",
        "checked_covers", "chain_column",
    }


def test_bruhat_leq_stores_nothing():
    rs = build_root_system(LieType("B", 3))
    u, v = element_from_word(rs, (2,)), element_from_word(rs, (1, 2, 3, 2))
    assert set(rs._cache) == {"root_table", "elements"}
    assert bruhat_leq(u, v) and not bruhat_leq(v, u)
    assert set(rs._cache) == {"root_table", "elements"}


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_equivalence_sample_draws_the_pairs_of_the_full_list(monkeypatch, n, seed):
    # Sampling pair indices must draw what sampling the list of all N^2
    # pairs drew, so a seed keeps naming the same cases; they are visited
    # v-major, in the order of the elements.
    seen = []
    real = verify._verify_equivalence

    def recording(u, v):
        seen.append((u, v))
        return real(u, v)

    monkeypatch.setattr(verify, "_verify_equivalence", recording)
    rs = build_root_system(LieType("A", n - 1))
    result = verify.suite_equivalence_typea(rs, pairs=10, seed=seed)
    elements = enumerate_elements(rs)
    pairs = [(u, v) for u in elements for v in elements]
    position = {el: k for k, el in enumerate(elements)}
    drawn = random.Random(seed).sample(pairs, 10)
    assert seen == sorted(drawn, key=lambda uv: (position[uv[1]], position[uv[0]]))
    assert (result.cases, result.failures) == (10, [])


def test_gt_keeps_the_drawn_points_and_walks_v_major(monkeypatch):
    # The points are drawn pair by pair in the drawn order, alpha then mu
    # per sample; each pair keeps its points while the pairs are visited
    # v-major, in a stable sort by v's position in the enumeration.
    seen = []
    real = verify.tau_gt_eval

    def recording(u, v, mu, alpha_values):
        seen.append((u, v, mu, alpha_values))
        return real(u, v, mu, alpha_values)

    monkeypatch.setattr(verify, "tau_gt_eval", recording)
    rs = build_root_system(LieType("B", 3))
    result = verify.suite_gt(rs, samples=2, pairs=20, seed=3)
    rng = random.Random(3)
    expected = []
    for u, v in rng.sample(weyl.bruhat_pairs(rs), 20):
        for _ in range(2):
            alpha = tuple(Fraction(rng.randint(1, 10**6)) for _ in range(3))
            mu = tuple(Fraction(rng.randint(1, 1000)) for _ in range(3))
            expected.append((u, v, mu, alpha))
    position = {el: k for k, el in enumerate(enumerate_elements(rs))}
    assert seen == sorted(expected, key=lambda call: position[call[1]])
    assert (result.cases, result.failures) == (40, [])


@pytest.mark.parametrize(
    "family,options,cases",
    [
        pytest.param("A", {"samples": 1}, 213, id="A3-every-pair"),
        pytest.param("B", {"samples": 2, "pairs": 50, "seed": 3}, 100, id="B3-sampled"),
    ],
)
def test_gt_walks_no_pair_of_the_order(monkeypatch, family, options, cases):
    # Every pair comes from bruhat_pairs, and the column of v decides its
    # support: neither its chain value nor its moment-map sums walk the
    # order, and the columns read their covers off the lower ideals.
    walks = []
    real = schubert.bruhat_leq

    def counting(u, v):
        walks.append((u, v))
        return real(u, v)

    monkeypatch.setattr(schubert, "bruhat_leq", counting)
    result = verify.suite_gt(build_root_system(LieType(family, 3)), **options)
    assert (result.cases, result.failures) == (cases, [])
    assert walks == []


@pytest.mark.parametrize(
    "family,rank,cases", [("A", 3, 864), ("B", 3, 3456), ("C", 3, 3456), ("A", 4, 28800)]
)
def test_cosets_case_counts(family, rank, cases):
    result = verify.suite_cosets(root_system(family, rank))
    assert (result.cases, result.failures) == (cases, [])


def test_a_perturbed_entry_fails_cosets(monkeypatch):
    # tau_s1(s1) is one more than the chain value, wherever it is read:
    # the table copies it to (s1, s1 s2), and the suite's own chain value
    # at (s1, s1) equals that copy.  Only the chain value at (s1, s1 s2)
    # then differs from the table's entry at (s1, s1), its neighbour
    # under s2, an ascent of s1.
    rs = build_root_system(LieType("A", 2))
    s1 = simple_reflection(rs, 1)
    real = schubert._ChainColumn.value

    def mutated(column, u):
        value = real(column, u)
        if (u, column.v) == (s1, s1):
            value = value + Polynomial.one(rs.rank)
        return value

    monkeypatch.setattr(schubert._ChainColumn, "value", mutated)
    result = verify.suite_cosets(rs)
    assert result.cases == 36
    assert result.failures == [
        "coset invariance fails at u=<A2 1>, v=<A2 1,2>, j=2",
    ]


def test_a_copy_from_a_wrong_source_fails_cosets(monkeypatch):
    # The fill copies (s1, s1 s2 s1) of A3 from v s1 = s1 s2, through s1,
    # a descent of u, instead of from v s2 = s2 s1: tau_s1 is alpha_1 at
    # s1 s2 and alpha_1 + alpha_2 at s1 s2 s1.  The fault is injected by
    # handing the fill s1 as the reflection of that one pair; the wrong
    # entry spreads to the entries of the row copied from it.
    rs = build_root_system(LieType("A", 3))
    u, v = simple_reflection(rs, 1), element_from_word(rs, (1, 2, 1))
    real_pairs, real_reflection = schubert.bruhat_pairs, schubert.simple_reflection
    current = []

    def pairs(rs):
        for pair in real_pairs(rs):
            current[:] = pair
            yield pair

    def source(rs, j):
        return real_reflection(rs, 1 if current == [u, v] else j)

    monkeypatch.setattr(schubert, "bruhat_pairs", pairs)
    monkeypatch.setattr(schubert, "simple_reflection", source)
    result = verify.suite_cosets(rs)
    assert result.cases == 864
    assert result.failures == [
        "coset invariance fails at u=<A3 1>, v=<A3 2,1>, j=2",
        "coset invariance fails at u=<A3 1>, v=<A3 1,2,1>, j=3",
        "coset invariance fails at u=<A3 1>, v=<A3 1,2,1,3>, j=2",
        "coset invariance fails at u=<A3 1>, v=<A3 1,2,1,3>, j=3",
        "coset invariance fails at u=<A3 1>, v=<A3 2,1,3,2>, j=3",
        "coset invariance fails at u=<A3 1>, v=<A3 1,2,1,3,2>, j=2",
    ]
