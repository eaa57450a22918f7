"""Acceptance criteria: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact rational arithmetic, the limits
criterion's too.
"""

import time
from fractions import Fraction

from schubres.poly import FactoredPoly, expand
from schubres.rootsys import root_system
from schubres.schubert import (
    chain_contribution,
    enumerate_c0,
    enumerate_max_chains,
    enumerate_reduced_subwords,
    tau_billey,
    tau_chain,
)
from schubres.typea import canonical_word_iv_segments, tau_typea
from schubres.verify import (
    suite_characterization,
    suite_equivalence_typea,
    suite_gkm,
    suite_gt,
    suite_lemmas,
    suite_limits,
    suite_oracle,
    suite_positivity,
)
from schubres.weyl import all_reduced_words, element_from_word, simple_reflection

ALL_GROUPS = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3)]


def report(number, name, failures, cases):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number}] {name}: {status} ({cases} checks)")
    assert not failures, failures[:5]


def run_suites(number, name, results):
    failures = [f for r in results for f in r.failures]
    cases = sum(r.cases for r in results)
    report(number, name, failures, cases)


def test_criterion_1_golden_values():
    failures = []
    checks = 0

    def check(label, fn, expected):
        nonlocal checks
        checks += 1
        start = time.perf_counter()
        got = fn()
        elapsed = time.perf_counter() - start
        if got != expected:
            failures.append(f"{label}: {got!r} != {expected!r}")
        if elapsed >= 1.0:
            failures.append(f"{label}: took {elapsed:.2f}s (limit 1s)")

    a3 = root_system("A", 3)
    u = element_from_word(a3, (1, 3))
    v = element_from_word(a3, (2, 1, 3, 2, 3))
    golden = expand(FactoredPoly(1, ((1, 1, 0), (1, 1, 1)), 3))
    check("tau chain", lambda: tau_chain(u, v), golden)
    check("tau billey given word", lambda: tau_billey(u, v, (2, 1, 3, 2, 3)), golden)
    check("tau billey canonical", lambda: tau_billey(u, v), golden)
    check("tau typea", lambda: tau_typea((2, 1, 4, 3), (3, 4, 2, 1)), golden)

    a2 = root_system("A", 2)
    s1 = simple_reflection(a2, 1)
    w0 = element_from_word(a2, (1, 2, 1))
    check(
        "A2 value",
        lambda: tau_chain(s1, w0).to_text(),
        "a1 + a2",
    )
    check("A2 sigma count", lambda: len(enumerate_max_chains(s1, w0)), 2)
    check("A2 c0 count", lambda: len(enumerate_c0(s1, w0)), 1)

    b2 = root_system("B", 2)
    s2 = simple_reflection(b2, 2)
    vb = element_from_word(b2, (1, 2, 1))

    def b2_chain_value():
        for gamma in enumerate_c0(s2, vb):
            words = tuple(el.canonical_word for el in gamma.elements)
            if words == ((2,), (1, 2), (1, 2, 1)):
                return chain_contribution(gamma, vb)
        return None

    check(
        "B2 half contribution",
        b2_chain_value,
        FactoredPoly(Fraction(1, 2), ((1, 0),), 2),
    )

    c2 = root_system("C", 2)
    s1c = simple_reflection(c2, 1)
    w0c = element_from_word(c2, (1, 2, 1, 2))
    check("C2 sigma count", lambda: len(enumerate_max_chains(s1c, w0c)), 4)
    check("C2 c0 count", lambda: len(enumerate_c0(s1c, w0c)), 1)
    check(
        "C2 reduced words for w0",
        lambda: sorted(all_reduced_words(w0c)),
        [(1, 2, 1, 2), (2, 1, 2, 1)],
    )
    for word in ((1, 2, 1, 2), (2, 1, 2, 1)):
        check(
            f"C2 subword count for {word}",
            lambda w=word: len(enumerate_reduced_subwords(s1c, w)),
            2,
        )

    check(
        "canonical word segments",
        lambda: canonical_word_iv_segments((3, 4, 2, 1)),
        ((2, 1), (3, 2), (3,)),
    )
    report(1, "golden values", failures, checks)


def test_criterion_2_oracle_equivalence():
    results = [
        suite_oracle(root_system(family, rank)) for family, rank in ALL_GROUPS
    ]
    run_suites(2, "oracle equivalence (chain = billey = typea)", results)


def test_criterion_3_positivity_integrality():
    results = [
        suite_positivity(root_system(family, rank)) for family, rank in ALL_GROUPS
    ]
    run_suites(3, "positivity and integrality", results)


def test_criterion_4_gkm():
    results = [
        suite_gkm(root_system(family, rank))
        for family, rank in [("A", 3), ("B", 3), ("C", 3)]
    ]
    run_suites(4, "GKM divisibility with mutation control", results)


def test_criterion_5_characterization():
    results = [
        suite_characterization(root_system(family, rank))
        for family, rank in ALL_GROUPS
    ]
    run_suites(5, "degree, support and normalization", results)


def test_criterion_6_gt_numeric():
    results = [
        suite_gt(root_system(family, rank), samples=20)
        for family, rank in [("A", 2), ("B", 2), ("C", 2)]
    ]
    results.append(suite_gt(root_system("A", 3), samples=20, pairs=50))
    run_suites(6, "moment-map evaluation equals chain polynomial", results)


def test_criterion_7_limits():
    results = [
        suite_limits(root_system(family, rank))
        for family, rank in [("A", 2), ("B", 2), ("C", 2)]
    ]
    run_suites(7, "exact degeneration limits t -> 0", results)


def test_criterion_8_typea_equivalence():
    results = [
        suite_equivalence_typea(root_system("A", 3)),
        suite_equivalence_typea(root_system("A", 4), pairs=200),
    ]
    run_suites(8, "chain-subword equivalence on S4 and S5", results)


def test_criterion_9_lemma_suites():
    results = [
        suite_lemmas(root_system(family, rank))
        for family, rank in [("A", 3), ("B", 3), ("C", 3)]
    ]
    run_suites(9, "order and weight-drop lemmas", results)
