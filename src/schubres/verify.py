"""Cross-verification suites over exhaustive small-rank enumeration.

Every suite in :data:`SUITES` takes the root system it checks as its
first argument, plus keyword options of its own, and returns a
:class:`SuiteResult` with a case count and a list of human-readable
failure strings; an empty failure list means the suite passed.  Suites
are deterministic: randomized ones take an explicit seed.  The command
line passes a suite exactly those of its flags ``--samples``, ``--pairs``
and ``--seed`` that the suite's function names as keyword parameters.
The pairs u <= v come v-major from :func:`bruhat_pairs`, the bits of
the lower ideals, so the pairs of one v share its chain column.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import itemgetter

from .poly import Polynomial, expand
from .record import Record
from .rootsys import RootSystem, div_exact, h_root, is_positive
from .schubert import (
    _subword_step,
    _tau_table,
    chain_contribution,
    enumerate_c0,
    enumerate_max_chains,
    gkm_check_class,
    lambda_minus,
    tau_chain,
    tau_gt_eval,
)
from .typea import _tau_typea, _verify_equivalence, element_to_perm
from .weyl import (
    INFINITY,
    bruhat_leq,
    bruhat_pairs,
    enumerate_elements,
    h_pair,
    identity,
    lower_ideals,
    omega_drop,
    reflection,
    right_descents,
    simple_reflection,
)

DEFAULT_SEED = 20260810
#: The format version every JSON payload carries as ``"schema"``.
SCHEMA = "v1"


class SuiteResult(Record):
    """A suite's name, case count and failure messages; unlike the other
    records it is filled in as the suite runs, so it is mutable and has no
    hash."""

    __slots__ = ("suite", "cases", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, suite: str, cases: int = 0, failures: list | None = None):
        self.suite = suite
        self.cases = cases
        self.failures = [] if failures is None else failures

    @property
    def ok(self):
        return not self.failures

    def check(self, condition, message):
        """Count one case; on failure record ``message()``, which is only
        built then, since formatting polynomials costs more than the
        check itself."""
        self.cases += 1
        if not condition:
            self.failures.append(message())

    def to_json(self):
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "cases": self.cases,
            "failures": list(self.failures),
        }


def _reduced_word_trie(rs: RootSystem):
    """Every reduced word of the group, depth first in lexicographic
    order, as (word, element, subword states).

    The states are those of ``_subword_sums(rs, word)``; the states of a
    word w i are one :func:`_subword_step` from those of w, so each is
    computed once for all the words that share it as a prefix.  A step
    never changes the states it reads, so siblings share their parent's.
    """
    e = identity(rs)
    stack = [((), e, {e: Polynomial.one(rs.rank)})]
    while stack:
        word, v, states = stack.pop()
        yield word, v, states
        descents = right_descents(v)
        for i in range(rs.rank, 0, -1):
            if not descents >> (i - 1) & 1:
                w = v * simple_reflection(rs, i)
                stack.append((word + (i,), w, _subword_step(states, v, i)))


def suite_oracle(rs: RootSystem) -> SuiteResult:
    """The table (:func:`_tau_table`) == subword formula for every reduced
    word of every v: the chain formula on the pairs the table values, and
    on the pairs it copies through ``cosets``.

    In type A additionally compares against the explicit inversion-set
    formula.
    """
    result = SuiteResult(f"oracle[{rs.lie_type}]")
    elements = enumerate_elements(rs)
    table = _tau_table(elements)
    zero = Polynomial.zero(rs.rank)
    for word, v, sums in _reduced_word_trie(rs):
        for u in elements:
            expected = table[u][v]
            got = sums.get(u, zero)
            result.check(
                got == expected,
                lambda: f"tau mismatch at u={u!r}, v={v!r}, word={word}: "
                f"billey {got!r} vs chain {expected!r}",
            )
    if rs.lie_type.family == "A":
        for u, v in bruhat_pairs(rs):
            result.check(
                _tau_typea(u, v) == table[u][v],
                lambda: f"typea mismatch at u={u!r}, v={v!r}",
            )
    return result


def suite_characterization(rs: RootSystem) -> SuiteResult:
    """Degree, support and normalization of every entry of the table
    (:func:`_tau_table`), the one the ``table`` command prints.

    The support is checked against :func:`bruhat_leq`, the descent walk,
    on purpose: the table's zeros come from the lower ideals, so this is
    the suite that cross-checks them with an independent test of u <= v.
    """
    result = SuiteResult(f"characterization[{rs.lie_type}]")
    elements = enumerate_elements(rs)
    table = _tau_table(elements)
    for u in elements:
        result.check(
            table[u][u] == expand(lambda_minus(u)),
            lambda: f"normalization fails at u={u!r}",
        )
        for v in elements:
            value = table[u][v]
            below = bruhat_leq(u, v)
            result.check(
                bool(value) == below,
                lambda: f"support fails at u={u!r}, v={v!r}",
            )
            if value:
                result.check(
                    value.is_homogeneous() and value.degree() == u.length,
                    lambda: f"homogeneity fails at u={u!r}, v={v!r}",
                )
    return result


def suite_positivity(rs: RootSystem) -> SuiteResult:
    """Nonnegativity and integrality of chain contributions and totals.

    Every restriction must be a nonnegative integer polynomial.  So must
    each chain contribution in types A and C; in type B a chain
    contribution can carry halves, and times 2^m, m its number of edges,
    it must be a nonnegative integer polynomial.
    """
    result = SuiteResult(f"positivity[{rs.lie_type}]")
    family = rs.lie_type.family
    for u, v in bruhat_pairs(rs):
        for gamma in enumerate_c0(u, v):
            scale = 2 ** len(gamma.betas) if family == "B" else 1
            scaled = expand(chain_contribution(gamma, v)) * scale
            result.check(
                scaled.den == 1 and min(scaled.terms.values(), default=0) >= 0,
                lambda: f"2^m-scaled contribution not integral at u={u!r}, v={v!r}"
                if family == "B"
                else f"non-integral or negative contribution at u={u!r}, v={v!r}",
            )
        value = tau_chain(u, v)
        result.check(
            value.den == 1 and min(value.terms.values(), default=0) >= 0,
            lambda: "restriction not a nonnegative integer polynomial "
            f"at u={u!r}, v={v!r}",
        )
    return result


def suite_gkm(rs: RootSystem) -> SuiteResult:
    """Every row of the table (:func:`_tau_table`), a class, passes the
    edge-divisibility check; a mutated class fails it."""
    result = SuiteResult(f"gkm[{rs.lie_type}]")
    elements = enumerate_elements(rs)
    table = _tau_table(elements)
    for u in elements:
        report = gkm_check_class(rs, table[u])
        result.cases += report.edges_checked
        if not report.ok:
            result.failures.extend(
                f"class of {u!r}: {failure.describe()}"
                for failure in report.failures
            )
    # Mutation check: perturbing one vertex value must break divisibility.
    values = dict(table[simple_reflection(rs, 1)])
    values[identity(rs)] = values[identity(rs)] + Polynomial.one(rs.rank)
    mutated = gkm_check_class(rs, values)
    result.check(
        not mutated.ok,
        lambda: "mutated class unexpectedly passes the edge-divisibility check",
    )
    return result


def suite_cosets(rs: RootSystem) -> SuiteResult:
    """Parabolic coset invariance, tau_u(v) = tau_u(v s_j) for every u,
    every j with u s_j > u and every v: the chain value of (u, v) against
    the table's entry at (u, v s_j).

    Such a class of u is pulled back from G/P_j (Kostant-Kumar 1986), but
    the chain formula does not show it: the chains from u to v and to
    v s_j are different sets.  The table (:func:`_tau_table`) values a
    pair by the chain formula only when D_R(v) lies in D_R(u) and copies
    every other pair u <= v from its row, so this suite checks each copied
    entry against a chain value; the other suites that read the table test
    the chain formula on the valued pairs only.  The chain values are
    taken v-major, one column at a time: :func:`tau_chain` on the pairs of
    :func:`bruhat_pairs`, zero on every other pair."""
    result = SuiteResult(f"cosets[{rs.lie_type}]")
    elements = enumerate_elements(rs)
    table = _tau_table(elements)
    zero = Polynomial.zero(rs.rank)
    ascents = {
        u: [
            (j, simple_reflection(rs, j))
            for j in range(1, rs.rank + 1)
            if not right_descents(u) >> (j - 1) & 1
        ]
        for u in elements
    }
    for v, pairs in itertools.groupby(bruhat_pairs(rs), key=itemgetter(1)):
        chain = dict.fromkeys(elements, zero)
        chain.update((u, tau_chain(u, v)) for u, _ in pairs)
        for u in elements:
            value, row = chain[u], table[u]
            for j, s in ascents[u]:
                result.check(
                    value == row[v * s],
                    lambda: f"coset invariance fails at u={u!r}, v={v!r}, j={j}",
                )
    return result


def _random_alpha(rng, rank):
    return tuple(Fraction(rng.randint(1, 10**6)) for _ in range(rank))


def _random_mu(rng, rank):
    return tuple(Fraction(rng.randint(1, 1000)) for _ in range(rank))


def suite_gt(
    rs: RootSystem,
    samples: int = 20,
    seed: int = DEFAULT_SEED,
    pairs: int | None = None,
) -> SuiteResult:
    """Moment-map evaluation equals the chain polynomial, exactly, at
    random points, on every pair u <= v or ``pairs`` drawn ones.

    The pairs come from :func:`bruhat_pairs` and are visited v-major, so
    each pair's chain value and moment-map sums read the one column of v,
    which decides u <= v with no walk of the order; their points (alpha,
    then mu, per sample) are drawn pair by pair in the drawn order, each
    pair's kept until it is visited.  No point is redrawn: for p < v every
    p omega_i - v omega_i has nonnegative coordinates (:func:`suite_lemmas`),
    nonzero at i = h_pair(p, v), and alpha and mu are positive, so no
    denominator of :func:`tau_gt_eval` vanishes."""
    result = SuiteResult(f"gt[{rs.lie_type}]")
    rng = random.Random(seed)
    drawn = bruhat_pairs(rs)
    if pairs is not None and pairs < len(drawn):
        drawn = rng.sample(drawn, pairs)
    position = {v: k for k, v in enumerate(enumerate_elements(rs))}
    points = {}
    undrawn = iter(range(len(drawn)))
    for k in sorted(range(len(drawn)), key=lambda k: position[drawn[k][1]]):
        while k not in points:
            points[next(undrawn)] = [
                (_random_alpha(rng, rs.rank), _random_mu(rng, rs.rank))
                for _ in range(samples)
            ]
        u, v = drawn[k]
        value_poly = tau_chain(u, v)
        for alpha, mu in points.pop(k):
            result.check(
                tau_gt_eval(u, v, mu, alpha) == value_poly.evaluate(alpha),
                lambda: f"moment-map sum disagrees at u={u!r}, v={v!r}, alpha={alpha}",
            )
    return result


def suite_limits(rs: RootSystem) -> SuiteResult:
    """Exact t -> 0 limits along mu_i = t^(3^(i-1)): the moment-map term of
    a chain outside C_0 tends to 0, that of a C_0 chain to its contribution.

    An edge p -beta-> of a chain to v has the ratio of <mu, beta^vee> to
    <mu, (p omega - v omega)(alpha)>, sums whose i-th terms carry
    t^(3^(i-1)).  The powers of 3 are distinct, so no two terms cancel:
    each sum leads with its first nonzero term, at h = h(beta) and at
    k = h_pair(p, v).  The edge has t-valuation 3^(h-1) - 3^(k-1) and the
    leading coefficient <omega_h, beta^vee> over p omega_k - v omega_k, the
    difference of omega images over scale.  By the two lemmas of
    :func:`suite_lemmas`, every cover p -beta-> below v has h >= k, so no
    edge's valuation is negative, and it is 0 exactly when h = k.  A chain
    vanishes if its valuation sum is positive; at 0 its limit is
    lambda_minus(v) times its leading coefficients, checked against its
    contribution cross-multiplied.
    """
    result = SuiteResult(f"limits[{rs.lie_type}]")
    for u, v in bruhat_pairs(rs):
        surviving = set(enumerate_c0(u, v))
        # h_pair(p, v) once per element p of [u, v), for all its chains.
        h_to_v = {}
        for gamma in enumerate_max_chains(u, v):
            edges = []
            for p, beta in zip(gamma.elements, gamma.betas):
                k = h_to_v.get(p)
                if k is None:
                    k = h_to_v[p] = h_pair(p, v)
                edges.append((p, beta, h_root(beta), k))
            valuation = sum(3 ** (h - 1) - 3 ** (k - 1) for _, _, h, k in edges)
            if valuation == 0 and gamma in surviving:
                cleared, pairing = expand(chain_contribution(gamma, v)), 1
                for p, beta, h, k in edges:
                    pairing *= rs.pairings(beta)[h - 1]
                    low = zip(p.omega_images[k - 1], v.omega_images[k - 1])
                    form = div_exact(tuple(a - b for a, b in low), rs.scale)
                    cleared = cleared.times_linear(form)
                holds = expand(lambda_minus(v)) * pairing == cleared
            else:
                holds = valuation > 0 and gamma not in surviving
            result.check(
                holds,
                lambda: f"{'surviving' if gamma in surviving else 'vanishing'} "
                f"chain off its limit at u={u!r}, v={v!r}: valuation {valuation}",
            )
    return result


def suite_equivalence_typea(
    rs: RootSystem,
    pairs: int | None = None,
    seed: int = DEFAULT_SEED,
) -> SuiteResult:
    """Chain-to-subword bijection with termwise equal contributions, in type A."""
    result = SuiteResult(f"equivalence-typeA[S{rs.rank + 1}]")
    elements = enumerate_elements(rs)
    n = len(elements)
    # Pair k is (elements[k // n], elements[k % n]); sampling the indices
    # draws the same pairs as sampling the list of all n^2 pairs would.
    # They are visited v-major, so that the pairs of one v share its
    # chain column.
    indices = range(n * n)
    if pairs is not None and pairs < len(indices):
        indices = random.Random(seed).sample(indices, pairs)
    for k in sorted(indices, key=lambda k: (k % n, k // n)):
        a, b = divmod(k, n)
        report = _verify_equivalence(elements[a], elements[b])
        result.check(
            report.ok,
            lambda: f"equivalence fails at u={report.u}, v={report.v}: "
            f"{report.chain_count} chains vs {report.subword_count} subwords, "
            f"{len(report.contribution_mismatches)} mismatches",
        )
    return result


def suite_lemmas(rs: RootSystem) -> SuiteResult:
    """Exhaustive checks of the order-theoretic and weight-drop lemmas."""
    result = SuiteResult(f"lemmas[{rs.lie_type}]")
    elements = enumerate_elements(rs)
    e = identity(rs)

    # Weight differences p omega_i - q omega_i are nonnegative for p < q;
    # compared on the images scaled to integers by a positive factor.
    strict_pairs = [(p, q) for p, q in bruhat_pairs(rs) if p != q]
    for p, q in strict_pairs:
        for p_image, q_image in zip(p.omega_images, q.omega_images):
            diff = tuple(a - b for a, b in zip(p_image, q_image))
            result.check(
                all(c >= 0 for c in diff),
                lambda: "weight difference has a negative coordinate: "
                f"p={p!r}, q={q!r}",
            )

    # h(p, q) equals the minimum letter of a reduced word for p^-1 q.
    for p in elements:
        for q in elements:
            h = h_pair(p, q)
            if p == q:
                result.check(h == INFINITY, lambda: f"h(p, p) != infinity at p={p!r}")
            else:
                word = (p.inverse() * q).canonical_word
                result.check(
                    h == min(word),
                    lambda: f"h mismatch at p={p!r}, q={q!r}: {h} vs min{word}",
                )

    # Sandwich and monotonicity statements on triples p < q < r: q runs
    # over the strict pairs (q, r), and p < q when ideal(p) lies in ideal(q).
    ideals = lower_ideals(rs)
    below = {r: [] for r in elements}
    for q, r in strict_pairs:
        below[r].append(q)
    for p, r in strict_pairs:
        ideal = ideals[p]
        between = [q for q in below[r] if q != p and ideals[q] & ideal == ideal]
        h_pr = h_pair(p, r)
        fixed = [
            i
            for i, image in enumerate(p.omega_images)
            if image == r.omega_images[i]
        ]
        for q in between:
            for i in fixed:
                result.check(
                    p.omega_images[i] == q.omega_images[i],
                    lambda: f"sandwich fails at p={p!r}, q={q!r}, r={r!r}, i={i + 1}",
                )
            result.check(
                h_pr <= h_pair(p, q) and h_pr <= h_pair(q, r),
                lambda: f"h monotonicity fails at p={p!r}, q={q!r}, r={r!r}",
            )

    # Ascending reflection steps: h(p, p s_beta) = h(beta).
    for p in elements:
        for beta in rs.positive_roots:
            if not is_positive(p.act(beta)):
                continue
            q = p * reflection(rs, beta)
            result.check(
                h_pair(p, q) == h_root(beta),
                lambda: "h of an ascending step differs from h of its root "
                f"at p={p!r}, beta={beta}",
            )

    # Weight drops match their closed forms, with the announced
    # decomposition existing and the root/twice-root kind as classified.
    for u in elements:
        if u == e:
            continue
        j = h_pair(e, u)
        drop, kind = omega_drop(u, j)
        matches = _technical_drop_forms(rs, u, j)
        result.check(
            len(matches) == 1,
            lambda: "expected exactly one decomposition "
            f"at u={u!r}, found {len(matches)}",
        )
        if len(matches) == 1:
            form, expected_kind = matches[0]
            result.check(
                drop == form and kind == expected_kind,
                lambda: f"weight drop mismatch at u={u!r}: {drop} ({kind}) vs "
                f"{form} ({expected_kind})",
            )
        result.check(
            h_root(drop) == j,
            lambda: f"weight drop has wrong h at u={u!r}",
        )
        if rs.lie_type.family == "A":
            perm = element_to_perm(u)
            n = rs.rank + 1
            expected = tuple(
                1 if j <= k <= perm[j - 1] - 1 else 0 for k in range(1, n)
            )
            result.check(
                drop == expected,
                lambda: f"type A drop is not x_j - x_u(j) at u={u!r}",
            )
    return result


def _prefix_reduced_quotient(u, prefix_word):
    """The w with u = s_prefix w and lengths adding, or None.

    Left-multiplying by the prefix letters in order builds the inverse of
    the prefix product, since the letters are involutions.
    """
    rs = u.rs
    w = u
    for letter in prefix_word:
        w = simple_reflection(rs, letter) * w
    if w.length == u.length - len(prefix_word):
        return w
    return None


def _technical_drop_forms(rs, u, j):
    """All decompositions of u announced by the weight-drop analysis,
    with the closed form each one yields and its kind."""
    n = rs.rank
    family = rs.lie_type.family
    e_h = lambda w: h_pair(identity(rs), w)
    matches = []
    # Descending-run prefix s_k s_{k-1} ... s_j.
    for k in range(j, n + 1):
        prefix = tuple(range(k, j - 1, -1))
        w = _prefix_reduced_quotient(u, prefix)
        if w is not None and e_h(w) > j:
            if family == "B" and k == n and j < n:
                form = tuple(
                    (2 if a == n else (1 if j <= a <= n - 1 else 0))
                    for a in range(1, n + 1)
                )
            else:
                form = tuple(1 if j <= a <= k else 0 for a in range(1, n + 1))
            matches.append((form, "root"))
    if family in ("B", "C"):
        # Turnaround prefix s_t ... s_{n-1} s_n s_{n-1} ... s_j.
        for t in range(j, n):
            prefix = tuple(range(t, n + 1)) + tuple(range(n - 1, j - 1, -1))
            w = _prefix_reduced_quotient(u, prefix)
            if w is not None and e_h(w) > j:
                coords = []
                for a in range(1, n + 1):
                    if j <= a <= t - 1:
                        coords.append(1)
                    elif t <= a <= n - 1:
                        coords.append(2)
                    elif a == n:
                        coords.append(2 if family == "B" else 1)
                    else:
                        coords.append(0)
                kind = "twice-root" if family == "B" and t == j else "root"
                matches.append((tuple(coords), kind))
    return matches


SUITES = {
    "oracle": suite_oracle,
    "characterization": suite_characterization,
    "positivity": suite_positivity,
    "gkm": suite_gkm,
    "cosets": suite_cosets,
    "gt": suite_gt,
    "limits": suite_limits,
    "lemmas": suite_lemmas,
    "equivalence-typeA": suite_equivalence_typea,
}
#: The one type a suite runs in, for a suite that runs in one type only.
SUITE_TYPE = {"equivalence-typeA": "A"}


def default_rank(name: str, family: str) -> int:
    """The desk-scale default rank of suite ``name`` in type ``family``: 4 in A,
    3 in B and C.  limits evaluates every maximal chain of every pair (986008
    in A4), and equivalence-typeA every pair, so both stay at 3."""
    return 3 if family != "A" or name in ("limits", "equivalence-typeA") else 4
