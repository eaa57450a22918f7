"""Type-A specializations over one-line permutations.

Permutations of {1, ..., n} are tuples of their values and correspond to
the rank n-1 root system; right multiplication by the transposition
(i, j) swaps the one-line entries at positions i and j.  The x <-> alpha
translation x_a - x_b = alpha_a + ... + alpha_{b-1} lives entirely in
this module; the core stays in the simple-root basis.

The canonical word of v has at index j a descending run of c_j letters,
c the Lehmer code of v; the chain edge of root x_a - x_b deletes (p(a), v(a)).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import FactoredPoly, Polynomial, expand
from .record import Record
from .rootsys import RootSystem, h_root, root_system
from .schubert import (
    Chain,
    chain_contribution,
    enumerate_c0,
    enumerate_reduced_subwords,
    f_i_map,
    subword_contribution,
)
from .weyl import WeylElement, element_from_word, root_table

#: A permutation in one-line notation (the images u(1), ..., u(n)).
Permutation = tuple


def parse_oneline(text: str) -> Permutation:
    """Parse one-line notation: digit string for n <= 9, commas above.

    >>> parse_oneline("3421")
    (3, 4, 2, 1)
    >>> parse_oneline("10,3,2,1,4,5,6,7,8,9")[0]
    10
    """
    text = text.strip()
    if "," in text:
        values = tuple(int(part) for part in text.split(","))
    else:
        values = tuple(int(ch) for ch in text)
    _check_permutation(values)
    return values


def format_oneline(p: Permutation) -> str:
    """One-line notation as :func:`parse_oneline` reads it back.

    >>> format_oneline((3, 4, 2, 1))
    '3421'
    >>> parse_oneline(format_oneline(tuple(range(1, 11))))[-1]
    10
    """
    return ("," if len(p) > 9 else "").join(map(str, p))


def _check_permutation(values):
    n = len(values)
    if sorted(values) != list(range(1, n + 1)):
        raise ValueError(f"{values} is not a permutation of 1..{n}")


def typea_system(n: int) -> RootSystem:
    """A new rank n-1 system acting on permutations of n values."""
    if n < 2:
        raise ValueError("need at least two values")
    return root_system("A", n - 1)


def perm_to_element(rs: RootSystem, p: Permutation) -> WeylElement:
    """Codec: one-line permutation to the group element acting on roots."""
    _check_permutation(p)
    if rs.lie_type.family != "A" or rs.rank != len(p) - 1:
        raise ValueError(
            f"size mismatch: permutation of {len(p)} values needs type A rank {len(p) - 1}"
        )
    return element_from_word(rs, canonical_word_iv(p))


def element_to_perm(u: WeylElement) -> Permutation:
    """Inverse codec, read off the root table.

    The coordinate sum of x_a - x_b = alpha_a + ... + alpha_{b-1} is
    b - a, so the root u(alpha_j) = x_{u(j)} - x_{u(j+1)} gives the step
    u(j+1) - u(j) whatever its sign; the least value is 1.
    """
    if u.rs.lie_type.family != "A":
        raise ValueError("only type A elements correspond to permutations")
    table = root_table(u.rs)
    values = [0]
    for k in table.simple:
        values.append(values[-1] + sum(table.roots[u.perm[k]]))
    low = min(values) - 1
    return tuple([x - low for x in values])


def inv_set(v: Permutation) -> frozenset:
    """Inversions as value pairs.

    >>> sorted(inv_set((2, 1, 4, 3)))
    [(1, 2), (3, 4)]
    """
    _check_permutation(v)
    n = len(v)
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if v[i] > v[j]:
                pairs.add((v[j], v[i]))
    return frozenset(pairs)


def xdiff_to_alpha(a: int, b: int, n: int):
    """Translate x_a - x_b (a < b) to alpha coordinates of rank n-1."""
    if not 1 <= a < b <= n:
        raise ValueError(f"need 1 <= a < b <= {n}")
    return tuple(1 if a <= k <= b - 1 else 0 for k in range(1, n))


def root_to_xdiff(beta):
    """Inverse translation of a type-A root; returns (a, b) with a < b."""
    support = [k for k, c in enumerate(beta) if c]
    if not support or any(beta[k] != 1 for k in support):
        raise ValueError(f"{beta} is not a positive type A root")
    a, b = support[0], support[-1]
    if support != list(range(a, b + 1)):
        raise ValueError(f"{beta} is not a positive type A root")
    return a + 1, b + 2


def chain_deleted_pairs(gamma: Chain):
    """The inversion value pairs removed by the edges of an h-monotone chain
    to v: the edge p -> p (a b), a < b, of root beta = x_a - x_b removes
    (p(a), v(a)).  So a = h(beta), and as the edge ascends, p(beta) =
    x_{p(a)} - x_{p(b)} is positive: p(a) = h(p(beta))."""
    v = element_to_perm(gamma.end)
    table = root_table(gamma.end.rs)
    return tuple(
        (h_root(table.roots[p.perm[table.index[beta]]]), v[h_root(beta) - 1])
        for p, beta in zip(gamma.elements, gamma.betas)
    )


def tau_typea(u: Permutation, v: Permutation) -> Polynomial:
    """Restriction by the explicit inversion-set formula.

    Each h-monotone maximal chain contributes the product of the
    inversion factors of v that survive after removing one factor per
    edge; the result is expressed in the alpha basis.
    """
    return _tau_typea(*_perm_pair(u, v))


def _perm_pair(u: Permutation, v: Permutation):
    """The elements of two permutations of one size, in one new type-A system."""
    _check_permutation(u)
    _check_permutation(v)
    if len(u) != len(v):
        raise ValueError("size mismatch between the two permutations")
    rs = typea_system(len(v))
    return perm_to_element(rs, u), perm_to_element(rs, v)


def _tau_typea(U: WeylElement, V: WeylElement) -> Polynomial:
    """:func:`tau_typea` on the elements of any type-A system."""
    rs = V.rs
    v = element_to_perm(V)
    n = len(v)
    inv_v = inv_set(v)
    total = Polynomial.zero(rs.rank)
    for gamma in enumerate_c0(U, V):
        remaining = set(inv_v)
        for pair in chain_deleted_pairs(gamma):
            if pair not in remaining:
                raise ArithmeticError(
                    f"edge pair {pair} is not an unused inversion of {v}"
                )
            remaining.remove(pair)
        factors = tuple(xdiff_to_alpha(a, b, n) for a, b in remaining)
        total = total + expand(FactoredPoly(Fraction(1), factors, rs.rank))
    return total


def canonical_word_iv(v: Permutation):
    """The reduced word built from descending runs, one per left index.

    The run at index j is [j + c_j - 1, ..., j], c the Lehmer code of v:
    c_j = #{k > j : v(k) < v(j)}, and no run where c_j = 0.  Multiplying it
    off on the left moves v(j) down to position j and keeps the order of
    the values to its right, so the rest of the word uses letters above j.

    >>> canonical_word_iv((3, 4, 2, 1))
    (2, 1, 3, 2, 3)
    """
    return tuple(i for segment in canonical_word_iv_segments(v) for i in segment)


def canonical_word_iv_segments(v: Permutation):
    """The per-index descending runs of the canonical word, low index first."""
    _check_permutation(v)
    return tuple(
        tuple(range(i + sum(x < v[i] for x in v[i + 1:]), i, -1))
        for i in range(len(v) - 1)
    )


class EquivalenceReport(Record):
    """Outcome of matching h-monotone chains with reduced subwords."""

    __slots__ = (
        "u", "v", "word", "chain_count", "subword_count", "duplicate_images",
        "images_outside", "missed_subwords", "contribution_mismatches",
    )

    def __init__(
        self,
        u: Permutation,
        v: Permutation,
        word: tuple,
        chain_count: int,
        subword_count: int,
        duplicate_images: tuple,
        images_outside: tuple,
        missed_subwords: tuple,
        contribution_mismatches: tuple,
    ):
        for name, value in zip(self.__slots__, (
            u, v, word, chain_count, subword_count, duplicate_images,
            images_outside, missed_subwords, contribution_mismatches,
        )):
            object.__setattr__(self, name, value)

    @property
    def bijection_ok(self):
        return (
            not self.duplicate_images
            and not self.images_outside
            and not self.missed_subwords
            and self.chain_count == self.subword_count
        )

    @property
    def ok(self):
        return self.bijection_ok and not self.contribution_mismatches


def verify_equivalence(u: Permutation, v: Permutation) -> EquivalenceReport:
    """Check that chain contributions match subword contributions termwise.

    Uses the canonical descending-run word for v, maps every h-monotone
    chain to a subword, and compares images and expanded contributions.
    Violations are reported as data.
    """
    return _verify_equivalence(*_perm_pair(u, v))


def _verify_equivalence(U: WeylElement, V: WeylElement) -> EquivalenceReport:
    """:func:`verify_equivalence` on the elements of any type-A system."""
    rs = V.rs
    v = element_to_perm(V)
    word = canonical_word_iv(v)
    chains = enumerate_c0(U, V)
    expected = {s.mask: s for s in enumerate_reduced_subwords(U, word)}
    seen: dict = {}
    duplicates = []
    outside = []
    mismatches = []
    for gamma in chains:
        image = f_i_map(gamma, word)
        if image.mask in seen:
            duplicates.append(image.mask)
        seen[image.mask] = gamma
        if image.mask not in expected:
            outside.append(image.mask)
            continue
        lhs = expand(subword_contribution(rs, image))
        rhs = expand(chain_contribution(gamma, V))
        if lhs != rhs:
            mismatches.append((image.mask, lhs, rhs))
    missed = tuple(mask for mask in expected if mask not in seen)
    return EquivalenceReport(
        u=element_to_perm(U),
        v=v,
        word=word,
        chain_count=len(chains),
        subword_count=len(expected),
        duplicate_images=tuple(duplicates),
        images_outside=tuple(outside),
        missed_subwords=missed,
        contribution_mismatches=tuple(mismatches),
    )
