"""Weyl group elements, reduced words, Bruhat order and the h statistic.

An element is identified by the permutation it induces on the finite
root set, the standard faithful representation of a Weyl group.  Each
root system gets a root table, built on first use: its positive roots in
``rs.positive_roots`` order, then their negatives in the same order, a
dict from root to index, and the group table of the identity, the simple
reflections and one reflection s_beta per positive root beta (s_{-beta}
is s_beta).  ``perm[k]`` is the index of ``w(root_k)``, so the product
is one tuple lookup per root and the inverse is the inverse permutation.
The action matrix on the simple-root basis (columns are the images of
the simple roots; all entries are integers) is derived from the
permutation on each access.

The order layer reads the inversion set ``N(w)``, the positive roots
that w sends to negative roots, as one ``int`` bitmask: bit k is set
when ``perm[k]`` indexes a negative root.  It is computed once per element.
The length is its popcount.  A positive root beta outside ``N(u)`` gives
a cover ``u s_beta`` exactly when ``l(s_beta) - 2 |N(u) & N(s_beta)|``
is 1, since ``l(u s_beta) = l(u) + l(s_beta) - 2 |N(u) & N(s_beta)|``:
one AND and one popcount per root.  Each element also keeps its first
right descent s and the element ``w s``, so the Bruhat test walks each
descent chain with products built once, and the canonical word of w is
read off the descents of ``w^-1``.

Each element memoizes its right neighbours, the products ``w s_i``: at
most ``rank`` entries, each composed on first use.  Every walk along the
Cayley graph (descents, reduced words, subwords, enumeration) goes
through ``w * s_i``, so it composes each edge once per system and then
reads it back.

A group that is already enumerated holds its whole order as data
(:func:`lower_ideals`): one bitmask per element, its lower ideal, built
in one length-ordered pass over the covers.  Whole-group fills read its
set bits as the pairs u <= v (:func:`bruhat_pairs`); :func:`bruhat_leq`
stays the single-pair test of the walks that never enumerate the group.

Weights stay in integers too.  The root system holds ``scale``, the
least common denominator of the fundamental weights, and ``omegas``,
``scale * omega_i`` as integer tuples; ``omega_images`` of an element is
``scale * w(omega_i)`` for every i, computed once from the integer
matrix.  ``h_pair`` and ``omega_drop`` compare and subtract these images,
and the chain route reads its weight differences from them.

Elements are interned per root system, so equal elements are usually the
same object.  Per-system caches hold at most one entry per element,
cover, root or mask, none per pair of elements; they are filled
idempotently and are safe under the usual CPython concurrency guarantees.

Words are tuples of 1-based simple-reflection indices.
"""

from __future__ import annotations

import math

from .rootsys import RootSystem, Vector, div_exact

#: Default cap on the group order for exhaustive enumeration.
DEFAULT_MAX_GROUP_ORDER = 100_000

#: Value of h(p, p); compares above every index.
INFINITY = math.inf

Word = tuple


class RootTable:
    """The indexed root set of one root system and its group table.

    ``roots[k]`` for ``k < npos`` are the positive roots in
    ``rs.positive_roots`` order; ``roots[k + npos]`` is ``-roots[k]``.
    ``identity`` and ``simple_reflections`` (s_1, ..., s_n) are built with
    it, and ``positive[k]`` is ``(s_beta, N(s_beta))`` for positive root k:
    one reflection per positive root, since s_{-beta} = s_beta.
    """

    __slots__ = (
        "roots", "index", "npos", "simple", "identity", "simple_reflections",
        "positive",
    )

    def __init__(self, rs: RootSystem):
        positive = rs.positive_roots
        npos = self.npos = len(positive)
        self.roots = positive + tuple(tuple(-c for c in b) for b in positive)
        self.index = {beta: k for k, beta in enumerate(self.roots)}
        #: Index of alpha_j for j = 1..n, in order.
        self.simple = tuple(self.index[alpha] for alpha in rs.simple_roots)
        self.identity = _element(rs, tuple(range(len(self.roots))))
        # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i on the positive roots,
        # in integers; s_i(-beta) = -s_i(beta) fills the negative half.
        simple = []
        for i0, column in enumerate(zip(*rs.cartan)):
            perm = []
            for beta in positive:
                image = list(beta)
                image[i0] -= sum(b * c for b, c in zip(beta, column))
                perm.append(self.index[tuple(image)])
            perm += [(k + npos) % (2 * npos) for k in perm]
            s = _element(rs, tuple(perm))
            s._letter = i0
            simple.append(s)
        self.simple_reflections = tuple(simple)
        # Close the simple roots under simple reflections, keeping positive
        # images: when beta' = s_i beta is positive, s_beta' = s_i s_beta s_i.
        found = dict(zip(self.simple, simple))
        frontier = list(found)
        while frontier:
            k = frontier.pop()
            for s in simple:
                image = s.perm[k]
                if image < npos and image not in found:
                    found[image] = s * found[k] * s
                    frontier.append(image)
        self.positive = tuple((found[k], _inversions(found[k])) for k in range(npos))

    def __len__(self):
        """Number of roots; every ``rs._cache`` entry reports its size so."""
        return len(self.roots)


def root_table(rs: RootSystem) -> RootTable:
    table = rs._cache.get("root_table")
    if table is None:
        table = rs._cache["root_table"] = RootTable(rs)
    return table


class WeylElement:
    """A Weyl group element; immutable, hashable, interned per system.

    ``perm`` is the permutation of root indices (see :class:`RootTable`)
    that identifies the element; ``matrix`` is derived from it.  A simple
    reflection s_i carries ``_letter = i - 1``; ``_right[i - 1]`` is the
    product by s_i, filled on first use (:meth:`__mul__`).
    """

    __slots__ = (
        "rs", "perm", "_hash", "_inversions", "_descent", "_canonical",
        "_omega_images", "_letter", "_right",
    )

    def __init__(self, rs: RootSystem, perm):
        self.rs = rs
        self.perm = perm
        self._hash = hash(perm)
        self._inversions = None
        self._descent = None
        self._canonical = None
        self._omega_images = None
        self._letter = None
        self._right = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.perm == other.perm and self.rs.lie_type == other.rs.lie_type

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.rs is not other.rs and self.rs.lie_type != other.rs.lie_type:
            raise ValueError("cannot compose elements of different root systems")
        i = other._letter
        if i is None:
            return _element(self.rs, tuple(map(self.perm.__getitem__, other.perm)))
        # A step along the Cayley graph: composed once, then read back.
        right = self._right
        if right is None:
            right = self._right = [None] * self.rs.rank
        got = right[i]
        if got is None:
            got = right[i] = _element(
                self.rs, tuple(map(self.perm.__getitem__, other.perm))
            )
        return got

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for k, image in enumerate(self.perm):
            inv[image] = k
        return _element(self.rs, tuple(inv))

    @property
    def matrix(self):
        """Action matrix on the simple-root basis, as a tuple of rows."""
        table = root_table(self.rs)
        return tuple(zip(*(table.roots[self.perm[k]] for k in table.simple)))

    @property
    def omega_images(self):
        """``scale * w(omega_i)`` for i = 1..n, as integer tuples, where
        ``scale`` is that of the root system."""
        if self._omega_images is None:
            matrix = self.matrix
            self._omega_images = tuple(
                tuple(sum(a * b for a, b in zip(row, omega)) for row in matrix)
                for omega in self.rs.omegas
            )
        return self._omega_images

    def act(self, vec) -> Vector:
        """Linear action on a coordinate vector over the simple roots.

        A root is looked up in the root table; any other vector, such as
        a fundamental weight, is multiplied by :attr:`matrix`.
        """
        if len(vec) != self.rs.rank:
            raise ValueError("vector length does not match the rank")
        table = root_table(self.rs)
        root = table.index.get(vec) if type(vec) is tuple else None
        if root is not None:
            return table.roots[self.perm[root]]
        rng = range(self.rs.rank)
        return tuple(
            sum(row[k] * vec[k] for k in rng if vec[k]) for row in self.matrix
        )

    def is_identity(self) -> bool:
        return self.length == 0

    @property
    def length(self) -> int:
        """Number of positive roots sent to negative roots: the popcount
        of the inversion mask."""
        return _inversions(self).bit_count()

    @property
    def canonical_word(self) -> Word:
        """Lexicographically smallest reduced word: its first letter is
        the least left descent i of w, the first right descent of w^-1,
        and the rest is that of s_i w = (w^-1 s_i)^-1."""
        if self._canonical is None:
            word = []
            cur = self.inverse()
            while cur.length:
                i, _, _, cur = _right_descent(cur)
                word.append(i)
            self._canonical = tuple(word)
        return self._canonical

    def __repr__(self):
        word = ",".join(map(str, self.canonical_word)) or "e"
        return f"<{self.rs.lie_type} {word}>"


def _inversions(w: WeylElement) -> int:
    """N(w) as a bitmask: bit k is set when w sends positive root k to a
    negative root; memoized on ``w``."""
    mask = w._inversions
    if mask is None:
        perm = w.perm
        npos = len(perm) >> 1
        mask = w._inversions = sum(1 << k for k in range(npos) if perm[k] >= npos)
    return mask


def _right_descent(w: WeylElement):
    """``(i, k, s, w s)`` for the first simple reflection s = s_i with
    w alpha_i negative, k the root index of alpha_i; memoized on ``w``,
    which must not be the identity."""
    got = w._descent
    if got is None:
        table = root_table(w.rs)
        perm = w.perm
        npos = table.npos
        for i, (k, s) in enumerate(zip(table.simple, table.simple_reflections), 1):
            if perm[k] >= npos:
                got = w._descent = (i, k, s, w * s)
                break
    return got


def _element(rs: RootSystem, perm) -> WeylElement:
    table = rs._cache.get("elements")
    if table is None:
        table = rs._cache["elements"] = {}
    el = table.get(perm)
    if el is None:
        el = WeylElement(rs, perm)
        table[perm] = el
    return el


def identity(rs: RootSystem) -> WeylElement:
    return root_table(rs).identity


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    if not 1 <= i <= rs.rank:
        raise ValueError(f"invalid word: letter {i} out of range 1..{rs.rank}")
    return root_table(rs).simple_reflections[i - 1]


def reflection(rs: RootSystem, beta) -> WeylElement:
    """The reflection s_beta for a root beta (of either sign)."""
    beta = tuple(beta)
    table = root_table(rs)
    k = table.index.get(beta)
    if k is None:
        raise ValueError(
            f"invalid reflection: {beta} is not a root of {rs.lie_type}"
        )
    return table.positive[k % table.npos][0]


def element_from_word(rs: RootSystem, word) -> WeylElement:
    """Product s_{i_1} s_{i_2} ... s_{i_m}; the empty word gives the identity."""
    el = identity(rs)
    for letter in word:
        el = el * simple_reflection(rs, letter)
    return el


def all_reduced_words(u: WeylElement):
    """Every reduced word for ``u``, sorted; memoized within one call."""
    memo = {}

    def rec(el):
        got = memo.get(el)
        if got is not None:
            return got
        if el.is_identity():
            out = ((),)
        else:
            words = []
            for i in range(1, el.rs.rank + 1):
                lower = el * simple_reflection(el.rs, i)
                if lower.length < el.length:
                    words.extend(w + (i,) for w in rec(lower))
            out = tuple(sorted(words))
        memo[el] = out
        return out

    return rec(u)


def covers_above(u: WeylElement):
    """All (beta, v = u s_beta) with beta positive and l(v) = l(u) + 1.

    A root in N(u) gives u s_beta < u and is skipped by one bit test; for
    the others l(u s_beta) - l(u) = l(s_beta) - 2 |N(u) & N(s_beta)| on
    the inversion masks, and only the covers are built.
    """
    cache = u.rs._cache.get("covers_above")
    if cache is None:
        cache = u.rs._cache["covers_above"] = {}
    got = cache.get(u)
    if got is None:
        table = root_table(u.rs)
        mask = _inversions(u)
        out = []
        # ``table.positive`` follows the sorted ``rs.positive_roots``, so
        # the order is deterministic.
        for k, (r, rmask) in enumerate(table.positive):
            if mask >> k & 1:
                continue
            if rmask.bit_count() - 2 * (mask & rmask).bit_count() == 1:
                out.append((table.roots[k], u * r))
        got = tuple(out)
        cache[u] = got
    return got


def bruhat_leq(u: WeylElement, v: WeylElement) -> bool:
    """Strong Bruhat order, by descent down the right descents of v;
    agrees with cover closure.

    For the first right descent s of b (:func:`_right_descent`, memoized
    per element), a <= b iff a' <= b s, where a' is a s if s is a descent
    of a and a otherwise (the lifting property).  Each step shortens b by
    one and a by one or none, so the lengths are counted, not read.  No
    pair is stored: a whole-group question reads :func:`lower_ideals`.
    """
    if u.rs.lie_type != v.rs.lie_type:
        raise ValueError("cannot compare elements of different root systems")
    npos = len(u.perm) >> 1
    a, b = u, v
    la, lb = u.length, v.length
    while la < lb:
        _, k, s, b = _right_descent(b)
        lb -= 1
        if a.perm[k] >= npos:
            a = a * s
            la -= 1
    # No element lies below one of its own length or shorter but itself.
    return a == b


def h_pair(p: WeylElement, q: WeylElement):
    """Smallest i with p omega_i != q omega_i; INFINITY when p == q."""
    if p.rs.lie_type != q.rs.lie_type:
        raise ValueError("cannot compare elements of different root systems")
    for i, (a, b) in enumerate(zip(p.omega_images, q.omega_images)):
        if a != b:
            return i + 1
    return INFINITY


def omega_drop(u: WeylElement, j: int):
    """The drop omega_j - u omega_j, classified as a root or twice a root.

    Requires j = h(id, u); the precondition is verified, not trusted.
    """
    rs = u.rs
    h = h_pair(identity(rs), u)
    if j != h:
        raise ValueError(f"precondition violation: j={j} but h(id, u)={h}")
    drop = div_exact(
        tuple(a - b for a, b in zip(rs.omegas[j - 1], u.omega_images[j - 1])),
        rs.scale,
    )
    if drop in rs.roots:
        return drop, "root"
    if all(c % 2 == 0 for c in drop) and tuple(c // 2 for c in drop) in rs.roots:
        return drop, "twice-root"
    raise ArithmeticError(
        f"omega drop {drop} is neither a root nor twice a root; "
        "only types A, B, C are supported"
    )


def enumerate_elements(rs: RootSystem, max_order: int | None = None):
    """All group elements, sorted by length then canonical word.

    Refuses when the group order exceeds the cap.  The default cap is
    checked only before a system is first enumerated, so a larger cap
    passed once, as the command line does, holds for later calls that
    pass none; an explicit cap is always checked.
    """
    got = rs._cache.get("all_elements")
    if got is not None and max_order is None:
        return got
    bound = DEFAULT_MAX_GROUP_ORDER if max_order is None else max_order
    order = rs.lie_type.group_order
    if order > bound:
        raise ValueError(
            f"group order {order} of {rs.lie_type} exceeds the enumeration cap {bound}"
        )
    if got is None:
        layer = [identity(rs)]
        seen = {identity(rs)}
        while layer:
            nxt = []
            for u in layer:
                for i in range(1, rs.rank + 1):
                    v = u * simple_reflection(rs, i)
                    if v.length > u.length and v not in seen:
                        seen.add(v)
                        nxt.append(v)
            layer = nxt
        got = tuple(sorted(seen, key=lambda e: (e.length, e.canonical_word)))
        assert len(got) == order
        rs._cache["all_elements"] = got
    return got


def lower_ideals(rs: RootSystem) -> dict:
    """The Bruhat order of the whole group as data: ``{w: ideal(w)}``,
    where ideal(w) is the lower ideal {u <= w} as an ``int`` bitmask, bit
    k standing for ``enumerate_elements(rs)[k]``.  Memoized per root
    system; it enumerates the group, so only callers that already do read
    it.

    Lower intervals are generated by covers (Bjorner-Brenti, *Combinatorics
    of Coxeter Groups*, GTM 231, section 2.2), so one pass in length order
    builds every ideal: ideal(w) is the bit of w together with the ideals
    of the p that w covers, each met through ``covers_above(p)``, and every
    such p comes before w.  So u <= v exactly when ideal(u) lies inside
    ideal(v).  The ideals hold |W|^2 bits: 18 KB for B4, 1.8 MB for B5.
    """
    got = rs._cache.get("ideals")
    if got is None:
        elements = enumerate_elements(rs)
        got = {w: 1 << k for k, w in enumerate(elements)}
        for p in elements:
            ideal = got[p]
            for _, w in covers_above(p):
                got[w] |= ideal
        rs._cache["ideals"] = got
    return got


def bruhat_pairs(rs: RootSystem):
    """All ordered pairs u <= v, v-major in enumeration order, so that the
    pairs of one v share its chain column: the set bits of each lower
    ideal (:func:`lower_ideals`), low bit first, bit k standing for
    ``enumerate_elements(rs)[k]``.  The one decoder of the ideal bits."""
    elements = enumerate_elements(rs)
    ideals = lower_ideals(rs)
    return [
        (u, v)
        for v in elements
        for u, bit in zip(elements, bin(ideals[v])[:1:-1])  # low bit first
        if bit == "1"
    ]


def _mask_roots(rs: RootSystem, mask: int):
    """The roots at the set bits of ``mask``, low bit first."""
    roots = root_table(rs).roots
    return tuple(roots[k] for k in range(mask.bit_length()) if mask >> k & 1)


def inversion_roots(v: WeylElement):
    """Positive roots beta with v^{-1} beta negative, sorted: the bits of N(v^-1)."""
    return _mask_roots(v.rs, _inversions(v.inverse()))
