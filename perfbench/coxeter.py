"""Stdlib-only Weyl groups of types A, B and C, and the seeded query stream.

This module does not import ``schubres``: the benchmark's inputs and the
facts its correctness gates rely on (lengths, canonical words, Bruhat
comparability) are computed here independently of the program under test.

Type A_n is the symmetric group on n + 1 letters in one-line notation;
``s_i`` (right multiplication) swaps positions i and i + 1.  Types B_n and
C_n share the hyperoctahedral group of signed permutations and its Coxeter
words: ``s_i`` for i < n swaps positions i and i + 1 and ``s_n`` negates
position n, matching schubres' Dynkin order with the special bond between
the last two nodes.
"""

from __future__ import annotations

import random

#: Groups of the restrict stream.
RESTRICT_GROUPS = (("A", 5), ("B", 4), ("C", 4))

#: Lengths of u as shares of the length of v: one query per (length of v,
#: share) cell of each group.  Eight shares make 208 cells: a query's cost
#: depends on which elements the seed draws, and with half as many the
#: 90th percentile moved by a tenth from one seed to the next.
U_SHARES = tuple(k / 16 for k in range(1, 16, 2))

#: Queries per group whose bottom element is not below the top one (their
#: answer is the zero polynomial).
NOT_BELOW_PER_GROUP = 8


class Group:
    """A Weyl group of type A, B or C as (signed) permutations."""

    def __init__(self, family: str, rank: int):
        self.family = family
        self.rank = rank
        self.degree = rank + 1 if family == "A" else rank
        if family == "A":
            self.max_length = rank * (rank + 1) // 2
        else:
            self.max_length = rank * rank

    def identity(self):
        return tuple(range(1, self.degree + 1))

    def right_mul(self, w, i):
        """w s_i."""
        w = list(w)
        if self.family == "A" or i < self.rank:
            w[i - 1], w[i] = w[i], w[i - 1]
        else:
            w[-1] = -w[-1]
        return tuple(w)

    def left_mul(self, i, w):
        """s_i w: s_i acts on the values instead of the positions."""
        if self.family != "A" and i == self.rank:
            return tuple(-x if abs(x) == self.rank else x for x in w)

        def swap(x):
            a = abs(x)
            if a == i:
                return x + (1 if x > 0 else -1)
            if a == i + 1:
                return x - (1 if x > 0 else -1)
            return x

        return tuple(swap(x) for x in w)

    def length(self, w) -> int:
        """Number of positive roots sent to negative roots.

        A root is positive exactly when its lowest-index nonzero coordinate
        (in the e-basis) is positive; the image of e_k is sign(w_k) e_|w_k|.
        """
        n = len(w)
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                # e_i - e_j, then (types B, C) e_i + e_j
                for sign in ((1,) if self.family == "A" else (1, -1)):
                    a, b = w[i], -sign * w[j]
                    if _lead_sign(a, b) < 0:
                        count += 1
            if self.family != "A" and w[i] < 0:
                count += 1  # e_i (B) or 2 e_i (C)
        return count

    def from_word(self, word):
        w = self.identity()
        for letter in word:
            w = self.right_mul(w, letter)
        return w

    def canonical_word(self, w):
        """Lexicographically smallest reduced word, by left descents.

        Mirrors the definition schubres documents, so the labels it echoes
        can be checked.
        """
        word = []
        cur_len = self.length(w)
        while cur_len:
            for i in range(1, self.rank + 1):
                lower = self.left_mul(i, w)
                lower_len = self.length(lower)
                if lower_len < cur_len:
                    word.append(i)
                    w, cur_len = lower, lower_len
                    break
        return tuple(word)

    def grow(self, rng, target_length):
        """A reduced word reached by random length-increasing steps."""
        w = self.identity()
        word = []
        cur_len = 0
        while cur_len < target_length:
            ups = [
                i
                for i in range(1, self.rank + 1)
                if self.length(self.right_mul(w, i)) == cur_len + 1
            ]
            i = rng.choice(ups)
            w = self.right_mul(w, i)
            word.append(i)
            cur_len += 1
        return tuple(word), w


def _lead_sign(a, b):
    """Sign of the lowest-index coordinate of sign(a) e_|a| + sign(b) e_|b|."""
    if abs(a) < abs(b):
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def _word_text(word):
    return ",".join(map(str, word))


def _reduced_subword(group, rng, word, size):
    """Positions of a random subword of ``word`` that is a reduced word of
    ``size`` letters (a contiguous window is one, if sampling finds none)."""
    positions = range(len(word))
    for _ in range(200):
        picked = sorted(rng.sample(positions, size))
        if group.length(group.from_word(word[p] for p in picked)) == size:
            return picked
    start = rng.randint(0, len(word) - size)
    return list(range(start, start + size))


def restrict_queries(seed: int):
    """The seeded restrict queries over RESTRICT_GROUPS, in shuffled order.

    For every group, length of v in the upper half of the group and share
    in U_SHARES there is one query: v is grown to that length by random
    length-increasing steps, and u is the product of a random reduced
    subword of v's word with that share of its letters.  Every seed thus
    gives the same mix of lengths and changes only the words.  Each group
    adds NOT_BELOW_PER_GROUP queries with u of the same length as v but
    another element, hence not below v.  Each query carries the facts its
    answer is checked against.
    """
    rng = random.Random(seed)
    queries = []
    for family, rank in RESTRICT_GROUPS:
        group = Group(family, rank)
        top = group.max_length
        cells = [
            (v_len, round(share * v_len))
            for v_len in range((top + 1) // 2, top + 1)
            for share in U_SHARES
        ]
        # An element of maximal length is above everything, so a query that
        # needs u not below v draws v short of the top.
        cells += [
            (rng.randint((top + 1) // 2, top - 1), None)
            for _ in range(NOT_BELOW_PER_GROUP)
        ]
        for v_len, u_len in cells:
            v_word, v = group.grow(rng, v_len)
            if u_len is None:
                u = v
                while u == v:
                    u = group.grow(rng, v_len)[1]
            else:
                picked = _reduced_subword(group, rng, v_word, u_len)
                u = group.from_word(v_word[p] for p in picked)
            u_word = group.canonical_word(u)
            queries.append(
                {
                    "type": family,
                    "rank": rank,
                    "u": _word_text(u_word),
                    "v": _word_text(v_word),
                    "u_canonical": _word_text(u_word) or "e",
                    "v_canonical": _word_text(group.canonical_word(v)) or "e",
                    "u_length": len(u_word),
                    "below": u_len is not None,
                }
            )
    rng.shuffle(queries)
    return queries
