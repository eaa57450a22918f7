"""Root systems of types A, B and C over exact rational arithmetic.

Every vector is a coordinate tuple over the simple-root basis
{alpha_1, ..., alpha_n}.  Roots always have integer coordinates; weights
(such as the fundamental weights omega_i) may be rational.  The bilinear
form is normalized so that long roots have squared length 2; in type B
the short simple root alpha_n then has squared length 1.

A root system is integer data by construction: the Cartan matrix, the
squared lengths of the simple roots, the fundamental weights scaled to
integers by their closed forms (there is no Cartan inverse), and the
integer coroot pairings <omega_i, beta> of each root, memoized on first
use, so that the chain route runs in integer arithmetic.  The rational
Gram matrix and fundamental weights are derived from these integers on
first read; only :func:`bilinear`, :func:`pairing` and :func:`reflect`
read them, so building a root system makes no ``Fraction``.
One closure finds the positive roots, their images under the simple
reflections and its tree, from which :mod:`weyl` builds the group table.

Simple roots are ordered along the Dynkin chain, with the special bond
between the last two nodes: in type B the last simple root is short, in
type C it is long.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial

from .record import Record

#: A coordinate tuple over the simple-root basis.
Vector = tuple

FAMILIES = ("A", "B", "C")


class LieType(Record):
    """A classical family label together with the rank."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in FAMILIES:
            raise ValueError(
                f"unsupported family {family!r}; expected one of {FAMILIES}"
            )
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if family in ("B", "C") and rank < 2:
            raise ValueError(f"degenerate family: {family}1 is not supported")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __str__(self):
        return f"{self.family}{self.rank}"

    @property
    def group_order(self) -> int:
        n = self.rank
        if self.family == "A":
            return factorial(n + 1)
        return (2**n) * factorial(n)


def _cartan_matrix(lie_type: LieType):
    """Integer matrix cart[a][b] = <alpha_a, alpha_b> (0-based)."""
    n = lie_type.rank
    cart = [[2 if a == b else 0 for b in range(n)] for a in range(n)]
    for a in range(n - 1):
        cart[a][a + 1] = -1
        cart[a + 1][a] = -1
    if n >= 2 and lie_type.family == "B":
        cart[n - 2][n - 1] = -2  # alpha_n short
    if n >= 2 and lie_type.family == "C":
        cart[n - 1][n - 2] = -2  # alpha_n long
    return tuple(tuple(row) for row in cart)


def _weights(lie_type: LieType):
    """``scale`` and ``omegas``, where ``omegas[i - 1]`` is ``scale * omega_i``.

    Closed forms over the simple-root basis (Bourbaki, Lie Groups and Lie
    Algebras, Ch. IV-VI, Plates I-III); ``scale`` is the least common
    denominator of the fundamental weights.
    """
    n = lie_type.rank
    idx = range(1, n + 1)
    if lie_type.family == "A":
        scale = n + 1
        rows = ((min(i, j) * (n + 1 - max(i, j)) for j in idx) for i in idx)
    elif lie_type.family == "B":
        scale = 2
        rows = ((2 * min(i, j) if i < n else j for j in idx) for i in idx)
    else:
        scale = 2
        rows = ((2 * min(i, j) if j < n else i for j in idx) for i in idx)
    return scale, tuple(tuple(row) for row in rows)


def div_exact(vec, d: int):
    """The integer vector ``vec / d``; raises unless ``d`` divides every
    coordinate, since a remainder means an upstream invariant failed."""
    if any(c % d for c in vec):
        raise ArithmeticError(f"{vec} is not divisible by {d}")
    return tuple(c // d for c in vec)


def _close_simple_roots(simple, cart):
    """Close the ``simple`` roots under the simple reflections, positives
    only: the sorted positive roots; ``images[k][i]``, which is s_{i+1} beta
    = beta - <beta, alpha_{i+1}^vee> alpha_{i+1} for beta the k-th root; and
    the tree walked, ``(beta, i, parent)`` with beta = s_{i+1} parent once
    per non-simple root, each parent simple or listed before it."""
    images = dict.fromkeys(simple)  # each root's images, set when it is visited
    queue = list(simple)
    tree = []
    for beta in queue:  # breadth first: the queue grows as roots are found
        row = []
        for i, column in enumerate(zip(*cart)):
            pair = sum(b * c for b, c in zip(beta, column))
            img = beta[:i] + (beta[i] - pair,) + beta[i + 1 :]
            # s_i permutes the positive roots but alpha_i; only -alpha_i has img[i] < 0.
            if img[i] >= 0 and img not in images:
                images[img] = None
                queue.append(img)
                tree.append((img, i, beta))
            row.append(img)
        images[beta] = tuple(row)
    positive = tuple(sorted(images))
    return positive, tuple(images[beta] for beta in positive), tuple(tree)


class RootSystem:
    """Simple roots, positive roots, Gram matrix and fundamental weights.

    ``scale`` is the least common denominator of the fundamental weights
    and ``omegas[i]`` is ``scale * omega_{i+1}`` as an integer tuple.
    ``_images`` and ``_tree`` are the rest of :func:`_close_simple_roots`.

    Instances are immutable after construction and safe to share between
    threads.  ``gram`` and ``fundamental_weights`` are derived on first
    read, the ``_cache`` dict holds the group and chain layers' memos,
    keyed by element, cover or mask and never by a pair of elements, and
    :meth:`pairings` memoizes per root; all are only ever filled
    idempotently, so concurrent readers at worst duplicate work.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        n = lie_type.rank
        self.rank = n
        self.cartan = _cartan_matrix(lie_type)
        # |alpha_a|^2 for each simple root: long roots 2, short roots 1.
        short = {"A": (), "B": (n - 1,), "C": range(n - 1)}[lie_type.family]
        lengths = [1 if a in short else 2 for a in range(n)]
        # form[a][b] = 2 (alpha_a, alpha_b) = cart[a][b] * |alpha_b|^2
        self._form = tuple(
            tuple(c * length for c, length in zip(row, lengths)) for row in self.cartan
        )
        self.simple_roots = tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        )
        self.positive_roots, self._images, self._tree = _close_simple_roots(
            self.simple_roots, self.cartan
        )
        self.roots = frozenset(self.positive_roots) | frozenset(
            tuple(-c for c in beta) for beta in self.positive_roots
        )
        self.scale, self.omegas = _weights(lie_type)
        self._pairings: dict = {}
        self._cache: dict = {}

    @cached_property
    def gram(self):
        """The Gram matrix ((alpha_a, alpha_b)) as Fractions, from the
        integer form on first read."""
        return tuple(tuple(Fraction(c, 2) for c in row) for row in self._form)

    @cached_property
    def fundamental_weights(self):
        """omega_1, ..., omega_n as Fraction tuples, from ``omegas`` on
        first read."""
        return tuple(
            tuple(Fraction(c, self.scale) for c in omega) for omega in self.omegas
        )

    def pairings(self, beta) -> tuple:
        """(<omega_1, beta>, ..., <omega_n, beta>) for a root beta, in integers.

        Since (omega_i, alpha_j) = delta_ij (alpha_i, alpha_i) / 2,
        <omega_i, beta> = beta_i (alpha_i, alpha_i) / (beta, beta), the i-th
        coordinate of the coroot of beta on the simple coroots.  In the
        integer form F(x, y) = 2 (x, y) that is beta_i F_ii / F(beta, beta).
        """
        got = self._pairings.get(beta)
        if got is None:
            form = self._form
            norm = sum(
                b * sum(f * c for f, c in zip(form[a], beta))
                for a, b in enumerate(beta)
                if b
            )
            got = div_exact(tuple(b * form[i][i] for i, b in enumerate(beta)), norm)
            self._pairings[beta] = got
        return got

    def __repr__(self):
        return f"RootSystem({self.lie_type})"


def build_root_system(lie_type: LieType) -> RootSystem:
    """Construct the root system for a validated type label."""
    return RootSystem(lie_type)


def root_system(family: str, rank: int) -> RootSystem:
    """A new root system for a family label and a rank, validated."""
    return build_root_system(LieType(family, rank))


def bilinear(rs: RootSystem, x, y) -> Fraction:
    """The invariant form (x, y) in the chosen normalization."""
    g = rs.gram
    n = rs.rank
    total = Fraction(0)
    for a in range(n):
        xa = x[a]
        if xa:
            total += xa * sum(g[a][b] * y[b] for b in range(n) if y[b])
    return total


def pairing(rs: RootSystem, lam, beta) -> Fraction:
    """The coroot pairing <lam, beta> = 2 (lam, beta) / (beta, beta)."""
    norm = bilinear(rs, beta, beta)
    if norm == 0:
        raise ValueError("pairing undefined: division by zero norm")
    return 2 * bilinear(rs, lam, beta) / norm


def reflect(rs: RootSystem, beta, vec) -> Vector:
    """Reflection of ``vec`` in the hyperplane orthogonal to the root ``beta``."""
    beta = tuple(beta)
    if beta not in rs.roots:
        raise ValueError(f"invalid reflection: {beta} is not a root of {rs.lie_type}")
    c = pairing(rs, vec, beta)
    out = []
    for v, b in zip(vec, beta):
        f = Fraction(v - c * b)
        out.append(f.numerator if f.denominator == 1 else f)
    return tuple(out)


def h_root(beta) -> int:
    """Smallest index (1-based) with a nonzero coordinate."""
    for i, c in enumerate(beta):
        if c:
            return i + 1
    raise ValueError("h undefined for the zero vector")


def is_positive(vec) -> bool:
    """Nonzero and in the nonnegative cone over the simple roots."""
    return any(vec) and min(vec) >= 0
