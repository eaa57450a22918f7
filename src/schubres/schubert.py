"""Restrictions of equivariant Schubert classes via chains and subwords.

The three computation routes:

* ``tau_chain`` -- sum of contributions of the maximal ascending chains
  whose edge roots have nondecreasing h statistic, by a memoized dynamic
  program over the elements below the top one, grouped by the set of
  cancelled factors of lambda_minus(v) and expanded once per group; it
  sums doubled edge ratios in integers and divides once by 2^(l(v) - l(u));
* ``tau_billey`` -- sum of subword contributions over the reduced
  subwords of a reduced word for the top element, by a dynamic program
  over the positions of the word;
* ``tau_gt_eval`` -- numeric evaluation of the moment-map-weighted sum
  over all maximal chains at a chosen point, by a path sum over the
  Bruhat interval in integers, used as an independent cross-check.

All of them produce exact rational data and must agree; the ``verify``
module wires the cross-checks together.

Every walk up to a top element v -- the chain sum, both chain
enumerators and the moment-map path sum -- reads one column per v
(:class:`_ChainColumn`): it decides once whether an element lies below
v, and each cover is checked once per root system, whichever walk meets
it first.  Tables are filled one v at a time (:func:`_tau_table`), so
the one column kept per root system serves a whole column of the table;
the fill values only the pairs u <= v of :func:`bruhat_pairs`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .poly import (
    MAX_DEGREE,
    CancellationError,
    FactoredPoly,
    Polynomial,
    _add_times_linear,
    _cleared,
    divide_linear,
)
from .rootsys import RootSystem, div_exact, h_root, is_positive
from .weyl import (
    WeylElement,
    _inversions,
    _mask_roots,
    bruhat_leq,
    bruhat_pairs,
    covers_above,
    enumerate_elements,
    h_pair,
    identity,
    inversion_roots,
    reflection,
    root_table,
    simple_reflection,
)


class NonGenericPointError(ArithmeticError):
    """A denominator linear form vanishes at the chosen evaluation point."""


@dataclass(frozen=True)
class Chain:
    """An ascending path u_0 -> ... -> u_m with right-reflection roots."""

    elements: tuple
    betas: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "betas", tuple(tuple(b) for b in self.betas))
        if len(self.elements) != len(self.betas) + 1:
            raise ValueError("a chain needs exactly one more element than edges")

    @property
    def end(self):
        return self.elements[-1]

    def h_sequence(self):
        return tuple(h_root(beta) for beta in self.betas)

    def is_maximal_length(self):
        return all(
            b.length == a.length + 1
            for a, b in zip(self.elements, self.elements[1:])
        )

    def __repr__(self):
        arrows = []
        for el, beta in zip(self.elements, self.betas):
            arrows.append(repr(el))
            arrows.append(f"-{beta}->")
        arrows.append(repr(self.elements[-1]))
        return "Chain(" + " ".join(arrows) + ")"


@dataclass(frozen=True)
class Subword:
    """A reduced word together with a 0/1 selection mask."""

    word: tuple
    mask: tuple

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "mask", tuple(self.mask))
        if len(self.word) != len(self.mask):
            raise ValueError("mask length must equal word length")
        if any(m not in (0, 1) for m in self.mask):
            raise ValueError("mask entries must be 0 or 1")

    def selected(self):
        return tuple(l for l, m in zip(self.word, self.mask) if m)

    def display(self):
        """Letter-or-zero form, e.g. (0, 1, 3, 0, 0)."""
        return tuple(l if m else 0 for l, m in zip(self.word, self.mask))

    def ones(self):
        return sum(self.mask)


def _require_same_system(u: WeylElement, v: WeylElement):
    if u.rs.lie_type != v.rs.lie_type:
        raise ValueError("elements belong to different root systems")


def _edge_fault(p: WeylElement, beta, w: WeylElement):
    """What is wrong with the edge p -beta-> w, or None: it must be the
    right reflection by the positive root beta, and ascending."""
    if p * reflection(p.rs, beta) != w:
        return f"edge {p!r} -> {w!r} is not a right reflection by {beta}"
    if not is_positive(beta) or not is_positive(p.act(beta)):
        return f"edge {p!r} -{beta}-> is not ascending"
    return None


def _validate_ascending(gamma: Chain):
    """Each step must be u_k = u_{k-1} s_{beta_k} with the length increasing."""
    for a, beta, b in zip(gamma.elements, gamma.betas, gamma.elements[1:]):
        fault = _edge_fault(a, beta, b)
        if fault is not None:
            raise ValueError(fault)


def _validate_saturated(gamma: Chain):
    _validate_ascending(gamma)
    if not gamma.is_maximal_length():
        raise ValueError("chain is not of maximal length")


def lambda_minus(v: WeylElement) -> FactoredPoly:
    """Product of the positive roots sent negative by v^{-1}."""
    return FactoredPoly(Fraction(1), inversion_roots(v), v.rs.rank)


def _walk_chains(u: WeylElement, v: WeylElement, monotone: bool):
    """Maximal ascending chains from u to v, deterministically.

    With ``monotone`` the h statistic of the edge roots must not decrease.
    A cover p -beta-> w below v has h(beta) = h_pair(p, w) >= h_pair(p, v),
    and reflecting by beta fixes omega_j for every j < h(beta); so an
    h-monotone chain takes exactly the covers with h(beta) = h_pair(p, v),
    and every chain that does is h-monotone.  The walk prunes every other
    cover before its below-v test.
    """
    _require_same_system(u, v)
    if u == v:
        return (Chain((u,), ()),)
    if not bruhat_leq(u, v):
        return ()
    column = _chain_column(v)
    chains = []

    def walk(cur, elems, betas):
        top = h_pair(cur, v) if monotone else None
        for beta, w in covers_above(cur):
            if (top is None or h_root(beta) == top) and column.edge(cur, beta, w):
                if w == v:
                    chains.append(Chain(elems + (w,), betas + (beta,)))
                else:
                    walk(w, elems + (w,), betas + (beta,))

    walk(u, (u,), ())
    return tuple(chains)


def enumerate_max_chains(u: WeylElement, v: WeylElement):
    """All maximal-length ascending chains from u to v, deterministically.

    Returns the single empty chain when u == v and nothing when u is not
    below v.
    """
    return _walk_chains(u, v, monotone=False)


def enumerate_c0(u: WeylElement, v: WeylElement):
    """The maximal chains whose edge roots have nondecreasing h statistic.

    Generated directly, each edge p -beta-> with h(beta) = h_pair(p, v);
    agrees with filtering ``enumerate_max_chains`` (property-tested).
    """
    return _walk_chains(u, v, monotone=True)


def _edge_term(p: WeylElement, beta, v: WeylElement, factors: int):
    """What the edge p -> p s_beta of an h-monotone chain ending at v
    contributes: the root-table index of the factor of lambda_minus(v) it
    cancels, a bit of ``factors`` (N(v^-1)), and twice its coroot pairing
    times the ratio of that factor to its denominator form, an int: the
    ratios are integers in types A and C and halves in type B.

    The denominator is (p omega_i - v omega_i) for i = h(beta), from the
    integer omega images.  Roots of types A, B and C are primitive
    vectors, so the denominator divided by the gcd of its coordinates is,
    up to sign, the one factor it can be proportional to.
    """
    rs = v.rs
    i = h_root(beta)
    numerator = rs.pairings(beta)[i - 1]
    if numerator <= 0:
        raise CancellationError(
            f"expected a positive integer pairing, got {numerator}"
        )
    denom = div_exact(
        tuple(a - b for a, b in zip(p.omega_images[i - 1], v.omega_images[i - 1])),
        rs.scale,
    )
    g = math.gcd(*denom)
    if not g:
        raise CancellationError(f"edge {p!r} -{beta}-> has a zero denominator")
    sign = 1 if next(c for c in denom if c) > 0 else -1
    root = tuple(c // (sign * g) for c in denom)
    k = root_table(rs).index.get(root)
    if k is None or not factors >> k & 1:
        raise CancellationError(
            f"no factor of lambda_minus({v!r}) is proportional to {denom}"
        )
    if sign < 0:
        raise CancellationError(f"factor {root} is a nonpositive multiple of {denom}")
    doubled, remainder = divmod(2 * numerator, g)
    if remainder:
        raise CancellationError(f"edge {p!r} -{beta}-> has the ratio {numerator}/{g}")
    return k, doubled


def _cancelled_twice(rs: RootSystem, k):
    return CancellationError(
        f"factor {root_table(rs).roots[k]} of lambda_minus is cancelled twice"
    )


def chain_contribution(gamma: Chain, v: WeylElement) -> FactoredPoly:
    """The factored contribution of one h-monotone maximal chain to tau_u(v).

    Starts from the full inversion product of v, multiplies the scalar by
    the coroot pairing of each edge, and cancels each denominator form
    against a proportional factor; the m doubled edge terms
    (:func:`_edge_term`) are multiplied in integers and divided by 2^m.
    The cancelled factors are a mask of the bits of N(v^-1)."""
    if gamma.end != v:
        raise ValueError("chain does not end at v")
    _validate_saturated(gamma)
    factors = _inversions(v.inverse())
    cancelled = 0
    scalar = 1
    prev_h = 0
    for k, beta in enumerate(gamma.betas):
        i = h_root(beta)
        if i < prev_h:
            raise ValueError("chain edge roots are not h-monotone")
        prev_h = i
        j, term = _edge_term(gamma.elements[k], beta, v, factors)
        if cancelled >> j & 1:
            raise _cancelled_twice(v.rs, j)
        cancelled |= 1 << j
        scalar *= term
    rest = _mask_roots(v.rs, factors & ~cancelled)
    return FactoredPoly(Fraction(scalar, 1 << len(gamma.betas)), rest, v.rs.rank)


class _ChainColumn:
    """Everything kept for one top element v, shared by every walk up to
    v: the chain sum's dynamic program and its value (:meth:`value`), both
    chain enumerators and the moment-map path sum.

    ``under`` memoizes whether an element is below v: read off the lower
    ideals when the group's order is built (:func:`lower_ideals`),
    otherwise by :func:`bruhat_leq`.  :meth:`edge` checks each cover below
    v that a walk meets, once per root system: ``checked`` is the
    system's set of checked covers, shared by every column.
    ``states[w]`` maps each set of cancelled factors (a mask of the bits
    of ``factors``, N(v^-1): bit k is root k of the root table) to the
    summed scalar of the h-monotone maximal chains from w to v; ``states[v]``
    holds the empty chain, nothing cancelled.  Such a chain takes exactly
    the covers p -beta-> with h(beta) = h_pair(p, v) (:func:`_walk_chains`),
    so :meth:`sums` skips every other cover before its below-v test and
    its edge check.  Each chain has l(v) - l(w) edges, and its scalar is
    the product of its doubled edge terms (:func:`_edge_term`), so every
    sum is an int, 2^(l(v) - l(w)) times the true one.  ``expansions``
    holds the product of the factors outside each mask.
    """

    __slots__ = ("v", "factors", "states", "under", "ideals", "checked", "expansions")

    def __init__(self, v: WeylElement):
        self.v = v
        self.factors = _inversions(v.inverse())
        self.states: dict = {v: {0: 1}}
        self.under: dict = {}
        self.ideals = v.rs._cache.get("ideals")
        self.checked = v.rs._cache.setdefault("checked_covers", set())
        self.expansions = {self.factors: Polynomial.one(v.rs.rank)}

    def __len__(self):
        """Number of memoized states, below-v answers and expansions;
        every ``rs._cache`` entry reports its size so."""
        return len(self.states) + len(self.under) + len(self.expansions)

    def edge(self, p: WeylElement, beta, w: WeylElement) -> bool:
        """Whether the cover p -beta-> w of ``covers_above(p)`` lies below
        v.  The first time any walk of the system meets a cover below its
        top element, it is checked: one that is not an ascending right
        reflection raising the length by one is an internal fault."""
        under = self.under.get(w)
        if under is None:
            ideals = self.ideals
            if ideals is None:
                under = bruhat_leq(w, self.v)
            else:
                under = ideals[w] & ideals[self.v] == ideals[w]
            self.under[w] = under
        if under and (p, beta) not in self.checked:
            fault = _edge_fault(p, beta, w)
            if fault is None and w.length != p.length + 1:
                fault = f"edge {p!r} -> {w!r} does not raise the length by one"
            if fault is not None:
                raise AssertionError(fault)
            self.checked.add((p, beta))
        return under

    def sums(self, p: WeylElement) -> dict:
        got = self.states.get(p)
        if got is not None:
            return got
        v = self.v
        got = {}
        top = h_pair(p, v)
        for beta, w in covers_above(p):
            if h_root(beta) != top or not self.edge(p, beta, w):
                continue
            rest = self.sums(w)
            if not rest:
                continue
            k, ratio = _edge_term(p, beta, v, self.factors)
            bit = 1 << k
            for mask, scalar in rest.items():
                if mask & bit:
                    raise _cancelled_twice(v.rs, k)
                mask |= bit
                got[mask] = got.get(mask, 0) + ratio * scalar
        self.states[p] = got
        return got

    def value(self, u: WeylElement) -> Polynomial:
        """tau_u(v) for an element u below v: the chains' scalars summed per
        set of cancelled factors (:meth:`sums`), each group expanded once.
        The sum is taken in integers, 2^(l(v) - l(u)) times too large, and
        divided by that once; a restriction has integer coefficients, so a
        remainder is a :class:`CancellationError`."""
        v = self.v
        total: dict = {}
        for mask, scalar in self.sums(u).items():
            for key, c in self.expansion(mask).terms.items():
                total[key] = total.get(key, 0) + scalar * c
        shift = v.length - u.length
        if any(c & (1 << shift) - 1 for c in total.values()):
            raise CancellationError(
                f"chain sum at u={u!r}, v={v!r} is not divisible by 2^{shift}"
            )
        terms = {key: c >> shift for key, c in total.items() if c}
        return Polynomial._of(v.rs.rank, terms, 1)

    def expansion(self, mask: int) -> Polynomial:
        """The product of the factors outside ``mask``: that of one more
        cancelled factor, the lowest outside ``mask``, times that factor."""
        got = self.expansions.get(mask)
        if got is None:
            rest = self.factors & ~mask
            low = rest & -rest
            root = root_table(self.v.rs).roots[low.bit_length() - 1]
            got = self.expansion(mask | low).times_linear(root)
            self.expansions[mask] = got
        return got


def _chain_column(v: WeylElement) -> _ChainColumn:
    """The column of v; it replaces that of any other top element, so
    ``rs._cache`` holds one column at a time."""
    column = v.rs._cache.get("chain_column")
    if column is None or column.v != v:
        column = v.rs._cache["chain_column"] = _ChainColumn(v)
    return column


def tau_chain(u: WeylElement, v: WeylElement) -> Polynomial:
    """Restriction of the class of u at v via the chain formula.

    The same sum as that of :func:`chain_contribution` over
    :func:`enumerate_c0`, regrouped per set of cancelled factors; the
    column of v takes it (:meth:`_ChainColumn.value`).  Filling many pairs
    with the same v in a row reuses one column.
    """
    _require_same_system(u, v)
    if not bruhat_leq(u, v):
        return Polynomial.zero(u.rs.rank)
    return _chain_column(v).value(u)


def _tau_table(elements):
    """Restrictions as ``{u: {v: tau_chain(u, v)}}`` of every pair of the
    enumerated group ``elements``, each row in their order.  Every entry
    starts as the one zero of the table; then the pairs u <= v read off
    the group's lower ideals (:func:`bruhat_pairs`) are valued one v at a
    time, so that one column serves every pair with that v."""
    rs = elements[0].rs
    zero = Polynomial.zero(rs.rank)
    table = {u: dict.fromkeys(elements, zero) for u in elements}
    for u, v in bruhat_pairs(rs):
        table[u][v] = _chain_column(v).value(u)
    return table


def _prefix_roots(rs: RootSystem, word):
    """The factor each letter of the reduced ``word`` contributes when
    selected (its simple root moved by the product of the letters before),
    and the element of the word."""
    roots = []
    prefix = identity(rs)
    for letter in word:
        s = simple_reflection(rs, letter)  # checks the letter first
        roots.append(prefix.act(rs.simple_roots[letter - 1]))
        prefix = prefix * s
    if prefix.length != len(word):
        raise ValueError("word is not reduced")
    return roots, prefix


def subword_contribution(rs: RootSystem, subword: Subword) -> FactoredPoly:
    """Product of prefix-transformed simple roots over the selected letters."""
    roots, _ = _prefix_roots(rs, subword.word)
    factors = tuple(root for root, keep in zip(roots, subword.mask) if keep)
    return FactoredPoly(Fraction(1), factors, rs.rank)


def enumerate_reduced_subwords(u: WeylElement, word):
    """Masks whose selected letters form a reduced word for u.

    A selection is followed only while the selected letters stay a left
    prefix of u (see :func:`_subword_step`), so no subtree that cannot
    end at u is walked.
    """
    rs = u.rs
    word = tuple(word)
    _prefix_roots(rs, word)
    table = root_table(rs)
    npos = table.npos
    prefix_mask = _inversions(u.inverse())
    target_len = u.length
    m = len(word)
    found = []

    def walk(pos, cur, cur_len, mask):
        if target_len - cur_len > m - pos:
            return
        if pos == m:
            if cur == u:
                found.append(Subword(word, tuple(mask)))
            return
        mask.append(0)
        walk(pos + 1, cur, cur_len, mask)
        mask.pop()
        letter = word[pos]
        image = cur.perm[table.simple[letter - 1]]
        if image < npos and prefix_mask >> image & 1:
            mask.append(1)
            walk(pos + 1, cur * table.simple_reflections[letter - 1], cur_len + 1, mask)
            mask.pop()

    walk(0, identity(rs), 0, [])
    return tuple(sorted(found, key=lambda s: s.mask))


def _subword_step(states, s: WeylElement, form, target=None, remaining=0):
    """One position of the subword dynamic program: the states after a
    letter with simple reflection ``s`` and factor the linear form
    ``form`` (an int tuple), from the states before it.

    Each state either skips the letter or, when that lengthens it, selects
    it and takes the factor.  ``target``, a pair (N(u^-1), l(u)), drops
    the states that cannot end at u with ``remaining`` letters left after
    this one (too few letters left, or not a left prefix w of u:
    N(w^-1) inside N(u^-1)) without changing the sum at u.

    Both tests read the permutation of a state ``cur``: with k the index
    of alpha_s, ``cur s`` is longer than ``cur`` exactly when
    ``cur.perm[k]`` is a positive root, and then
    N((cur s)^-1) = N(cur^-1) + {cur alpha_s}, so a left prefix of u
    stays one exactly when bit ``cur.perm[k]`` is set in N(u^-1).  A
    selection adds ``total * form`` straight into the term dict of
    ``cur s`` (:func:`_add_times_linear`).  A skipped state keeps its
    input polynomial, whose dict is copied only the first time something
    is added into it, so the input states never change.  States hold
    integer polynomials (denominator 1), homogeneous of degree l(cur).
    """
    rank = s.rs.rank
    npos = len(s.perm) >> 1
    # N(s) = {alpha_s}: its one bit is the index of alpha_s.
    k = _inversions(s).bit_length() - 1
    if target is None:
        nxt = dict(states)
    else:
        prefix_mask, target_len = target
        nxt = {
            cur: total
            for cur, total in states.items()
            if target_len - cur.length <= remaining
        }
    selected: dict = {}
    for cur, total in states.items():
        image = cur.perm[k]
        if image >= npos or target is not None and not prefix_mask >> image & 1:
            continue
        degree = cur.length + 1
        if degree > MAX_DEGREE:
            raise OverflowError(f"degree {degree} exceeds the bound {MAX_DEGREE}")
        w = cur * s
        terms = selected.get(w)
        if terms is None:
            skipped = nxt.get(w)
            terms = None if skipped is None else dict(skipped.terms)
        selected[w] = _add_times_linear(terms, total.terms, form, rank)
    for w, terms in selected.items():
        nxt[w] = Polynomial._of(rank, terms, 1)
    return nxt


def _subword_sums(rs: RootSystem, word, u: WeylElement | None = None, roots=None):
    """Sums of expanded subword contributions of ``word``, grouped by the
    element the selected letters evaluate to.

    A forward dynamic program of :func:`_subword_step`: after each
    position, every element reached by a reduced selection of the letters
    so far holds the sum of their contributions, so the work is positions
    times elements, not 2^m subwords.  A target ``u`` keeps only the
    states that can still end at it.  ``roots`` are :func:`_prefix_roots`'s,
    the linear form each letter contributes when selected.
    """
    word = tuple(word)
    if roots is None:
        roots, _ = _prefix_roots(rs, word)
    target = None if u is None else (_inversions(u.inverse()), u.length)
    states = {identity(rs): Polynomial.one(rs.rank)}
    for pos, root in enumerate(roots):
        states = _subword_step(
            states,
            simple_reflection(rs, word[pos]),
            root,
            target,
            len(word) - pos - 1,
        )
    return states


def tau_billey(u: WeylElement, v: WeylElement, word=None) -> Polynomial:
    """Restriction of the class of u at v via the subword formula.

    The subword sum is the dynamic program of ``_subword_sums``, targeted
    at u.  ``word`` defaults to the canonical reduced word of v; the
    result is independent of the choice (cross-checked by the
    verification suites, not assumed).
    """
    _require_same_system(u, v)
    if word is None:
        word = v.canonical_word
    word = tuple(word)
    roots, top = _prefix_roots(u.rs, word)
    if top != v:
        raise ValueError("word does not evaluate to v")
    return _subword_sums(u.rs, word, u, roots).get(u, Polynomial.zero(u.rs.rank))


class _MomentPoint:
    """The integer edge kernel of the moment-map chain sum at one point,
    for chains ending at v.

    ``mu`` gives the strictly positive fundamental-weight coordinates of
    the point and ``alpha_values`` the simple-root variable values; both
    are cleared of denominators.  An edge ratio is homogeneous of degree 0
    in mu, so mu is scaled freely.  A chain sum from u is homogeneous of
    degree l(u) in alpha, so :meth:`value` divides the sum at the scaled
    alpha by ``alpha_scale ** l(u)``.
    """

    __slots__ = ("v", "mu", "alpha", "alpha_scale", "products", "v_part")

    def __init__(self, v: WeylElement, mu, alpha_values):
        rank = v.rs.rank
        mu = _cleared(mu)[0]
        self.alpha, self.alpha_scale = _cleared(alpha_values)
        if len(mu) != rank or len(self.alpha) != rank:
            raise ValueError("mu and alpha_values must have length equal to the rank")
        if any(x <= 0 for x in mu):
            raise ValueError("mu must be strictly positive")
        self.v = v
        self.mu = mu
        #: mu_i alpha_j, in the order of the flattened omega images.
        self.products = tuple(m * t for m in self.mu for t in self.alpha)
        self.v_part = self._paired(v)

    def _paired(self, p: WeylElement) -> int:
        """sum_i mu_i <scale * p omega_i, alpha>."""
        images = itertools.chain.from_iterable(p.omega_images)
        return sum(map(mul, self.products, images))

    def numerator(self, beta) -> int:
        """scale * <mu, beta^vee>, the numerator of the edge ratio of beta."""
        rs = self.v.rs
        return rs.scale * sum(map(mul, self.mu, rs.pairings(beta)))

    def denominator(self, p: WeylElement) -> int:
        """scale * <mu, (p omega - v omega)(alpha)>, the denominator of every
        edge leaving p; a zero raises :class:`NonGenericPointError`."""
        got = self._paired(p) - self.v_part
        if got == 0:
            raise NonGenericPointError(
                f"denominator of the edges leaving {p!r} vanishes at the chosen point"
            )
        return got

    def value(self, numerator: int, denominator: int, length: int) -> Fraction:
        """lambda_minus(v)(alpha) times numerator / denominator, for a sum
        of chains from an element of length ``length``."""
        top = math.prod(
            sum(map(mul, root, self.alpha)) for root in inversion_roots(self.v)
        )
        return Fraction(top * numerator, denominator * self.alpha_scale**length)


def gt_term_eval(gamma: Chain, v: WeylElement, mu, alpha_values) -> Fraction:
    """Numeric contribution of one maximal chain at a moment-map point:
    lambda_minus(v)(alpha) times, for each edge p -s_beta->, the ratio
    <mu, beta^vee> / <mu, (p omega - v omega)(alpha)>.

    ``mu`` gives the strictly positive fundamental-weight coordinates of
    the point; ``alpha_values`` are the simple-root variable values.  A
    vanishing denominator raises :class:`NonGenericPointError` so the
    caller can resample.
    """
    if gamma.end != v:
        raise ValueError("chain does not end at v")
    _validate_saturated(gamma)
    point = _MomentPoint(v, mu, alpha_values)
    numerator = denominator = 1
    for p, beta in zip(gamma.elements, gamma.betas):
        numerator *= point.numerator(beta)
        denominator *= point.denominator(p)
    return point.value(numerator, denominator, gamma.elements[0].length)


def tau_gt_eval(u: WeylElement, v: WeylElement, mu, alpha_values) -> Fraction:
    """Numeric restriction via the moment-map chain sum: the sum of
    :func:`gt_term_eval` over every maximal chain from u to v, as a path
    sum over the Bruhat interval [u, v].

    The edge ratio's denominator depends only on the edge's lower end p,
    so the sum over the maximal chains from p to v is the sum, over the
    covers p -s_beta-> w below v, of <mu, beta^vee> times the sum from w,
    divided by <mu, (p omega - v omega)(alpha)>.  Each element's sum is
    computed once, as a reduced pair of integers; the covers below v come
    from the column of v, which checks each of them once for every point
    and every other walk up to v.  The interval is graded, so every element of [u, v) lies on a
    maximal chain, and a vanishing denominator raises
    :class:`NonGenericPointError` at exactly the points where some chain's
    term does.
    """
    _require_same_system(u, v)
    point = _MomentPoint(v, mu, alpha_values)
    if not bruhat_leq(u, v):
        return Fraction(0)
    column = _chain_column(v)
    sums = {v: (1, 1)}

    def total(p):
        got = sums.get(p)
        if got is not None:
            return got
        numerator, denominator = 0, 1
        for beta, w in covers_above(p):
            if not column.edge(p, beta, w):
                continue
            w_numerator, w_denominator = total(w)
            term = point.numerator(beta) * w_numerator
            if w_denominator == denominator:
                numerator += term
            else:
                g = math.gcd(denominator, w_denominator)
                numerator = numerator * (w_denominator // g)
                numerator += term * (denominator // g)
                denominator = denominator // g * w_denominator
        denominator *= point.denominator(p)
        g = math.gcd(numerator, denominator)
        got = sums[p] = (numerator // g, denominator // g)
        return got

    return point.value(*total(u), u.length)


def f_i_map(gamma: Chain, word) -> Subword:
    """Map an ascending chain to a subword by repeated letter deletion.

    Processes the edges in reverse order; each edge deletes one letter so
    that the remaining selected letters multiply to the next element
    down, choosing the rightmost valid deletion when several qualify.
    """
    word = tuple(word)
    rs = gamma.end.rs
    if gamma.end != _prefix_roots(rs, word)[1]:
        raise ValueError("chain does not end at the element of the word")
    _validate_ascending(gamma)
    mask = [1] * len(word)

    def product_without(selected, skip):
        prod = identity(rs)
        for q in selected:
            if q != skip:
                prod = prod * simple_reflection(rs, word[q])
        return prod

    for k in range(len(gamma.betas) - 1, -1, -1):
        target = gamma.elements[k]
        selected = [p for p in range(len(word)) if mask[p]]
        for p in reversed(selected):
            if product_without(selected, p) == target:
                mask[p] = 0
                break
        else:
            raise ValueError(
                f"no single deletion reaches {target!r}; invalid chain"
            )
    return Subword(word, tuple(mask))


@dataclass(frozen=True)
class GkmFailure:
    bottom: WeylElement
    top: WeylElement
    label: tuple

    def describe(self):
        lbl = Polynomial.from_linear(self.label).to_text()
        return f"edge {self.bottom!r} -- {self.top!r} with label {lbl}"


@dataclass(frozen=True)
class GkmReport:
    edges_checked: int
    failures: tuple

    @property
    def ok(self):
        return not self.failures


def gkm_check_class(rs: RootSystem, values) -> GkmReport:
    """Check edge-label divisibility of a vertex assignment over all of W.

    ``values`` maps every group element to a polynomial.  Every unordered
    pair {u, u s_beta} is visited once, from its ascending end; failures
    are reported as data, not raised.
    """
    elements = enumerate_elements(rs)
    missing = [u for u in elements if u not in values]
    if missing:
        raise ValueError(f"class is not defined on all of W: missing {missing[0]!r}")
    failures = []
    edges = 0
    for u in elements:
        for beta in rs.positive_roots:
            label = u.act(beta)
            if not is_positive(label):
                continue
            v = u * reflection(rs, beta)
            edges += 1
            difference = values[v] - values[u]
            if divide_linear(difference, label) is None:
                failures.append(GkmFailure(u, v, tuple(label)))
    return GkmReport(edges, tuple(failures))
