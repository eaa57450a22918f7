"""Restrictions of equivariant Schubert classes via chains and subwords.

The three computation routes:

* ``tau_chain`` -- sum of contributions of the maximal ascending chains
  whose edge roots have nondecreasing h statistic;
* ``tau_billey`` -- sum of subword contributions over the reduced
  subwords of a reduced word for the top element, by a dynamic program
  over the positions of the word;
* ``tau_gt_eval`` -- numeric evaluation of the moment-map-weighted chain
  sum at a chosen point, used as an independent cross-check.

All of them produce exact rational data and must agree; the ``verify``
module wires the cross-checks together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import div_exact
from .poly import (
    CancellationError,
    FactoredPoly,
    Polynomial,
    cancel_factor,
    divide_linear,
    expand,
)
from .rootsys import RootSystem, h_root, is_positive, weight_table
from .weyl import (
    WeylElement,
    bruhat_leq,
    covers_above,
    element_from_word,
    enumerate_elements,
    identity,
    inversion_roots,
    reflection,
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
    def start(self):
        return self.elements[0]

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


def _validate_ascending(gamma: Chain):
    """Each step must be u_k = u_{k-1} s_{beta_k} with the length increasing."""
    for k, beta in enumerate(gamma.betas):
        a = gamma.elements[k]
        b = gamma.elements[k + 1]
        if a * reflection(a.rs, beta) != b:
            raise ValueError(f"edge {k + 1} is not a right reflection by {beta}")
        if not is_positive(beta) or not is_positive(a.act(beta)):
            raise ValueError(f"edge {k + 1} is not ascending")


def _validate_saturated(gamma: Chain):
    _validate_ascending(gamma)
    if not gamma.is_maximal_length():
        raise ValueError("chain is not of maximal length")


def lambda_minus(v: WeylElement) -> FactoredPoly:
    """Product of the positive roots sent negative by v^{-1}."""
    return FactoredPoly(Fraction(1), inversion_roots(v), v.rs.rank)


def _walk_chains(u: WeylElement, v: WeylElement, monotone: bool):
    """Maximal ascending chains from u to v, deterministically.

    With ``monotone`` the h statistic of the edge roots must not decrease,
    and branches that break it are pruned as they are generated.
    """
    _require_same_system(u, v)
    if u == v:
        return (Chain((u,), ()),)
    if not bruhat_leq(u, v):
        return ()
    chains = []

    def walk(cur, elems, betas, floor):
        for beta, w in covers_above(cur):
            h = h_root(beta)
            if h < floor:
                continue
            if w == v:
                chains.append(Chain(elems + (w,), betas + (beta,)))
            elif w.length < v.length and bruhat_leq(w, v):
                walk(w, elems + (w,), betas + (beta,), h if monotone else 1)

    walk(u, (u,), (), 1)
    return tuple(chains)


def enumerate_max_chains(u: WeylElement, v: WeylElement):
    """All maximal-length ascending chains from u to v, deterministically.

    Returns the single empty chain when u == v and nothing when u is not
    below v.
    """
    return _walk_chains(u, v, monotone=False)


def enumerate_c0(u: WeylElement, v: WeylElement):
    """The maximal chains whose edge roots have nondecreasing h statistic.

    Generated directly with h-monotone pruning; agrees with filtering
    ``enumerate_max_chains`` (property-tested).
    """
    return _walk_chains(u, v, monotone=True)


def chain_contribution(gamma: Chain, v: WeylElement) -> FactoredPoly:
    """The factored contribution of one h-monotone maximal chain to tau_u(v).

    Starts from the full inversion product of v, multiplies the scalar by
    the coroot pairing of each edge, and cancels each denominator form
    against a proportional factor.  Pairings and weight differences are
    integers read from the weight table and the elements' omega images.
    """
    rs = v.rs
    if gamma.end != v:
        raise ValueError("chain does not end at v")
    _validate_saturated(gamma)
    weights = weight_table(rs)
    v_images = v.omega_images
    f = lambda_minus(v)
    numerators = 1
    prev_h = 0
    for k, beta in enumerate(gamma.betas):
        i = h_root(beta)
        if i < prev_h:
            raise ValueError("chain edge roots are not h-monotone")
        prev_h = i
        numerator = weights.pairings(beta)[i - 1]
        if numerator <= 0:
            raise CancellationError(
                f"expected a positive integer pairing, got {numerator}"
            )
        p_image = gamma.elements[k].omega_images[i - 1]
        denom = div_exact(
            tuple(a - b for a, b in zip(p_image, v_images[i - 1])), weights.scale
        )
        f = cancel_factor(f, denom)
        numerators *= numerator
    return FactoredPoly(f.scalar * numerators, f.factors, rs.rank)


def tau_chain(u: WeylElement, v: WeylElement) -> Polynomial:
    """Restriction of the class of u at v via the chain formula."""
    _require_same_system(u, v)
    cache = u.rs._cache.setdefault("tau_chain", {})
    key = (u, v)
    got = cache.get(key)
    if got is None:
        got = Polynomial.zero(u.rs.rank)
        for gamma in enumerate_c0(u, v):
            got = got + expand(chain_contribution(gamma, v))
        cache[key] = got
    return got


def _reduced_element(rs: RootSystem, word) -> WeylElement:
    """The element of ``word``, which must be a reduced word."""
    el = element_from_word(rs, word)
    if el.length != len(word):
        raise ValueError("word is not reduced")
    return el


def _prefix_roots(rs: RootSystem, word):
    """The factor each letter of the reduced ``word`` contributes when
    selected: its simple root moved by the product of the letters before."""
    _reduced_element(rs, word)
    roots = []
    prefix = identity(rs)
    for letter in word:
        roots.append(prefix.act(rs.simple_roots[letter - 1]))
        prefix = prefix * simple_reflection(rs, letter)
    return roots


def subword_contribution(rs: RootSystem, subword: Subword) -> FactoredPoly:
    """Product of prefix-transformed simple roots over the selected letters."""
    roots = _prefix_roots(rs, subword.word)
    factors = tuple(root for root, keep in zip(roots, subword.mask) if keep)
    return FactoredPoly(Fraction(1), factors, rs.rank)


def enumerate_reduced_subwords(u: WeylElement, word):
    """Masks whose selected letters form a reduced word for u."""
    rs = u.rs
    word = tuple(word)
    _reduced_element(rs, word)
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
        if cur_len < target_len:
            nxt = cur * simple_reflection(rs, word[pos])
            if nxt.length == cur_len + 1:
                mask.append(1)
                walk(pos + 1, nxt, cur_len + 1, mask)
                mask.pop()

    walk(0, identity(rs), 0, [])
    return tuple(sorted(found, key=lambda s: s.mask))


def _subword_sums(rs: RootSystem, word, u: WeylElement | None = None):
    """Sums of expanded subword contributions of ``word``, grouped by the
    element the selected letters evaluate to.

    A forward dynamic program: after each position, every element reached
    by a reduced selection of the letters so far holds the sum of their
    contributions, so the work is positions times elements, not 2^m
    subwords.  A target ``u`` drops the states that cannot end at it (too
    few letters left, or not a left prefix w of u: l(w^-1 u) = l(u) - l(w))
    without changing the sum at ``u``.
    """
    word = tuple(word)
    if u is not None:
        target_len = u.length
        u_inverse = u.inverse()
    states = {identity(rs): Polynomial.one(rs.rank)}
    for pos, root in enumerate(_prefix_roots(rs, word)):
        s = simple_reflection(rs, word[pos])
        factor = Polynomial.from_linear(root)
        remaining = len(word) - pos - 1
        nxt: dict = {}
        for cur, total in states.items():
            cur_len = cur.length
            if u is None or target_len - cur_len <= remaining:
                acc = nxt.get(cur)
                nxt[cur] = total if acc is None else acc + total
            w = cur * s
            if w.length != cur_len + 1:
                continue
            if u is not None and (u_inverse * w).length != target_len - w.length:
                continue
            acc = nxt.get(w)
            product = total * factor
            nxt[w] = product if acc is None else acc + product
        states = nxt
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
    if _reduced_element(u.rs, word) != v:
        raise ValueError("word does not evaluate to v")
    return _subword_sums(u.rs, word, u).get(u, Polynomial.zero(u.rs.rank))


def gt_term_eval(gamma: Chain, v: WeylElement, mu, alpha_values) -> Fraction:
    """Numeric contribution of one maximal chain at a moment-map point.

    ``mu`` gives the strictly positive fundamental-weight coordinates of
    the point; ``alpha_values`` are the simple-root variable values.  A
    vanishing denominator raises :class:`NonGenericPointError` so the
    caller can resample.
    """
    rs = v.rs
    if gamma.end != v:
        raise ValueError("chain does not end at v")
    _validate_saturated(gamma)
    mu = tuple(Fraction(x) for x in mu)
    alpha = tuple(Fraction(x) for x in alpha_values)
    if len(mu) != rs.rank or len(alpha) != rs.rank:
        raise ValueError("mu and alpha_values must have length equal to the rank")
    if any(x <= 0 for x in mu):
        raise ValueError("mu must be strictly positive")
    weights = weight_table(rs)
    value = lambda_minus(v).evaluate(alpha)
    v_images = v.omega_images
    for k, beta in enumerate(gamma.betas):
        numerator = sum(m * c for m, c in zip(mu, weights.pairings(beta)))
        p_images = gamma.elements[k].omega_images
        # scale * (p omega_i - v omega_i), paired with alpha and weighted by mu.
        scaled_denom = sum(
            m * sum((a - b) * t for a, b, t in zip(pw, vw, alpha))
            for m, pw, vw in zip(mu, p_images, v_images)
        )
        if scaled_denom == 0:
            raise NonGenericPointError(
                f"denominator of edge {k + 1} vanishes at the chosen point"
            )
        value *= numerator * weights.scale / scaled_denom
    return value


def tau_gt_eval(u: WeylElement, v: WeylElement, mu, alpha_values) -> Fraction:
    """Numeric restriction via the full moment-map chain sum."""
    _require_same_system(u, v)
    total = Fraction(0)
    for gamma in enumerate_max_chains(u, v):
        total += gt_term_eval(gamma, v, mu, alpha_values)
    return total


def f_i_map(gamma: Chain, word) -> Subword:
    """Map an ascending chain to a subword by repeated letter deletion.

    Processes the edges in reverse order; each edge deletes one letter so
    that the remaining selected letters multiply to the next element
    down, choosing the rightmost valid deletion when several qualify.
    """
    word = tuple(word)
    rs = gamma.end.rs
    if gamma.end != _reduced_element(rs, word):
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
