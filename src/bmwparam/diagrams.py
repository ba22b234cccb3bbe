"""Brauer diagram combinatorics.

A diagram on n strands is a perfect matching of n bottom and n top vertices,
held as its partner table.  Composition stacks two diagrams and walks their
two partner tables across the seam where they meet, counting the closed loops
that form there; the loop count is returned, never multiplied into anything,
so the same engine serves any coefficient ring.

Every diagram with 2f horizontal strands factors uniquely as

    gamma = alpha . (E_1 E_3 ... E_{2f-1}) . pi . beta^{-1}

with pi a permutation of the last n - 2f positions and alpha, beta the
canonical order-preserving coset representatives fixed here: alpha sends the
position pair (2i-1, 2i) to the i-th top horizontal strand ordered by left
endpoint and is order-preserving elsewhere, and beta does the same at the
bottom.  The factorization indexes the spanning elements T_{gamma, a, b, c};
counting them gives the rank formulas checked in the semi-admissibility
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Tuple

ENUMERATION_CAP = 6


class BrauerDiagram:
    """Perfect matching on vertices 0..2n-1; bottom i is i, top i is n + i."""

    __slots__ = ("n", "partner")

    def __init__(self, n: int, partner):
        partner = tuple(partner)
        if len(partner) != 2 * n:
            raise ValueError("partner table must list all 2n vertices")
        for v, w in enumerate(partner):
            if w == v or not 0 <= w < 2 * n or partner[w] != v:
                raise ValueError(f"not a perfect matching at vertex {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "partner", partner)

    def __setattr__(self, name, value):
        raise AttributeError("BrauerDiagram is immutable")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "BrauerDiagram":
        partner = [-1] * (2 * n)
        for v, w in pairs:
            if not (0 <= v < 2 * n and 0 <= w < 2 * n):
                raise ValueError(f"pair ({v}, {w}) leaves vertices 0..{2 * n - 1}")
            partner[v], partner[w] = w, v
        return cls(n, partner)

    @classmethod
    def identity(cls, n: int) -> "BrauerDiagram":
        return cls.from_pairs(n, [(i, n + i) for i in range(n)])

    @classmethod
    def cap(cls, i: int, n: int) -> "BrauerDiagram":
        """E_i: horizontal strands joining positions i, i+1 (1-based) at the
        bottom and at the top, all other strands vertical."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"cap index {i} out of range for n={n}")
        pairs = [(i - 1, i), (n + i - 1, n + i)]
        pairs += [(j, n + j) for j in range(n) if j not in (i - 1, i)]
        return cls.from_pairs(n, pairs)

    @classmethod
    def permutation(cls, perm) -> "BrauerDiagram":
        """Diagram of a permutation given 0-based: bottom i to top perm[i]."""
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"{list(perm)} is not a permutation of 0..{n - 1}")
        partner = [-1] * (2 * n)
        for i, t in enumerate(perm):
            partner[i], partner[n + t] = n + t, i
        return cls(n, partner)

    @classmethod
    def half_caps(cls, f: int, n: int) -> "BrauerDiagram":
        """E_1 E_3 ... E_{2f-1}: f nested-free cap pairs then verticals."""
        if not 0 <= 2 * f <= n:
            raise ValueError(f"{f} cap pairs do not fit on n={n} strands")
        partner = [*range(n, 2 * n), *range(n)]
        for base in (0, n):
            for v in range(base, base + 2 * f, 2):
                partner[v], partner[v + 1] = v + 1, v
        return cls(n, partner)

    def strands(self):
        return [(v, w) for v, w in enumerate(self.partner) if v < w]

    def bottom_horizontal(self):
        """Bottom horizontal strands as (left, right) position pairs."""
        n = self.n
        return [(v, w) for v, w in enumerate(self.partner[:n]) if v < w < n]

    def top_horizontal(self):
        """Top horizontal strands as 0-based (left, right) position pairs."""
        n = self.n
        return [(i, w - n) for i, w in enumerate(self.partner[n:])
                if w - n > i]

    def vertical(self):
        """Vertical strands as (bottom, top) position pairs."""
        n = self.n
        return [(v, w - n) for v, w in enumerate(self.partner[:n]) if w >= n]

    def horizontal_count(self) -> int:
        """Total number of horizontal strands (top plus bottom), always even."""
        # as many top as bottom horizontal strands, so their total is the
        # number of bottom vertices on one
        n = self.n
        return sum(w < n for w in self.partner[:n])

    def __eq__(self, other):
        if not isinstance(other, BrauerDiagram):
            return NotImplemented
        return self.n == other.n and self.partner == other.partner

    def __hash__(self):
        return hash((self.n, self.partner))

    def __repr__(self):
        bh = self.bottom_horizontal()
        th = self.top_horizontal()
        vs = self.vertical()
        return (f"BrauerDiagram(n={self.n}, bottom={bh}, top={th}, "
                f"vertical={vs})")


def compose(d1: BrauerDiagram, d2: BrauerDiagram) -> Tuple[BrauerDiagram, int]:
    """The product d1 d2: d1 stacked above d2, with closed loops counted.

    Returns (diagram, loop_count); the scalar factor omega_0^loops is the
    caller's business.
    """
    if d1.n != d2.n:
        raise ValueError("strand count mismatch")
    n = d1.n
    upper, lower = d1.partner, d2.partner
    # seam point i is both d1's bottom i and d2's top n + i; d1's tops and
    # d2's bottoms keep their vertex numbers in the product
    out = [-1] * (2 * n)
    crossed = [False] * n
    for v in range(2 * n):
        if out[v] >= 0:
            continue
        in_upper = v >= n
        w = upper[v] if in_upper else lower[v]
        while (w < n) == in_upper:  # w is a seam point: cross it
            if in_upper:
                crossed[w] = True
                w = lower[n + w]
            else:
                crossed[w - n] = True
                w = upper[w - n]
            in_upper = not in_upper
        out[v], out[w] = w, v
    # every seam point no path crossed lies on a closed loop, and every
    # d1 strand on a loop joins two seam points
    loops = 0
    for s in range(n):
        if crossed[s]:
            continue
        loops += 1
        while not crossed[s]:
            t = upper[s]
            crossed[s] = crossed[t] = True
            s = lower[n + t] - n
    return BrauerDiagram(n, out), loops


def enumerate_diagrams(n: int) -> Iterator[BrauerDiagram]:
    """All (2n-1)!! diagrams on n strands, in a deterministic order: the
    lowest free vertex is paired with each later free vertex in turn."""
    if n > ENUMERATION_CAP:
        raise ValueError(f"diagram enumeration capped at n <= {ENUMERATION_CAP}")
    partner = [-1] * (2 * n)

    def fill(v):
        while v < 2 * n and partner[v] >= 0:
            v += 1
        if v == 2 * n:
            yield BrauerDiagram(n, partner)
            return
        for w in range(v + 1, 2 * n):
            if partner[w] < 0:
                partner[v], partner[w] = w, v
                yield from fill(v + 1)
                partner[v] = partner[w] = -1

    yield from fill(0)


@dataclass(frozen=True)
class BrauerFactorization:
    """Canonical (alpha, f, pi, beta) with
    gamma = alpha . half_caps(f) . pi . beta^{-1}."""

    n: int
    f: int
    alpha: Tuple[int, ...]
    pi: Tuple[int, ...]
    beta: Tuple[int, ...]

    def recompose(self) -> Tuple[BrauerDiagram, int]:
        n = self.n
        beta_inv = _invert(self.beta)
        d, loops = compose(BrauerDiagram.permutation(self.alpha),
                           BrauerDiagram.half_caps(self.f, n))
        d, l2 = compose(d, BrauerDiagram.permutation(self.pi))
        d, l3 = compose(d, BrauerDiagram.permutation(beta_inv))
        return d, loops + l2 + l3


def _invert(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def _coset_representative(horizontal, n):
    """Order-preserving representative: position pairs (2i, 2i+1) onto the
    i-th horizontal strand, remaining positions onto the rest in order."""
    paired = [v for strand in horizontal for v in strand]
    used = set(paired)
    return (*paired, *(v for v in range(n) if v not in used))


def factorize(gamma: BrauerDiagram) -> BrauerFactorization:
    """The canonical factorization; certified by recomposition."""
    n = gamma.n
    tops = gamma.top_horizontal()
    f = len(tops)
    alpha = _coset_representative(tops, n)
    beta = _coset_representative(gamma.bottom_horizontal(), n)
    # beta lists the vertical strands' bottoms in order after its 2f paired
    # positions, and vertical() is sorted by bottom
    alpha_inv = _invert(alpha)
    pi = (*range(2 * f), *(alpha_inv[t] for _, t in gamma.vertical()))
    fac = BrauerFactorization(n, f, alpha, pi, beta)
    check, loops = fac.recompose()
    if check != gamma or loops:
        raise AssertionError(f"factorization failed to recompose {gamma!r}")
    return fac


@dataclass(frozen=True)
class RegularMonomial:
    """Spanning element y^p gamma y^q with the support constraints:
    p_i = 0 unless bottom vertex i starts a horizontal strand, q_i = 0
    unless top vertex i starts a horizontal strand or ends a vertical one."""

    gamma: BrauerDiagram
    p: Tuple[int, ...]
    q: Tuple[int, ...]


@dataclass(frozen=True)
class IndexedSpanningElement:
    """Spanning element T_{gamma, a, b, c}: exponents a, b sit on the odd
    positions 1, 3, ..., 2f-1 (1-based) and c on positions 2f+1..n."""

    gamma: BrauerDiagram
    a: Tuple[int, ...]
    b: Tuple[int, ...]
    c: Tuple[int, ...]


def free_exponent_positions(gamma: BrauerDiagram):
    """(bottom positions for p, top positions for q), 0-based."""
    p_pos = [left for left, _ in gamma.bottom_horizontal()]
    q_pos = sorted([left for left, _ in gamma.top_horizontal()]
                   + [t for _, t in gamma.vertical()])
    return p_pos, q_pos


def enumerate_regular(n: int, bound: int) -> Iterator[RegularMonomial]:
    """All regular monomials with exponents < bound; there are
    bound^n (2n-1)!! of them."""
    for gamma in enumerate_diagrams(n):
        p_pos, q_pos = free_exponent_positions(gamma)
        free = len(p_pos) + len(q_pos)
        for exps in product(range(bound), repeat=free):
            p = [0] * n
            q = [0] * n
            for pos, e in zip(p_pos, exps[:len(p_pos)]):
                p[pos] = e
            for pos, e in zip(q_pos, exps[len(p_pos):]):
                q[pos] = e
            yield RegularMonomial(gamma, tuple(p), tuple(q))


def count_regular(n: int, bound: int) -> int:
    return bound ** n * double_factorial_odd(n)


def enumerate_ideal_spanning(n: int, bound: int) -> Iterator[IndexedSpanningElement]:
    """All T_{gamma, a, b, c} with exponents < bound over diagrams having at
    least one horizontal strand; there are bound^n ((2n-1)!! - n!) of them."""
    # exponent tuples of each length f <= n/2 and n - 2f <= n - 2; the
    # product of (a, b, c) runs through a + b + c in the order of
    # product(range(bound), repeat=n)
    exponents = [tuple(product(range(bound), repeat=k))
                 for k in range(max(n // 2, n - 2) + 1)]
    for gamma in enumerate_diagrams(n):
        f = gamma.horizontal_count() // 2
        if not f:
            continue
        for a, b, c in product(exponents[f], exponents[f], exponents[n - 2 * f]):
            yield IndexedSpanningElement(gamma, a, b, c)


def count_ideal_spanning(n: int, bound: int) -> int:
    return bound ** n * b_prime(n)


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1 * 3 * ... * (2n-1); the number of pairings of 2n points."""
    out = 1
    for k in range(1, n + 1):
        out *= 2 * k - 1
    return out


def b_prime(n: int) -> int:
    """Pairings of 2n points with at least one horizontal pair."""
    return double_factorial_odd(n) - math.factorial(n)


@dataclass(frozen=True)
class CellDatum:
    """Poset of cell labels with the size of each index set T(label).

    order holds strict relations as (lower, higher) pairs; rank is
    sum |T(label)|^2.
    """

    sizes: Tuple[Tuple[str, int], ...]
    order: frozenset = frozenset()

    def labels(self):
        return tuple(lbl for lbl, _ in self.sizes)

    def rank(self) -> int:
        return sum(size * size for _, size in self.sizes)


def extend_cell_datum(cell_ideal: CellDatum, cell_quotient: CellDatum) -> CellDatum:
    """Cell datum of an extension: ideal labels all above quotient labels.

    Label sets must be disjoint; the rank is additive.
    """
    ideal_labels = set(cell_ideal.labels())
    quotient_labels = set(cell_quotient.labels())
    clash = ideal_labels & quotient_labels
    if clash:
        raise ValueError(f"label collision: {sorted(clash)}")
    cross = {(h, j) for h in quotient_labels for j in ideal_labels}
    return CellDatum(cell_ideal.sizes + cell_quotient.sizes,
                     cell_ideal.order | cell_quotient.order | frozenset(cross))
