import math
import random
from itertools import permutations

import pytest

from bmwparam.diagrams import (BrauerDiagram, CellDatum, compose,
                               count_ideal_spanning, count_regular,
                               enumerate_diagrams, enumerate_ideal_spanning,
                               enumerate_regular, extend_cell_datum, factorize,
                               free_exponent_positions)


def double_factorial(n):
    return math.factorial(2 * n) // (2 ** n * math.factorial(n))


def transposition(i, n):
    """s_i: the permutation diagram swapping positions i, i+1 (1-based)."""
    perm = list(range(n))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return BrauerDiagram.permutation(perm)


def test_enumeration_counts():
    for n in range(1, 5):
        diagrams = list(enumerate_diagrams(n))
        assert len(diagrams) == double_factorial(n)
        assert len(set(diagrams)) == len(diagrams)
    with pytest.raises(ValueError):
        list(enumerate_diagrams(7))


def test_enumeration_deterministic():
    a = [d.partner for d in enumerate_diagrams(3)]
    b = [d.partner for d in enumerate_diagrams(3)]
    assert a == b


def test_cap_squared_gives_one_loop():
    for n in (2, 3, 4):
        for i in range(1, n):
            e = BrauerDiagram.cap(i, n)
            d, loops = compose(e, e)
            assert d == e and loops == 1


def test_cap_absorption_neighbours():
    # e_i e_{i+1} e_i = e_i and e_{i+1} e_i e_{i+1} = e_{i+1}, no loops
    for n in (3, 4, 5):
        for i in range(1, n - 1):
            ei = BrauerDiagram.cap(i, n)
            ej = BrauerDiagram.cap(i + 1, n)
            for first, second in ((ei, ej), (ej, ei)):
                d, l1 = compose(first, second)
                d, l2 = compose(d, first)
                assert d == first and l1 + l2 == 0


def test_identity_neutral():
    ident = BrauerDiagram.identity(3)
    for g in enumerate_diagrams(3):
        left, l1 = compose(ident, g)
        right, l2 = compose(g, ident)
        assert left == g and right == g and l1 == l2 == 0


def test_transposition_relations():
    for n in (2, 3, 4):
        for i in range(1, n):
            s = transposition(i, n)
            d, loops = compose(s, s)
            assert d == BrauerDiagram.identity(n) and loops == 0
            e = BrauerDiagram.cap(i, n)
            d, loops = compose(e, s)      # e_i s_i = e_i
            assert d == e and loops == 0
            d, loops = compose(s, e)      # s_i e_i = e_i
            assert d == e and loops == 0


def test_tangle_relations_with_shifts():
    # s_i e_{i+1} e_i = s_{i+1} e_i and e_{i+1} e_i s_{i+1} = e_{i+1} s_i
    def prod(*ds):
        acc, total = ds[0], 0
        for d in ds[1:]:
            acc, loops = compose(acc, d)
            total += loops
        return acc, total

    for n in (3, 4, 5):
        for i in range(1, n - 1):
            si = transposition(i, n)
            si1 = transposition(i + 1, n)
            ei = BrauerDiagram.cap(i, n)
            ei1 = BrauerDiagram.cap(i + 1, n)
            assert prod(si, ei1, ei) == prod(si1, ei)
            assert prod(ei, ei1, si) == prod(ei, si1)
            assert prod(ei1, ei, si1) == prod(ei1, si)
            assert prod(si1, ei, ei1) == prod(si, ei1)


def test_permutation_diagrams_compose_like_maps():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 5)
        sigma = list(range(n)); rng.shuffle(sigma)
        tau = list(range(n)); rng.shuffle(tau)
        d, loops = compose(BrauerDiagram.permutation(sigma),
                           BrauerDiagram.permutation(tau))
        assert loops == 0
        assert d == BrauerDiagram.permutation([sigma[tau[i]] for i in range(n)])


def test_compose_associative_with_loop_additivity():
    rng = random.Random(9)
    for n in (2, 3, 4):
        pool = list(enumerate_diagrams(n))
        for _ in range(15):
            a, b, c = (rng.choice(pool) for _ in range(3))
            ab, l_ab = compose(a, b)
            left, l_left = compose(ab, c)
            bc, l_bc = compose(b, c)
            right, l_right = compose(a, bc)
            assert left == right
            assert l_ab + l_left == l_bc + l_right


def test_factorize_examples():
    fac = factorize(BrauerDiagram.cap(1, 2))
    assert fac.f == 1 and fac.alpha == (0, 1) and fac.beta == (0, 1)
    for perm in permutations(range(4)):
        fac = factorize(BrauerDiagram.permutation(perm))
        assert fac.f == 0 and fac.pi == perm


def test_factorize_round_trip_through_n5():
    for n in range(1, 6):
        for gamma in enumerate_diagrams(n):
            fac = factorize(gamma)
            assert 2 * fac.f == gamma.horizontal_count()
            rebuilt, loops = fac.recompose()
            assert rebuilt == gamma and loops == 0


def test_regular_monomial_counts():
    for n in (1, 2, 3):
        for bound in (1, 2, 3):
            monomials = list(enumerate_regular(n, bound))
            assert len(monomials) == count_regular(n, bound) \
                == bound ** n * double_factorial(n)
    assert sum(1 for _ in enumerate_regular(2, 2)) == 12
    assert sum(1 for _ in enumerate_regular(1, 7)) == 7


def test_regular_monomial_support_constraints():
    for mono in enumerate_regular(3, 2):
        gamma = mono.gamma
        bottom_left = {left for left, _ in gamma.bottom_horizontal()}
        top_ok = {left for left, _ in gamma.top_horizontal()} \
            | {t for _, t in gamma.vertical()}
        for i in range(3):
            if mono.p[i]:
                assert i in bottom_left
            if mono.q[i]:
                assert i in top_ok


def test_free_positions_count_is_n():
    for n in (1, 2, 3, 4):
        for gamma in enumerate_diagrams(n):
            p_pos, q_pos = free_exponent_positions(gamma)
            assert len(p_pos) + len(q_pos) == n


def test_ideal_spanning_counts():
    assert sum(1 for _ in enumerate_ideal_spanning(2, 1)) == 1
    for n in (1, 2, 3):
        for bound in (1, 2):
            got = sum(1 for _ in enumerate_ideal_spanning(n, bound))
            assert got == count_ideal_spanning(n, bound) \
                == bound ** n * (double_factorial(n) - math.factorial(n))


def test_ideal_spanning_shapes():
    for elt in enumerate_ideal_spanning(3, 2):
        f = len(elt.gamma.top_horizontal())
        assert f >= 1
        assert len(elt.a) == len(elt.b) == f
        assert len(elt.c) == 3 - 2 * f


def test_cell_datum_extension():
    J = CellDatum((("ideal-a", 2), ("ideal-b", 3)))
    H = CellDatum((("hecke-a", 4),), frozenset())
    E = extend_cell_datum(J, H)
    assert E.rank() == J.rank() + H.rank() == 4 + 9 + 16
    assert ("hecke-a", "ideal-a") in E.order
    assert ("hecke-a", "ideal-b") in E.order


def test_cell_datum_rank_matches_spanning_counts():
    # ideal part d^n b'(n) as a sum of 1x1 cells, Hecke part r^n n!
    n, r, d = 2, 3, 1
    ideal_rank = count_ideal_spanning(n, d)
    hecke_rank = r ** n * math.factorial(n)
    J = CellDatum(tuple((f"j{i}", 1) for i in range(ideal_rank)))
    H = CellDatum(tuple((f"h{i}", 1) for i in range(hecke_rank)))
    E = extend_cell_datum(J, H)
    assert E.rank() == ideal_rank + hecke_rank == 19


def test_cell_datum_empty_ideal():
    H = CellDatum((("h", 2),))
    E = extend_cell_datum(CellDatum(()), H)
    assert E.sizes == H.sizes and E.rank() == H.rank()


def test_cell_datum_collision():
    with pytest.raises(ValueError):
        extend_cell_datum(CellDatum((("x", 1),)), CellDatum((("x", 2),)))


def test_diagram_validation():
    with pytest.raises(ValueError):
        BrauerDiagram(2, (1, 0, 2, 3))   # vertex 2 partnered with itself
    bad_tables = [(1, 0, -1, -1),        # vertices 2 and 3 left unpaired
                  (1, 0, 3, -1),         # vertex 3 left unpaired
                  (1, 0, 4, 2),          # partner 4 out of range
                  (1, 0, 3, 5),          # partner 5 out of range
                  (1, 0, -2, 2),         # negative partner
                  (2, 0, 1, 3)]          # 0 -> 2 but 2 -> 1: asymmetric
    for table in bad_tables:
        with pytest.raises(ValueError):
            BrauerDiagram(2, table)
    with pytest.raises(ValueError):
        BrauerDiagram(2, (1, 0, 3))      # too short
    bad_pairs = [[(0, 1)],               # vertices 2 and 3 left unpaired
                 [(0, 1), (2, 4)],       # vertex 4 out of range
                 [(0, 1), (2, -1)],      # negative vertex
                 [(0, 1), (1, 2), (2, 3)]]   # vertices 1 and 2 paired twice
    for pairs in bad_pairs:
        with pytest.raises(ValueError):
            BrauerDiagram.from_pairs(2, pairs)
    with pytest.raises(ValueError):
        compose(BrauerDiagram.identity(2), BrauerDiagram.identity(3))
    with pytest.raises(ValueError):
        compose(BrauerDiagram.cap(1, 3), BrauerDiagram.cap(1, 2))
    for f, n in ((2, 3), (-1, 3), (1, 1), (3, 5)):
        with pytest.raises(ValueError):
            BrauerDiagram.half_caps(f, n)
    for perm in ([0, 5], [1, 1], [-1, 0], [0, 2]):
        with pytest.raises(ValueError):
            BrauerDiagram.permutation(perm)
    assert BrauerDiagram.half_caps(0, 3) == BrauerDiagram.identity(3)
    assert BrauerDiagram.half_caps(2, 4).horizontal_count() == 4
    assert BrauerDiagram.permutation([]) == BrauerDiagram.identity(0)


# ------------------------------------------------------------------ oracle
def oracle_compose(d1, d2):
    """Union-find route: same stacking semantics, independent bookkeeping."""
    n = d1.n
    # nodes 0..n-1: result bottom; n..2n-1: result top; 2n..3n-1: seam
    parent = list(range(3 * n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    # d2 sits below: its bottoms are result bottoms, its tops are seam
    for v, w in d2.strands():
        a = v if v < n else 2 * n + (v - n)
        b = w if w < n else 2 * n + (w - n)
        union(a, b)
    # d1 sits above: its bottoms are seam, its tops are result tops
    for v, w in d1.strands():
        a = 2 * n + v if v < n else n + (v - n)
        b = 2 * n + w if w < n else n + (w - n)
        union(a, b)
    outer = list(range(2 * n))
    groups = {}
    for v in outer:
        groups.setdefault(find(v), []).append(v)
    pairs = []
    for members in groups.values():
        assert len(members) == 2
        pairs.append(tuple(members))
    # loops: seam components containing no outer vertex
    seam_groups = {}
    for v in range(2 * n, 3 * n):
        root = find(v)
        if any(find(o) == root for o in outer):
            continue
        seam_groups.setdefault(root, set()).add(v)
    # every seam vertex has degree 2, so each closed component is one cycle
    loops = len(seam_groups)
    return BrauerDiagram.from_pairs(n, pairs), loops


def test_compose_matches_union_find_oracle_exhaustive():
    pool = list(enumerate_diagrams(3))
    for d1 in pool:
        for d2 in pool:
            got_d, got_loops = compose(d1, d2)
            want_d, want_loops = oracle_compose(d1, d2)
            assert got_d == want_d, (d1, d2)
            assert got_loops == want_loops, (d1, d2)


def test_compose_matches_union_find_oracle_random_n4():
    rng = random.Random(14)
    pool = list(enumerate_diagrams(4))
    for _ in range(60):
        d1, d2 = rng.choice(pool), rng.choice(pool)
        assert compose(d1, d2) == oracle_compose(d1, d2)


def random_diagram(rng, n):
    """A uniformly random perfect matching, built without enumeration."""
    vertices = list(range(2 * n))
    rng.shuffle(vertices)
    return BrauerDiagram.from_pairs(n, zip(vertices[::2], vertices[1::2]))


def test_compose_matches_union_find_oracle_random():
    rng = random.Random(2010)
    for n in (1, 5, 6):
        loop_counts = set()
        for _ in range(200):
            d1, d2 = random_diagram(rng, n), random_diagram(rng, n)
            got_d, got_loops = compose(d1, d2)
            want_d, want_loops = oracle_compose(d1, d2)
            assert got_d == want_d, (d1, d2)
            assert got_loops == want_loops, (d1, d2)
            loop_counts.add(got_loops)
        if n > 1:
            assert len(loop_counts) > 1    # closed loops were exercised


def recursive_enumeration(n):
    """The enumeration order as first written: pair the lowest free vertex
    with each later free vertex, recursing on the free list."""
    def rec(free, pairs):
        if not free:
            yield BrauerDiagram.from_pairs(n, pairs)
            return
        v = free[0]
        for w in free[1:]:
            yield from rec([x for x in free[1:] if x != w], pairs + [(v, w)])

    yield from rec(list(range(2 * n)), [])


def test_enumeration_order_matches_recursive_oracle():
    for n in range(7):
        got = [d.partner for d in enumerate_diagrams(n)]
        want = [d.partner for d in recursive_enumeration(n)]
        assert got == want, n
