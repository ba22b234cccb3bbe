"""Seeded workload generator.

A workload is a fixed list of request slots.  Each slot fixes the request's
shape (subcommand or library call, field, root count, order, expected
verdict); the seed draws only the values inside it (roots, primes from a
fixed list, tamper positions, diagrams), from ranges chosen so that a slot
costs about the same on every seed.  Ground truth comes from the
construction and from the independent routes in ``oracle``, never from the
program under test.

A request is a dict:

* ``kind``: ``"cli"`` (``argv`` for ``bmwparam.cli.main``) or ``"lib"``
  (``call`` and JSON ``args`` for a library call, see ``worker.LIB_CALLS``);
* ``label``: a short description;
* ``expect``: what the checker compares the response against.
"""

from __future__ import annotations

import json
import math
import os
import itertools
import random
from fractions import Fraction
from itertools import combinations

import oracle as O

WORKLOADS = ("series-long", "search-mix")


class Builder:
    """Writes parameter files into ``workdir`` and collects requests."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.requests = []

    def doc(self, doc):
        path = os.path.join(self.workdir, f"doc{len(self.requests):03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def cli(self, label, argv, expect):
        self.requests.append({"kind": "cli", "label": label,
                              "argv": argv + ["--json"], "expect": expect})

    def lib(self, label, call, args, expect):
        self.requests.append({"kind": "lib", "label": label, "call": call,
                              "args": args, "expect": expect})


# ---------------------------------------------------------------- documents

def _document(F, kind, us, omega, rho=None, q=None):
    doc = {"kind": kind, "field": F.descriptor,
           "u": [F.fmt(x) for x in us], "omega": omega}
    if kind == "nondegenerate":
        doc["rho"] = F.fmt(rho)
        doc["q"] = F.fmt(q)
    return doc


def _prefix_omega(F, prefix, closure=None):
    out = {"prefix": [F.fmt(x) for x in prefix]}
    if closure is not None:
        out["closure"] = [F.fmt(x) for x in closure]
    return out


def _extend(F, init, closure, order):
    """init[0..r-1] extended through index order by the monic recursion."""
    r = len(closure)
    vals = list(init)
    while len(vals) <= order:
        ell = len(vals) - r
        acc = F.zero
        for j, aj in enumerate(closure):
            acc = F.sub(acc, F.mul(aj, vals[j + ell]))
        vals.append(acc)
    return vals


def _distinct(rng, draw, count, reject=lambda x, chosen: False):
    chosen = []
    while len(chosen) < count:
        x = draw()
        if x in chosen or reject(x, chosen):
            continue
        chosen.append(x)
    return chosen


# Rational roots: denominators alternate 2, 3 and numerators come from
# short lists, so the size of every series coefficient, and with it a slot's
# cost, is nearly the same on every seed; the seed picks numerators and signs.
RATIONAL_NUMERATORS = {2: (7, 9, 11, 13), 3: (7, 10, 11, 13)}


def _rational_roots(rng, r):
    out = []
    for i in range(r):
        den = 2 + i % 2
        used = {abs(x.numerator) for x in out if x.denominator == den}
        num = rng.choice([n for n in RATIONAL_NUMERATORS[den] if n not in used])
        out.append(Fraction(rng.choice((-1, 1)) * num, den))
    return out


def _roots(rng, F, r):
    if isinstance(F, O.Rational):
        return _rational_roots(rng, r)
    if isinstance(F, O.Prime):
        return _distinct(rng, lambda: rng.randrange(2, F.p - 1), r)
    return _distinct(rng, lambda: rng.randrange(2, F.size), r)


def _q_value(rng, F):
    if isinstance(F, O.Rational):
        return rng.choice((Fraction(2), Fraction(3), Fraction(-2), Fraction(-3),
                           Fraction(3, 2), Fraction(5, 2)))
    return rng.randrange(2, 50)


def _rho_branches(F, us, q):
    p = O.product(F, us)
    if len(us) % 2 == 1:
        return [p, O.neg(F, p)]
    return [F.mul(F.inv(q), p), O.neg(F, F.mul(q, p))]


def _report(passed, witness=None):
    return {"passed": passed, "witness": witness}


def _first_wy_ell(F, closure, k, r):
    """First Wilcox-Yu bracket relation that sees a change of omega_k."""
    acoeffs = list(closure) + [F.one]
    for ell in range(1, r):
        if k <= r - ell and acoeffs[k + ell] != F.zero:
            return ell
    return None


# -------------------------------------------------------------- series-long

SERIES_PRIMES = (10007, 30011, 65521, 100003)


def _series_check(b, F, kind, r, order, mode):
    """A ``check`` request: mode is "from_u", "honest" or "tampered"."""
    rng = b.rng
    us = _roots(rng, F, r)
    rho = q = None
    if kind == "nondegenerate":
        q = _q_value(rng, F)
        rho = rng.choice(_rho_branches(F, us, q))
        omega = O.nondegenerate_omega(F, us, rho, q, order)
    else:
        omega = O.degenerate_omega(F, us, order)
    closure = O.closure(F, us)
    label = f"check {mode} {kind[:3]} {F.descriptor['type']} r={r} order={order}"
    if mode == "from_u":
        doc = _document(F, kind, us, {"from_u": True, "order": order}, rho, q)
    elif mode == "honest":
        doc = _document(F, kind, us, _prefix_omega(F, omega, closure), rho, q)
    else:
        # bump one initial value and re-close it with the true recursion:
        # the closure still holds, the sequence is no longer admissible
        k = rng.randrange(1 if kind == "nondegenerate" else 0, r)
        init = list(omega[:r])
        init[k] = F.add(init[k], F.one)
        doc = _document(F, kind, us,
                        _prefix_omega(F, _extend(F, init, closure, order), closure),
                        rho, q)
    if mode != "tampered":
        reports = ({"": _report(True)} if kind == "degenerate" else
                   {"wilcox_yu": _report(True), "rui_xu": _report(True)})
        expect = {"check": "report", "exit": 0, "passed": True, "reports": reports}
    elif kind == "degenerate":
        expect = {"check": "report", "exit": 1, "passed": False,
                  "reports": {"": _report(False, ["relations", str(r - 1 - k)])}}
    else:
        ell = _first_wy_ell(F, closure, k, r)
        wy = _report(True) if ell is None else _report(False, ["wy-relations", str(ell)])
        expect = {"check": "report", "exit": 1, "passed": False,
                  "reports": {"wilcox_yu": wy,
                              "rui_xu": _report(False, ["generating-function", str(k)])}}
    b.cli(label, ["check", "--file", b.doc(doc)], expect)


def _gen_omega(b, F, r, order):
    us = _roots(b.rng, F, r)
    omega = O.degenerate_omega(F, us, order)
    doc = _document(F, "degenerate", us, {"from_u": True, "order": order})
    b.cli(f"gen-omega deg {F.descriptor['type']} r={r} order={order}",
          ["gen-omega", "--file", b.doc(doc)],
          {"check": "omega", "exit": 0, "omega": [F.fmt(x) for x in omega]})


def series_long(b):
    rng = b.rng
    gf = lambda: O.Prime(rng.choice(SERIES_PRIMES))  # noqa: E731
    # generation half: 20 requests
    _gen_omega(b, O.Rational(), 5, 100)      # first request: the cold sample
    for r, order in ((4, 110), (6, 90), (4, 140), (5, 120)):
        _gen_omega(b, O.Rational(), r, order)
    for r, order in ((4, 160), (5, 180), (6, 200), (5, 140), (6, 150)):
        _gen_omega(b, gf(), r, order)
    for F, r, order in ((O.Rational(), 4, 100), (O.Rational(), 5, 80),
                        (gf(), 5, 150), (gf(), 6, 120)):
        _series_check(b, F, "degenerate", r, order, "from_u")
    for F, r, order in ((O.Rational(), 4, 150), (O.Rational(), 5, 200),
                        (O.Rational(), 6, 180), (gf(), 4, 200), (gf(), 5, 160),
                        (gf(), 6, 200)):
        _series_check(b, F, "nondegenerate", r, order, "from_u")
    # verification half: 20 requests on supplied prefixes with closures
    for kind in ("degenerate", "nondegenerate"):
        for F, r, order, mode in ((O.Rational(), 4, 120, "honest"),
                                  (O.Rational(), 5, 150, "honest"),
                                  (O.Rational(), 6, 200, "honest"),
                                  (O.Rational(), 5, 180, "tampered"),
                                  (O.Rational(), 6, 100, "tampered"),
                                  (gf(), 4, 200, "honest"),
                                  (gf(), 5, 160, "honest"),
                                  (gf(), 6, 180, "honest"),
                                  (gf(), 4, 150, "tampered"),
                                  (gf(), 6, 200, "tampered")):
            _series_check(b, F, kind, r, order, mode)


# ------------------------------------------------------------- roots-search

# (alpha, parity of the recovered root count) -> case, extension
CASES = {1: (0, ()), 2: (1, (-1, 1)), 3: (0, (1,)), 4: (1, (-1,))}


def _classify(b, F, base, q, case, order_margin=4):
    """``classify`` on closed data whose admissible list is base + extension.

    With an odd admissible list and rho = +prod(u) the recovered roots are
    exactly ``base`` and the case is fixed by the extension chosen.
    """
    s = len(base)
    alpha, ext = CASES[case]
    ext = [F(e) for e in ext]
    us = list(base) + ext
    rho = O.product(F, us)
    omega = O.nondegenerate_omega(F, us, rho, q, len(us) + order_margin)
    doc = _document(F, "nondegenerate", us,
                    _prefix_omega(F, omega, O.closure(F, us)), rho, q)
    b.cli(f"classify {F.descriptor['type']} s={s} case={case}",
          ["classify", "--file", b.doc(doc)],
          {"check": "classify", "exit": 0, "case": case, "alpha": alpha,
           "roots": sorted(F.fmt(x) for x in base),
           "extension": [F.fmt(x) for x in ext]})


def _avoid_for_classify(F, q):
    """Roots that would cancel against B(t) or against an extension root."""
    bad = {F.zero, F.one, O.neg(F, F.one), q, O.neg(F, q), F.inv(q),
           O.neg(F, F.inv(q))}
    return bad


def _classify_rational(b, s, height, case):
    """Integer roots within a few percent of ``height``: the rational root
    search costs about sqrt(prod |u|), so the band keeps the cost steady."""
    rng = b.rng
    F = O.Rational()
    q = Fraction(rng.choice((2, 3)))
    bad = _avoid_for_classify(F, q)
    width = max(2 * s, height // 25)
    base = _distinct(rng, lambda: Fraction(rng.choice((-1, 1))
                                           * rng.randint(height, height + width)),
                     s, lambda x, chosen: x in bad or -x in chosen)
    _classify(b, F, base, q, case)


def _classify_prime(b, p, s, reach, case):
    """Roots spread over the first ``reach`` share of GF(p), one near the top
    of each stratum, so the exhaustive root scan costs about the same on
    every seed."""
    rng = b.rng
    F = O.Prime(p)
    q = rng.randrange(2, 50)
    bad = _avoid_for_classify(F, q)
    span = int(p * reach) // s
    base = []
    for j in range(s):
        while True:
            x = j * span + rng.randrange(span * 9 // 10, span)
            if x not in bad and x not in base and F.mul(x, x) != 1 \
                    and all(F.mul(x, y) != 1 for y in base):
                break
        base.append(x)
    _classify(b, F, base, q, case)


def _passing_subsets(F, us, prefix, bound):
    """Reference trichotomy: status, minimal d, all minimal passing subsets."""
    r = len(us)
    bound = min(bound, len(prefix) - 1)

    def passes(idxs):
        sub = [us[i] for i in idxs]
        return O.degenerate_omega(F, sub, bound) == prefix[:bound + 1]

    if passes(range(r)):
        return "admissible", None, []
    for d in range(1, r):
        hits = [list(c) for c in combinations(range(r), d) if passes(c)]
        if hits:
            return "semi-admissible", d, hits
    return "hecke-collapse", None, []


def _detect(b, F, us, order, mode, d=None):
    """``detect-semi`` on degenerate data: admissible, d-semi or collapse."""
    rng = b.rng
    r = len(us)
    if mode == "admissible":
        omega = O.degenerate_omega(F, us, order)
        om = _prefix_omega(F, omega, O.closure(F, us))
    elif mode == "semi":
        base_idx = sorted(rng.sample(range(r), d))
        base = [us[i] for i in base_idx]
        omega = O.degenerate_omega(F, base, order)
        om = _prefix_omega(F, omega, O.closure(F, base))
    else:
        omega = O.degenerate_omega(F, us, order)
        k = rng.randrange(1, order)
        omega[k] = F.add(omega[k], F.one)
        om = _prefix_omega(F, omega)
    status, dd, hits = _passing_subsets(F, us, omega, 20)
    doc = _document(F, "degenerate", us, om)
    b.cli(f"detect-semi {mode} {F.descriptor['type']} r={r} order={order}",
          ["detect-semi", "--file", b.doc(doc)],
          {"check": "detect", "exit": 0, "status": status, "d": dd,
           "subsets_indices": [[i + 1 for i in h] for h in hits]})


def _semiadm_ok(F, us):
    half = F.inv(F(2))
    if any(x in (F.zero, half, O.neg(F, half)) for x in us):
        return False
    return all(x != O.neg(F, y) for i, x in enumerate(us) for y in us[i + 1:])


def roots_search(b):
    rng = b.rng
    # 12 prime-field classifications, roots spread across the field
    for p, s, reach, case in ((10007, 2, 1.0, 4), (1009, 4, 1.0, 3),
                              (3001, 3, 1.0, 1), (10007, 3, 0.8, 2),
                              (30011, 1, 1.0, 1), (30011, 2, 0.6, 3),
                              (65521, 1, 0.8, 2), (65521, 2, 0.4, 4),
                              (100003, 1, 0.5, 1), (100003, 1, 0.3, 2),
                              (1009, 5, 1.0, 2), (3001, 4, 1.0, 4)):
        _classify_prime(b, p, s, reach, case)
    # 12 rational classifications, root heights from tens to a few hundred
    for s, height, case in ((3, 60, 1), (1, 20, 2), (2, 30, 3), (3, 25, 2),
                            (4, 40, 4), (5, 30, 1), (2, 150, 4), (3, 120, 1),
                            (4, 90, 3), (5, 80, 2), (3, 250, 2), (4, 180, 3)):
        _classify_rational(b, s, height, case)
    # 16 semi-admissibility detections at short order
    fields = (O.Rational(), O.Prime(10007))
    for i, (r, mode, d) in enumerate(((6, "admissible", None), (7, "admissible", None),
                                      (8, "admissible", None), (6, "semi", 1),
                                      (6, "semi", 2), (6, "semi", 3), (7, "semi", 1),
                                      (7, "semi", 2), (7, "semi", 3), (8, "semi", 1),
                                      (8, "semi", 2), (6, "collapse", None),
                                      (6, "collapse", None), (7, "collapse", None),
                                      (7, "admissible", None), (8, "semi", 2))):
        F = fields[i % 2]
        us = _roots(rng, F, r)
        while not _semiadm_ok(F, us):
            us = _roots(rng, F, r)
        _detect(b, F, us, 12, mode, d)


# ----------------------------------------------------------- char2-symbolic

def _char2_recover(b, k, r, omega0_flip):
    rng = b.rng
    F = O.Binary(k)
    us = _distinct(rng, lambda: rng.randrange(1, F.size), r)
    count = 2 * r + 4
    prefix = O.power_sums(F, us, count)
    prefix[0] = (r % 2) ^ omega0_flip
    b.lib(f"char2_recover GF(2^{k}) r={r}", "char2_recover",
          {"k": k, "prefix": prefix},
          {"check": "char2", "roots": sorted(us), "zero_adjoined": bool(omega0_flip)})


def char2_symbolic(b):
    rng = b.rng
    # k is part of a slot's shape (multiplication cost grows with it)
    k_cycle = itertools.cycle((8, 4, 5, 6, 7))
    ks = lambda: O.Binary(next(k_cycle))  # noqa: E731
    # first request (the cold sample) pays the symbolic build for r = 4
    _gen_omega(b, ks(), 4, 16)
    for r, order in ((3, 24), (3, 20), (3, 16), (4, 20), (4, 12), (4, 24),
                     (5, 12), (5, 14), (3, 22)):
        _gen_omega(b, ks(), r, order)
    for r, order, mode in ((3, 24, "from_u"), (4, 20, "from_u"), (5, 12, "from_u"),
                           (3, 20, "honest"), (4, 18, "honest"), (3, 24, "honest"),
                           (4, 24, "honest"), (5, 14, "honest"),
                           (3, 20, "tampered"), (4, 16, "tampered"),
                           (4, 22, "tampered"), (5, 12, "tampered")):
        _series_check(b, ks(), "degenerate", r, order, mode)
    for r, order, mode, d in ((3, 16, "admissible", None), (4, 14, "admissible", None),
                              (4, 16, "semi", 2), (5, 12, "semi", 2),
                              (4, 12, "semi", 1), (5, 12, "semi", 3),
                              (3, 14, "collapse", None), (4, 12, "collapse", None)):
        F = ks()
        _detect(b, F, _roots(rng, F, r), order, mode, d)
    for k, r, flip in ((4, 2, 0), (5, 3, 1), (6, 3, 0), (7, 4, 0), (8, 4, 1),
                       (8, 5, 0), (6, 5, 1), (5, 2, 0), (7, 3, 1), (8, 3, 0),
                       (4, 3, 0)):
        _char2_recover(b, k, r, flip)


# ----------------------------------------------------------------- diagrams

def _random_diagram(rng, n):
    vs = list(range(2 * n))
    rng.shuffle(vs)
    partner = [0] * (2 * n)
    for i in range(n):
        v, w = vs[2 * i], vs[2 * i + 1]
        partner[v], partner[w] = w, v
    return partner


def _double_factorial_odd(n):
    return math.prod(range(1, 2 * n, 2))


def diagrams(b):
    rng = b.rng
    slots = [("factorize", 6, 300)]
    slots += [("enumerate", n, None) for n in (4, 5, 6, 5, 6, 4)]
    slots += [("factorize", n, c) for n, c in ((4, 200), (5, 300), (6, 250),
                                               (6, 120), (5, 80), (4, 400),
                                               (5, 150), (5, 200), (6, 60))]
    slots += [("compose", n, c) for n, c in ((4, 400), (5, 400), (6, 300),
                                             (6, 600), (5, 200), (4, 800),
                                             (6, 150), (5, 500))]
    slots += [("ideal_spanning", n, bound) for n, bound in ((4, 2), (4, 3), (5, 1),
                                                           (5, 2), (6, 1), (4, 1))]
    for call, n, size in slots:
        if call == "enumerate":
            b.lib(f"enumerate_diagrams n={n}", call, {"n": n},
                  {"check": "count", "count": _double_factorial_odd(n)})
        elif call == "factorize":
            ds = [_random_diagram(rng, n) for _ in range(size)]
            b.lib(f"factorize+recompose n={n} x{size}", call,
                  {"n": n, "partners": ds}, {"check": "factorize", "partners": ds})
        elif call == "compose":
            pairs = [[_random_diagram(rng, n), _random_diagram(rng, n)]
                     for _ in range(size)]
            products = [list(O.compose(n, a, c)) for a, c in pairs]
            b.lib(f"compose n={n} x{size}", call, {"n": n, "pairs": pairs},
                  {"check": "compose", "products": products})
        else:
            count = size ** n * (_double_factorial_odd(n) - math.factorial(n))
            b.lib(f"enumerate_ideal_spanning n={n} bound={size}", call,
                  {"n": n, "bound": size}, {"check": "count", "count": count})
    for _ in range(11):
        n = rng.randint(2, 12)
        r = rng.randint(1, 6)
        d = rng.randint(1, r)
        dbl = _double_factorial_odd(n)
        bprime = dbl - math.factorial(n)
        payload = {"n": n, "r": r, "d": d, "diagrams": dbl,
                   "diagrams_with_horizontal": bprime,
                   "regular_monomials": r ** n * dbl,
                   "ideal_spanning": d ** n * bprime,
                   "rank": d ** n * bprime + r ** n * math.factorial(n)}
        b.cli(f"counts n={n} r={r} d={d}",
              ["counts", "--n", str(n), "--r", str(r), "--d", str(d)],
              {"check": "payload", "exit": 0, "payload": payload})


def search_mix(b):
    """Everything series-long does not reach, in one workload: the char2
    symbolic path first (its symbolic build is the cold sample), then root
    finding and subset search, then Brauer diagrams."""
    char2_symbolic(b)
    roots_search(b)
    diagrams(b)


GENERATORS = {"series-long": series_long, "search-mix": search_mix}


def generate(workload, seed, workdir):
    """The request list of one workload; parameter files go to workdir."""
    b = Builder(workdir, seed)
    GENERATORS[workload](b)
    for i, req in enumerate(b.requests):
        req["id"] = i
    return b.requests
