"""Independent reference arithmetic for the benchmark's ground truth.

Nothing here imports bmwparam.  The omega values the generator writes into
parameter files, and the values a generation request must print, come from
the O(r*N) routes below rather than from the program under test:

* degenerate: with h_a = q_a / 2,
  sum_{a>=1} h_a s^a = (sum_{k odd} e_k s^k) / prod (1 - u_i s), and
  eta_a = 2 h_{a+1} + c h_a, eta_0 = 2 h_1 + (1 + c)/2, c = (-1)^(r-1);
  every step is integral, so the same code serves characteristic 2;
* non-degenerate: the expansion of
  Z(t) = -rho^-1 + delta t^2/(t^2-1) + A(t) prod (1 - u t)/(u - t)
  in s = 1/t, divided by delta = q - q^-1.
"""

from __future__ import annotations

from fractions import Fraction

# Irreducible moduli of GF(2^k) as bitmasks; they fix the meaning of the
# coefficient-list encoding used by parameter files.
BINARY_MODULI = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101,
                 6: 0b1011011, 7: 0b10000011, 8: 0b100011101}


class Rational:
    descriptor = {"type": "rational"}

    def __call__(self, x):
        return Fraction(x)

    zero, one = Fraction(0), Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def fmt(self, a):
        return str(a)


class Prime:
    def __init__(self, p):
        self.p = p
        self.descriptor = {"type": "prime", "p": p}

    def __call__(self, x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    zero, one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def fmt(self, a):
        return a


class Binary:
    def __init__(self, k):
        self.k = k
        self.modulus = BINARY_MODULI[k]
        self.size = 1 << k
        self.descriptor = {"type": "binary", "k": k}

    def __call__(self, x):
        return int(x) & 1

    zero, one = 0, 1

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            b >>= 1
        for shift in range(acc.bit_length() - self.k - 1, -1, -1):
            if acc >> (shift + self.k) & 1:
                acc ^= self.modulus << shift
        return acc

    def fmt(self, a):
        return [a >> i & 1 for i in range(self.k)]


def neg(F, a):
    return F.sub(F.zero, a)


def product(F, xs):
    out = F.one
    for x in xs:
        out = F.mul(out, x)
    return out


def elementary(F, us):
    """e_0..e_r of the roots."""
    e = [F.one]
    for u in us:
        e.append(F.zero)
        for j in range(len(e) - 1, 0, -1):
            e[j] = F.add(e[j], F.mul(e[j - 1], u))
    return e


def closure(F, us):
    """Monic recursion coefficients a_0..a_{r-1} of prod (y - u_j)."""
    e = elementary(F, us)
    r = len(us)
    return [e[r - j] if (r - j) % 2 == 0 else neg(F, e[r - j])
            for j in range(r)]


def degenerate_omega(F, us, order):
    """omega_0..omega_order = eta_a^+(u)."""
    r = len(us)
    e = elementary(F, us)
    h = [F.zero] * (order + 2)
    for a in range(1, order + 2):
        acc = e[a] if a <= r and a % 2 == 1 else F.zero
        for j in range(1, min(a, r) + 1):
            term = F.mul(e[j], h[a - j])
            # D_j = (-1)^j e_j and h_a = N_a - sum_j D_j h_{a-j}
            acc = F.add(acc, term) if j % 2 == 1 else F.sub(acc, term)
        h[a] = acc
    two = F(2)
    c = F.one if (r - 1) % 2 == 0 else neg(F, F.one)
    out = [F.add(F.mul(two, h[1]), F.one if (r - 1) % 2 == 0 else F.zero)]
    for a in range(1, order + 1):
        out.append(F.add(F.mul(two, h[a + 1]), F.mul(c, h[a])))
    return out


def nondegenerate_omega(F, us, rho, q, order):
    """omega_0..omega_order of (q - q^-1) sum omega_a t^-a = Z(t)."""
    n = order + 1
    delta = F.sub(q, F.inv(q))
    rho_inv = F.inv(rho)
    # P(s) = prod (u - s)/(1 - u s)
    P = [F.one] + [F.zero] * order
    for u in us:
        shifted = [F.sub(F.mul(u, P[k]), P[k - 1] if k else F.zero)
                   for k in range(n)]
        for k in range(1, n):
            shifted[k] = F.add(shifted[k], F.mul(u, shifted[k - 1]))
        P = shifted
    # Y = P s^j / (1 - s^2), j = 1 for odd r (delta t/(t^2-1)), else j = 0
    j = 1 if len(us) % 2 == 1 else 0
    Y = [F.zero] * n
    for k in range(n):
        acc = P[k - j] if k >= j else F.zero
        if k >= 2:
            acc = F.add(acc, Y[k - 2])
        Y[k] = acc
    a0 = F.mul(rho_inv, product(F, us))
    Z = []
    for k in range(n):
        val = F.mul(a0, P[k])
        yk = F.mul(delta, Y[k])
        val = F.add(val, yk) if j else F.sub(val, yk)
        if k % 2 == 0:
            val = F.add(val, delta)
        if k == 0:
            val = F.sub(val, rho_inv)
        Z.append(val)
    dinv = F.inv(delta)
    return [F.mul(z, dinv) for z in Z]


def power_sums(F, us, count):
    """sum_i u_i^a for a = 1..count-1, with index 0 left to the caller."""
    out = [F.zero] * count
    for u in us:
        pw = F.one
        for a in range(1, count):
            pw = F.mul(pw, u)
            out[a] = F.add(out[a], pw)
    return out


def compose(n, pa, pb):
    """Brauer product a . b (a stacked above b) as (partner table, loops).

    Vertices 0..n-1 are the bottom row and n..2n-1 the top row.  The seam
    glues a's bottom vertex i to b's top vertex n + i; the result keeps a's
    top row and b's bottom row.
    """
    tables = {"a": pa, "b": pb}
    seam_seen = set()

    def step(side, v):
        """Follow one strand; return ("end", w) or the crossed-to vertex."""
        w = tables[side][v]
        if side == "a":
            if w >= n:
                return "end", w
            seam_seen.add(w)
            return "b", w + n
        if w < n:
            return "end", w
        seam_seen.add(w - n)
        return "a", w - n

    partner = [None] * (2 * n)
    for side, v in [("a", n + i) for i in range(n)] + [("b", i) for i in range(n)]:
        start = v
        while side != "end":
            side, v = step(side, v)
        partner[start] = v
    loops = 0
    for i in range(n):
        if i in seam_seen:
            continue
        loops += 1
        side, v = "a", i
        while True:
            side, v = step(side, v)
            if side == "a" and v == i:
                break
    return partner, loops
