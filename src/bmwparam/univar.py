"""Univariate polynomials, rational functions, and truncated series in 1/t.

These carry the generating-function side of the library: expansion of a
rational function at t = infinity, the substitution t -> 1/t, and exact
rational-function identities.  Polynomial coefficients live in a
:class:`~bmwparam.fields.Field`; series coefficients may be field elements or
:class:`~bmwparam.mpoly.MPoly` values (anything with ring operations).

Every linear recurrence in the library runs through one pair of functions:
:func:`recurrence_apply` multiplies a series by 1 + c_1 s + ... + c_d s^d
(checking a recurrence is finding where the product is nonzero) and
:func:`recurrence_solve` divides by it (running a recurrence, or expanding a
rational function).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import (QQ, BinaryField, FieldElement, PrimeField, RationalField,
                     _is_prime)
from .report import first_difference


class PoleAtInfinityError(ValueError):
    """Expansion at t = infinity requested for a function with a pole there."""


class SplitError(ValueError):
    """A polynomial failed to factor into linear factors over its field."""


class Poly:
    """Dense univariate polynomial over a field; () means the zero polynomial."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _from_raw(cls, field, raws):
        """Wrap raw coefficient values, already canonical and trimmed."""
        p = object.__new__(cls)
        object.__setattr__(p, "field", field)
        object.__setattr__(p, "coeffs",
                           tuple(FieldElement(field, c) for c in raws))
        return p

    def _raws(self):
        return [c.raw for c in self.coeffs]

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_roots(cls, field, roots):
        p = cls.one(field)
        for r in roots:
            p = p * cls(field, (-field(r), field.one))
        return p

    @property
    def degree(self):
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return Poly(self.field, (self.field(other),))
        return None

    def _termwise(self, other, op):
        a, b = self._raws(), other._raws()
        zero = self.field._zero_raw()
        a += [zero] * (len(b) - len(a))
        b += [zero] * (len(a) - len(b))
        return Poly._from_raw(self.field, _trim(list(map(op, a, b))))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._termwise(o, self.field._add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._termwise(o, self.field._sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        if self.is_zero() or o.is_zero():
            return Poly.zero(field)
        return Poly._from_raw(
            field, _KERNELS[type(field)].mul(field, self._raws(), o._raws()))

    __rmul__ = __mul__

    def __neg__(self):
        return Poly._from_raw(self.field, list(map(self.field._neg, self._raws())))

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        if self.degree < o.degree:
            return Poly.zero(field), self
        quot, rem = _KERNELS[type(field)].divmod(field, self._raws(), o._raws())
        return Poly._from_raw(field, quot), Poly._from_raw(field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        field = self.field
        if self.is_zero() or self.coeffs[-1].raw == field._one_raw():
            return self
        return Poly._from_raw(field, _monic(field, self._raws()))

    def shift(self, k):
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (self.field.zero,) * k + self.coeffs)

    def reversed(self):
        """Coefficient reversal t^deg * f(1/t)."""
        return Poly(self.field, tuple(reversed(self.coeffs)))

    def __call__(self, x):
        field = self.field
        x = field(x)
        if self.is_zero():
            return field.zero
        return FieldElement(
            field, _KERNELS[type(field)].eval(field, self._raws(), x.raw))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == self.field.one else f"({c})*{t}")
        return " + ".join(parts)

    def roots_with_multiplicity(self):
        """Split into linear factors, or raise SplitError.

        Returns the full list of roots with multiplicity: the distinct roots
        in a fixed order, each repeated by its multiplicity, which comes from
        repeated exact division by (t - r).  Over Q the distinct roots come
        from p-adic Hensel lifting and rational reconstruction (see
        :func:`_rational_roots`), in time polynomial in deg f and the bit
        size of its coefficients; they are listed by ascending
        (|numerator|, denominator), positive before negative, 0 first.  Over
        a finite field F they come from gcd(f, t^|F| - t) by equal-degree
        splitting (see :func:`_distinct_roots`), in time polynomial in deg f
        and log |F|, in ascending ``raw`` order.  The arithmetic underneath
        runs on raw coefficient values, one kernel per field (``_KERNELS``).
        """
        if self.is_zero():
            raise ValueError("zero polynomial")
        field = self.field
        p = self.monic()
        roots = []
        candidates = (_rational_roots(p) if field.char == 0
                      else _distinct_roots(p))
        for r in candidates:
            linear = Poly(field, (-r, field.one))
            quot, rem = divmod(p, linear)
            while rem.is_zero():
                roots.append(r)
                p = quot
                quot, rem = divmod(p, linear)
        if p.degree > 0:
            raise SplitError(
                f"{self!r} does not split into linear factors over {field}")
        return roots


# ------------------------------------------------------------ raw kernels
# Each kernel works on lists of raw coefficient values (lowest degree first,
# no trailing zeros, divisor nonzero and no longer than the dividend) and
# returns canonical raw values, trimmed; Poly wraps them.

def _trim(raws):
    while raws and not raws[-1]:
        raws.pop()
    return raws


def _monic(field, raws):
    if not raws or raws[-1] == field._one_raw():
        return raws
    inv = field._inv(raws[-1])
    return [field._mul(c, inv) for c in raws]


def _convolve(a, b):
    """The integer product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _horner_mod(a, x, m):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _clear(raws):
    """Fractions as (integer numerators, their one common denominator)."""
    den = lcm(*(c.denominator for c in raws))
    if den == 1:
        return [c.numerator for c in raws], 1
    return [c.numerator * (den // c.denominator) for c in raws], den


def _over(ints, den):
    if den == 1:
        return [Fraction(n) for n in ints]
    return [Fraction(n, den) for n in ints]


class _Rationals:
    """QQ: integer numerators over one common denominator, so the inner
    loops are integer operations, and one reduced Fraction per result
    coefficient at exit."""

    @staticmethod
    def mul(field, a, b):
        (an, ad), (bn, bd) = _clear(a), _clear(b)
        return _over(_convolve(an, bn), ad * bd)

    @staticmethod
    def divmod(field, a, b):
        # pseudo-division s A = Q B + R, where s grows only by the factor a
        # quotient digit needs to be an integer (none when B is monic or
        # the division is exact over Z)
        (rem, ad), (bn, bd) = _clear(a), _clear(b)
        lead, dd = bn[-1], len(bn) - 1
        quot = [0] * (len(rem) - dd)
        s = 1
        for k in range(len(quot) - 1, -1, -1):
            top = rem[dd + k]
            if top % lead:
                f = lead // gcd(top, lead)
                s *= f
                rem[:dd + k + 1] = [c * f for c in rem[:dd + k + 1]]
                quot[k + 1:] = [c * f for c in quot[k + 1:]]
                top = rem[dd + k]
            c = quot[k] = top // lead
            if c:
                for j in range(dd):
                    rem[j + k] -= c * bn[j]
        # a = A/ad and b = B/bd, so a = (Q bd / (s ad)) b + R / (s ad)
        return (_over([c * bd for c in quot], s * ad),
                _over(_trim(rem[:dd]), s * ad))

    @staticmethod
    def eval(field, a, x):
        an, ad = _clear(a)
        xn, xd = x.numerator, x.denominator
        acc, scale = an[-1], 1
        for c in an[-2::-1]:
            scale *= xd
            acc = acc * xn + c * scale
        return Fraction(acc, ad * scale)


class _PrimeInts:
    """GF(p): plain ints, reduced once per result coefficient."""

    @staticmethod
    def mul(field, a, b):
        p = field.p
        return [c % p for c in _convolve(a, b)]

    @staticmethod
    def divmod(field, a, b):
        p, dd = field.p, len(b) - 1
        inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
        rem = list(a)
        quot = [0] * (len(a) - dd)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = rem[dd + k] * inv % p
            if c:
                for j in range(dd):
                    rem[j + k] -= c * b[j]
        return quot, _trim([c % p for c in rem[:dd]])

    @staticmethod
    def eval(field, a, x):
        return _horner_mod(a, x, field.p)


class _BinaryPolys:
    """GF(2^k): xor, and the field's raw product."""

    @staticmethod
    def mul(field, a, b):
        mul = field._mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] ^= mul(x, y)
        return out

    @staticmethod
    def divmod(field, a, b):
        mul, dd = field._mul, len(b) - 1
        inv = 1 if b[-1] == 1 else field._inv(b[-1])
        rem = list(a)
        quot = [0] * (len(a) - dd)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = mul(rem[dd + k], inv)
            if c:
                for j in range(dd):
                    rem[j + k] ^= mul(c, b[j])
        return quot, _trim(rem[:dd])

    @staticmethod
    def eval(field, a, x):
        mul = field._mul
        acc = 0
        for c in reversed(a):
            acc = mul(acc, x) ^ c
        return acc


_KERNELS = {RationalField: _Rationals, PrimeField: _PrimeInts,
            BinaryField: _BinaryPolys}


def _raw_gcd(field, a, b):
    """Monic gcd of two raw coefficient lists (Euclid)."""
    divmod_ = _KERNELS[type(field)].divmod
    while b:
        a, b = b, (a if len(a) < len(b) else divmod_(field, a, b)[1])
    return _monic(field, a)


def _pow_mod(base: Poly, n: int, mod: Poly) -> Poly:
    """base^n mod ``mod`` by square-and-multiply, for n >= 1."""
    acc = base % mod
    for bit in bin(n)[3:]:
        acc = acc * acc % mod
        if bit == "1":
            acc = acc * base % mod
    return acc


def _distinct_roots(f: Poly):
    """The distinct roots of monic f over its finite field, by ``raw`` value.

    g = gcd(f, t^|F| - t) is the product of the distinct linear factors of
    f.  Equal-degree splitting (Cantor & Zassenhaus, Math. Comp. 36, 1981)
    breaks g apart by gcds with a fixed sequence of splitters s_0, s_1, ...:
    polynomials that vanish at some roots and not at others, each costing
    O(log |F|) products of degree < 2 deg f.  A factor made by s_i lies in
    a single class of each of s_0..s_i, so it goes on with s_(i+1).
    """
    field = f.field
    t = Poly.x(field)
    order = field.order
    if field.char == 2:
        # Tr(a t) = sum_{i<k} a^(2^i) t^(2^i) is Tr(a r) in GF(2) at a root r;
        # the trace form is non-degenerate, so some a in the basis
        # 1, gen, ..., gen^(k-1) separates any two roots
        k = order.bit_length() - 1
        gen = field.gen() if k > 1 else field.one
        frobenius = [t]                          # t^(2^i) mod f, i <= k
        for _ in range(k):
            frobenius.append(frobenius[-1] * frobenius[-1] % f)
        t_to_order = frobenius.pop()

        def splitter(h, j):
            a, trace = gen ** j, Poly.zero(field)
            for power in frobenius:
                trace = trace + power * a
                a = a * a
            return trace
    else:
        # (r + a)^((p-1)/2) = 1 iff r + a is a nonzero square; the squares
        # are not closed under adding a nonzero constant, so some shift
        # a < p separates any two roots
        t_to_order = _pow_mod(t, order, f)

        def splitter(h, a):
            return _pow_mod(t + a, (order - 1) // 2, h) - 1

    g = poly_gcd(f, t_to_order - t)
    roots = []
    pending = [(g, 0)]
    while pending:
        h, i = pending.pop()
        if h.degree == 1:
            roots.append(-h.coeff(0))
        elif h.degree > 1:
            d = poly_gcd(h, splitter(h, i))
            if 0 < d.degree < h.degree:
                pending += [(d, i + 1), (h // d, i + 1)]
            else:
                pending.append((h, i + 1))
    return sorted(roots, key=lambda r: r.raw)


def _rational_roots(f: Poly):
    """The distinct rational roots of f over QQ, and possibly a few numbers
    that are not roots, in ascending (|numerator|, denominator) order,
    positive before negative, 0 first; the caller keeps those that divide.

    The nonzero roots are those of the squarefree part G of the primitive
    integer polynomial, and a root n/d in lowest terms has n | G_0 and
    d | G_lead.  For a small prime p dividing neither G_lead nor the
    discriminant (G mod p squarefree), each root mod p is simple and lifts
    by Newton's iteration to a unique root mod p^(2^i); once the modulus
    exceeds 2 |G_0| |G_lead|, rational reconstruction recovers n/d from it
    (von zur Gathen & Gerhard, Modern Computer Algebra, 5.10 and ch. 15).
    """
    raws = f._raws()
    zeros = next(i for i, c in enumerate(raws) if c)
    h = raws[zeros:]
    out = [Fraction(0)] if zeros else []
    if len(h) > 1:
        dh = [i * c for i, c in enumerate(h)][1:]
        g = _raw_gcd(QQ, h, dh)
        if len(g) > 1:
            h = _Rationals.divmod(QQ, h, g)[0]
        out += sorted(_lifted_roots(_primitive(_clear(h)[0])),
                      key=lambda x: (abs(x.numerator), x.denominator, x < 0))
    return [QQ(x) for x in out]


def _primitive(ints):
    content = gcd(*ints)
    return [c // content for c in ints]


def _lifted_roots(g):
    """Rational numbers n/d with g(n/d) = 0 mod a large prime power, one
    per root of g mod a small prime, for squarefree integer g, g(0) != 0."""
    dg = [i * c for i, c in enumerate(g)][1:]
    p = 2
    while True:
        p += 1
        if not _is_prime(p) or g[-1] % p == 0:
            continue
        field = PrimeField(p)
        gp = [c % p for c in g]
        if len(_raw_gcd(field, gp, _trim([c % p for c in dg]))) == 1:
            break
    bound = 2 * abs(g[0]) * abs(g[-1])
    out = []
    for root in _distinct_roots(Poly._from_raw(field, _monic(field, gp))):
        a, m = root.raw, p
        while m <= bound:
            m *= m
            a = (a - _horner_mod(g, a, m) * pow(_horner_mod(dg, a, m), -1, m)) % m
        x = _reconstruct(a, m, abs(g[0]), abs(g[-1]))
        if x is not None:
            out.append(x)
    return out


def _reconstruct(a, m, n_bound, d_bound):
    """The fraction n/d with n = a d mod m, |n| <= n_bound, 0 < d <= d_bound,
    or None; unique when m > 2 n_bound d_bound (extended Euclid, stopped at
    the first remainder within n_bound)."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > n_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > d_bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


class RatFunc:
    """Rational function in t over a field, normalized on construction.

    Normalization: denominator monic and gcd(num, den) = 1, so the
    representation is unique and structural equality is exact equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        field = num.field
        if den.field is not field and den.field != field:
            raise ValueError("field mismatch")
        if num.is_zero():
            den = Poly.one(field)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            if den.lead() != field.one:
                lead_inv = den.lead().inverse()
                num, den = num * lead_inv, den * lead_inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def field(self):
        return self.num.field

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p, Poly.one(p.field))

    @classmethod
    def constant(cls, field, c):
        return cls(Poly(field, (field(c),)), Poly.one(field))

    @classmethod
    def t(cls, field):
        return cls.from_poly(Poly.x(field))

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction, FieldElement)):
            return RatFunc.constant(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # normalized forms are unique, so structural equality is decisive
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self):
        return self.num.is_zero()

    def __call__(self, x):
        d = self.den(x)
        if not d:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def __repr__(self):
        if self.den == Poly.one(self.field):
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"

    def substitute_inverse_t(self) -> "RatFunc":
        """The rational function g with g(t) = f(1/t), renormalized."""
        if self.num.is_zero():
            return self
        a, b = self.num.degree, self.den.degree
        num = self.num.reversed().shift(max(0, b - a))
        den = self.den.reversed().shift(max(0, a - b))
        return RatFunc(num, den)

    def series_at_infinity(self, order: int) -> "Series":
        """Laurent expansion sum c_a t^{-a} to the requested order, exact.

        Requires deg num <= deg den (no pole at infinity).
        """
        a, b = self.num.degree, self.den.degree
        if a > b:
            raise PoleAtInfinityError(
                f"degree {a} numerator over degree {b} denominator")
        # in s = 1/t: f = s^(b-a) rev(num) / rev(den), and rev(den) = 1 + ...
        # as den is monic; the zero numerator (degree -1) pads a zero head
        head = [self.field.zero] * (b - a) + list(reversed(self.num.coeffs))
        conn = self.den.coeffs[-2::-1]
        return Series(recurrence_solve(conn, head, order + 1))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the coefficient field (Euclid)."""
    return Poly._from_raw(a.field, _raw_gcd(a.field, a._raws(), b._raws()))


def recurrence_apply(conn, values, start, stop):
    """f_start..f_(stop-1) of f_k = v_k + sum_{j=1}^{min(k, d)} c_j v_{k-j}
    for conn = (c_1, ..., c_d): the coefficients of sum v_k s^k times
    1 + c_1 s + ... + c_d s^d.  For k >= d, f_k is the residue of the
    recurrence v_k + c_1 v_{k-1} + ... + c_d v_{k-d} = 0 at k.  Runs on any
    ring: field elements or MPoly values."""
    d = len(conn)
    out = []
    for k in range(start, stop):
        acc = values[k]
        for c, v in zip(conn, reversed(values[max(k - d, 0):k])):
            acc = acc + c * v
        out.append(acc)
    return out


def recurrence_solve(conn, head, count):
    """The first count coefficients v of head(s) / (1 + c_1 s + ... + c_d s^d),
    the inverse of :func:`recurrence_apply`: v_k = f_k - sum_{j=1}^{min(k, d)}
    c_j v_{k-j}, with f_k = head[k] and 0 past the head.  The head must not
    be empty (its ring supplies the zero)."""
    d = len(conn)
    zero = head[0] * 0
    out = []
    for k in range(count):
        acc = head[k] if k < len(head) else zero
        for c, v in zip(conn, reversed(out[max(k - d, 0):k])):
            acc = acc - c * v
        out.append(acc)
    return out


class Series:
    """Truncated series: coefficients c_0..c_N of sum c_a x^a.

    The formal variable is t^{-1} for expansions at infinity and t for
    symmetric-function generating series; the arithmetic is the same.
    Operations never claim coefficients beyond the shorter operand.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __getitem__(self, a):
        return self.coeffs[a]

    def __len__(self):
        return len(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scaled(other)
        n = min(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            acc = self.coeffs[0] * other.coeffs[k]
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return Series(out)

    def scaled(self, c):
        return Series([x * c for x in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def first_disagreement(self, other):
        """Smallest index where the two series differ on their shared range."""
        witness = first_difference("", self.coeffs, other.coeffs).witness
        return None if witness is None else witness.index

    def __repr__(self):
        return "Series(" + ", ".join(str(c) for c in self.coeffs) + ")"
