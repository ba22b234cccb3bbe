"""Univariate polynomials, rational functions, and truncated series in 1/t.

These carry the generating-function side of the library: expansion of a
rational function at t = infinity, the substitution t -> 1/t, and exact
rational-function identities.  Polynomial coefficients live in a
:class:`~bmwparam.fields.Field`; series coefficients may be field elements or
:class:`~bmwparam.mpoly.MPoly` values (anything with ring operations).
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ, FieldElement


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
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return Poly(self.field, (self.field(other),))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.field,
                    [self.coeff(i) + o.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.field,
                    [self.coeff(i) - o.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = self.degree, o.degree
        if dn < dd:
            return Poly.zero(self.field), self
        inv_lead = o.lead().inverse()
        quot = [self.field.zero] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = rem[dd + k] * inv_lead
            quot[k] = c
            if c:
                for j in range(dd + 1):
                    rem[j + k] = rem[j + k] - c * o.coeffs[j]
        return Poly(self.field, quot), Poly(self.field, rem[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.lead().inverse()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def shift(self, k):
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (self.field.zero,) * k + self.coeffs)

    def reversed(self):
        """Coefficient reversal t^deg * f(1/t)."""
        return Poly(self.field, tuple(reversed(self.coeffs)))

    def __call__(self, x):
        x = self.field(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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

        Returns the full list of roots with multiplicity.  Over Q the roots
        come from the rational root theorem.  Over a finite field F the
        distinct roots come from gcd(f, t^|F| - t) by equal-degree splitting
        (see :func:`_distinct_roots`), in time polynomial in deg f and
        log |F|; they are listed in ascending ``raw`` order, each repeated by
        its multiplicity.
        """
        if self.is_zero():
            raise ValueError("zero polynomial")
        field = self.field
        p = self.monic()
        roots = []
        if field == QQ:
            while p.degree > 0 and (r := _rational_root(p)) is not None:
                roots.append(r)
                p = p // Poly(field, (-r, field.one))
        else:
            for r in _distinct_roots(p):
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


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _rational_root(p: Poly):
    # clear denominators to a primitive integer polynomial, then use the
    # rational root theorem: roots are +- (divisor of a_0) / (divisor of lead)
    from math import gcd, lcm

    denoms = [c.raw.denominator for c in p.coeffs]
    scale = lcm(*denoms) if denoms else 1
    ints = [int(c.raw * scale) for c in p.coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g:
        ints = [c // g for c in ints]
    lead, const = ints[-1], ints[0]
    if const == 0:
        return QQ(0)
    for num in _divisors(const):
        for den in _divisors(lead):
            for sign in (1, -1):
                cand = QQ(Fraction(sign * num, den))
                if not p(cand):
                    return cand
    return None


class RatFunc:
    """Rational function in t over a field, normalized on construction.

    Normalization: denominator monic and gcd(num, den) = 1, so the
    representation is unique and structural equality is exact equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.field != den.field:
            raise ValueError("field mismatch")
        if num.is_zero():
            den = Poly.one(num.field)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead_inv = den.lead().inverse()
            num = num * lead_inv
            den = den * lead_inv
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
        # cross-multiplication; with normalized forms this is decisive
        return self.num * o.den == o.num * self.den

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
        fld = self.field
        if self.num.is_zero():
            return Series([fld.zero] * (order + 1))
        a, b = self.num.degree, self.den.degree
        if a > b:
            raise PoleAtInfinityError(
                f"degree {a} numerator over degree {b} denominator")
        # in s = 1/t: f = s^(b-a) rev(num) / rev(den), with rev(den)(0) != 0
        num_s = [fld.zero] * (b - a) + list(reversed(self.num.coeffs))
        den_s = list(reversed(self.den.coeffs))
        inv0 = den_s[0].inverse()
        rem = num_s + [fld.zero] * (order + 1)
        out = []
        for k in range(order + 1):
            c = rem[k] * inv0
            out.append(c)
            if c:
                for j, d in enumerate(den_s):
                    if k + j <= order:
                        rem[k + j] = rem[k + j] - c * d
        return Series(out)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the coefficient field (Euclid)."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


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
        n = min(len(self.coeffs), len(other.coeffs))
        for i in range(n):
            if self.coeffs[i] != other.coeffs[i]:
                return i
        return None

    def __repr__(self):
        return "Series(" + ", ".join(str(c) for c in self.coeffs) + ")"
