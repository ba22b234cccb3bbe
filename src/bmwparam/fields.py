"""Exact scalar arithmetic over Q, prime fields GF(p), and binary fields GF(2^k).

Every element is a :class:`FieldElement` carrying a reference to its field.
All operations are exact; equality is decidable; every nonzero element is
invertible.  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction


class FieldCoercionError(ValueError):
    """Raised when a value cannot be interpreted in the target field."""


class FieldElement:
    """A scalar in some :class:`Field`.  Immutable value semantics."""

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldCoercionError(
                    f"cannot mix elements of {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.raw, o.raw))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(self.raw, o.raw))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(o.raw, self.raw))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.raw, o.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.raw))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if not self:
            raise ZeroDivisionError(f"inversion of zero in {self.field}")
        return FieldElement(self.field, self.field._inv(self.raw))

    def __eq__(self, other):
        # elements equal only elements of the same field, never an int or a
        # Fraction, so that equal values hash alike
        if not isinstance(other, FieldElement):
            return NotImplemented
        return ((other.field is self.field or other.field == self.field)
                and self.raw == other.raw)

    def __hash__(self):
        return hash((self.field, self.raw))

    def __bool__(self):
        return self.raw != self.field._zero_raw()

    def __repr__(self):
        return f"{self.field.shortname}({self.field.format(self.raw)})"

    def __str__(self):
        return self.field.format(self.raw)


class Field:
    """Base class.  Subclasses supply raw-level arithmetic on representations."""

    char = None
    shortname = "F"

    def __call__(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.field is not self and x.field != self:
                raise FieldCoercionError(f"cannot coerce {x!r} into {self}")
            return x
        return FieldElement(self, self._from_value(x))

    @property
    def zero(self):
        return FieldElement(self, self._zero_raw())

    @property
    def one(self):
        return FieldElement(self, self._one_raw())

    def format(self, raw):
        return str(raw)

    # finite fields override these
    def elements(self):
        raise TypeError(f"{self} is not finite")

    @property
    def order(self):
        raise TypeError(f"{self} is not finite")


# the one accepted string form of a rational: Fraction() would also take
# decimals and exponents, and "1e30000000" builds a 30-million-digit integer
_RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class RationalField(Field):
    """The field Q, with elements stored as reduced Fractions."""

    char = 0
    shortname = "QQ"

    def _from_value(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            if not _RATIONAL_STRING.fullmatch(x):
                raise FieldCoercionError(
                    f"cannot interpret {x!r} as a rational: "
                    "expected \"n\" or \"n/d\" in decimal digits")
            return Fraction(x)
        raise FieldCoercionError(f"cannot interpret {x!r} as a rational")

    def _zero_raw(self):
        return Fraction(0)

    def _one_raw(self):
        return Fraction(1)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


# no composite below 3 * 10^23, far above 2^64, is a strong pseudoprime to
# all of the first 12 primes
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin primality test, exact for n < 2^64."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        y = pow(b, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """GF(p) for a prime p, with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p >= 1 << 64:
            raise ValueError(f"GF(p) needs p < 2^64, got {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.shortname = f"GF({p})"

    def _from_value(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise FieldCoercionError(
                    f"denominator of {x} vanishes in GF({self.p})")
            return x.numerator * pow(den, -1, self.p) % self.p
        raise FieldCoercionError(f"cannot interpret {x!r} in GF({self.p})")

    def _zero_raw(self):
        return 0

    def _one_raw(self):
        return 1

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def elements(self):
        for v in range(self.p):
            yield FieldElement(self, v)

    @property
    def order(self):
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


# Irreducible moduli for GF(2^k), k <= 8, as bitmasks (bit i = coefficient of x^i).
_BINARY_MODULI = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1011011,     # x^6 + x^4 + x^3 + x + 1
    7: 0b10000011,    # x^7 + x + 1
    8: 0b100011101,   # x^8 + x^4 + x^3 + x^2 + 1
}


class BinaryField(Field):
    """GF(2^k), k <= 8, as polynomial residues modulo a fixed irreducible.

    Elements are stored as bitmasks; ``field([c0, c1, ...])`` builds the
    residue c0 + c1 x + ... from a coefficient list.
    """

    char = 2

    def __init__(self, k: int):
        if k not in _BINARY_MODULI:
            raise ValueError(f"GF(2^{k}) not supported (1 <= k <= 8)")
        self.k = k
        self.modulus = _BINARY_MODULI[k]
        self.shortname = f"GF(2^{k})"

    def _from_value(self, x):
        if isinstance(x, int):
            return x & 1
        if isinstance(x, Fraction):
            if x.denominator % 2 == 0:
                raise FieldCoercionError(
                    f"denominator of {x} vanishes in GF(2^{self.k})")
            return x.numerator & 1
        if isinstance(x, (list, tuple)):
            if len(x) > self.k or any(c not in (0, 1) for c in x):
                raise FieldCoercionError(
                    f"bad coefficient list {x!r} for GF(2^{self.k})")
            raw = 0
            for i, c in enumerate(x):
                raw |= c << i
            return raw
        raise FieldCoercionError(f"cannot interpret {x!r} in GF(2^{self.k})")

    def gen(self):
        """The residue of x, a generator of the extension over GF(2)."""
        if self.k == 1:
            return self.one
        return FieldElement(self, 2)

    def _zero_raw(self):
        return 0

    def _one_raw(self):
        return 1

    def _add(self, a, b):
        return a ^ b

    _sub = _add

    def _neg(self, a):
        return a

    def _mul(self, a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            b >>= 1
        # reduce modulo the defining irreducible
        mlen = self.k + 1
        while acc.bit_length() >= mlen:
            acc ^= self.modulus << (acc.bit_length() - mlen)
        return acc

    def _inv(self, a):
        # a^(2^k - 2); the group of units is cyclic of order 2^k - 1
        result = 1
        base = a
        n = (1 << self.k) - 2
        while n:
            if n & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            n >>= 1
        return result

    def elements(self):
        for v in range(1 << self.k):
            yield FieldElement(self, v)

    @property
    def order(self):
        return 1 << self.k

    def format(self, raw):
        if raw in (0, 1):
            return str(raw)
        parts = []
        for i in range(self.k):
            if raw >> i & 1:
                parts.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return "+".join(parts)

    def __eq__(self, other):
        return isinstance(other, BinaryField) and other.k == self.k

    def __hash__(self):
        return hash(("BinaryField", self.k))

    def __repr__(self):
        return f"GF(2^{self.k})"


def field_from_descriptor(desc) -> Field:
    """Build a field from a descriptor dict, e.g. {"type": "prime", "p": 5}."""
    kind = desc.get("type")
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(int(desc["p"]))
    if kind == "binary":
        return BinaryField(int(desc["k"]))
    raise ValueError(f"unknown field descriptor {desc!r}")
