"""Sparse multivariate polynomials with exact integer or rational coefficients.

A polynomial in variables u_1 .. u_r is a map from exponent tuples to nonzero
coefficients.  Coefficients are Python ints where possible and Fractions
otherwise, so identities can be certified integral.  Instances are treated as
immutable; all operations return new polynomials.
"""

from __future__ import annotations

from fractions import Fraction


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        for exps, c in terms.items():
            c = _norm_coeff(c)
            if c != 0:
                clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, i, nvars):
        """The variable u_{i+1} (index i, 0-based) among nvars variables."""
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def variables(cls, nvars):
        return [cls.var(i, nvars) for i in range(nvars)]

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MPoly(self.nvars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            terms[e] = terms.get(e, 0) - c
        return MPoly(self.nvars, terms)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = MPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @property
    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def scaled(self, factor):
        """Multiply every coefficient by an exact scalar."""
        return MPoly(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def exact_div(self, divisor):
        """Divide by an integer, requiring the quotient to be integral."""
        out = {}
        for e, c in self.terms.items():
            q = Fraction(c, divisor)
            if q.denominator != 1:
                raise ValueError(f"coefficient {c} not divisible by {divisor}")
            out[e] = q.numerator
        return MPoly(self.nvars, out)

    def permuted(self, perm):
        """Apply a permutation of the variables: u_i -> u_{perm[i]}."""
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for i, exp in enumerate(e):
                ne[perm[i]] = exp
            terms[tuple(ne)] = c
        return MPoly(self.nvars, terms)

    def evaluate(self, field, point):
        """Image under u_i -> point[i], computed in the given field."""
        if len(point) != self.nvars:
            raise ValueError(
                f"need {self.nvars} values, got {len(point)}")
        # powers[i][k] = point[i]^k, built once for all terms
        powers = []
        for i, x in enumerate(point):
            x, row = field(x), [field.one]
            for _ in range(max((e[i] for e in self.terms), default=0)):
                row.append(row[-1] * x)
            powers.append(row)
        acc = field.zero
        for e, c in self.terms.items():
            fc = field(c if isinstance(c, int) else Fraction(c))
            if not fc:
                continue
            for i, exp in enumerate(e):
                if exp:
                    fc = fc * powers[i][exp]
            acc = acc + fc
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"u{i + 1}" if k == 1 else f"u{i + 1}^{k}"
                for i, k in enumerate(e) if k)
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")
