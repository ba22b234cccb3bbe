"""Seeded random field elements for the equivalence harnesses."""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ, Field, FieldElement


def random_element(field: Field, rng, nonzero=False):
    """A random element; over Q a small fraction, over finite fields uniform."""
    while True:
        if field == QQ:
            x = field(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        else:
            # raw representations of both finite field kinds enumerate as 0..order-1
            x = FieldElement(field, rng.randrange(field.order))
        if x or not nonzero:
            return x
