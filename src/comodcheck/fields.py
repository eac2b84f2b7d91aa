"""Exact scalar fields: the rationals and prime fields F_p with p < 2**31.

Scalars are stored as plain Python values so matrices stay lightweight:
reduced ints in ``range(p)`` over F_p, and over the rationals a
``Fraction``, except that ``Field.of``, ``div`` and ``inv`` return an
integral rational as an ``int`` so parsed and generated data runs in int
arithmetic.  Other arithmetic may still yield an integral ``Fraction``; it
compares and hashes equal to the same ``int``.  A ``Field`` instance
carries the arithmetic; everything is exact, there is no rounding anywhere
in the package.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Bad field specification or non-invertible division."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the base set is exact for n < 3.3e24
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Field descriptor: characteristic 0 means Q, otherwise F_char."""

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char:
            if char >= 2 ** 31:
                raise FieldError(f"prime must be < 2**31, got {char}")
            if not _is_prime(char):
                raise FieldError(f"{char} is not prime")
        self.char = char

    # -- construction -------------------------------------------------

    def of(self, x):
        """Coerce an int, Fraction or literal string into the field; over Q
        an integral value comes back as an ``int``."""
        if isinstance(x, str):
            x = Fraction(x)
        if self.char == 0:
            if isinstance(x, int):
                return x
            if isinstance(x, Fraction):
                return x.numerator if x.denominator == 1 else x
            raise FieldError(f"cannot coerce {x!r} into Q")
        p = self.char
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise FieldError(f"denominator divisible by {p}")
            return x.numerator * pow(den, -1, p) % p
        raise FieldError(f"cannot coerce {x!r} into F_{p}")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    # -- arithmetic ---------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        if b == 0:
            raise FieldError("division by zero")
        if self.char:
            return a * pow(b, -1, self.char) % self.char
        return self.of(Fraction(a) / b)

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)


def GF(p: int) -> Field:
    """The prime field F_p for a prime p < 2**31.  p < 2 raises
    ``FieldError``: ``Field(0)`` is Q, but ``GF(0)`` names no field."""
    if p < 2:
        raise FieldError(f"a prime field needs p >= 2, got {p}")
    return Field(p)
