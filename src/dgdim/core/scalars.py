"""Exact scalar arithmetic: the rationals and prime fields F_p (p <= 2**31).

Field elements are plain Python objects; the Field object carries the
operations so polynomial code stays field-agnostic.  An element of Q is an
int when it is integral and a Fraction in lowest terms otherwise, never a
float: every operation returns an integral result as an int, so equal
values have one representation (and 3 == Fraction(3) prints, hashes and
compares the same anyway).  An element of F_p is an int in [0, p).

The fractions module (which pulls in decimal and numbers) is imported only
when Rationals.inv first builds a non-integral value, so a process that
never meets one, and every process over F_p, does without it.
"""
from __future__ import annotations

import operator

_P_MAX = 2 ** 31


class Field:
    """The operations both fields share; use Rationals() or PrimeField(p),
    which define zero, one, from_int, add, neg, mul, inv, is_zero and
    format."""

    tag: str

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text: str):
        """Parse 'n' or 'n/d' (decimal integers)."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            n, d = int(num), int(den)
            if self.is_zero(self.from_int(d)):
                raise ValueError("zero denominator in scalar %r" % text)
            if n % d == 0:
                # an integral quotient needs no inverse (over Q, no Fraction)
                return self.from_int(n // d)
            return self.div(self.from_int(n), self.from_int(d))
        return self.from_int(int(text))

    def __eq__(self, other):
        return isinstance(other, Field) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


class Rationals(Field):
    tag = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return operator.index(n)

    def add(self, a, b):
        s = a + b
        if type(s) is int or s.denominator != 1:
            return s
        return s.numerator

    def neg(self, a):
        return -a

    def mul(self, a, b):
        s = a * b
        if type(s) is int or s.denominator != 1:
            return s
        return s.numerator

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        num, den = a.numerator, a.denominator
        if num == 1 or num == -1:
            return num * den
        from fractions import Fraction
        return Fraction(den, num)

    def is_zero(self, a):
        return a == 0

    def format(self, a) -> str:
        return str(a)


class PrimeField(Field):
    def __init__(self, p: int):
        if p < 2 or p > _P_MAX:
            raise ValueError("prime out of supported range: %r" % p)
        for d in range(2, int(p ** 0.5) + 1):
            if p % d == 0:
                raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.tag = "Fp:%d" % p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def format(self, a) -> str:
        return str(a % self.p)


def field_from_tag(tag: str) -> Field:
    """'Q' or 'Fp:<p>' -> Field instance."""
    if tag == "Q":
        return Rationals()
    if tag.startswith("Fp:"):
        return PrimeField(int(tag[3:]))
    raise ValueError("unknown field tag %r" % tag)
