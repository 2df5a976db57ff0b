"""Sparse multivariate polynomials over an exact field, with weighted grading.

Monomials are exponent tuples; a PolyRing fixes the field, the variable
names and their (positive integer) degrees.  The monomial order is graded
reverse lexicographic in declaration order, with the grading given by the
variable weights.
"""
from __future__ import annotations

import operator
import re
from typing import Iterable, Optional

from .scalars import Field

Monomial = tuple  # tuple[int, ...], one exponent per variable

_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_TOKEN_RE = re.compile(r"\s*([+-])\s*")


class PolyRing:
    """Ambient polynomial ring k[x_1..x_n] with weighted degrees."""

    __slots__ = ("field", "names", "degrees", "nvars", "_name_index")

    def __init__(self, field: Field, names: Iterable[str], degrees: Iterable[int]):
        self.field = field
        self.names = tuple(names)
        self.degrees = tuple(int(d) for d in degrees)
        self.nvars = len(self.names)
        if len(self.degrees) != self.nvars:
            raise ValueError("variable/degree count mismatch")
        if len(set(self.names)) != self.nvars:
            raise ValueError("duplicate variable names")
        for name in self.names:
            if not _VAR_RE.match(name):
                raise ValueError("bad variable name %r" % name)
        for d in self.degrees:
            if d < 1:
                raise ValueError("variable degrees must be positive")
        self._name_index = {n: i for i, n in enumerate(self.names)}

    # -- monomial helpers -------------------------------------------------

    def mono_one(self) -> Monomial:
        return (0,) * self.nvars

    # map over operator functions: these sit on every hot path, and a
    # generator expression costs a frame per call

    def mono_mul(self, a: Monomial, b: Monomial) -> Monomial:
        return tuple(map(operator.add, a, b))

    def mono_divides(self, a: Monomial, b: Monomial) -> bool:
        return all(map(operator.le, a, b))

    def mono_div(self, a: Monomial, b: Monomial) -> Monomial:
        return tuple(map(operator.sub, a, b))

    def mono_lcm(self, a: Monomial, b: Monomial) -> Monomial:
        return tuple(map(max, a, b))

    def mono_degree(self, m: Monomial) -> int:
        return sum(map(operator.mul, m, self.degrees))

    def mono_key(self, m: Monomial):
        # graded reverse lex: larger key = larger monomial
        return (self.mono_degree(m), tuple(map(operator.neg, reversed(m))))

    def mono_str(self, m: Monomial) -> str:
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {self.mono_one(): self.field.one()})

    def variable(self, name: str) -> "Poly":
        i = self._name_index[name]
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {mono: self.field.one()})

    def monomial(self, m: Monomial, c=None) -> "Poly":
        c = self.field.one() if c is None else c
        if self.field.is_zero(c):
            return self.zero()
        return Poly(self, {tuple(m): c})

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((self.field, self.names, self.degrees))

    def __repr__(self):
        vars_ = ", ".join(
            "%s:%d" % (n, d) for n, d in zip(self.names, self.degrees)
        )
        return "PolyRing(%s; %s)" % (self.field.tag, vars_)


class Poly:
    """Immutable-by-convention sparse polynomial: dict monomial -> coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        f = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = f.add(out[m], c)
                if f.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        f = self.ring.field
        return Poly(self.ring, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        ring = self.ring
        f = ring.field
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = ring.mono_mul(m1, m2)
                c = f.mul(c1, c2)
                if m in out:
                    s = f.add(out[m], c)
                    if f.is_zero(s):
                        del out[m]
                    else:
                        out[m] = s
                elif not f.is_zero(c):
                    out[m] = c
        return Poly(ring, out)

    def scale(self, c) -> "Poly":
        f = self.ring.field
        if f.is_zero(c):
            return self.ring.zero()
        return Poly(self.ring, {m: f.mul(c, v) for m, v in self.terms.items()})

    def leading(self) -> tuple:
        """(monomial, coeff) with the largest monomial; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=self.ring.mono_key)
        return m, self.terms[m]

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        _, c = self.leading()
        return self.scale(self.ring.field.inv(c))

    def degree(self) -> Optional[int]:
        """Weighted degree if homogeneous, None for 0; error otherwise."""
        if not self.terms:
            return None
        degs = {self.ring.mono_degree(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous: %s" % self)
        return degs.pop()

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        return len({self.ring.mono_degree(m) for m in self.terms}) == 1

    def sorted_terms(self):
        """Terms in descending monomial order (deterministic)."""
        return sorted(
            self.terms.items(), key=lambda mc: self.ring.mono_key(mc[0]), reverse=True
        )

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def terms_key(self) -> tuple:
        """The terms as a hashable tuple, independent of insertion order:
        equal polynomials over one ring have equal keys."""
        return tuple(sorted(self.terms.items()))

    def __hash__(self):
        return hash((self.ring, self.terms_key()))

    def __str__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        f = ring.field
        chunks = []
        for m, c in self.sorted_terms():
            cs = f.format(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            ms = ring.mono_str(m)
            if ms == "1":
                body = cs
            elif cs == "1":
                body = ms
            else:
                body = "%s*%s" % (cs, ms)
            if not chunks:
                chunks.append("-" + body if neg else body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return "Poly(%s)" % self


def parse_poly(ring: PolyRing, text: str) -> Poly:
    """Parse 'c*x^a*y^b' terms joined by '+'/'-'.

    Coefficients are decimal integers or n/d fractions; '^1' may be omitted;
    a bare coefficient is a constant term.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial string")
    if text == "0":
        return ring.zero()
    # split into signed terms
    pieces = _TOKEN_RE.split(text)
    # pieces alternates: [lead, sign, term, sign, term, ...]; lead may be ''
    terms: list = []
    if pieces[0].strip():
        terms.append(("+", pieces[0].strip()))
    for i in range(1, len(pieces), 2):
        sign = pieces[i]
        body = pieces[i + 1].strip() if i + 1 < len(pieces) else ""
        if not body:
            raise ValueError("dangling sign in %r" % text)
        terms.append((sign, body))
    result = ring.zero()
    for sign, body in terms:
        result = result + _parse_term(ring, sign, body, text)
    return result


def _parse_term(ring: PolyRing, sign: str, body: str, ctx: str) -> Poly:
    f = ring.field
    coeff = f.one()
    expo = [0] * ring.nvars
    for factor in body.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError("empty factor in %r" % ctx)
        if factor[0].isdigit() or factor[0] in "+-" or "/" in factor and factor[0].isdigit():
            coeff = f.mul(coeff, f.parse(factor))
            continue
        if "^" in factor:
            var, _, exp_s = factor.partition("^")
            exp = int(exp_s)
        else:
            var, exp = factor, 1
        var = var.strip()
        if var not in ring._name_index:
            raise ValueError("unknown variable %r in %r" % (var, ctx))
        if exp < 0:
            raise ValueError("negative exponent in %r" % ctx)
        expo[ring._name_index[var]] += exp
    if sign == "-":
        coeff = f.neg(coeff)
    return ring.monomial(tuple(expo), coeff)
