"""A small parser for the plain-text polynomial syntax of the CLI.

Accepted: variables x1..xn, integer or rational coefficients (``2``,
``-1/3``), ``+``, ``-``, ``*``, ``^``, and parentheses.  Juxtaposed factors
need explicit ``*``.

Every parsed polynomial is read in the coinvariant algebra, which is 0 above
polynomial degree n(n-1)/2, so terms of degree above that are dropped as
they arise.  A power is then a short
binomial sum however large its exponent.  A numeral, or the constant term of
a power, with more digits than the interpreter converts
(``sys.get_int_max_str_digits``) is a ParseError; with that limit switched
off, the constant term of a power is still held to the default limit.
Error messages quote at most the first 40 characters of the input.

>>> parse_polynomial("x1 + x2 + x3", n=3)
{(1, 0, 0): Fraction(1, 1), (0, 1, 0): Fraction(1, 1), (0, 0, 1): Fraction(1, 1)}
>>> parse_polynomial("x1^99999999 + (1 + x2)^4", n=3)[(0, 3, 0)]
Fraction(4, 1)
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, log10

from .polynomial import poly_add, poly_mul, poly_scale

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|x\d+|\^|\*|\+|-|\(|\))")


class ParseError(ValueError):
    pass


def quoted(text):
    """``repr(text)``, or that of its first 40 characters and ``...``."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"cannot read {quoted(text[pos:])}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _integer(digits):
    try:
        return int(digits)
    except ValueError:      # more digits than the interpreter converts
        raise ParseError(f"a numeral of {len(digits)} digits is too long") from None


class _Parser:
    """Recursive descent over sum -> term -> power -> atom.

    Polynomials are {exponents: Fraction} over the variables x_1..x_n.
    """

    def __init__(self, tokens, n):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.top = n * (n - 1) // 2
        self.one = (0,) * n

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self.sum()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {quoted(self.peek())}")
        return value

    def sum(self):
        total = {}
        while True:
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            total = poly_add(total, poly_scale(sign, self.term()))
            if self.peek() not in ("+", "-"):
                return total

    def mul(self, a, b):
        """a * b without the terms of degree above the top."""
        return {e: c for e, c in poly_mul(a, b).items() if sum(e) <= self.top}

    def term(self):
        value = self.power()
        while self.peek() == "*":
            self.take()
            value = self.mul(value, self.power())
        return value

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ParseError("exponent must be a nonnegative integer")
        exp = _integer(tok)
        # base = c + rest, every term of rest of positive degree, so rest^j
        # is 0 once j > top and base^exp = sum_j C(exp, j) c^(exp-j) rest^j
        c = base.get(self.one, 0)
        size = max(abs(c.numerator), c.denominator)
        # with the interpreter's limit off (0), its default still bounds the
        # constant term, which is otherwise raised to any exponent
        limit = (getattr(sys, "get_int_max_str_digits", lambda: 0)()
                 or getattr(sys.int_info, "default_max_str_digits", 0))
        if limit and size > 1 and exp >= limit / log10(size):
            raise ParseError(f"the constant term of a power has more than "
                             f"{limit} digits")
        rest = {e: v for e, v in base.items() if e != self.one}
        out, rest_j = {}, {self.one: Fraction(1)}
        for j in range(exp + 1):
            if not rest_j:
                break
            if c or j == exp:
                out = poly_add(out, poly_scale(comb(exp, j) * c ** (exp - j), rest_j))
            rest_j = self.mul(rest_j, rest)
        return out

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            inner = self.sum()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return inner
        if tok[0] == "x":
            idx = _integer(tok[1:])
            if not 1 <= idx <= self.n:
                raise ParseError(
                    f"variable {quoted(tok)} out of range 1..{self.n}")
            e = [0] * self.n
            e[idx - 1] = 1
            return {tuple(e): Fraction(1)}
        if "/" in tok:
            a, b = map(_integer, tok.split("/"))
            if not b:
                raise ParseError(f"zero denominator in {quoted(tok)}")
            return {self.one: Fraction(a, b)}
        if tok.isdigit():
            return {self.one: Fraction(_integer(tok))}
        raise ParseError(f"unexpected token {quoted(tok)}")


def parse_polynomial(text, n=3):
    """Parse into a polynomial {exponents: coeff} in x1..xn."""
    try:
        return _Parser(_tokenize(text), n).parse()
    except RecursionError:
        raise ParseError("parentheses nested too deeply") from None
