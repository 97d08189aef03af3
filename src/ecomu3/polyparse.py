"""A small parser for the plain-text polynomial syntax of the CLI.

Accepted: variables x1..xn and y1..yn, integer or rational coefficients
(``2``, ``-1/3``), ``+``, ``-``, ``*``, ``^``, and parentheses.  Juxtaposed
factors need explicit ``*``.  x-variables address the left tensor factor and
y-variables the right one; pure-x input parses to a plain polynomial.

>>> parse_polynomial("x1 + x2 + x3", n=3)
{(1, 0, 0): Fraction(1, 1), (0, 1, 0): Fraction(1, 1), (0, 0, 1): Fraction(1, 1)}
>>> parse_tensor("x1*x2 * y2*y3", n=3)[((1, 1, 0), (0, 1, 1))]
Fraction(1, 1)
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[xy]\d+|\^|\*|\+|-|\(|\))")


class ParseError(ValueError):
    pass


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"cannot read {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over sum -> term -> power -> atom."""

    def __init__(self, tokens, n):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self.sum()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return value

    def sum(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        total = _scale(self.term(), sign)
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            total = _add(total, _scale(self.term(), sign))
        return total

    def term(self):
        value = self.power()
        while self.peek() == "*":
            self.take()
            value = _mul(value, self.power())
        return value

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            exp = int(tok)
            out = _const(Fraction(1), self.n)
            for _ in range(exp):
                out = _mul(out, base)
            return out
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            inner = self.sum()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return inner
        if tok[0] in "xy":
            idx = int(tok[1:])
            if not 1 <= idx <= self.n:
                raise ParseError(f"variable {tok} out of range 1..{self.n}")
            ex = [0] * self.n
            ey = [0] * self.n
            (ex if tok[0] == "x" else ey)[idx - 1] = 1
            return {(tuple(ex), tuple(ey)): Fraction(1)}
        if "/" in tok:
            a, b = tok.split("/")
            if not int(b):
                raise ParseError(f"zero denominator in {tok!r}")
            return _const(Fraction(int(a), int(b)), self.n)
        if tok.isdigit():
            return _const(Fraction(int(tok)), self.n)
        raise ParseError(f"unexpected token {tok!r}")


def _const(c, n):
    return {((0,) * n, (0,) * n): c}


def _scale(poly, c):
    return {k: v * c for k, v in poly.items() if v * c}


def _add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def _mul(a, b):
    out = {}
    for (xa, ya), ca in a.items():
        for (xb, yb), cb in b.items():
            key = (tuple(p + q for p, q in zip(xa, xb)),
                   tuple(p + q for p, q in zip(ya, yb)))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def parse_tensor(text, n=3):
    """Parse into a tensor-square element {(x-exponents, y-exponents): coeff}."""
    return _Parser(_tokenize(text), n).parse()


def parse_polynomial(text, n=3):
    """Parse pure-x input into a plain polynomial {exponents: coeff}."""
    tensor = parse_tensor(text, n)
    out = {}
    for (ex, ey), c in tensor.items():
        if any(ey):
            raise ParseError("y-variables are not allowed here")
        out[ex] = c
    return out
