"""The plain-text polynomial syntax."""

from fractions import Fraction

import pytest

from ecomu3.polyparse import ParseError, parse_polynomial

F = Fraction


def test_basic():
    assert parse_polynomial("x1 + x2 + x3") == {
        (1, 0, 0): F(1), (0, 1, 0): F(1), (0, 0, 1): F(1)}
    assert parse_polynomial("x1^2 - x2*x3") == {
        (2, 0, 0): F(1), (0, 1, 1): F(-1)}
    assert parse_polynomial("2*x1 - 1/3") == {
        (1, 0, 0): F(2), (0, 0, 0): F(-1, 3)}


def test_parentheses_and_signs():
    t = parse_polynomial("(x1 + x2)^2 - -x3")
    assert t[(2, 0, 0)] == F(1) and t[(1, 1, 0)] == F(2)
    assert t[(0, 0, 1)] == F(1)


def test_cancellation():
    assert parse_polynomial("x1 - x1") == {}


def test_errors():
    with pytest.raises(ParseError):
        parse_polynomial("x9")
    with pytest.raises(ParseError):
        parse_polynomial("x1 +")
    with pytest.raises(ParseError):
        parse_polynomial("(x1")
    with pytest.raises(ParseError):
        parse_polynomial("x1 y1")  # juxtaposition needs *
    with pytest.raises(ParseError):
        parse_polynomial("y1")     # the variables are x1..xn only


def test_terms_above_the_top_degree_are_dropped():
    # the coinvariant algebra is 0 above degree n(n-1)/2 = 3, where every
    # parsed polynomial is read
    assert parse_polynomial("x1^4 + x2") == {(0, 1, 0): F(1)}
    assert parse_polynomial("x1^2 * x3") == {(2, 0, 1): F(1)}
    assert parse_polynomial("x1^2*x2^2 + x3") == {(0, 0, 1): F(1)}
    assert parse_polynomial("(x1*x2)^2 * (1 + x3)") == {}


@pytest.mark.parametrize("text", ["x1 + 1", "2*x1 - x2*x3 + 1/2", "x1 - x2",
                                  "-3 + x1^2*x3", "x1*x2 + x3 - 1", "(x2 - x3)"])
def test_power_is_the_repeated_product(text):
    # a power is a binomial sum, a product a chain of truncated products
    for k in range(9):
        product = "*".join([f"({text})"] * k) if k else "1"
        assert parse_polynomial(f"({text})^{k}") == parse_polynomial(product), k

