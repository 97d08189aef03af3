"""Chern classes and the multiplicative transgression engine."""

import pytest

from ecomu3 import published
from ecomu3.koszul import (koszul_homology_series, pu3_cohomology,
                           transgressive_quotient, u3t2_cohomology,
                           whitney_chern)

from cohomology_oracle import is_palindromic


def test_whitney_examples():
    c = whitney_chern([[1, 0], [1, 0], [0, 1]])
    assert c[0] == {(1, 0): 2, (0, 1): 1}
    assert c[1] == {(2, 0): 1, (1, 1): 2}
    assert c[2] == {(2, 1): 1}
    assert whitney_chern([[1]]) == [{(1,): 1}]
    assert whitney_chern([[0, 0]]) == [{}]
    assert whitney_chern([]) == []


def test_u3t2_mod2():
    out = u3t2_cohomology(2)
    assert str(out["presentation"]) == "F2[z5, b]/(z5^2, b^2)"
    assert out["series"].coefficients == published.U3T2_SERIES[2].coefficients
    steps = {s["generator"]: s for s in out["steps"]}
    assert steps["z1"]["page"] == 2 and steps["z1"]["reduced"] == "b2"
    assert steps["z3"]["page"] == 4 and steps["z3"]["reduced"] == "b1^2"
    assert steps["z5"]["page"] == 6 and steps["z5"]["reduced"] == "0"
    assert not steps["z5"]["dies"]


def test_u3t2_mod3():
    out = u3t2_cohomology(3)
    assert str(out["presentation"]) == "F3[z3, b]/(z3^2, b^3)"
    assert out["series"].coefficients == published.U3T2_SERIES[3].coefficients
    steps = {s["generator"]: s for s in out["steps"]}
    assert steps["z1"]["raw"] == "2*b1 + b2"
    # after the page-2 relation the second Chern class reduces to zero
    assert steps["z3"]["raw"] == "b1^2 + 2*b1*b2"
    assert steps["z3"]["reduced"] == "0" and not steps["z3"]["dies"]
    assert steps["z5"]["reduced"] == "b1^3" and steps["z5"]["dies"]


def test_u3t2_total_dimensions_and_top_class():
    # mod 2: four classes, mod 3: six classes; top class in degree 7
    for p, total in ((2, 4), (3, 6)):
        s = u3t2_cohomology(p)["series"]
        assert sum(s.coefficients) == total
        assert len(s.coefficients) - 1 == 7


def test_pu3():
    out2 = pu3_cohomology(2)
    assert out2["series"].coefficients == published.PU3_SERIES[2].coefficients
    assert str(out2["presentation"]) == "F2[z3, z5]/(z3^2, z5^2)"
    out3 = pu3_cohomology(3)
    assert out3["series"].coefficients == published.PU3_SERIES[3].coefficients
    assert is_palindromic(out3["series"], 8)


@pytest.mark.parametrize("p", [5, 7])
def test_pu3_prime_to_three_is_rational(p):
    """At a prime not dividing 3, H*(PU(3); F_p) is the rational answer, the
    exterior algebra on classes of degrees 3 and 5: 1 + t^3 + t^5 + t^8."""
    out = pu3_cohomology(p)
    want = (1, 0, 0, 1, 0, 1, 0, 0, 1)
    assert out["series"].coefficients == want
    assert out["oracle"].coefficients == want


def test_oracle_agrees_with_presentation():
    for p in (2, 3):
        for fn in (u3t2_cohomology, pu3_cohomology):
            out = fn(p)
            assert out["series"].coefficients == out["oracle"].coefficients
            assert out["presentation"].poincare_polynomial(16).coefficients \
                == out["series"].coefficients


def test_koszul_oracle_regular_sequence():
    # c_i a regular sequence: the quotient is the whole homology
    cherns = [{(1, 0): 1}, {(0, 2): 1}]
    series = koszul_homology_series(cherns, 2, 5, 10)
    # F_5[b1,b2]/(b1, b2^2) has dimensions 1, 0, 1 in degrees 0, 2
    assert series.coefficients == (1, 0, 1)


def test_bad_prime():
    with pytest.raises(ValueError):
        u3t2_cohomology(5)
