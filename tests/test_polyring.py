"""The polynomial value type: normal form, evaluation, the JSON wire format
and printing.  It has no arithmetic of its own; a guard keeps it that way."""

import json
import random
from fractions import Fraction

import pytest

import gggr
import gggr.polyring as polyring
from gggr.polyring import RationalPoly, poly_from_json, poly_to_json, pretty


def rand_poly(rng, var="t", max_deg=6):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return RationalPoly((), var)
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randrange(1, 10)))
    return RationalPoly(coeffs, var)


def test_constructors_and_degree():
    assert RationalPoly((0, 1), "t").degree == 1
    assert RationalPoly((), "t").degree == -1
    assert RationalPoly([0, -1, 0, 1], "t").degree == 3
    assert RationalPoly((0, 0, 0, 0, Fraction(2)), "t").coeff(4) == 2
    assert RationalPoly((0, 0, 0, 0, Fraction(2)), "t").coeff(5) == 0
    assert RationalPoly((-1, 1), "t").is_monic()
    assert not RationalPoly((0, 2), "t").is_monic()
    assert not RationalPoly((), "t").is_monic()
    assert RationalPoly((), "t").is_zero()


def test_trailing_zeros_stripped():
    f = RationalPoly([1, 2, 0, 0], "t")
    assert f.degree == 1
    assert f == RationalPoly([1, 2], "t")


def test_equality_and_hash_see_the_variable():
    f, g = RationalPoly((1, 2), "t"), RationalPoly((1, 2), "q")
    assert f != g
    assert f == RationalPoly((Fraction(1), Fraction(2)), "t")
    assert len({f, g, RationalPoly([1, 2, 0], "t")}) == 2


def test_evaluation():
    # against the power sum sum_k c_k x^k, at integer and rational points
    rng = random.Random(99)
    for _ in range(50):
        f = rand_poly(rng)
        for x in (0, 1, -1, 5, Fraction(3, 2)):
            value = f(x)
            assert isinstance(value, Fraction)
            assert value == sum(c * Fraction(x) ** k for k, c in enumerate(f.coeffs))


def test_json_round_trip():
    # "val" is the lowest exponent with a nonzero coefficient
    rng = random.Random(31337)
    for _ in range(60):
        f = rand_poly(rng, var="q")
        f = RationalPoly((0,) * rng.randrange(4) + f.coeffs, "q")
        data = json.loads(json.dumps(poly_to_json(f)))
        low = next((k for k, c in enumerate(f.coeffs) if c), 0)
        assert data["val"] == low
        assert len(data["coeffs"]) == len(f.coeffs) - low
        assert poly_from_json(data) == f


def test_json_valuation():
    assert poly_to_json(RationalPoly((0, 0, -1, 1), "q")) == {
        "var": "q",
        "val": 2,
        "coeffs": [["-1", "1"], ["1", "1"]],
    }
    zero = {"var": "q", "val": 0, "coeffs": []}
    assert poly_to_json(RationalPoly((), "q")) == zero
    assert poly_from_json(zero) == RationalPoly((), "q")


def test_json_rejects_negative_valuation():
    with pytest.raises(ValueError, match="negative valuation"):
        poly_from_json({"var": "q", "val": -1, "coeffs": [["1", "1"]]})


def test_json_shape():
    data = poly_to_json(RationalPoly((Fraction(-1, 2), 0, 1), "t"))
    assert data == {
        "var": "t",
        "val": 0,
        "coeffs": [["-1", "2"], ["0", "1"], ["1", "1"]],
    }


def test_pretty():
    def q(*coeffs):
        return RationalPoly(coeffs, "q")

    assert pretty(q(-1, 0, 2, 0, -1, 1)) == "q^5 - q^4 + 2q^2 - 1"
    assert pretty(q()) == "0"
    assert pretty(q(-3)) == "-3"
    assert pretty(q(1, 1)) == "q + 1"
    assert pretty(q(0, -1)) == "-q"
    assert pretty(q(0, 2, 1)) == "q^2 + 2q"
    assert pretty(q(0, Fraction(1, 3), Fraction(-5, 2))) == "-5/2q^2 + 1/3q"


def test_no_second_polynomial_arithmetic():
    """Polynomial arithmetic lives in gggr.intpoly only: the value type has
    no operators, and the Fraction ring's division, substitution and
    variable check are gone."""
    for name in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__pow__"):
        assert not hasattr(RationalPoly, name), name
    for name in ("gen", "const", "zero", "monomial"):
        assert not hasattr(RationalPoly, name), name
    for name in ("div_rem", "exact_div", "substitute_signed"):
        assert not hasattr(polyring, name), name
    assert not hasattr(gggr, "VariableMismatchError")
