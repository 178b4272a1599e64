"""Exact polynomial arithmetic: ring axioms on random inputs, the signed
substitution everything downstream leans on, and the JSON wire format."""

import json
import random
from fractions import Fraction

import pytest

from gggr.errors import NonExactDivisionError, VariableMismatchError
from gggr.polyring import (
    RationalPoly,
    div_rem,
    exact_div,
    poly_from_json,
    poly_to_json,
    pretty,
    substitute_signed,
)


def rand_poly(rng, var="t", max_deg=6):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return RationalPoly.zero(var)
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randrange(1, 10)))
    return RationalPoly(coeffs, var)


class TestRingAxioms:
    def test_ring_axioms_random(self):
        rng = random.Random(20240817)
        for _ in range(200):
            f, g, h = (rand_poly(rng) for _ in range(3))
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + RationalPoly.zero("t") == f
            assert f * RationalPoly.const(1, "t") == f
            assert f - f == RationalPoly.zero("t")

    def test_degree_of_product(self):
        rng = random.Random(7)
        for _ in range(100):
            f, g = rand_poly(rng), rand_poly(rng)
            if f.is_zero() or g.is_zero():
                assert (f * g).is_zero()
            else:
                assert (f * g).degree == f.degree + g.degree

    def test_eval_is_homomorphism(self):
        rng = random.Random(99)
        for _ in range(50):
            f, g = rand_poly(rng), rand_poly(rng)
            for x in (0, 1, -1, Fraction(3, 2)):
                assert (f + g)(x) == f(x) + g(x)
                assert (f * g)(x) == f(x) * g(x)


def test_constructors_and_degree():
    t = RationalPoly.gen("t")
    assert t.degree == 1
    assert RationalPoly.zero("t").degree == -1
    assert (t**3 - t).degree == 3
    assert RationalPoly.monomial(4, Fraction(2), "t").coeff(4) == 2
    assert (t - 1).is_monic()
    assert not (2 * t).is_monic()


def test_trailing_zeros_stripped():
    f = RationalPoly([1, 2, 0, 0], "t")
    assert f.degree == 1
    assert f == RationalPoly([1, 2], "t")


def test_variable_mismatch():
    t = RationalPoly.gen("t")
    q = RationalPoly.gen("q")
    with pytest.raises(VariableMismatchError):
        t + q
    with pytest.raises(VariableMismatchError):
        t * q


def test_div_rem_property():
    rng = random.Random(4242)
    for _ in range(100):
        f = rand_poly(rng)
        g = rand_poly(rng)
        if g.is_zero():
            continue
        quo, rem = div_rem(f, g)
        assert quo * g + rem == f
        assert rem.is_zero() or rem.degree < g.degree


def test_exact_div():
    t = RationalPoly.gen("t")
    assert exact_div(t**2 - 1, t - 1) == t + 1
    with pytest.raises(NonExactDivisionError):
        exact_div(t**2, t - 1)


def test_substitute_signed():
    t = RationalPoly.gen("t")
    # eps = +1 just renames the variable
    f = substitute_signed(t**2 - t + 3, 1)
    assert f == RationalPoly([3, -1, 1], "q")
    # eps = -1 flips odd-degree coefficients: t -> -q
    g = substitute_signed(t**2 - t + 3, -1)
    assert g == RationalPoly([3, 1, 1], "q")


def test_substitute_signed_agrees_with_evaluation():
    rng = random.Random(5)
    for _ in range(40):
        f = rand_poly(rng)
        for q0 in (2, 3, 5):
            assert substitute_signed(f, -1)(q0) == f(-q0)
            assert substitute_signed(f, 1)(q0) == f(q0)


def test_json_round_trip():
    # "val" is the lowest exponent with a nonzero coefficient
    rng = random.Random(31337)
    for _ in range(60):
        f = rand_poly(rng, var="q") * RationalPoly.monomial(rng.randrange(4), 1, "q")
        data = json.loads(json.dumps(poly_to_json(f)))
        low = next((k for k, c in enumerate(f.coeffs) if c), 0)
        assert data["val"] == low
        assert len(data["coeffs"]) == len(f.coeffs) - low
        assert poly_from_json(data) == f


def test_json_valuation():
    q = RationalPoly.gen("q")
    assert poly_to_json(q**3 - q**2) == {
        "var": "q",
        "val": 2,
        "coeffs": [["-1", "1"], ["1", "1"]],
    }
    zero = {"var": "q", "val": 0, "coeffs": []}
    assert poly_to_json(RationalPoly.zero("q")) == zero
    assert poly_from_json(zero) == RationalPoly.zero("q")


def test_json_rejects_negative_valuation():
    with pytest.raises(ValueError, match="negative valuation"):
        poly_from_json({"var": "q", "val": -1, "coeffs": [["1", "1"]]})


def test_json_shape():
    t = RationalPoly.gen("t")
    data = poly_to_json(t**2 - Fraction(1, 2))
    assert data == {
        "var": "t",
        "val": 0,
        "coeffs": [["-1", "2"], ["0", "1"], ["1", "1"]],
    }


def test_pretty():
    q = RationalPoly.gen("q")
    assert pretty(q**5 - q**4 + 2 * q**2 - 1) == "q^5 - q^4 + 2q^2 - 1"
    assert pretty(RationalPoly.zero("q")) == "0"
    assert pretty(RationalPoly.const(-3, "q")) == "-3"
    assert pretty(q + 1) == "q + 1"
    assert pretty(-q) == "-q"
    assert pretty(q**2 + 2 * q) == "q^2 + 2q"
