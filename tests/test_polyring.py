"""The polynomial value type: normal form, evaluation, the JSON wire format
and printing.  It has no arithmetic of its own; a guard keeps it that way."""

import json
import random
import re
from fractions import Fraction
from math import lcm

import pytest

import gggr
import gggr.green as green
import gggr.grouporders as grouporders
import gggr.kawanaka as kawanaka
import gggr.partitions as partitions
import gggr.polyring as polyring
import gggr.symfunc as symfunc
from gggr.polyring import RationalPoly, poly_from_json, poly_to_json, pretty


def rand_poly(rng, var="t", max_deg=6):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return RationalPoly((), var)
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randrange(1, 10)))
    den = lcm(*(c.denominator for c in coeffs))
    return RationalPoly([int(c * den) for c in coeffs], var, den)


def test_constructors_and_degree():
    assert RationalPoly((0, 1), "t").degree == 1
    assert RationalPoly((), "t").degree == -1
    assert RationalPoly([0, -1, 0, 1], "t").degree == 3
    assert RationalPoly((0, 0, 0, 0, 2), "t").coeff(4) == 2
    assert RationalPoly((0, 0, 0, 0, 2), "t").coeff(5) == 0
    assert RationalPoly((0, 0, 0, 0, 2), "t", 3).coeff(4) == Fraction(2, 3)
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
    assert f == RationalPoly((2, 4), "t", 2)
    assert len({f, g, RationalPoly([1, 2, 0], "t")}) == 2


def test_pair_is_reduced_by_its_gcd():
    f, g = RationalPoly((2, 4), "q", 6), RationalPoly((1, 2), "q", 3)
    assert f == g and hash(f) == hash(g)
    assert (f.nums, f.den) == ((1, 2), 3)
    assert f.coeffs == (Fraction(1, 3), Fraction(2, 3))
    assert f.is_monic() is False and RationalPoly((-1, 3), "q", 3).is_monic()


def test_zero_has_denominator_one():
    for zero in (RationalPoly((), "q"), RationalPoly((0, 0), "q", 7)):
        assert (zero.nums, zero.den) == ((), 1)
        assert zero == RationalPoly((), "q") and zero.is_zero()


@pytest.mark.parametrize("den", [0, -2])
def test_denominator_must_be_positive(den):
    with pytest.raises(ValueError, match=f"^denominator must be positive, got {den}$"):
        RationalPoly((1, 2), "q", den)


@pytest.mark.parametrize(
    "nums, den", [((Fraction(1), 2), 1), ((1.0, 2), 1), (("1", 2), 1), ((1, 2), Fraction(3))]
)
def test_numerators_and_denominator_must_be_integers(nums, den):
    with pytest.raises(TypeError, match="^not integers: "):
        RationalPoly(nums, "q", den)


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
        f = RationalPoly((0,) * rng.randrange(4) + f.nums, "q", f.den)
        data = json.loads(json.dumps(poly_to_json(f)))
        low = next((k for k, c in enumerate(f.coeffs) if c), 0)
        assert data["val"] == low
        assert len(data["coeffs"]) == len(f.coeffs) - low
        assert poly_from_json(data) == f


def test_json_reader_clears_to_one_denominator():
    # -1/2 + q^2/3 = (-3 + 2q^2) / 6
    data = {"var": "q", "val": 0, "coeffs": [["-1", "2"], ["0", "1"], ["1", "3"]]}
    f = poly_from_json(data)
    assert (f.nums, f.den) == ((-3, 0, 2), 6)
    assert poly_to_json(f) == data
    # unreduced and negative denominators read as the values they stand for
    g = poly_from_json({"var": "q", "val": 1, "coeffs": [["2", "-4"], ["3", "3"]]})
    assert (g.nums, g.den) == ((0, -1, 2), 2)


def test_json_rejects_zero_denominator():
    data = {"var": "q", "val": 2, "coeffs": [["1", "1"], ["5", "0"]]}
    with pytest.raises(ValueError, match=r"^zero denominator in 5/0 q\^3$"):
        poly_from_json(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"var": "q", "val": 0, "coeffs": [[1.5, 2]]}, "not an integer: 1.5"),
        ({"var": "q", "val": 0, "coeffs": [["1", 2.0]]}, "not an integer: 2.0"),
        ({"var": "q", "val": 1.7, "coeffs": [["1", "1"]]}, "not an integer: 1.7"),
        ({"var": "q", "val": True, "coeffs": [["1", "1"]]}, "not an integer: True"),
        ({"var": "q", "val": 0, "coeffs": [[True, "1"]]}, "not an integer: True"),
        ({"var": "q", "val": 0, "coeffs": [["1", False]]}, "not an integer: False"),
        ({"val": 0, "coeffs": [["1", "1"]]}, "no 'var' in "),
        ({"var": "q"}, "no 'val', 'coeffs' in "),
        ({"var": "q", "val": 0, "coeffs": 5}, "not the wire format: "),
        ({"var": "q", "val": 0, "coeffs": [5]}, "not the wire format: "),
        ({"var": "q", "val": 0, "coeffs": ["12"]}, "not the wire format: "),
        ({"var": 5, "val": 0, "coeffs": [["1", "1"]]}, "not the wire format: "),
        ({"var": "q", "val": 0, "coeffs": [[None, 1]]}, "not an integer: None"),
        ({"var": "q", "val": None, "coeffs": [["1", "1"]]}, "not an integer: None"),
        # a decimal string is read only in the form poly_to_json writes
        ({"var": "q", "val": 0, "coeffs": [["1_0", "1"]]}, "not an integer: '1_0'"),
        ({"var": "q", "val": 0, "coeffs": [[" 7 ", "1"]]}, "not an integer: ' 7 '"),
        ({"var": "q", "val": 0, "coeffs": [["+3", "1"]]}, "not an integer: '+3'"),
        ({"var": "q", "val": "\u0661\u0662", "coeffs": []}, "not an integer: '\u0661\u0662'"),
        ({"var": "q", "val": 0, "coeffs": [["1", "007"]]}, "not an integer: '007'"),
        ({"var": "q", "val": 0, "coeffs": [["-0", "1"]]}, "not an integer: '-0'"),
        # a document or a coefficient pair of the wrong shape
        (None, "not the wire format: None"),
        ([], "not the wire format: []"),
        (
            {"var": "q", "val": 0, "coeffs": [["1"]]},
            "not the wire format: {'var': 'q', 'val': 0, 'coeffs': [['1']]}",
        ),
        (
            {"var": "q", "val": 0, "coeffs": [["1", "1", "1"]]},
            "not the wire format: {'var': 'q', 'val': 0, 'coeffs': [['1', '1', '1']]}",
        ),
    ],
)
def test_json_refuses_what_is_not_the_wire_format(data, message):
    # a float is not truncated, a bool is not read as 0 or 1, and a document
    # of the wrong shape is a ValueError, never a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        poly_from_json(data)


def test_json_reads_integers_and_decimal_strings():
    assert poly_from_json({"var": "q", "val": 1, "coeffs": [[1, "2"], ["-3", 1]]}) == (
        RationalPoly((0, 1, -6), "q", 2)
    )


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
    data = poly_to_json(RationalPoly((-1, 0, 2), "t", 2))
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
    assert pretty(RationalPoly((0, 2, -15), "q", 6)) == "-5/2q^2 + 1/3q"


def test_no_second_polynomial_arithmetic():
    """Polynomial arithmetic lives in gggr.intpoly only: the value type has
    no operators, and the Fraction ring's division, substitution and
    variable check are gone."""
    for name in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__pow__"):
        assert not hasattr(RationalPoly, name), name
    for name in ("gen", "const", "zero", "monomial"):
        assert not hasattr(RationalPoly, name), name
    for name in ("div_rem", "exact_div", "substitute_signed", "Scalar"):
        assert not hasattr(polyring, name), name
    assert not hasattr(gggr, "VariableMismatchError")


def test_fraction_stays_at_the_edges(monkeypatch):
    """The pipeline computes on integers to the end: with every cache cold,
    proving the theorem at n = 6 and writing the Green table and every
    gamma_mu build no Fraction.  Reading a coefficient out does, which shows
    that the count works."""
    for module in (partitions, symfunc, grouporders, green, kawanaka):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for eps in (1, -1):
        assert kawanaka.verify_theorem(6, eps).passed
    assert green.green_table(6).to_json(1)["rows"]
    for mu in partitions.partitions_of(6):
        assert kawanaka.gggr_character(mu, -1).to_json()["values"]
    assert calls == []
    assert RationalPoly((1,), "q", 2).coeffs
    assert calls == [(1, 2)]
