"""The polynomial value type: normal form, evaluation, the JSON wire format
and printing.  It has integer coefficients and no arithmetic of its own;
guards keep it that way."""

import ast
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gggr
import gggr.polyring as polyring
from gggr.polyring import RationalPoly, poly_from_json, poly_to_json, pretty

SRC = Path(__file__).resolve().parents[1] / "src"


def rand_poly(rng, var="t", max_deg=6):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        return RationalPoly((), var)
    coeffs = [rng.randrange(-9, 10) for _ in range(deg)]
    return RationalPoly(coeffs + [rng.randrange(1, 10)], var)


def test_constructors_and_degree():
    assert RationalPoly((0, 1), "t").degree == 1
    assert RationalPoly((), "t").degree == -1
    assert RationalPoly([0, -1, 0, 1], "t").degree == 3
    assert RationalPoly((0, 0, 0, 0, 2), "t").coeff(4) == 2
    assert RationalPoly((0, 0, 0, 0, 2), "t").coeff(5) == 0
    assert type(RationalPoly((0, 0, 0, 0, 2), "t").coeff(4)) is int
    assert RationalPoly((0, -3, 2), "t").coeffs == (0, -3, 2)
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
    assert f != g and f != RationalPoly((2, 4), "t")
    assert len({f, g, RationalPoly([1, 2, 0], "t")}) == 2


def test_zero_has_denominator_one():
    # zero is the empty tuple, and on the wire even a zero coefficient is
    # written over 1
    for zero in (RationalPoly((), "q"), RationalPoly((0, 0), "q")):
        assert zero.nums == () and zero.coeffs == ()
        assert zero == RationalPoly((), "q") and zero.is_zero()
    assert poly_from_json({"var": "q", "val": 0, "coeffs": [["0", "1"]]}) == RationalPoly((), "q")
    with pytest.raises(ValueError, match=r"^denominator 7 in 0/7 q\^0: not an integer$"):
        poly_from_json({"var": "q", "val": 0, "coeffs": [["0", "7"]]})


@pytest.mark.parametrize("den", [0, -2])
def test_denominator_must_be_positive(den):
    # there is no denominator but the 1 the wire format writes: the reader
    # refuses a zero or negative one, even where the pair is an integer
    data = {"var": "q", "val": 0, "coeffs": [["1", "1"], [str(2 * den), str(den)]]}
    with pytest.raises(ValueError, match=rf"^denominator {den} in {2 * den}/{den} q\^1: "):
        poly_from_json(data)


@pytest.mark.parametrize(
    "nums, den", [((Fraction(1), 2), 1), ((1.0, 2), 1), (("1", 2), 1), ((1, 2), Fraction(3))]
)
def test_numerators_and_denominator_must_be_integers(nums, den):
    # every coefficient must be an int: one of integral value is refused too,
    # whether it is given so or comes of scaling ints by an integral Fraction
    with pytest.raises(TypeError, match="^not integers: "):
        RationalPoly([c * den for c in nums], "q")


def test_bool_coefficients_are_refused():
    # poly_to_json would write True as "True", which poly_from_json refuses
    with pytest.raises(TypeError, match=r"^not integers: \(True, 2\)$"):
        RationalPoly((True, 2), "q")


def test_evaluation():
    # against the power sum sum_k c_k x^k, exactly at integer and rational points
    rng = random.Random(99)
    for _ in range(50):
        f = rand_poly(rng)
        for x in (0, 1, -1, 5, Fraction(3, 2)):
            value = f(x)
            # Horner starts from the int 0, which the zero polynomial returns
            assert type(value) is (Fraction if type(x) is Fraction and f.nums else int)
            assert value == sum(c * Fraction(x) ** k for k, c in enumerate(f.coeffs))


def test_json_round_trip():
    # "val" is the lowest exponent with a nonzero coefficient
    rng = random.Random(31337)
    for _ in range(60):
        f = rand_poly(rng, var="q")
        f = RationalPoly((0,) * rng.randrange(4) + f.nums, "q")
        data = json.loads(json.dumps(poly_to_json(f)))
        low = next((k for k, c in enumerate(f.coeffs) if c), 0)
        assert data["val"] == low
        assert len(data["coeffs"]) == len(f.coeffs) - low
        assert all(den == "1" for _, den in data["coeffs"])
        assert poly_from_json(data) == f


def test_json_reader_clears_to_one_denominator():
    # the one denominator is 1: the reader takes integer coefficients over 1
    # and refuses any other, naming the first such coefficient and its power
    data = {"var": "q", "val": 0, "coeffs": [["-3", "1"], ["0", "1"], ["2", "1"]]}
    f = poly_from_json(data)
    assert f.nums == (-3, 0, 2) and poly_to_json(f) == data
    data = {"var": "q", "val": 0, "coeffs": [["-1", "2"], ["0", "1"], ["1", "3"]]}
    with pytest.raises(ValueError, match=r"^denominator 2 in -1/2 q\^0: not an integer$"):
        poly_from_json(data)
    # unreduced and negative denominators are refused too, not read as values
    data = {"var": "q", "val": 1, "coeffs": [["1", "1"], ["3", "3"]]}
    with pytest.raises(ValueError, match=r"^denominator 3 in 3/3 q\^2: not an integer$"):
        poly_from_json(data)
    data = {"var": "q", "val": 1, "coeffs": [["2", "-4"]]}
    with pytest.raises(ValueError, match=r"^denominator -4 in 2/-4 q\^1: not an integer$"):
        poly_from_json(data)


def test_json_rejects_zero_denominator():
    data = {"var": "q", "val": 2, "coeffs": [["1", "1"], ["5", "0"]]}
    with pytest.raises(ValueError, match=r"^denominator 0 in 5/0 q\^3: not an integer$"):
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
    assert poly_from_json({"var": "q", "val": 1, "coeffs": [[1, "1"], ["-3", 1]]}) == (
        RationalPoly((0, 1, -3), "q")
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
    data = poly_to_json(RationalPoly((-1, 0, 2), "t"))
    assert data == {
        "var": "t",
        "val": 0,
        "coeffs": [["-1", "1"], ["0", "1"], ["2", "1"]],
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
    assert pretty(RationalPoly((0, 2, -15), "q")) == "-15q^2 + 2q"


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
    assert RationalPoly.__slots__ == ("nums", "var")


def test_cli_import_loads_no_fractions():
    """The coefficients are ints from the kernels to the wire: importing the
    command line loads neither fractions nor decimal (with site off, so
    nothing else loads them first)."""
    script = "import sys, gggr.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_no_module_imports_fractions():
    # not at the top of a module and not inside a function either
    found = []
    for path in sorted((SRC / "gggr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            found += [(path.name, node.lineno) for name in names if name == "fractions"]
    assert found == []
