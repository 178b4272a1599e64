"""Integer polynomial kernels: Kronecker-packed products against schoolbook
multiplication, including coefficients exactly at the derived bound."""

import random

import pytest

import gggr.intpoly as intpoly
from gggr.errors import ContractError, NonExactDivisionError
from gggr.intpoly import (
    _pack,
    _unpack,
    _width,
    bilinear,
    evaluate,
    exact_div,
    exact_quotient,
    signed,
    times_binomials,
    trim,
    weighted_squares,
    young_bound,
)


def schoolbook(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def add(f, g):
    n = max(len(f), len(g))
    return trim([(f[k] if k < len(f) else 0) + (g[k] if k < len(g) else 0) for k in range(n)])


def reference_bilinear(a, w, b):
    out = []
    for m in range(len(a[0])):
        row = []
        for l in range(len(b[0])):
            acc = ()
            for k in range(len(w)):
                acc = add(acc, schoolbook(schoolbook(a[k][m], w[k]), b[k][l]))
            row.append(acc)
        out.append(row)
    return out


def reference_weighted_squares(rows, w):
    out = []
    for row in rows:
        acc = ()
        for f, g in zip(row, w):
            acc = add(acc, schoolbook(schoolbook(f, f), g))
        out.append(acc)
    return out


def rand_poly(rng, max_len=8, size=10**6):
    """Negative, zero and huge coefficients, interior zeros, and the empty
    polynomial."""
    coeffs = [rng.choice((0, rng.randrange(-size, size + 1))) for _ in range(rng.randrange(max_len + 1))]
    if coeffs and rng.random() < 0.2:
        coeffs[-1] = rng.choice((1, -1)) * 10**40
    return trim(coeffs)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("terms,length,coeff", [(7, 31, 151), (8, 64, 64)])
def test_coefficient_exactly_at_the_bound(sign, terms, length, coeff):
    # `terms` products (c + ... + c q^(L-1)) * (1 + ... + q^(L-1)): the middle
    # coefficient is terms * L * c, which is the derived bound itself.  The
    # two cases put it at 2^15 - 1, the largest magnitude 2-byte balanced
    # digits hold, and at 2^15, the smallest that needs a third byte.
    a = [[(sign * coeff,) * length] for _ in range(terms)]
    w = [(1,)] * terms
    b = [[(1,) * length] for _ in range(terms)]
    bound = young_bound([(length * coeff, 1, 1)] * terms)
    assert bound == terms * length * coeff
    out = bilinear(a, w, b)
    assert out[0][0][length - 1] == sign * bound
    assert out == reference_bilinear(a, w, b)
    f = (sign * coeff,) * length
    g = (1,) * length
    product = bilinear([[f]], [(1,)], [[g]])[0][0]
    assert product[length - 1] == sign * young_bound([(length * coeff, 1, 1)])
    assert product == schoolbook(f, g)


def test_bilinear_matches_schoolbook():
    rng = random.Random(20101008)
    for _ in range(40):
        k, m, l = rng.randrange(1, 5), rng.randrange(1, 4), rng.randrange(1, 4)
        a = [[rand_poly(rng) for _ in range(m)] for _ in range(k)]
        w = [rand_poly(rng, max_len=3) for _ in range(k)]
        b = [[rand_poly(rng) for _ in range(l)] for _ in range(k)]
        assert bilinear(a, w, b) == reference_bilinear(a, w, b)


def test_bilinear_all_zero():
    assert bilinear([[()]], [(1,)], [[(), ()]]) == [[(), ()]]


def test_exact_quotient():
    rng = random.Random(3292)
    inexact = 0
    for _ in range(100):
        g = rand_poly(rng, max_len=5) + (1,)
        quot, rem = rand_poly(rng), rand_poly(rng, max_len=len(g) - 1)
        f = schoolbook(quot, g)
        assert exact_quotient(f, g, "f / g") == quot
        if rem:
            inexact += 1
            with pytest.raises(NonExactDivisionError) as info:
                exact_quotient(add(f, rem), g, "f / g")
            assert str(info.value) == f"f / g left remainder {rem}"
    assert inexact > 20
    assert exact_quotient((), (1,), "0 / 1") == ()
    with pytest.raises(NonExactDivisionError, match=r"^1 / q left remainder \(1,\)$"):
        exact_quotient((1,), (0, 1), "1 / q")
    for g in [(1, 2), (2,), (1, -1), ()]:
        with pytest.raises(ContractError, match="^divisor must be monic$"):
            exact_quotient(schoolbook((1, 2), g), g, "f / g")


def test_exact_div():
    rng = random.Random(2010)
    for _ in range(200):
        b = rng.choice([-1, 1]) * rng.randrange(1, 10**6)
        quot = rng.randrange(-(10**20), 10**20)
        assert exact_div(quot * b, b, "a / b") == quot
        if abs(b) > 1:
            a = quot * b + rng.randrange(1, abs(b))
            with pytest.raises(NonExactDivisionError) as info:
                exact_div(a, b, f"{a} / {b}")
            assert str(info.value) == f"{a} / {b} left remainder {a % b}"
    assert exact_div(-12, -4, "-12 / -4") == 3
    assert exact_div(-12, 4, "-12 / 4") == -3
    with pytest.raises(NonExactDivisionError, match="^-7 / 2 left remainder 1$"):
        exact_div(-7, 2, "-7 / 2")
    with pytest.raises(NonExactDivisionError, match="^7 / -2 left remainder -1$"):
        exact_div(7, -2, "7 / -2")
    with pytest.raises(ContractError, match="^0 / 0 divides by zero$") as info:
        exact_div(0, 0, "0 / 0")
    assert not isinstance(info.value, NonExactDivisionError)


def test_signed_and_evaluate():
    f = (3, -1, 1)
    assert signed(f, 1) == f
    assert signed(f, -1) == (3, 1, 1)
    for q0 in (-3, 0, 2, 5):
        assert evaluate(signed(f, -1), q0) == evaluate(f, -q0)


def test_times_binomials_matches_schoolbook():
    rng = random.Random(2010)
    for _ in range(50):
        shift, eps = rng.randrange(4), rng.choice((1, -1))
        exps = [rng.randrange(1, 6) for _ in range(rng.randrange(5))]
        expect = (0,) * shift + (1,)
        for k in exps:
            expect = schoolbook(expect, (-(eps**k),) + (0,) * (k - 1) + (1,))
        assert times_binomials(shift, exps, eps) == expect


@pytest.mark.parametrize("width", range(1, 11))
def test_pack_round_trips_the_widest_digits(monkeypatch, width):
    # _width guarantees |c| < 2^(8*width - 1), so +-(2^(8*width - 1) - 1)
    # are the widest digits _pack is ever given.  Widths of 1, 2, 4 and 8
    # bytes go through machine words, and then through the byte path too.
    top = (1 << (8 * width - 1)) - 1
    assert _width(top) == next((w for w in (1, 2, 4, 8) if w >= width), width)
    coeffs = [top, -top, 0, -top, 1, -1, top, top]
    for codes in (intpoly._CODES, {}):
        monkeypatch.setattr(intpoly, "_CODES", codes)
        packed = _pack(coeffs, width)
        assert packed == sum(c << (8 * width * k) for k, c in enumerate(coeffs))
        assert _unpack(packed, width, len(coeffs)) == coeffs
        assert _pack([-top], width) == -top
        assert _pack([], width) == 0
        assert _unpack(0, width, 3) == [0, 0, 0]


@pytest.mark.parametrize("width", [2, 3])
def test_unpack_refuses_a_value_past_its_digits(width):
    # four digits of width bytes hold less than 2^(32*width - 1) either way
    for value in (1 << (32 * width - 1), -(1 << (32 * width))):
        with pytest.raises(ContractError, match=f"outgrew its 4 digits of {width} bytes"):
            _unpack(value, width, 4)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_products_at_each_machine_width_limit(width, sign):
    """Results whose largest coefficient is 2^(8*width - 1) - 1, the widest
    digit of a machine width, and 2^(8*width - 1), the narrowest that needs
    the next width, with the derived bound equal to it."""
    top = (1 << (8 * width - 1)) - 1
    quarter = 1 << (8 * width - 3)
    assert (_width(top), _width(top + 1)) == (width, {1: 2, 2: 4, 4: 8, 8: 9}[width])
    for terms, length, coeff, value in ((1, 1, top, top), (2, 2, quarter, top + 1)):
        a = [[(sign * coeff,) * length] for _ in range(terms)]
        w = [(1,)] * terms
        b = [[(1,) * length] for _ in range(terms)]
        assert young_bound([(length * coeff, 1, 1)] * terms) == value
        out = bilinear(a, w, b)
        assert out[0][0][length - 1] == sign * value
        assert out == reference_bilinear(a, w, b)
        assert bilinear([a[0]], [(1,)], [b[0]])[0][0] == schoolbook(a[0][0], b[0][0])
    # sum_k w[k] * rows[0][k]^2: top * 1^2 once, and 2^(8*width - 3) * 2 (the
    # middle of (1 + q)^2) twice
    for rows, weights, value in (
        ([[(1,)]], [(sign * top,)], top),
        ([[(1, 1), (-1, -1)]], [(sign * quarter,)] * 2, top + 1),
    ):
        norms = [(max(map(abs, f)) * sum(map(abs, f)), abs(g[0])) for f, g in zip(rows[0], weights)]
        assert young_bound(norms) == value
        out = weighted_squares(rows, weights)
        assert max(map(abs, out[0])) == value
        assert out == reference_weighted_squares(rows, weights)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_operands_past_the_bound_set_the_width(width):
    """An operand coefficient past the product bound still sets the digits:
    a[0][0] = 2^(8*width - 1) meets only a zero row of b, so the bound is 1,
    and a digit of the bound's width could not hold it."""
    big = 1 << (8 * width - 1)
    a, w, b = [[(big,)], [(1,)]], [(1,), (1,)], [[()], [(1,)]]
    assert young_bound([(big, 1, 0), (1, 1, 1)]) == 1
    assert bilinear(a, w, b) == reference_bilinear(a, w, b) == [[(1,)]]
    assert bilinear([[(1,)], [(1,)]], [(big,), (1,)], [[()], [(1,)]]) == [[(1,)]]


def test_weighted_squares_matches_schoolbook():
    rng = random.Random(1985)
    for _ in range(60):
        k, m = rng.randrange(1, 6), rng.randrange(1, 4)
        rows = [[rand_poly(rng) for _ in range(k)] for _ in range(m)]
        w = [rand_poly(rng, max_len=4) for _ in range(k)]
        assert weighted_squares(rows, w) == reference_weighted_squares(rows, w)


def test_weighted_squares_at_the_derived_bound():
    """Random signs at the largest magnitudes the bound allows for, and sums
    that reach the bound itself, at 2^15 - 1 (the largest 2-byte digit) and
    at 2^15 (the smallest that needs a third byte)."""
    rng = random.Random(2010)

    def extreme(size, max_len):
        return tuple(rng.choice((size, -size)) for _ in range(rng.randrange(1, max_len + 1)))

    for _ in range(40):
        k, m = rng.randrange(1, 6), rng.randrange(1, 4)
        size = rng.choice((1, 7, 255, 10**12))
        rows = [[extreme(size, 8) for _ in range(k)] for _ in range(m)]
        w = [extreme(size, 4) for _ in range(k)]
        assert weighted_squares(rows, w) == reference_weighted_squares(rows, w)
    for terms, length, coeff in ((217, 151, 1), (2, 64, 16)):
        for sign in (1, -1):
            rows = [[(coeff,) * length] * terms]
            w = [(sign,)] * terms
            bound = young_bound([(coeff * length * coeff, 1)] * terms)
            assert bound == terms * length * coeff**2
            out = weighted_squares(rows, w)
            assert out[0][length - 1] == sign * bound
            assert out == reference_weighted_squares(rows, w)


def test_weighted_squares_all_zero():
    assert weighted_squares([[(), ()]], [(1,), (2,)]) == [()]
    assert weighted_squares([[(1,)]], [()]) == [()]
