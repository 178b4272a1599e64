"""Integer polynomial kernels: Kronecker-packed products against schoolbook
multiplication, including coefficients exactly at the derived bound."""

import random

import pytest

from gggr.intpoly import (
    bilinear,
    divmod_monic,
    evaluate,
    mul,
    product_bound,
    signed,
    times_binomials,
    trim,
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


def rand_poly(rng, max_len=8, size=10**6):
    """Negative, zero and huge coefficients, interior zeros, and the empty
    polynomial."""
    coeffs = [rng.choice((0, rng.randrange(-size, size + 1))) for _ in range(rng.randrange(max_len + 1))]
    if coeffs and rng.random() < 0.2:
        coeffs[-1] = rng.choice((1, -1)) * 10**40
    return trim(coeffs)


def test_mul_matches_schoolbook():
    rng = random.Random(1008)
    for _ in range(500):
        f, g = rand_poly(rng), rand_poly(rng)
        assert mul(f, g) == schoolbook(f, g), (f, g)


def test_mul_empty_and_zero():
    assert mul((), (1, 2)) == ()
    assert mul((3,), ()) == ()
    assert mul((0, 0, 5), (-1,)) == (0, 0, -5)


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
    bound = product_bound(terms, length, coeff, length, 1)
    assert bound == terms * length * coeff
    out = bilinear(a, w, b)
    assert out[0][0][length - 1] == sign * bound
    assert out == reference_bilinear(a, w, b)
    f = (sign * coeff,) * length
    g = (1,) * length
    assert mul(f, g)[length - 1] == sign * product_bound(1, length, coeff, length, 1)
    assert mul(f, g) == schoolbook(f, g)


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


def test_divmod_monic():
    rng = random.Random(3292)
    for _ in range(100):
        g = rand_poly(rng, max_len=5) + (1,)
        quot, rem = rand_poly(rng), rand_poly(rng, max_len=len(g) - 1)
        f = add(schoolbook(quot, g), rem)
        assert divmod_monic(f, g) == (quot, rem)
    with pytest.raises(ValueError):
        divmod_monic((1, 2), (1, 2))


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
