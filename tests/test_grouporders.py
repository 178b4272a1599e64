from functools import reduce

import pytest

from gggr.grouporders import (
    centralizer_dim,
    check_eps,
    class_size,
    e_poly,
    group_order,
    sgn_eps,
    torus_order,
    unipotent_centralizer_order,
)
from gggr.partitions import Partition, n_stat, partitions_of
from gggr.polyring import RationalPoly
from test_intpoly import add, schoolbook

P = Partition


def Q(*coeffs):
    return RationalPoly(coeffs, "q")


def binomial(k, c):
    """x^k - c."""
    return (-c,) + (0,) * (k - 1) + (1,)


def test_group_order_small():
    assert group_order(1, 1) == Q(-1, 1)
    assert group_order(1, -1) == Q(1, 1)
    # (q^2 - 1)(q^2 - q) and (q^2 - 1)(q^2 + q)
    assert group_order(2, 1) == Q(0, 1, -1, -1, 1)
    assert group_order(2, -1) == Q(0, -1, -1, 1, 1)


def test_group_order_numeric():
    assert group_order(2, 1)(2) == 6
    assert group_order(3, 1)(2) == 168
    assert group_order(2, 1)(3) == 48
    assert group_order(2, -1)(2) == 18
    assert group_order(3, -1)(2) == 648
    assert group_order(2, -1)(3) == 96


def test_group_order_monic_of_degree_n_squared():
    for n in range(1, 8):
        for eps in (1, -1):
            f = group_order(n, eps)
            assert f.degree == n * n
            assert f.is_monic()


def test_torus_order_is_product_form():
    for n in range(1, 7):
        for eps in (1, -1):
            for rho in partitions_of(n):
                f = torus_order(rho, eps)
                factors = [binomial(part, eps**part) for part in rho]
                assert f == Q(*reduce(schoolbook, factors, (1,)))


def test_torus_order_via_e_poly():
    # e_rho(t) = prod_i (1 - t^rho_i); q^n * e_rho at (eps*q)^{-1} reproduces
    # the product formula, and with deg e_rho = n that is e_rho(eps q) with
    # its coefficients reversed
    for n in range(1, 7):
        for rho in partitions_of(n):
            e = e_poly(rho)
            factors = [(1,) + (0,) * (part - 1) + (-1,) for part in rho]
            assert e == RationalPoly(reduce(schoolbook, factors, (1,)), "t")
            assert e.degree == n
            for eps in (1, -1):
                e_at = [c * eps**k for k, c in enumerate(e.nums)]
                assert Q(*e_at[::-1]) == torus_order(rho, eps)


def test_torus_orders_multiply_up():
    # the split torus (1^n) has order (q - eps)^n
    for eps in (1, -1):
        assert torus_order(P((1, 1, 1)), eps) == Q(-eps, 3, -3 * eps, 1)
        assert torus_order(P((3,)), eps) == Q(-eps, 0, 0, 1)


def test_sgn_eps():
    # eps = +1: sign is (-1)^(n + length)
    assert sgn_eps(P((1, 1)), 1) == 1
    assert sgn_eps(P((2,)), 1) == -1
    assert sgn_eps(P((3,)), 1) == 1
    # eps = -1 folds in an extra (-1)^(n // 2)
    assert sgn_eps(P((2,)), -1) == 1
    assert sgn_eps(P((1, 1)), -1) == -1
    assert sgn_eps(P((3,)), -1) == -1
    for n in range(1, 7):
        for eps in (1, -1):
            for rho in partitions_of(n):
                assert sgn_eps(rho, eps) in (1, -1)


def test_centralizer_monic_of_dimension_degree():
    for n in range(1, 7):
        for eps in (1, -1):
            for la in partitions_of(n):
                f = unipotent_centralizer_order(la, eps)
                assert f.degree == centralizer_dim(la)
                assert f.is_monic()


def test_centralizer_dim():
    assert centralizer_dim(P((3,))) == 3
    assert centralizer_dim(P((1, 1, 1))) == 9
    assert centralizer_dim(P((2, 1))) == 5


def test_class_size_identity_is_one():
    for n in range(1, 6):
        for eps in (1, -1):
            assert class_size(P((1,) * n), eps) == Q(1)


def test_class_size_numeric_gl():
    # GL_2(F_2) = S_3: transvections form the class of size 3
    assert class_size(P((2,)), 1)(2) == 3
    # GL_2(F_3): 8 regular unipotents
    assert class_size(P((2,)), 1)(3) == 8
    # GL_3(F_2): 21 transvections (type (2,1)), 42 regular unipotents (type (3))
    assert class_size(P((2, 1)), 1)(2) == 21
    assert class_size(P((3,)), 1)(2) == 42


def test_steinberg_count():
    # unipotent elements number q^(n(n-1)), for both twists
    for n in range(1, 6):
        for eps in (1, -1):
            total = reduce(add, (class_size(la, eps).nums for la in partitions_of(n)), ())
            assert Q(*total) == Q(*(0,) * (n * (n - 1)), 1)


def test_class_sizes_are_integral_polynomials():
    for n in range(1, 6):
        for eps in (1, -1):
            for la in partitions_of(n):
                f = class_size(la, eps)
                assert all(type(c) is int for c in f.coeffs)


def test_ennola_group_order():
    # |GU_n(q)| = |GL_n(-q)| up to the sign making it positive
    for n in range(1, 7):
        fu = group_order(n, -1)
        fl = group_order(n, 1)
        for q0 in (2, 3, 5):
            assert fu(q0) == abs(fl(-q0))


@pytest.mark.parametrize("eps", [0, 2, -2, 1.0, -1.0, True])
def test_check_eps_refuses_all_but_plus_and_minus_one(eps):
    with pytest.raises(ValueError, match=f"^eps must be \\+1 or -1, got {eps}$"):
        check_eps(eps)


def test_group_order_refuses_n_below_one():
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        group_order(0, 1)


@pytest.mark.parametrize("n", [2.5, 2.0, True])
def test_group_order_refuses_an_n_that_is_no_int(n):
    with pytest.raises(ValueError) as info:
        group_order(n, 1)
    assert str(info.value) == f"n must be an integer, got {n}"
