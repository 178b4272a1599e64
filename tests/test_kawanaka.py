"""The character values gamma_mu(la) and the endomorphism-dimension
polynomials built from them."""

import json
from fractions import Fraction
from functools import reduce

import pytest

from gggr.errors import CapExceededError
from gggr.green import green_poly
from gggr.grouporders import centralizer_dim, group_order, sgn_eps
from gggr.kawanaka import (
    DEFAULT_SAMPLES,
    endo_dim,
    gggr_character,
    gggr_value,
    verify_theorem,
)
from gggr.partitions import Partition, n_stat, partitions_of, weyl_centralizer_order
from gggr.polyring import RationalPoly
from gggr.symfunc import x_poly
from test_intpoly import add, schoolbook

P = Partition


def Q(*coeffs):
    return RationalPoly(coeffs, "q")


def test_n1():
    for eps in (1, -1):
        v = gggr_value(P((1,)), P((1,)), eps)
        assert v == Q(-eps, 1)
        assert endo_dim(P((1,)), eps) == Q(-eps, 1)


def test_n2_values():
    # regular class column: 1 - q and -1 - q
    assert gggr_value(P((2,)), P((2,)), 1) == Q(1, -1)
    assert gggr_value(P((2,)), P((2,)), -1) == Q(-1, -1)
    # identity column carries the full character degree |G|_{p'}:
    # (q - 1)(q^2 - 1) and (q + 1)(q^2 - 1)
    assert gggr_value(P((2,)), P((1, 1)), 1) == Q(1, -1, -1, 1)
    assert gggr_value(P((2,)), P((1, 1)), -1) == Q(-1, -1, 1, 1)
    # trivial mu is the regular representation on unipotents
    assert gggr_value(P((1, 1)), P((2,)), 1).is_zero()
    assert gggr_value(P((1, 1)), P((1, 1)), 1) == group_order(2, 1)


def test_character_degree_is_prime_to_p_part():
    # gamma_mu at the identity class: the regular-mu character has degree
    # |G| / q^(n(n-1)/2), and that holds for every eps
    for n in range(1, 5):
        for eps in (1, -1):
            v = gggr_value(P((n,)), P((1,) * n), eps)
            top = (0,) * (n * (n - 1) // 2)
            assert Q(*top, *v.coeffs) == group_order(n, eps)


def test_trivial_mu_is_regular_representation():
    for n in range(1, 5):
        for eps in (1, -1):
            mu = P((1,) * n)
            for la in partitions_of(n):
                v = gggr_value(mu, la, eps)
                if la == mu:
                    assert v == group_order(n, eps)
                else:
                    assert v.is_zero()


def test_values_are_integral_polynomials():
    for n in range(1, 5):
        for eps in (1, -1):
            for mu in partitions_of(n):
                for la in partitions_of(n):
                    v = gggr_value(mu, la, eps)
                    assert all(
                        c.denominator == 1 for c in v.coeffs
                    ), (mu, la, eps)


def test_gggr_character_json():
    doc = gggr_character(P((2, 1)), 1).to_json()
    assert doc["n"] == 3 and doc["mu"] == [2, 1] and doc["eps"] == 1
    assert [tuple(v["lambda"]) for v in doc["values"]] == [
        (3,), (2, 1), (1, 1, 1),
    ]


def test_endo_dim_regular():
    for n in range(1, 5):
        # (q - 1) q^(n - 1) and (q + 1) q^(n - 1)
        assert endo_dim(P((n,)), 1) == Q(*(0,) * (n - 1), -1, 1)
        assert endo_dim(P((n,)), -1) == Q(*(0,) * (n - 1), 1, 1)


def test_endo_dim_trivial():
    for n in range(1, 4):
        for eps in (1, -1):
            assert endo_dim(P((1,) * n), eps) == group_order(n, eps)


def test_endo_dim_monic_of_centralizer_degree():
    for n in range(1, 5):
        for eps in (1, -1):
            for mu in partitions_of(n):
                f = endo_dim(mu, eps)
                assert f.is_monic()
                assert f.degree == centralizer_dim(mu)
                assert f.degree == n + 2 * n_stat(mu)


def test_endo_dim_integral_positive_at_prime_powers():
    for n in range(1, 5):
        for eps in (1, -1):
            for mu in partitions_of(n):
                f = endo_dim(mu, eps)
                for q0 in (2, 3, 4, 5, 7):
                    v = f(q0)
                    assert v.denominator == 1 and v > 0


def test_verify_report():
    for eps in (1, -1):
        report = verify_theorem(3, eps)
        assert report.passed
        doc = report.to_json()
        assert doc["pass"] is True
        assert len(doc["results"]) == 3
        for rec in doc["results"]:
            assert rec["pass"] and rec["monic"] and rec["polynomial"]
            assert rec["degree"] == rec["target_degree"]
    blob = json.dumps(report.to_json())
    assert json.loads(blob)["n"] == 3


def test_verify_at_the_default_cap():
    for eps in (1, -1):
        report = verify_theorem(8, eps)
        assert report.passed and len(report.results) == 22


def test_verify_cap():
    with pytest.raises(CapExceededError):
        verify_theorem(9, 1)
    with pytest.raises(CapExceededError):
        verify_theorem(9, -1)
    with pytest.raises(CapExceededError):
        verify_theorem(11, 1, cap=10)


def test_verify_custom_samples():
    assert len(DEFAULT_SAMPLES) >= 4
    report = verify_theorem(2, 1, q_samples=(2, 3, 4, 5, 7, 8, 9))
    assert report.passed


def reference_gamma(mu, la, eps):
    """gamma_mu(la) as the per-rho sum of Fraction-weighted polynomial
    products that the batched integer kernel replaces, with schoolbook
    products, the sign of t -> eps*q applied by hand and the torus order
    built factor by factor."""
    n = mu.n

    def at_eps_q(f):
        return tuple(c * eps**k for k, c in enumerate(f.coeffs))

    acc = ()
    for rho in partitions_of(n):
        weight = Fraction(sgn_eps(rho, eps), weyl_centralizer_order(rho))
        factors = [(-(eps**part),) + (0,) * (part - 1) + (1,) for part in rho]
        torus = reduce(schoolbook, factors, (weight,))
        x_at = at_eps_q(x_poly(rho, mu))
        q_at = at_eps_q(green_poly(rho, la))
        acc = add(acc, schoolbook(schoolbook(torus, x_at), q_at))
    return Q(*(eps ** (n_stat(mu) % 2) * c for c in acc))


def test_batched_gamma_matches_per_rho_sum():
    for n in range(1, 6):
        for eps in (1, -1):
            for mu in partitions_of(n):
                for la in partitions_of(n):
                    assert gggr_value(mu, la, eps) == reference_gamma(mu, la, eps), (
                        mu, la, eps,
                    )
