"""The character values gamma_mu(la) and the endomorphism-dimension
polynomials built from them."""

import hashlib
import json
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import factorial

import pytest

import gggr.kawanaka as kawanaka
from gggr.errors import CapExceededError
from gggr.green import green_poly
from gggr.intpoly import scale
from gggr.grouporders import centralizer_dim, class_size, group_order, sgn_eps
from gggr.kawanaka import endo_dim, gggr_character, gggr_value, verify_theorem
from gggr.partitions import Partition, n_stat, partitions_of, weyl_centralizer_order
from gggr.polyring import RationalPoly
from gggr.symfunc import x_poly
from test_faults import clear_caches
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
            assert RationalPoly(top + v.nums, "q") == group_order(n, eps)


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
    # every gamma_mu(la) and every endo_dim is in Z[q], not only integral at
    # some samples
    for n in range(1, 9):
        for eps in (1, -1):
            for mu in partitions_of(n):
                assert all(type(c) is int for c in endo_dim(mu, eps).coeffs), (mu, eps)
                for la in partitions_of(n):
                    f = gggr_value(mu, la, eps)
                    assert all(type(c) is int for c in f.coeffs), (mu, la, eps)


def test_endo_numerators_are_the_sums_of_squared_values():
    # the numerator of endo_dim is sum_la |class la| * gamma_mu(la)^2 over
    # Z[q], with no power of n! in it
    for n in range(1, 6):
        for eps in (1, -1):
            parts = partitions_of(n)
            for mu, numerator in zip(parts, kawanaka._endo_numerators(n, eps)):
                expected = ()
                for la in parts:
                    g = gggr_value(mu, la, eps).nums
                    term = schoolbook(class_size(la, eps).nums, schoolbook(g, g))
                    expected = add(expected, term)
                assert numerator == expected, (mu, eps)


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


def test_verify_takes_no_sample_parameter():
    """verify_theorem checks endo_dim > 0 at the fixed q0 = 2, 3, 4, 5 only."""
    with pytest.raises(TypeError):
        verify_theorem(3, 1, q_samples=(2,))


@pytest.mark.parametrize("cap", [2.5, True, "9"])
def test_verify_refuses_a_cap_that_is_no_int(cap):
    """A float, a bool or a str cap is a usage error that names the cap, as
    such an n or eps is, not a cap compared as given or read as 1."""
    for eps in (1, -1):
        with pytest.raises(ValueError) as info:
            verify_theorem(3, eps, cap=cap)
        assert str(info.value) == f"cap must be an integer, got {cap!r}"


def reference_gamma(mu, la, eps):
    """gamma_mu(la) as the per-rho sum of Fraction-weighted polynomial
    products that the batched integer kernel replaces, with schoolbook
    products, the sign of t -> eps*q applied by hand and the torus order
    built factor by factor; each coefficient must come out an integer."""
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
    assert all(c.denominator == 1 for c in acc), (mu, la, eps, acc)
    return RationalPoly([eps ** (n_stat(mu) % 2) * c.numerator for c in acc], "q")


def test_batched_gamma_matches_per_rho_sum():
    for n in range(1, 6):
        for eps in (1, -1):
            for mu in partitions_of(n):
                for la in partitions_of(n):
                    assert gggr_value(mu, la, eps) == reference_gamma(mu, la, eps), (
                        mu, la, eps,
                    )


def dominated(la, mu):
    """Whether la <= mu in dominance: each partial sum of la, padded with
    zeros to n parts, is at most mu's."""
    n = sum(mu)
    sums = [accumulate(tuple(p) + (0,) * (n - len(p))) for p in (la, mu)]
    return all(a <= b for a, b in zip(*sums))


def test_dominance_can_fail():
    # (3, 3) and (4, 1, 1) are incomparable: 3 < 4 but 6 > 5
    assert dominated((3, 3), (4, 2)) and not dominated((4, 2), (3, 3))
    assert not dominated((3, 3), (4, 1, 1)) and not dominated((4, 1, 1), (3, 3))
    assert dominated((1, 1, 1), (3,)) and not dominated((3,), (1, 1, 1))


@pytest.mark.parametrize("eps", [1, -1])
def test_gamma_is_supported_on_the_dominated_classes(eps):
    # a generalised Gelfand-Graev character vanishes on the unipotent classes
    # outside the closure of its own, which for GL_n and GU_n is {la <= mu}
    for n in range(1, 9):
        parts = partitions_of(n)
        support = [[not gggr_value(mu, la, eps).is_zero() for la in parts] for mu in parts]
        assert support == [[dominated(la, mu) for la in parts] for mu in parts], n


#: SHA-256 of every row of values gggr_value(mu, la, eps), times n!, and
#: endo_dim(mu, eps) for n <= 10 and both eps, as the product that took eps
#: into its X, Q and torus tables gave them; reading the unitary rows off the
#: split product must not move one, and neither must dividing that product by
#: n!.
GAMMA_ENDO_SHA256 = "ec93a1ada86ffa16d9114c6379b6d547cccf2b6c3a32626a317a60a5f1dd9fd9"


def test_gamma_rows_and_endo_dims_match_their_digest():
    digest = hashlib.sha256()
    for n in range(1, 11):
        for eps in (1, -1):
            for mu in partitions_of(n):
                f = endo_dim(mu, eps)
                row = tuple(
                    scale(gggr_value(mu, la, eps).nums, factorial(n)) for la in partitions_of(n)
                )
                digest.update(repr((n, eps, tuple(mu), row, f.nums, 1)).encode())
    assert digest.hexdigest() == GAMMA_ENDO_SHA256


@pytest.fixture
def cleared():
    """Every cache of the package cleared before and after the test."""
    clear_caches()
    yield
    clear_caches()


def recorded(monkeypatch, name):
    """Replace kawanaka's ``name`` by a wrapper that records the arguments of
    each call, and return the list they go to."""
    calls, f = [], getattr(kawanaka, name)
    monkeypatch.setattr(kawanaka, name, lambda *args: calls.append(args) or f(*args))
    return calls


def test_one_gamma_product_per_n_serves_both_families(cleared, monkeypatch):
    calls = recorded(monkeypatch, "bilinear")
    assert verify_theorem(6, 1).passed and verify_theorem(6, -1).passed
    assert len(calls) == 1


def test_gamma_support_is_checked_once_per_entry_for_both_families(cleared, monkeypatch):
    # the support check runs on the split product, once for each of its
    # non-zero entries: the unitary rows are read off it and not checked again
    calls = recorded(monkeypatch, "dominated")
    assert verify_theorem(6, 1).passed and verify_theorem(6, -1).passed
    assert len(calls) == sum(1 for row in kawanaka._gamma_matrix(6) for g in row if g)


def test_gamma_product_reads_the_split_tables_only(cleared, monkeypatch):
    # the unitary rows are the split product read at -q: the torus orders and
    # signs are the split ones, and only gamma entries are signed, never an
    # X or a Q table
    signed, tori, signs = (
        recorded(monkeypatch, name) for name in ("signed", "torus_order_coeffs", "sgn_eps")
    )
    for n in range(1, 7):
        for eps in (1, -1):
            assert verify_theorem(n, eps).passed
    assert tori and signs and {eps for _, eps in tori + signs} == {1}
    gamma = {id(g) for n in range(1, 7) for row in kawanaka._gamma_matrix(n) for g in row}
    assert signed and all(id(g) in gamma for g, _ in signed)


def test_gggr_value_refuses_classes_of_another_size():
    with pytest.raises(ValueError, match=r"^\|mu\| = 2 but \|la\| = 3$"):
        gggr_value(P((2,)), P((2, 1)), 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: endo_dim((1, 2), 1),
        lambda: gggr_value((2, 1), (1, 2), 1),
        lambda: gggr_value((1, 2), (2, 1), -1),
        lambda: gggr_character((1, 2), 1),
    ],
    ids=["endo_dim", "gggr_value-la", "gggr_value-mu", "gggr_character"],
)
def test_values_refuse_a_tuple_that_is_no_partition(call):
    # read through Partition, as class_size reads its la, not looked up as
    # given (a list miss) or asked for .n (an AttributeError)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "parts must be weakly decreasing, got (1, 2)"


def test_values_take_a_tuple_that_is_a_partition():
    for eps in (1, -1):
        assert endo_dim((2, 1), eps) == endo_dim(P((2, 1)), eps)
        assert gggr_value((2, 1), (2, 1), eps) == gggr_value(P((2, 1)), P((2, 1)), eps)
        assert gggr_character((2, 1), eps) == gggr_character(P((2, 1)), eps)
        assert type(gggr_character((2, 1), eps).mu) is Partition


def test_verify_refuses_n_below_one():
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        verify_theorem(0, 1)


@pytest.mark.parametrize(
    "n, eps, message",
    [
        (3.0, 1, "n must be an integer, got 3.0"),
        (True, 1, "n must be an integer, got True"),
        (3, 1.0, "eps must be +1 or -1, got 1.0"),
        (3, True, "eps must be +1 or -1, got True"),
    ],
)
def test_verify_refuses_a_size_or_family_that_is_no_int(n, eps, message):
    """A float or a bool is a usage error at the check, not a crash deeper in."""
    with pytest.raises(ValueError) as info:
        verify_theorem(n, eps)
    assert str(info.value) == message
