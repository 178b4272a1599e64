"""Green polynomials: frozen small tables, the degree/constant-term laws, the
closed form at the identity class, and the orthogonality relation."""

import json
from functools import reduce

import pytest

from gggr.green import green_poly, green_table, verify_orthogonality
from gggr.kawanaka import verify_theorem
from gggr.partitions import Partition, n_stat, partitions_of
from gggr.polyring import RationalPoly, poly_from_json
from test_intpoly import schoolbook

P = Partition


def T(*coeffs):
    return RationalPoly(coeffs, "t")


def test_n1():
    assert green_poly(P((1,)), P((1,))) == T(1)


def test_n2_table():
    assert green_poly(P((2,)), P((2,))) == T(1)
    assert green_poly(P((2,)), P((1, 1))) == T(1, -1)
    assert green_poly(P((1, 1)), P((2,))) == T(1)
    assert green_poly(P((1, 1)), P((1, 1))) == T(1, 1)


def test_n3_spot():
    # regular class column is identically 1
    for rho in partitions_of(3):
        assert green_poly(rho, P((3,))) == T(1)
    # from the identity-class closed form: (t - 1)(t^2 - 1)
    assert green_poly(P((3,)), P((1, 1, 1))) == T(1, -1, -1, 1)


def test_degree_bound_and_constant_term():
    # Q_rho^la is the degree-n(la) reciprocal of the monic X polynomial, so
    # its constant term is 1 and its degree is at most n(la) (strictly less
    # exactly when X vanishes at 0)
    for n in range(1, 6):
        for rho in partitions_of(n):
            for la in partitions_of(n):
                f = green_poly(rho, la)
                assert f.degree <= n_stat(la)
                assert f.coeff(0) == 1


def test_identity_class_closed_form():
    # Q_rho^{(1^n)}(t) * prod_i (t^{rho_i} - 1) = (-1)^(n - len(rho)) *
    # prod_{i=1..n} (t^i - 1): the Steinberg-weighted order ratio.
    def t_minus_one(k):
        return (-1,) + (0,) * (k - 1) + (1,)

    for n in range(1, 6):
        full = reduce(schoolbook, map(t_minus_one, range(1, n + 1)), (1,))
        for rho in partitions_of(n):
            denom = reduce(schoolbook, map(t_minus_one, rho), (1,))
            lhs = schoolbook(green_poly(rho, P((1,) * n)).coeffs, denom)
            sign = (-1) ** (n - len(rho))
            assert lhs == tuple(sign * c for c in full), rho


def test_table_matches_entries():
    table = green_table(4)
    for rho in partitions_of(4):
        for la in partitions_of(4):
            assert table.poly(rho, la) == green_poly(rho, la)


def test_table_json_round_trip():
    table = green_table(3)
    doc = json.loads(json.dumps(table.to_json()))
    assert doc["n"] == 3
    order = partitions_of(3)
    for i, row in enumerate(doc["rows"]):
        assert tuple(row["rho"]) == order[i]
        for j, col in enumerate(row["cols"]):
            assert tuple(col["lambda"]) == order[j]
            assert poly_from_json(col["poly"]) == table.poly(order[i], order[j])


def test_table_json_specialized():
    table = green_table(2)
    doc = table.to_json(eps=-1)
    assert doc["eps"] == -1
    entry = doc["rows"][0]["cols"][1]  # rho = (2), la = (1,1): 1 - t at t = -q
    assert poly_from_json(entry["poly"]) == RationalPoly((1, 1), "q")


def test_specialized_json_agrees_with_evaluation():
    # every entry of the t -> eps*q table, at q = q0, is Q_rho^la(eps*q0)
    for n in range(1, 6):
        for eps in (1, -1):
            doc = green_table(n).to_json(eps=eps)
            for row in doc["rows"]:
                for col in row["cols"]:
                    poly = poly_from_json(col["poly"])
                    assert poly.var == "q"
                    q_poly = green_poly(P(row["rho"]), P(col["lambda"]))
                    assert poly.degree == q_poly.degree
                    for q0 in range(2, poly.degree + 3):
                        assert poly(q0) == q_poly(eps * q0)


def test_orthogonality_small():
    for n in range(1, 5):
        for eps in (1, -1):
            result = verify_orthogonality(n, eps)
            assert result.ok, result.witness


def test_green_poly_refuses_classes_of_another_size():
    with pytest.raises(ValueError) as info:
        green_poly(P((2,)), P((1,)))
    assert str(info.value) == "|rho| = 2 but |la| = 1"


@pytest.mark.parametrize(
    "n, message",
    [
        (0, "n must be >= 1, got 0"),
        (3.0, "n must be an integer, got 3.0"),
        (True, "n must be an integer, got True"),
    ],
)
def test_orthogonality_refuses_what_verify_refuses(n, message):
    """No GL_n or GU_n exists for these n: the relation over the one empty
    partition would pass vacuously."""
    for eps in (1, -1):
        for check in (verify_orthogonality, verify_theorem):
            with pytest.raises(ValueError) as info:
                check(n, eps)
            assert str(info.value) == message
