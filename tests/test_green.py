"""Green polynomials: frozen small tables, the degree/constant-term laws, the
closed form at the identity class, and the orthogonality relation."""

import json

from gggr.green import green_poly, green_table, verify_orthogonality
from gggr.partitions import Partition, n_stat, partitions_of
from gggr.polyring import RationalPoly, poly_from_json, substitute_signed

P = Partition
t = RationalPoly.gen("t")


def test_n1():
    assert green_poly(P((1,)), P((1,))) == RationalPoly.const(1, "t")


def test_n2_table():
    assert green_poly(P((2,)), P((2,))) == RationalPoly.const(1, "t")
    assert green_poly(P((2,)), P((1, 1))) == 1 - t
    assert green_poly(P((1, 1)), P((2,))) == RationalPoly.const(1, "t")
    assert green_poly(P((1, 1)), P((1, 1))) == 1 + t


def test_n3_spot():
    # regular class column is identically 1
    for rho in partitions_of(3):
        assert green_poly(rho, P((3,))) == RationalPoly.const(1, "t")
    # from the identity-class closed form: (t - 1)(t^2 - 1)
    assert green_poly(P((3,)), P((1, 1, 1))) == t**3 - t**2 - t + 1


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
    for n in range(1, 6):
        full = RationalPoly.const(1, "t")
        for i in range(1, n + 1):
            full = full * (t**i - 1)
        for rho in partitions_of(n):
            denom = RationalPoly.const(1, "t")
            for part in rho:
                denom = denom * (t**part - 1)
            lhs = green_poly(rho, P((1,) * n)) * denom
            sign = (-1) ** (n - len(rho))
            assert lhs == sign * full, rho


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
    entry = doc["rows"][0]["cols"][1]  # rho = (2), la = (1,1)
    assert poly_from_json(entry["poly"]) == substitute_signed(
        green_poly(P((2,)), P((1, 1))), -1
    )


def test_orthogonality_small():
    for n in range(1, 5):
        for eps in (1, -1):
            result = verify_orthogonality(n, eps)
            assert result.ok, result.witness
