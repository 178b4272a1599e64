"""Every correctness check of the benchmark passes on right data and reports
a failure when one coefficient, order or degree is perturbed."""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import spans  # noqa: E402


def test_integer_primitives():
    assert list(checks.partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert checks.n_stat((2, 2, 1)) == 4
    assert checks.group_order_at(2, 1, 3) == 48
    assert checks.group_order_at(3, -1, 2) == 648
    poly = checks.group_order_poly(3, -1)
    assert sum(c * 2**k for k, c in poly.items()) == 648
    assert checks.monomial_coefficient((1, 1, 1), (1, 1, 1)) == 6
    assert checks.monomial_coefficient((1, 1, 1), (2, 1)) == 3
    assert checks.monomial_coefficient((2, 1), (3,)) == 1
    assert checks.monomial_coefficient((2, 1), (1, 1, 1)) == 0


def verify_records(n, eps):
    """Right records for n = 2: (2) and (1,1) have closed forms."""
    return [
        ((2,), True, checks.gelfand_graev_dim(2, eps)),
        ((1, 1), True, checks.group_order_poly(2, eps)),
    ]


def test_check_verify():
    assert checks.check_verify(2, -1, True, verify_records(2, -1)) == []
    bad_coeff = verify_records(2, -1)
    bad_coeff[1][2][0] = bad_coeff[1][2].get(0, 0) + 1
    assert checks.check_verify(2, -1, True, bad_coeff)
    bad_degree = verify_records(2, 1)
    bad_degree[0][2][5] = Fraction(1)
    assert checks.check_verify(2, 1, True, bad_degree)
    assert checks.check_verify(2, 1, False, verify_records(2, 1))
    assert checks.check_verify(2, 1, True, verify_records(2, 1)[:1])


def expansion_rho11():
    """p_{11} = P_2 + (1 + t) P_{11}, X computed by hand."""
    coeffs = {(2,): {0: 1}, (1, 1): {0: 1, 1: 1}}
    return coeffs, {la: dict(c) for la, c in coeffs.items()}


def test_check_expansion():
    expansion, xs = expansion_rho11()
    assert checks.check_expansion((1, 1), expansion, xs) == []
    expansion[(1, 1)][0] = 2  # one route disagrees
    assert checks.check_expansion((1, 1), expansion, xs)
    expansion, xs = expansion_rho11()
    expansion[(1, 1)][0] = xs[(1, 1)][0] = 2  # both agree, X(1) is wrong
    assert checks.check_expansion((1, 1), expansion, xs)
    expansion, xs = expansion_rho11()
    expansion[(1, 1)][2] = xs[(1, 1)][2] = 1  # wrong degree
    assert checks.check_expansion((1, 1), expansion, xs)


def test_check_oracle():
    report = {"pass": True, "checks": [{"ok": True}], "order": 48}
    assert checks.check_oracle(2, 1, 3, report) == []
    assert checks.check_oracle(2, 1, 3, dict(report, order=47))
    assert checks.check_oracle(2, 1, 3, dict(report, checks=[{"ok": False}]))


def test_parse_pretty():
    assert checks.parse_pretty("q^5 - q^4 + 2q^2 - 1") == {5: 1, 4: -1, 2: 2, 0: -1}
    assert checks.parse_pretty("-t^3 + 1/2t - 3") == {3: -1, 1: Fraction(1, 2), 0: -3}
    assert checks.parse_pretty("q^-2") == {-2: 1}
    assert checks.parse_pretty("0") == {}


GREEN_2 = {((2,), (2,)): "1", ((2,), (1, 1)): "-t + 1",
           ((1, 1), (2,)): "1", ((1, 1), (1, 1)): "t + 1"}


def green_json(table):
    rows = {}
    for (rho, la), text in table.items():
        poly = checks.parse_pretty(text)
        coeffs = [[str(poly.get(k, 0)), "1"] for k in range(max(poly) + 1)]
        rows.setdefault(rho, []).append(
            {"lambda": list(la), "poly": {"var": "t", "val": 0, "coeffs": coeffs}}
        )
    return json.dumps({"n": 2, "rows": [{"rho": list(r), "cols": c} for r, c in rows.items()]})


def green_pretty(table):
    lines = ["Green polynomials, n=2"]
    for (rho, la), text in table.items():
        fmt = lambda p: "(" + ",".join(map(str, p)) + ")"  # noqa: E731
        lines.append(f"Q[rho={fmt(rho)}, lambda={fmt(la)}] = {text}")
    return "\n".join(lines) + "\n"


def test_check_cli_green():
    args = ("green", "--n", "2", "--format", "pretty")
    reference = green_json(GREEN_2)
    assert checks.check_cli(args, green_pretty(GREEN_2), reference) == []
    assert checks.check_cli(args[:3], reference, None) == []
    perturbed = dict(GREEN_2)
    perturbed[((1, 1), (1, 1))] = "t + 2"  # constant term and JSON both differ
    assert len(checks.check_cli(args, green_pretty(perturbed), reference)) == 2
    missing = dict(GREEN_2)
    del missing[((2,), (2,))]
    assert checks.check_cli(args, green_pretty(missing), reference)
    assert checks.check_cli(args, "garbage\nQ[rho=(2)] = ?", reference)


def test_check_cli_endo():
    args = ("endo", "--n", "2", "--format", "pretty")
    text = "Endomorphism dimensions, n=2, eps=+1\nmu=(2): degree 2, monic=True: q^2 - q\n" \
           "mu=(1,1): degree 4, monic=True: q^4 - q^3 - q^2 + q\n"
    doc = {"results": [
        {"mu": [2], "poly": {"var": "q", "val": 0, "coeffs": [["0", "1"], ["-1", "1"], ["1", "1"]]}},
        {"mu": [1, 1], "poly": {"var": "q", "val": 0, "coeffs": [
            ["0", "1"], ["1", "1"], ["-1", "1"], ["-1", "1"], ["1", "1"]]}},
    ]}
    assert checks.check_cli(args, text, json.dumps(doc)) == []
    assert checks.check_cli(args, text.replace("q^2 - q\n", "q^3 - q\n"), json.dumps(doc))


def test_check_cli_verify_and_oracle():
    poly = {"var": "q", "val": 0, "coeffs": [["0", "1"], ["1", "1"], ["1", "1"]]}
    doc = {"n": 2, "eps": -1, "pass": True, "results": [
        {"mu": [2], "poly": poly, "pass": True},
        {"mu": [1, 1], "poly": {"var": "q", "val": 0, "coeffs": [
            ["0", "1"], ["-1", "1"], ["-1", "1"], ["1", "1"], ["1", "1"]]}, "pass": True},
    ]}
    args = ("verify", "--n", "2", "--eps", "-1")
    assert checks.check_cli(args, json.dumps(doc), None) == []
    doc["results"][1]["poly"]["coeffs"][1][0] = "1"
    assert checks.check_cli(args, json.dumps(doc), None)
    report = {"pass": True, "checks": [], "order": 48}
    assert checks.check_cli(("oracle", "--n", "2", "--q", "3"), json.dumps(report), None) == []
    assert checks.check_cli(("oracle", "--n", "2", "--q", "4"), json.dumps(report), None)


def test_self_times_subtract_direct_children():
    recorded = [
        [-1, "kawanaka.endo", "n2", 0.0, 10.0],
        [0, "kawanaka.gamma", "n2", 1.0, 7.0],
        [1, "symfunc.x", "n2", 2.0, 3.0],
        [0, "grouporders.orders", "n2", 8.0, 9.0],
    ]
    assert spans.self_times(recorded) == [3.0, 5.0, 1.0, 1.0]
    seconds = spans.layer_seconds(recorded)
    assert seconds["kawanaka.gamma"] == 5.0 and seconds["kawanaka.gamma.n2"] == 5.0
