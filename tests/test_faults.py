"""Fault injection: a perturbed table makes the check that guards it fail.
Verification reports the failure as FAIL records, and the command exits 1
with a one-line message and no traceback, also under ``python -O`` (the
package has no asserts)."""

import ast
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gggr.fields as fields
import gggr.green as green
import gggr.grouporders as grouporders
import gggr.intpoly as intpoly
import gggr.kawanaka as kawanaka
import gggr.oracle as oracle
import gggr.symfunc as symfunc
from gggr.cli import main
from gggr.errors import ContractError, NonExactDivisionError
from gggr.intpoly import scale
from gggr.kawanaka import gggr_value, verify_theorem
from gggr.partitions import Partition
from gggr.polyring import RationalPoly
from test_intpoly import add, schoolbook
from test_symfunc import HALL_LITTLEWOOD_ROUTE

P = Partition
SRC = Path(__file__).resolve().parents[1] / "src"

CACHES = (
    green.green_matrix,
    green._green,
    green.green_table,
    grouporders.group_order_coeffs,
    grouporders.torus_order_coeffs,
    grouporders._centralizer,
    grouporders.class_size_coeffs,
    kawanaka._gamma_matrix,
    kawanaka._gamma_row,
    kawanaka._gggr_value,
    kawanaka._endo_numerators,
    kawanaka._endo_dim,
)


GREEN_MATRIX = green.green_matrix


def perturbed_green(n):
    """The Green table with 1 added to the constant term of Q_(n)^(n)."""
    table = [list(row) for row in GREEN_MATRIX(n)]
    entry = table[0][0]
    table[0][0] = (entry[0] + 1,) + entry[1:]
    return tuple(map(tuple, table))


@pytest.fixture
def inject(monkeypatch):
    """Patch a table in place; every cache that could hold a value computed
    from it is cleared before and after the test."""
    for cache in CACHES:
        cache.cache_clear()
    yield monkeypatch.setattr
    for cache in CACHES:
        cache.cache_clear()


def test_every_cache_is_cleared_around_an_injection():
    """A cache left out of CACHES would keep a value computed before the
    fault was injected, and the fault would not show."""
    defined = {
        value
        for module in (green, grouporders, kawanaka)
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and value.__module__ == module.__name__
    }
    assert defined == set(CACHES)


def all_fail(report, condition, error):
    """Every record fails because endo_dim is not a polynomial, with a witness
    that names ``condition`` and an error message that matches ``error``."""
    return not report.passed and all(
        not r.passed
        and r.poly is None
        and (witness := r.to_json()["witness"]).keys() == {"condition", "error"}
        and witness["condition"] == condition
        and re.fullmatch(error, witness["error"])
        for r in report.results
    )


NOT_INTEGRAL = r"gamma_\(.*\)\(\(3,\)\) is not integral at q = [23]: -?\d+/3"


def test_green_coefficient_fails_gamma_integrality(inject):
    inject(kawanaka, "green_matrix", perturbed_green)
    with pytest.raises(ContractError, match=r"gamma_\(3,\)\(\(3,\)\) is not integral at q = 2"):
        gggr_value(P((3,)), P((3,)), 1)
    assert all_fail(verify_theorem(3, 1), "contract", NOT_INTEGRAL)
    assert all_fail(verify_theorem(3, -1), "contract", NOT_INTEGRAL)


def test_green_coefficient_fails_verify_command(inject, capsys):
    inject(kawanaka, "green_matrix", perturbed_green)
    assert main(["verify", "--n", "3", "--format", "pretty"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL mu=(3):" in out and out.endswith("RESULT: FAIL\n")
    assert err == ""
    assert main(["gggr", "--mu", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "check failed" in err and "not integral" in err


def test_green_coefficient_fails_orthogonality(inject):
    inject(green, "green_matrix", perturbed_green)
    result = green.verify_orthogonality(3, -1)
    assert not result.ok
    rho, pi, lhs, rhs = result.witness
    assert (rho, pi) == (P((3,)), P((3,))) and lhs != rhs
    # |W_(3)| * |GU_3| / |T_(3)| = 3 * q^3 (q + 1)(q^2 - 1), as |T_(3)| = q^3 + 1
    expected = schoolbook((0, 0, 0, 3), schoolbook((1, 1), (-1, 0, 1)))
    assert schoolbook(expected, (1, 0, 0, 1)) == scale(grouporders.group_order_coeffs(3, -1), 3)
    assert rhs == RationalPoly(expected, "q")


def test_green_sign_fails_orthogonality_off_the_diagonal(inject):
    """Q_(3)^(2,1) negated: every diagonal sum keeps its squares, so the first
    pair to fail is ((3), (2,1)), whose sum must vanish."""
    def perturbed(n):
        table = [list(row) for row in GREEN_MATRIX(n)]
        table[0][1] = scale(table[0][1], -1)
        return tuple(map(tuple, table))

    inject(green, "green_matrix", perturbed)
    for eps in (1, -1):
        result = green.verify_orthogonality(3, eps)
        assert not result.ok
        rho, pi, lhs, rhs = result.witness
        assert (rho, pi) == (P((3,)), P((2, 1))) and lhs != rhs
        assert rhs.coeffs == ()


def flipped_torus(rho, eps):
    """|T_(2,1)| negated, so one weight of the gamma product has the wrong
    sign."""
    t = grouporders.torus_order_coeffs(rho, eps)
    return scale(t, -1) if rho == (2, 1) else t


#: The support failure of mu = (2, 1) at n = 3 under ``flipped_torus``;
#: (1, 1, 1) fails alike at la = (3).
OFF_SUPPORT = {
    1: "gamma_(2, 1)((3,)) = q^4 - q^3 - q^2 + q is not zero, but (3,) is not dominated by (2, 1)",
    -1: "gamma_(2, 1)((3,)) = -q^4 - q^3 + q^2 + q is not zero, "
        "but (3,) is not dominated by (2, 1)",
}


def test_flipped_torus_weight_fails_the_gamma_support(inject):
    # with one torus weight negated, gamma_(2,1) and gamma_(1,1,1) take
    # values on (3), outside the closure of their classes.  endo_dim is
    # unmoved at n = 3, so monic, degree, division and samples all pass:
    # the support check alone fails it (test_golden and
    # test_batched_gamma_matches_per_rho_sum also see the changed gamma)
    inject(kawanaka, "torus_order_coeffs", flipped_torus)
    for eps in (1, -1):
        report = verify_theorem(3, eps)
        assert [r.failure for r in report.results] == [None, "contract", "contract"]
        assert str(report.results[1].error) == OFF_SUPPORT[eps]
        assert "is not dominated by (1, 1, 1)" in str(report.results[2].error)
        with pytest.raises(ContractError, match=f"^{re.escape(OFF_SUPPORT[eps])}$"):
            gggr_value(P((2, 1)), P((3,)), eps)
    inject(kawanaka, "dominated", lambda la, mu: True)
    for cache in CACHES:
        cache.cache_clear()
    assert verify_theorem(3, 1).passed and verify_theorem(3, -1).passed


def test_gamma_support_check_survives_python_O():
    script = inspect.getsource(flipped_torus) + (
        "import gggr.grouporders as grouporders, gggr.kawanaka\n"
        "from gggr.intpoly import scale\n"
        "gggr.kawanaka.torus_order_coeffs = flipped_torus\n"
        "for r in gggr.kawanaka.verify_theorem(3, 1).results:\n"
        "    print(r.failure, r.error)\n"
    )
    done = run_optimized(script)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    rows = done.stdout.splitlines()
    assert rows[:2] == ["None None", f"contract {OFF_SUPPORT[1]}"]
    assert rows[2].startswith("contract gamma_(1, 1, 1)((3,)) = ")


def torus_off_by_one(rho, eps):
    """|T_(2,1)| with 1 added to its constant term; still monic."""
    t = grouporders.torus_order_coeffs(rho, eps)
    return (t[0] + 1,) + t[1:] if rho == (2, 1) else t


def test_torus_order_fails_exact_division(inject):
    inject(green, "torus_order_coeffs", torus_off_by_one)
    for eps in (1, -1):
        with pytest.raises(NonExactDivisionError, match=r"\|T_rho\| for \(2, 1\) left remainder"):
            green.verify_orthogonality(3, eps)


def test_class_size_fails_exact_division(inject):
    def perturbed_sizes(la, eps):
        size = grouporders.class_size_coeffs(la, eps)
        return (size[0] + 1,) + size[1:] if la == (3,) else size

    inject(kawanaka, "class_size_coeffs", perturbed_sizes)
    message = "sum_la |class la| gamma_(3,)(la)^2 / |G| left remainder (36, -72, 36)"
    with pytest.raises(NonExactDivisionError, match=f"^{re.escape(message)}$"):
        kawanaka.endo_dim(P((3,)), 1)
    report = verify_theorem(3, 1)
    assert not report.passed
    assert report.results[0].poly is None and not report.results[0].passed
    witness = report.results[0].to_json()["witness"]
    assert witness["condition"] == "division"
    assert witness["error"] == message


def test_green_negative_power_is_typed(inject):
    # X_rho^la of degree above n(la) would give Q_rho^la a negative power
    def x_too_long(n):
        return tuple(tuple(x + (1,) for x in row) for row in symfunc.x_matrix(n))

    inject(green, "x_matrix", x_too_long)
    with pytest.raises(ContractError, match="negative powers"):
        green.green_matrix(3)
    negative = re.escape("Green polynomial Q_(3,)^(3,) has negative powers: deg X = 1 > n(la) = 0")
    assert all_fail(verify_theorem(3, 1), "contract", negative)


def test_centralizer_negative_power_is_typed(inject):
    # the transpose taken as the identity undercounts sum (la'_j)^2
    inject(grouporders, "conjugate", lambda la: la)
    with pytest.raises(ContractError, match="negative power"):
        grouporders.unipotent_centralizer_order(P((1, 1, 1)), 1)
    # verify meets the class size of (3), which the same fault makes inexact,
    # before the centralizer of (1, 1, 1)
    report = verify_theorem(3, 1)
    remainder = re.escape("class size for (3,) left remainder (0, 0, 0, -1, 1, 1, 0, -1)")
    assert all_fail(report, "division", remainder)


def test_non_monic_centralizer_fails_verify_command(inject, capsys):
    # a doubled centralizer order of (2, 1) is no longer monic, so its class
    # size cannot be divided out: a failed check, never a usage error
    centralizer = grouporders._centralizer
    inject(
        grouporders,
        "_centralizer",
        lambda la, eps: scale(centralizer(la, eps), 2) if la == (2, 1) else centralizer(la, eps),
    )
    with pytest.raises(ContractError, match="^divisor must be monic$"):
        grouporders.class_size(P((2, 1)), 1)
    assert all_fail(verify_theorem(3, 1), "contract", "divisor must be monic")
    assert main(["verify", "--n", "3", "--format", "pretty"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1:] == [
        f"FAIL mu={mu}: degree None (target {target}), monic=False: <not a polynomial>"
        for mu, target in (("(3)", 3), ("(2,1)", 5), ("(1,1,1)", 9))
    ] + ["RESULT: FAIL"]


ENDO_NUMERATORS = kawanaka._endo_numerators


def perturbed_numerators(change):
    """``_endo_numerators`` with ``change`` applied to the numerator of
    every mu, given it and |G|."""

    def numerators(n, eps):
        order = grouporders.group_order_coeffs(n, eps)
        return tuple(change(f, order) for f in ENDO_NUMERATORS(n, eps))

    return numerators


@pytest.mark.parametrize(
    "condition, change",
    [
        # twice the numerator: endo_dim doubles, so it leads with 2
        ("monic", lambda f, order: scale(f, 2)),
        # q times the numerator: endo_dim is monic of one degree more
        ("degree", lambda f, order: (0,) + f),
        # plus |G|: endo_dim gains 1/(3!)^2, so it is an integer at no sample
        ("sample", lambda f, order: tuple(a + b for a, b in zip(f, order)) + f[len(order) :]),
    ],
)
def test_endo_numerator_fault_names_its_condition(inject, condition, change):
    expected = {mu: kawanaka.endo_dim(mu, 1) for mu in symfunc.partitions_of(3)}
    for cache in CACHES:
        cache.cache_clear()
    inject(kawanaka, "_endo_numerators", perturbed_numerators(change))
    report = verify_theorem(3, 1)
    assert not report.passed
    for r in report.results:
        witness = r.to_json()["witness"]
        assert r.polynomial and r.failure == witness["condition"] == condition
        if condition == "sample":
            value = expected[r.mu](2) + Fraction(1, 36)
            assert witness == {
                "condition": "sample", "q": 2, "value": [value.numerator, value.denominator]
            }


YOUNG_BOUND = intpoly.young_bound


def loose_bound(*args):
    """``young_bound`` shifted down 32 bits: every operand still fits the
    digits it sets, but the products outgrow them.  (Widths are whole machine
    words, often set by the operands; 16 bits below the bound still picks the
    same words for every product at n = 6.)"""
    return YOUNG_BOUND(*args) >> 32


@pytest.fixture
def loosen_bound(inject):
    """The Kronecker bound loosened, with X, which is built by a product,
    cleared besides every cache of ``inject``."""
    symfunc.x_matrix.cache_clear()
    inject(intpoly, "young_bound", loose_bound)
    yield
    symfunc.x_matrix.cache_clear()


@pytest.fixture
def loosen_bound_in(inject):
    """Loosens the Kronecker bound only where the kernel it is given asks
    for it, with X cleared as for ``loosen_bound``."""

    def loosen(kernel):
        def bound(terms):
            caller = sys._getframe(1).f_code.co_name
            return (loose_bound if caller == kernel else YOUNG_BOUND)(terms)

        inject(intpoly, "young_bound", bound)

    symfunc.x_matrix.cache_clear()
    yield loosen
    symfunc.x_matrix.cache_clear()


@pytest.mark.parametrize("kernel, n", [("bilinear", 7), ("weighted_squares", 6)])
def test_kronecker_bound_carries_weight_in_each_kernel(loosen_bound_in, kernel, n):
    # each kernel must take its width from the bound: loosened in one alone,
    # the verification fails for every mu at an n where that width is the
    # bound's and not the operands'
    loosen_bound_in(kernel)
    for eps in (1, -1):
        report = verify_theorem(n, eps)
        assert report.results and not any(r.passed for r in report.results)


def test_kronecker_bound_carries_weight(loosen_bound, capsys):
    for eps in (1, -1):
        report = verify_theorem(6, eps)
        assert report.results and not any(r.passed for r in report.results)
        assert all(r.to_json()["witness"]["condition"] for r in report.results)
    assert main(["verify", "--n", "6", "--big"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.endswith('  "pass": false\n}\n')


def corrupt_f4(field):
    """x + (x + 1) = x in place of 1 in the addition table of F_4 (elements
    0, 1, x, x + 1 encoded as 0..3), so the trace x + x^2 of x reads x."""
    field.add[2][3] = 2


@pytest.fixture
def field_f4():
    """The cached F_4, to be corrupted in place; the cache is cleared after."""
    oracle.finite_field.cache_clear()
    yield oracle.finite_field(4)
    oracle.finite_field.cache_clear()


#: What the corrupted F_4 of ``corrupt_f4`` trips in the GL2(4) report: the
#: trace in psi of Kawanaka's datum.  The enumeration is no longer a group,
#: which only the closure of classes() sees (GL2_F4_OUTSIDE).
GL2_F4_TRACE = "trace of 2 in F_4 left the prime field: 2"
GL2_F4_OUTSIDE = (
    "GL2(F4): the product ((2, 1), (3, 2)) of ((0, 3), (3, 2)) is not an enumerated element"
)


def test_field_entry_fails_oracle_trace(field_f4, capsys):
    corrupt_f4(field_f4)
    with pytest.raises(ContractError, match=f"^{re.escape(GL2_F4_TRACE)}$"):
        oracle.oracle_report(2, 1, 4)
    assert main(["oracle", "--n", "2", "--q", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"gggr: check failed: {GL2_F4_TRACE}\n"
    with pytest.raises(ContractError, match=re.escape(GL2_F4_OUTSIDE)):
        oracle.enumerate_group(2, 1, 4).classes()


@pytest.mark.parametrize(
    "n, eps, q0, table, a, b, value, message",
    [
        pytest.param(2, 1, 4, "add", 2, 3, 0, "GL2(F4): an enumerated element is singular",
                     id="GL2F4-singular"),
        pytest.param(2, -1, 2, "add", 1, 1, 1, "GU2(F2): no trace-zero element in F_4",
                     id="GU2F2-trace-zero"),
        pytest.param(2, -1, 2, "add", 0, 1, 2, "GU2(F2): no column 0 of a basis for the form",
                     id="GU2F2-column-0"),
        pytest.param(2, -1, 2, "add", 2, 3, 0,
                     "GU2(F2): no column 1 of a basis for the form ((0, 1), (1, 0)) in F_4",
                     id="GU2F2-column-1"),
    ],
)
def test_field_entry_fails_oracle_construction(
    field_f4, capsys, n, eps, q0, table, a, b, value, message
):
    # each corruption breaks one step of the class split or of building
    # Kawanaka's datum, which must fail as a check, not as some other exception
    getattr(field_f4, table)[a][b] = value
    assert main(["oracle", "--n", str(n), "--q", str(q0), "--eps", f"{eps:+d}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gggr: check failed: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "n, eps, q0, table, a, b, value, message",
    [
        pytest.param(2, 1, 4, "add", 2, 3, 2, "^trace of 2 in F_4 left the prime field: 2$",
                     id="GL2F4-trace"),
        *(
            pytest.param(2, -1, 2, "add", a, b, value, re.escape(message), id=name)
            for name, a, b, value, message in [
                ("GU2F2-column-0", 0, 1, 2,
                 "GU2(F2): no column 0 of a basis for the form ((0, 1), (1, 0)) in F_4"),
                ("GU2F2-trace-zero", 1, 1, 1, "GU2(F2): no trace-zero element in F_4"),
            ]
        ),
    ],
)
def test_field_entry_fails_whittaker_construction(
    field_f4, n, eps, q0, table, a, b, value, message
):
    # the group is enumerated and split before the field is corrupted, so the
    # corruption reaches Kawanaka's datum, whose searches must fail as checks
    G = oracle.enumerate_group(n, eps, q0)
    G.classes()
    getattr(field_f4, table)[a][b] = value
    with pytest.raises(ContractError, match=message):
        oracle.gelfand_graev_inner(G)


def corrupt_entry(field, table, entry, value):
    """Set one entry of a table of ``field``: entry is (a,) or (a, b)."""
    *row, last = entry
    target = getattr(field, table)
    for i in row:
        target = target[i]
    target[last] = value


#: One corrupted entry of a private field per axiom, as (q, table, entry,
#: value, axiom).  The checks run in this order, so each entry keeps every
#: axiom before its own; distributivity precedes associativity for each a.
AXIOM_FAULTS = [
    pytest.param(4, "add", (0, 0), 1, "identity axiom", id="identity"),
    pytest.param(9, "neg", (1,), 1, "negation axiom", id="negation"),
    pytest.param(4, "inv", (2,), 2, "inverse axiom", id="inverse"),
    pytest.param(4, "add", (1, 2), 2, "commutativity", id="commutativity"),
    pytest.param(4, "mul", (2, 2), 1, "distributivity", id="distributivity"),
    pytest.param(9, "add", (1, 1), 0, "additive associativity", id="additive-associativity"),
    pytest.param(9, "mul", (3, 3), 0, "multiplicative associativity",
                 id="multiplicative-associativity"),
]


@pytest.mark.parametrize("q, table, entry, value, axiom", AXIOM_FAULTS)
def test_field_entry_fails_its_axiom(q, table, entry, value, axiom):
    F = fields.FiniteField(q)  # private: the cached field stays intact
    F._verify_axioms()
    corrupt_entry(F, table, entry, value)
    with pytest.raises(ContractError, match=f"^F_{q}: {re.escape(axiom)} failed$"):
        F._verify_axioms()


def test_field_without_a_primitive_modulus_fails(monkeypatch, capsys):
    # Z/4 passed off as a prime field: no residue of Z/4 has three distinct
    # nonzero powers, so the search for a modulus fails as a check
    message = "no primitive polynomial of degree 1 over F_4"
    monkeypatch.setattr(fields, "is_prime_power", lambda q: (4, 1))
    oracle.finite_field.cache_clear()
    try:
        with pytest.raises(ContractError, match=f"^{message}$"):
            oracle.FiniteField(4)
        assert main(["oracle", "--n", "2", "--q", "4"]) == 1
    finally:
        oracle.finite_field.cache_clear()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"gggr: check failed: {message}\n"


def test_whittaker_element_outside_the_split_fails():
    # elements are looked up by code among the enumerated codes: without the
    # identity the datum is one element short, and a datum built before holds
    # an element that the certified split refuses
    G = oracle.enumerate_group(2, 1, 4)
    G.unipotent_classes()
    H, _ = oracle.kawanaka_datum(G, P((2,)))
    member, identity = G._member, G.encode(oracle.mat_identity(2))
    G._member = lambda code: code != identity and member(code)
    message = "GL2(F4): U_(>=2) for mu = (2,) has 3 elements, not 4^1 = 4"
    with pytest.raises(ContractError, match=re.escape(message)):
        oracle.gelfand_graev_inner(G)
    with pytest.raises(
        ContractError, match=re.escape("Whittaker element ((1, 0), (0, 1)) is not in the group")
    ):
        oracle._induced_inner(G, H)


def drop_element(enumerate_group, which):
    """``enumerate_group`` with one element left out of every group: the
    identity, or else the last element."""

    def enumerate_without(n, eps, q0):
        G = enumerate_group(n, eps, q0)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        del G.codes[G.codes.index(G.encode(identity)) if which == "identity" else -1]
        return G

    return enumerate_without


#: What GL2(3) without the identity or its last element trips: in the
#: report, which does not run the closure, and in the closure of classes(),
#: where every product of generators must be enumerated, starting from the
#: identity.
GL2_F3_DROPPED = {
    "identity": (
        "GL2(F3): U_(>=2) for mu = (2,) has 2 elements, not 3^1 = 3",
        "GL2(F3): the identity is not an enumerated element",
    ),
    "last": (
        "GL2(F3): the class of ((0, 1), (2, 2)): |G| / |class| = 47 / 8 left remainder 7",
        "GL2(F3): the product ((2, 2), (2, 1)) of ((1, 0), (2, 2)) is not an enumerated element",
    ),
}


@pytest.mark.parametrize("which", ["identity", "last"])
def test_missing_element_fails_oracle_closure(monkeypatch, capsys, which):
    report, closure = GL2_F3_DROPPED[which]
    monkeypatch.setattr(oracle, "enumerate_group", drop_element(oracle.enumerate_group, which))
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {report}\n")
    with pytest.raises(ContractError, match=f"^{re.escape(closure)}$"):
        oracle.enumerate_group(2, 1, 3).classes()


def test_conjugate_outside_the_group_fails(monkeypatch):
    # conjugating by a matrix that is not unitary leaves GU2(3)
    monkeypatch.setattr(oracle, "mat_inv", lambda F, A: ((1, 1), (0, 1)))
    G = oracle.enumerate_group(2, -1, 3)
    with pytest.raises(ContractError, match="is not an enumerated element"):
        G.classes()


def drop_seed_class(certify, parts):
    """``OracleGroup._certify`` with the seeds of Jordan type ``parts`` left
    out, so the split never meets their class."""

    def dropped(G, seeds):
        return certify(G, [h for h in seeds if G.jordan_type(G.decode(h)) != parts])

    return dropped


#: What the GL3(2) report fails when its seeds miss the class of type (2, 1),
#: 21 elements: the orbits hold 43 of the 64 unipotent elements, so the scan
#: ends, once its conjugations have mapped |G| codes, without a certificate.
GL3_F2_DROPPED_SEEDS = (
    "GL3(F2): split not certified: conjugators 2, elements 43 of 64, orbits 2, Jordan types 2"
)


def test_dropped_seed_class_fails_the_class_counts(monkeypatch, capsys):
    certify = drop_seed_class(oracle.OracleGroup._certify, (2, 1))
    monkeypatch.setattr(oracle.OracleGroup, "_certify", certify)
    assert main(["oracle", "--n", "3", "--q", "2", "--format", "csv"]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {GL3_F2_DROPPED_SEEDS}\n")


def lose_class(unipotent_classes, parts):
    """``OracleGroup.unipotent_classes`` that loses the class of Jordan type
    ``parts`` from the certified split it returns."""

    def lost(G):
        return {la: cls for la, cls in unipotent_classes(G).items() if la != parts}

    return lost


#: The rows that fail when the GL3(2) report loses the class of type (2, 1),
#: 21 elements: both counts over the classes see it gone.
GL3_F2_LOST_CLASS = [
    "unipotent_class_count,3,2,False\n",
    "class_size_2_1,21,0,False\n",
    "unipotent_count,64,43,False\n",
]


def test_lost_class_fails_the_class_checks(monkeypatch, capsys):
    classes = lose_class(oracle.OracleGroup.unipotent_classes, (2, 1))
    monkeypatch.setattr(oracle.OracleGroup, "unipotent_classes", classes)
    assert main(["oracle", "--n", "3", "--q", "2", "--format", "csv"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [row for row in out.splitlines(True) if row.endswith(",False\n")] == (
        GL3_F2_LOST_CLASS
    )


def forget_member(member):
    """``OracleGroup._member`` that forgets ((1, 1), (0, 1)), an element of U
    in every GL2: the datum for mu = (2) is one element short."""

    def forgetting(G, code):
        return code != G.encode(((1, 1), (0, 1))) and member(G, code)

    return forgetting


GL2_F3_SHORT_DATUM = "GL2(F3): U_(>=2) for mu = (2,) has 2 elements, not 3^1 = 3"


def test_datum_short_of_an_element_fails_the_size_check(monkeypatch, capsys):
    # |U_(>=2)^F| = q0^#positions, checked as a count of the kept candidates
    monkeypatch.setattr(oracle.OracleGroup, "_member", forget_member(oracle.OracleGroup._member))
    with pytest.raises(ContractError, match=re.escape(GL2_F3_SHORT_DATUM)):
        oracle.oracle_report(2, 1, 3)
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {GL2_F3_SHORT_DATUM}\n")


def leave_the_group(conjugation):
    """``OracleGroup._conjugation`` with x = ((1, 1), (0, 1)) in place of the
    conjugator s on the right, once s is checked: the map then sends h to
    s^-1*h*x, which for h in GU2(3) is not unitary."""

    def leaving(G, s, reads):
        from gggr.fields import mat_inv, mat_mul

        conjugation(G, s, reads)
        F, x = G.field, ((1, 1), (0, 1))
        s_inv = mat_inv(F, s)
        return lambda codes: [G.encode(mat_mul(F, mat_mul(F, s_inv, G.decode(c)), x))
                              for c in codes]

    return leaving


def leaving_message():
    """The first seed of the GU2(3) report is the identity, and the first
    conjugator s is the first element, so the first conjugate is s^-1*x."""
    G = oracle.enumerate_group(2, -1, 3)
    s = G.elements[0]
    c = oracle.mat_mul(G.field, oracle.mat_inv(G.field, s), ((1, 1), (0, 1)))
    assert c not in set(G.elements)
    return f"GU2(F3): the conjugate {c} of ((1, 0), (0, 1)) is not an enumerated element"


def test_conjugation_leaving_the_group_fails(monkeypatch, capsys):
    message = leaving_message()
    conjugation = leave_the_group(oracle.OracleGroup._conjugation)
    monkeypatch.setattr(oracle.OracleGroup, "_conjugation", conjugation)
    with pytest.raises(ContractError, match=re.escape(message)):
        oracle.oracle_report(2, -1, 3)
    assert main(["oracle", "--n", "2", "--q", "3", "--eps", "-1"]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {message}\n")


def hold_conjugators(candidates, k):
    """``OracleGroup._candidates`` held at its first k candidates."""

    def held(G):
        return itertools.islice(candidates(G), k)

    return held


#: What the report of GL_n(q0) fails when the candidates hold only k
#: conjugators, one fewer than the certificate needs: GL2(3)'s first splits
#: 5 of its 9 unipotent elements, and GL2(4)'s first two split all 16, but
#: into 4 orbits of 2 Jordan types.
HELD_CONJUGATORS = {
    (2, 3, 1): "GL2(F3): split not certified: conjugators 1, elements 5 of 9, orbits 3, "
               "Jordan types 2",
    (2, 4, 2): "GL2(F4): split not certified: conjugators 2, elements 16 of 16, orbits 4, "
               "Jordan types 2",
}


@pytest.mark.parametrize("n, q0, k", list(HELD_CONJUGATORS))
def test_held_conjugators_fail_the_certificate(monkeypatch, capsys, n, q0, k):
    message, candidates = HELD_CONJUGATORS[n, q0, k], oracle.OracleGroup._candidates
    monkeypatch.setattr(oracle.OracleGroup, "_candidates", hold_conjugators(candidates, k))
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        oracle.oracle_report(n, 1, q0)
    assert main(["oracle", "--n", str(n), "--q", str(q0)]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {message}\n")
    monkeypatch.setattr(oracle.OracleGroup, "_candidates", hold_conjugators(candidates, k + 1))
    assert oracle.oracle_report(n, 1, q0)["pass"]


def add_involution(kawanaka_datum):
    """``kawanaka_datum`` with ((0, 1), (1, 0)) added to H for every mu but
    (n): an element of order 2, in no unipotent class of GL2(3)."""

    def added(G, mu):
        H, dim_g1 = kawanaka_datum(G, mu)
        return ({**H, G.encode(((0, 1), (1, 0))): 0} if len(mu) > 1 else H), dim_g1

    return added


GL2_F3_NEW_CLASS = (
    "GL2(F3): Whittaker element ((0, 1), (1, 0)) starts a class outside the certified split"
)


def test_later_seed_outside_the_certified_split_fails(monkeypatch, capsys):
    # the certificate is seeded with mu = (n) alone; the data of the other mu
    # may not start a class after it
    monkeypatch.setattr(oracle, "kawanaka_datum", add_involution(oracle.kawanaka_datum))
    with pytest.raises(ContractError, match=f"^{re.escape(GL2_F3_NEW_CLASS)}$"):
        oracle.oracle_report(2, 1, 3)
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {GL2_F3_NEW_CLASS}\n")


def test_classes_of_one_jordan_type_fail(monkeypatch):
    # with every Jordan type read as (1, 1) no scan certifies GL2(3): its two
    # conjugators split all 9 unipotent elements, into 2 orbits of that type
    monkeypatch.setattr(oracle.OracleGroup, "jordan_type", lambda G, g: Partition((1, 1)))
    G = oracle.enumerate_group(2, 1, 3)
    message = ("GL2(F3): split not certified: conjugators 2, elements 9 of 9, orbits 2, "
               "Jordan types 1")
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        G.unipotent_classes()


def identity_inverse(F, A):
    """A ``mat_inv`` that returns the identity: an enumerated element, but
    the inverse of no conjugator."""
    return tuple(tuple(int(i == j) for j in range(len(A))) for i in range(len(A)))


GL2_F3_WRONG_INVERSE = "GL2(F3): ((1, 0), (0, 1)) is not the inverse of ((0, 1), (1, 0))"


def test_wrong_inverse_fails(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "mat_inv", identity_inverse)
    G = oracle.enumerate_group(2, 1, 3)
    with pytest.raises(ContractError, match=re.escape(GL2_F3_WRONG_INVERSE)):
        G.classes()
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {GL2_F3_WRONG_INVERSE}\n")


def identity_class(G):
    """The index of the identity's class in the certified split of G."""
    G.unipotent_classes()
    return G._class_of[G.encode(oracle.mat_identity(G.n))]


def test_identity_class_of_size_two_fails_regular_rep_inner():
    G = oracle.enumerate_group(2, 1, 3)
    idx = identity_class(G)
    G._classes[idx] = G._classes[idx]._replace(size=2)
    # oracle_report compares it with endo_dim((1, 1)) at q0 = 3, which is |G|
    assert kawanaka.endo_dim(P((1, 1)), 1)(3) == G.order == 48
    assert oracle.regular_rep_inner(G) == 24


def merge_exponents(kawanaka_datum):
    """``kawanaka_datum`` with exponent 2 read as 1, so psi is no longer a
    character: on GL2(3) the regular unipotent class gets the exponent counts
    [0, 2, 0] for mu = (2), and the sum of psi over it is 2*zeta_3, not
    rational."""

    def merged(G, mu):
        H, dim_g1 = kawanaka_datum(G, mu)
        return {u: 1 if k == 2 else k for u, k in H.items()}, dim_g1

    return merged


GL2_F3_IRRATIONAL = (
    "GL2(F3): the sum of psi over the class of ((0, 1), (2, 2)) is not rational: "
    "exponent counts [0, 2, 0]"
)


def test_irrational_class_sum_fails(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "kawanaka_datum", merge_exponents(oracle.kawanaka_datum))
    G = oracle.enumerate_group(2, 1, 3)
    with pytest.raises(ContractError, match=re.escape(GL2_F3_IRRATIONAL)):
        oracle.gelfand_graev_inner(G)
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    assert capsys.readouterr() == ("", f"gggr: check failed: {GL2_F3_IRRATIONAL}\n")


def drop_dim_g1(kawanaka_datum):
    """``kawanaka_datum`` with dim g_1 read as 0, so the factor q0^(dim g_1)
    is dropped: on GL3(2), where dim g_1 = 2 for mu = (2, 1), the check
    expects endo_dim((2, 1))(2) = 11 against the inner product 44."""

    def dropped(G, mu):
        return kawanaka_datum(G, mu)[0], 0

    return dropped


def shift_last_exponent(kawanaka_datum):
    """``kawanaka_datum`` with the exponent of its last element raised by 1:
    on GL3(2) psi is then no character of U for mu = (3), and the class sums
    give 240 over |U|^2 = 64."""

    def shifted(G, mu):
        H, dim_g1 = kawanaka_datum(G, mu)
        *_, last = H
        return {**H, last: (H[last] + 1) % G.field.p}, dim_g1

    return shifted


GL3_F2_DATUM_FAULTS = {
    "drop_dim_g1": (
        "gggr_inner_2_1,11,44,False\n",
        "",
    ),
    "shift_last_exponent": (
        "",
        "gggr: check failed: GL3(F2): induced inner product 240 / 64 left remainder 48\n",
    ),
}


@pytest.mark.parametrize("fault", [drop_dim_g1, shift_last_exponent])
def test_datum_fault_fails_gggr_inner_check(monkeypatch, capsys, fault):
    # a fault in Kawanaka's datum makes the per-mu check fail, as a mismatch
    # or as a failed check of the class sum, and the command exits 1
    monkeypatch.setattr(oracle, "kawanaka_datum", fault(oracle.kawanaka_datum))
    assert main(["oracle", "--n", "3", "--q", "2", "--format", "csv"]) == 1
    out, err = capsys.readouterr()
    mismatch, message = GL3_F2_DATUM_FAULTS[fault.__name__]
    assert [row for row in out.splitlines(True) if row.endswith(",False\n")] == (
        [mismatch] if mismatch else []
    )
    assert err == message


@pytest.mark.parametrize(
    "size, inner, message",
    [
        (5, "regular_rep_inner", "the class of ((1, 0), (0, 1)): |G| / |class| = 48 / 5 "
         "left remainder 3"),
        (2, "gelfand_graev_inner", "induced inner product 30 / 9 left remainder 3"),
    ],
    ids=["regular_rep_inner", "gelfand_graev_inner"],
)
def test_identity_class_size_fails_exact_division(size, inner, message):
    # GL2(3): 48/5 leaves a remainder; with size 2 the Gelfand-Graev sum is
    # 24*1^2 + 6*(-1)^2 = 30 over |U|^2 = 9
    G = oracle.enumerate_group(2, 1, 3)
    idx = identity_class(G)
    G._classes[idx] = G._classes[idx]._replace(size=size)
    with pytest.raises(NonExactDivisionError, match=f"^{re.escape(f'GL2(F3): {message}')}$"):
        getattr(oracle, inner)(G)


def test_empty_datum_fails_as_a_check(monkeypatch, capsys):
    # an empty H for mu = (1, 1), past the certificate that mu = (2) seeds,
    # leaves the induced inner product 0 / |H|^2 = 0 / 0: a failed check,
    # not a ZeroDivisionError
    datum = oracle.kawanaka_datum
    monkeypatch.setattr(
        oracle, "kawanaka_datum", lambda G, mu: datum(G, mu) if len(mu) == 1 else ({}, 0)
    )
    assert main(["oracle", "--n", "2", "--q", "3"]) == 1
    message = "GL2(F3): induced inner product 0 / 0 divides by zero"
    assert capsys.readouterr() == ("", f"gggr: check failed: {message}\n")


# -- the Hall-Littlewood factorisation ----------------------------------------


HL_CACHES = (symfunc._hl_factor, symfunc._monomial_count)


@pytest.fixture
def hl_inject(monkeypatch):
    """Like ``inject``, for the caches of the Hall-Littlewood route."""
    for cache in HL_CACHES:
        cache.cache_clear()
    yield monkeypatch.setattr
    for cache in HL_CACHES:
        cache.cache_clear()


def test_every_hall_littlewood_cache_is_cleared_around_an_injection():
    """A cache of the Hall-Littlewood route left out of HL_CACHES would keep
    a value computed before the fault was injected, and the fault would not
    show."""
    defined = {
        value
        for value in map(vars(symfunc).get, HALL_LITTLEWOOD_ROUTE)
        if hasattr(value, "cache_clear")
    }
    assert defined == set(HL_CACHES)


def hl_fails(n, message):
    """Every p_rho with rho |- n fails with a ContractError carrying message;
    a ZeroDivisionError or a bare ArithmeticError is not a ContractError."""
    for rho in symfunc.partitions_of(n):
        with pytest.raises(ContractError) as info:
            symfunc.hall_littlewood_expand(rho)
        assert str(info.value) == message


def test_monomial_count_off_by_one_fails_gram_divisibility(hl_inject):
    count = symfunc._monomial_count
    hl_inject(
        symfunc,
        "_monomial_count",
        lambda rho, mu: count(rho, mu) + (tuple(rho) == tuple(mu) == (3, 1)),
    )
    hl_fails(4, "n! * G / 4! left remainder 8")


@pytest.mark.parametrize(
    "z, message",
    [(4, "n! * G / 4! left remainder 3"), (16, "4! / z_rho of (2, 2) left remainder 8")],
    ids=["4", "16"],
)
def test_changed_z_rho_fails(hl_inject, z, message):
    z_rho = symfunc.weyl_centralizer_order
    assert z_rho(P((2, 2))) == 8
    hl_inject(symfunc, "weyl_centralizer_order", lambda rho: z if rho == (2, 2) else z_rho(rho))
    hl_fails(4, message)


def test_perturbed_b_fails_pivot_check(hl_inject):
    b = symfunc._b
    hl_inject(symfunc, "_b", lambda la: (b(la)[0] + 1,) + b(la)[1:] if la == (2, 1, 1) else b(la))
    hl_fails(4, "the pivot of (2, 1, 1) is not b_la(t)")


BILINEAR = symfunc.bilinear


def perturbed_gram(mu, la, delta):
    """``bilinear`` with delta added, times n!, to G[mu][la] and G[la][mu] of
    the Gram product R^T diag(n!/z_rho(t)) R, the one call whose two factors
    are the same matrix; the column solves are left alone."""

    def bilinear(a, w, b):
        out = BILINEAR(a, w, b)
        if a is not b:
            return out
        parts = symfunc.partitions_of(sum(mu))
        fact = math.factorial(sum(mu))
        for i, j in ((parts.index(mu), parts.index(la)), (parts.index(la), parts.index(mu))):
            out[i][j] = add(out[i][j], scale(delta, fact))
        return out

    return bilinear


def test_gram_entry_fails_exact_division(hl_inject):
    # b_(2,2)(t) = (1 - t)(1 - t^2) does not divide the entry plus 1
    hl_inject(symfunc, "bilinear", perturbed_gram(P((2, 1, 1)), P((2, 2)), (1,)))
    hl_fails(4, "G[(2, 1, 1)][(2, 2)] less the known terms / b_la(t) left remainder (1,)")


def test_gram_entry_fails_dominance(hl_inject):
    # (3, 3) and (4, 1, 1) are incomparable; adding b_(4,1,1)(t) to their
    # entry makes W[(4, 1, 1)][(3, 3)] = 1 with every division exact
    la = P((4, 1, 1))
    hl_inject(symfunc, "bilinear", perturbed_gram(P((3, 3)), la, symfunc._b(la)))
    hl_fails(6, "P_(4, 1, 1) has a monomial (3, 3) it does not dominate")


def run_optimized(script):
    """Run a script under ``python -O`` on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-O", "-c", "import sys\n"
         "if sys.flags.optimize != 1: sys.exit(5)\n" + script],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_checks_survive_python_O():
    script = (
        "import gggr.green, gggr.kawanaka\n"
        "from gggr.cli import main\n"
        "def bad(n):\n"
        "    t = [list(r) for r in gggr.green.green_matrix(n)]\n"
        "    t[0][0] = (t[0][0][0] + 1,) + t[0][0][1:]\n"
        "    return tuple(map(tuple, t))\n"
        "gggr.kawanaka.green_matrix = bad\n"
        "sys.exit(main(['verify', '--n', '4', '--eps', '-1', '--format', 'csv']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""
    rows = done.stdout.splitlines()
    assert rows[0] == "mu,degree,monic,pass"
    assert len(rows) == 6 and all(row.endswith(",False") for row in rows[1:])


def test_kronecker_bound_survives_python_O():
    script = inspect.getsource(loose_bound) + (
        "import gggr.intpoly\n"
        "from gggr.cli import main\n"
        "YOUNG_BOUND = gggr.intpoly.young_bound\n"
        "gggr.intpoly.young_bound = loose_bound\n"
        "sys.exit(main(['verify', '--n', '6', '--big', '--format', 'csv']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""
    rows = done.stdout.splitlines()
    assert rows[0] == "mu,degree,monic,pass"
    assert len(rows) == 12 and all(row.endswith(",False") for row in rows[1:])


def test_axiom_check_survives_python_O():
    script = inspect.getsource(corrupt_entry) + (
        "import gggr.fields\n"
        "F = gggr.fields.FiniteField(4)\n"
        "corrupt_entry(F, 'mul', (2, 2), 1)\n"
        "try:\n"
        "    F._verify_axioms()\n"
        "except gggr.fields.ContractError as error:\n"
        "    sys.exit(str(error))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert (done.stdout, done.stderr) == ("", "F_4: distributivity failed\n")


def test_oracle_checks_survive_python_O():
    script = inspect.getsource(corrupt_f4) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        "corrupt_f4(gggr.oracle.finite_field(4))\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '4']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {GL2_F4_TRACE}\n"


@pytest.mark.parametrize("which", ["identity", "last"])
def test_oracle_closure_survives_python_O(which):
    script = inspect.getsource(drop_element) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        f"gggr.oracle.enumerate_group = drop_element(gggr.oracle.enumerate_group, {which!r})\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '3']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {GL2_F3_DROPPED[which][0]}\n"


def test_dropped_seed_class_survives_python_O():
    script = inspect.getsource(drop_seed_class) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        "G = gggr.oracle.OracleGroup\n"
        "G._certify = drop_seed_class(G._certify, (2, 1))\n"
        "sys.exit(main(['oracle', '--n', '3', '--q', '2', '--format', 'csv']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {GL3_F2_DROPPED_SEEDS}\n"


def test_dropped_seed_class_fails_within_bounds():
    # GL3(4) without the seeds of type (3): its 181 440 elements bound how
    # many codes the certificate's conjugators may map before the scan
    # fails, so the report fails in ~0.3 s at ~31 MiB peak, not after trying
    # every element
    script = inspect.getsource(drop_seed_class) + (
        "import resource, time, gggr.oracle\n"
        "from gggr.cli import main\n"
        "G = gggr.oracle.OracleGroup\n"
        "G._certify = drop_seed_class(G._certify, (3,))\n"
        "start = time.perf_counter()\n"
        "code = main(['oracle', '--n', '3', '--q', '4'])\n"
        "print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(code)\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    message = ("GL3(F4): split not certified: conjugators 2, elements 316 of 4096, orbits 2, "
               "Jordan types 2")
    assert done.stderr == f"gggr: check failed: {message}\n"
    seconds, peak_kib = map(float, done.stdout.split())
    assert seconds < 10
    assert peak_kib < 100 * 1024


def test_datum_size_check_survives_python_O():
    script = inspect.getsource(forget_member) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        "G = gggr.oracle.OracleGroup\n"
        "G._member = forget_member(G._member)\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '3']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {GL2_F3_SHORT_DATUM}\n"


def test_conjugation_check_survives_python_O():
    script = inspect.getsource(leave_the_group) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        "G = gggr.oracle.OracleGroup\n"
        "G._conjugation = leave_the_group(G._conjugation)\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '3', '--eps', '-1']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {leaving_message()}\n"


def test_certificate_survives_python_O():
    script = inspect.getsource(hold_conjugators) + (
        "import itertools, gggr.oracle\n"
        "from gggr.cli import main\n"
        "G = gggr.oracle.OracleGroup\n"
        "G._candidates = hold_conjugators(G._candidates, 1)\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '3']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {HELD_CONJUGATORS[2, 3, 1]}\n"


def test_inverse_check_survives_python_O():
    script = inspect.getsource(identity_inverse) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        "gggr.oracle.mat_inv = identity_inverse\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '3']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {GL2_F3_WRONG_INVERSE}\n"


def test_rationality_check_survives_python_O():
    script = inspect.getsource(merge_exponents) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        "gggr.oracle.kawanaka_datum = merge_exponents(gggr.oracle.kawanaka_datum)\n"
        "sys.exit(main(['oracle', '--n', '2', '--q', '3']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"gggr: check failed: {GL2_F3_IRRATIONAL}\n"


@pytest.mark.parametrize("fault", [drop_dim_g1, shift_last_exponent])
def test_datum_fault_survives_python_O(fault):
    script = inspect.getsource(fault) + (
        "import gggr.oracle\n"
        "from gggr.cli import main\n"
        f"gggr.oracle.kawanaka_datum = {fault.__name__}(gggr.oracle.kawanaka_datum)\n"
        "sys.exit(main(['oracle', '--n', '3', '--q', '2', '--format', 'csv']))\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    mismatch, message = GL3_F2_DATUM_FAULTS[fault.__name__]
    assert [row for row in done.stdout.splitlines(True) if row.endswith(",False\n")] == (
        [mismatch] if mismatch else []
    )
    assert done.stderr == message


def test_torus_division_survives_python_O():
    script = inspect.getsource(torus_off_by_one) + (
        "import gggr.green, gggr.grouporders as grouporders\n"
        "from gggr.errors import NonExactDivisionError\n"
        "gggr.green.torus_order_coeffs = torus_off_by_one\n"
        "try:\n"
        "    gggr.green.verify_orthogonality(3, 1)\n"
        "except NonExactDivisionError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(1)\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""
    assert done.stdout.startswith("|G| / |T_rho| for (2, 1) left remainder ")


def test_hall_littlewood_checks_survive_python_O():
    script = (
        "import gggr.symfunc as s\n"
        "from gggr.errors import ContractError\n"
        "b = s._b\n"
        "s._b = lambda la: (b(la)[0] + 1,) + b(la)[1:] if la == (2, 1, 1) else b(la)\n"
        "try:\n"
        "    s.hall_littlewood_expand(s.Partition((4,)))\n"
        "except ContractError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(1)\n"
    )
    done = run_optimized(script)
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""
    assert done.stdout == "the pivot of (2, 1, 1) is not b_la(t)\n"


def untyped_checks(tree):
    """(line, kind) of each assert and each read of __debug__, which python
    -O strips or turns false, and of each raised bare ArithmeticError or
    AssertionError, which verification cannot tell from a failed check;
    checks raise ContractError instead."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif "__debug__" in (getattr(node, "id", None), getattr(node, "attr", None)):
            yield node.lineno, "__debug__"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ArithmeticError", "AssertionError"):
                yield node.lineno, "raise"


def package_checks(kind):
    return [
        f"{path.name}:{line}"
        for path in sorted((SRC / "gggr").rglob("*.py"))
        for line, found in untyped_checks(ast.parse(path.read_text(encoding="utf-8")))
        if found == kind
    ]


def test_package_has_no_assert_statements():
    assert package_checks("assert") == []


def test_package_runs_the_same_under_python_O():
    # no check of the package can vanish under -O: it has no assert and
    # reads no __debug__, so every check stays, not only the faults above
    # that run under -O
    assert package_checks("assert") == package_checks("__debug__") == []


def test_python_O_guard_can_fail():
    source = (
        "assert x\n"
        "if __debug__:\n"
        "    check()\n"
        "flag = sys.__debug__\n"
        "raise ContractError('typed')\n"
    )
    assert list(untyped_checks(ast.parse(source))) == [
        (1, "assert"), (2, "__debug__"), (4, "__debug__")
    ]


def exact_divisions(tree):
    """(line, name) of each call of divmod, each NonExactDivisionError built
    or raised, and each mention of divmod_monic, sorted: a division that
    must be exact goes through intpoly's exact_quotient or exact_div, which
    own the remainder test and its message."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Call, ast.Raise)):
            target = node.func if isinstance(node, ast.Call) else node.exc
            called = getattr(target, "id", None) or getattr(target, "attr", None)
            if called in ("divmod", "NonExactDivisionError"):
                found.append((node.lineno, called))
        names = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if "divmod_monic" in names:
            found.append((node.lineno, "divmod_monic"))
    return sorted(found)


def test_only_intpoly_divides_exactly():
    # every quotient that must be exact, and its error, comes from intpoly
    modules = {
        path.name: exact_divisions(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((SRC / "gggr").rglob("*.py"))
    }
    assert {name for _, name in modules.pop("intpoly.py")} == {"divmod", "NonExactDivisionError"}
    assert {module: found for module, found in modules.items() if found} == {}


def test_exact_division_guard_can_fail():
    source = (
        "from .intpoly import divmod_monic\n"
        "quot, rem = divmod(a, b)\n"
        "raise NonExactDivisionError('inexact')\n"
        "raise errors.NonExactDivisionError\n"
        "quot, rem = intpoly.divmod_monic(f, g)\n"
        "def divmod_monic(f, g): pass\n"
        "isinstance(exc, NonExactDivisionError)\n"
        "quot = exact_quotient(f, g, 'f / g')\n"
        "raise ContractError('typed')\n"
    )
    assert exact_divisions(ast.parse(source)) == [
        (1, "divmod_monic"),
        (2, "divmod"),
        (3, "NonExactDivisionError"),
        (4, "NonExactDivisionError"),
        (5, "divmod_monic"),
        (6, "divmod_monic"),
    ]


def rebound_names(tree):
    """(line, name) of each top-level binding of a name that the module has
    bound before, by def, class, assignment or import: the later one
    silently replaces the earlier."""
    seen, found = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [x.id for t in targets for x in ast.walk(t) if isinstance(x, ast.Name)]
        else:
            names = []
        for name in names:
            if name in seen:
                found.append((node.lineno, name))
            seen.add(name)
    return found


def test_package_binds_each_top_level_name_once():
    assert {
        path.name: found
        for path in sorted((SRC / "gggr").rglob("*.py"))
        for found in [rebound_names(ast.parse(path.read_text(encoding="utf-8")))]
        if found
    } == {}


def test_rebound_name_guard_can_fail():
    source = (
        "import os.path\n"
        "from .fields import FiniteField as F\n"
        "CAP = 1\n"
        "def f(): pass\n"
        "class F: pass\n"
        "CAP: int = 2\n"
        "async def f(): pass\n"
        "os, rest = 1, 2\n"
        "if x:\n"
        "    CAP = 3\n"
        "def g(CAP): pass\n"
    )
    assert rebound_names(ast.parse(source)) == [(5, "F"), (6, "CAP"), (7, "f"), (8, "os")]


def test_package_raises_no_bare_arithmetic_or_assertion_error():
    assert package_checks("raise") == []


def test_untyped_check_guard_can_fail():
    source = (
        "assert x\n"
        "raise ArithmeticError('inexact')\n"
        "raise AssertionError\n"
        "raise ContractError('typed')\n"
        "raise ValueError('usage')\n"
    )
    assert list(untyped_checks(ast.parse(source))) == [(1, "assert"), (2, "raise"), (3, "raise")]
