"""Brute-force oracle: field tables, matrix algebra, conjugacy classes,
Jordan types, and the induced-character inner products, cross-checked
against Mackey's formula and the symbolic layer."""

import itertools
import random
import re

import pytest

import gggr.oracle as oracle
from gggr.cli import main
from gggr.errors import CapExceededError
from gggr.grouporders import class_size, group_order
from gggr.kawanaka import endo_dim
from gggr.oracle import (
    FiniteField,
    enumerate_group,
    finite_field,
    gelfand_graev_inner,
    is_prime_power,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_rank,
    oracle_report,
    regular_rep_inner,
    whittaker_data,
)
from gggr.partitions import Partition

P = Partition


def test_is_prime_power():
    assert is_prime_power(2) == (2, 1)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(16) == (2, 4)
    assert is_prime_power(1) is None
    assert is_prime_power(6) is None
    assert is_prime_power(12) is None


def test_field_f4_tables():
    # F_4 built on x^2 + x + 1; elements 0, 1, x=2, x+1=3
    F = finite_field(4)
    assert F.modulus == (1, 1, 1)
    assert F.mul[2][2] == 3  # x * x = x + 1
    assert F.mul[2][3] == 1  # x * (x+1) = x^2 + x = 1
    assert F.add[2][3] == 1
    assert F.inv[2] == 3


def test_field_f9_tables():
    # F_9 built on x^2 + 1; x * x = -1 = 2
    F = finite_field(9)
    assert F.modulus == (1, 0, 1)
    assert F.mul[3][3] == 2


def test_field_characteristic_arithmetic():
    F = finite_field(5)
    assert F.add[3][4] == 2
    assert F.mul[3][4] == 2
    assert F.neg[2] == 3
    assert F.inv[2] == 3  # 2 * 3 = 6 = 1 mod 5


def test_frobenius_and_trace():
    for q in (2, 3, 4, 5, 8, 9):
        F = finite_field(q)
        # Frobenius fixes exactly the prime field
        fixed = [a for a in range(q) if F.frobenius(a) == a]
        assert fixed == list(range(F.p))
        # absolute trace is onto the prime field, balanced fibers
        fibers = {}
        for a in range(q):
            fibers.setdefault(F.abs_trace(a), 0)
            fibers[F.abs_trace(a)] += 1
        assert set(fibers) == set(range(F.p))
        assert all(count == q // F.p for count in fibers.values())


def test_non_prime_power_field():
    with pytest.raises(ValueError):
        FiniteField(6)


def test_matrix_inverse_round_trip():
    F = finite_field(5)
    rng = random.Random(11)
    eye = mat_identity(3)
    found = 0
    while found < 25:
        g = tuple(
            tuple(rng.randrange(5) for _ in range(3)) for _ in range(3)
        )
        inv = mat_inv(F, g)
        if inv is None:
            assert mat_rank(F, g) < 3
            continue
        found += 1
        assert mat_mul(F, g, inv) == eye
        assert mat_mul(F, inv, g) == eye


def test_gl2_f2_is_s3():
    G = enumerate_group(2, 1, 2)
    assert G.order == 6
    classes = G.classes()
    assert sorted(c.size for c in classes) == [1, 2, 3]
    uni = G.unipotent_classes()
    assert set(uni) == {P((2,)), P((1, 1))}
    assert uni[P((1, 1))].size == 1
    assert uni[P((2,))].size == 3


def test_gu2_f2():
    G = enumerate_group(2, -1, 2)
    assert G.order == 18
    assert group_order(2, -1)(2) == 18
    uni = G.unipotent_classes()
    assert uni[P((2,))].size == class_size(P((2,)), -1)(2)


def test_jordan_types_gl3():
    G = enumerate_group(3, 1, 2)
    uni = G.unipotent_classes()
    assert set(uni) == {P((3,)), P((2, 1)), P((1, 1, 1))}
    assert uni[P((2, 1))].size == 21
    assert uni[P((3,))].size == 42
    # non-unipotent elements have no Jordan type
    order3 = next(c for c in G.classes() if c.size == 56)
    assert order3.jordan is None


def test_class_sizes_sum_to_group_order():
    for (n, eps, q0) in [(2, 1, 3), (2, -1, 3)]:
        G = enumerate_group(n, eps, q0)
        assert sum(c.size for c in G.classes()) == G.order


def test_enumeration_caps():
    assert oracle._ambient_size(3, 1, 4) == 4  # |GL3(4)| = 181 440 is admitted
    with pytest.raises(CapExceededError):
        enumerate_group(3, -1, 4)  # |GU3(4)| = 312 000 > 2 * 10^5
    with pytest.raises(CapExceededError):
        enumerate_group(4, 1, 9)
    with pytest.raises(ValueError):
        enumerate_group(2, 1, 6)
    with pytest.raises(ValueError):
        enumerate_group(0, 1, 2)


def test_group_size_matches_order_polynomial():
    for n, eps, q0 in itertools.product((1, 2, 3, 4), (1, -1), oracle.SUPPORTED_Q):
        assert oracle._group_size(n, eps, q0) == group_order(n, eps)(q0), (n, eps, q0)


def test_group_over_the_cap_fails_before_enumerating(monkeypatch, capsys):
    def no_enumeration(n, eps, q0):
        raise RuntimeError(f"enumerated ({n}, {eps}, {q0})")

    monkeypatch.setattr(oracle, "enumerate_group", no_enumeration)
    message = f"enumerating 1488000 elements of GL3(F5) exceeds cap {oracle.ENUMERATION_CAP}"
    with pytest.raises(CapExceededError, match=re.escape(message)):
        oracle_report(3, 1, 5)
    assert main(["oracle", "--n", "3", "--q", "5"]) == 3
    assert capsys.readouterr() == ("", f"gggr: cap exceeded: {message}\n")


def reference_ambient_scan(n, eps, q0):
    """Every matrix of the ambient space in lexicographic order, kept if it
    is invertible (GL) or satisfies g*g = 1 (GU)."""
    ambient_q = q0 if eps == 1 else q0 * q0
    F = finite_field(ambient_q)
    identity = mat_identity(n)
    out = []
    for flat in itertools.product(range(ambient_q), repeat=n * n):
        g = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if eps == 1:
            keep = mat_rank(F, g) == n
        else:
            g_star = tuple(tuple(F.power(g[j][i], q0) for j in range(n)) for i in range(n))
            keep = mat_mul(F, g_star, g) == identity
        if keep:
            out.append(g)
    return out


def reference_split(G):
    """Classes as (rep, size, Jordan type) and the class of each element:
    the class of the first unclassified element is its set of conjugates
    x g x^-1 over every element x."""
    F = G.field
    inverses = {g: mat_inv(F, g) for g in G.elements}
    class_of, classes = {}, []
    for g in G.elements:
        if g in class_of:
            continue
        orbit = {mat_mul(F, mat_mul(F, x, g), inverses[x]) for x in G.elements}
        for m in orbit:
            class_of[m] = len(classes)
        classes.append((g, len(orbit), G.jordan_type(g)))
    return classes, class_of


def reference_orbit_split(G):
    """Classes as (rep, size, Jordan type) and the class of each element:
    the class of the first unclassified element is its breadth-first orbit
    under h -> s^-1*h*s, conjugating matrices through a row table v -> v*s
    and a column table c -> s^-1*c for each generator s.  The generators are
    found by recomputing the closure from the identity for each new one."""
    F, n, elements = G.field, G.n, G.elements
    index = {g: i for i, g in enumerate(elements)}
    vectors = list(itertools.product(range(F.q), repeat=n))
    tables = []
    reached = bytearray(len(elements))
    for i, s in enumerate(elements):
        if reached[i]:
            continue
        s_inv = mat_inv(F, s)
        # row 0 of (v; ...; v)*s is v*s; column 0 of s^-1*(c ... c) is s^-1*c
        right = {v: mat_mul(F, (v,) * n, s)[0] for v in vectors}
        left = {c: next(zip(*mat_mul(F, s_inv, tuple(zip(*(c,) * n))))) for c in vectors}
        tables.append((right, left))
        reached = bytearray(len(elements))
        reached[index[mat_identity(n)]] = 1
        frontier = [mat_identity(n)]
        for g in frontier:
            for times_s, _ in tables:
                h = tuple(map(times_s.__getitem__, g))
                if not reached[index[h]]:
                    reached[index[h]] = 1
                    frontier.append(h)
    class_of, classes = {}, []
    for g in elements:
        if g in class_of:
            continue
        class_of[g] = len(classes)
        orbit = [g]
        for h in orbit:
            for right, left in tables:
                # columns of h through s^-1, then rows of s^-1*h through s
                c = tuple(map(right.__getitem__, zip(*map(left.__getitem__, zip(*h)))))
                if c not in class_of:
                    class_of[c] = len(classes)
                    orbit.append(c)
        classes.append((g, len(orbit), G.jordan_type(g)))
    return classes, class_of


@pytest.mark.parametrize(
    "n, eps, q0", [(3, 1, 3), (4, 1, 2), (2, 1, 9), (2, -1, 4), (2, -1, 5)]
)
def test_class_split_matches_orbits_of_matrix_conjugation(n, eps, q0):
    G = enumerate_group(n, eps, q0)
    classes, class_of = reference_orbit_split(G)
    assert [(c.rep, c.size, c.jordan) for c in G.classes()] == classes
    assert G.class_index() == class_of


@pytest.mark.parametrize(
    "n, eps, q0",
    [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 8), (2, 1, 9), (3, 1, 2),
     (3, 1, 3), (2, -1, 2), (2, -1, 3), (2, -1, 4)],
)
def test_enumeration_matches_ambient_scan(n, eps, q0):
    assert list(enumerate_group(n, eps, q0).elements) == reference_ambient_scan(n, eps, q0)


def decode(code, n, q):
    """The matrix whose entries, first row first, are the n*n digits of
    ``code`` base q, most significant first."""
    digits = []
    for _ in range(n * n):
        code, x = divmod(code, q)
        digits.append(x)
    digits.reverse()
    return tuple(tuple(digits[i * n : (i + 1) * n]) for i in range(n))


@pytest.mark.parametrize("n, eps, q0", [(3, 1, 3), (2, -1, 5), (2, 1, 9)])
def test_codes_are_distinct_and_decode_to_their_elements(n, eps, q0):
    G = enumerate_group(n, eps, q0)
    assert G.codes == sorted(set(G.codes))  # distinct, in increasing order
    elements = [decode(c, n, G.field.q) for c in G.codes]
    assert list(G.elements) == elements
    assert [G.encode(g) for g in elements] == G.codes
    G.classes()
    assert G._index == {c: e for e, c in enumerate(G.codes)}


def test_gu3_3_rows_enumerate_unitary_matrices():
    # GU is enumerated by rows (g*g^* = 1); the ambient scan checks g^**g = 1,
    # but scanning 9^9 matrices is out of reach, so a sample checks both
    G = enumerate_group(3, -1, 3)
    assert G.order == 24192
    assert all(a < b for a, b in zip(G.codes, G.codes[1:]))
    F, identity = G.field, mat_identity(3)
    for code in random.Random(3).sample(G.codes, 200):
        g = decode(code, 3, F.q)
        g_star = tuple(tuple(F.power(g[j][i], 3) for j in range(3)) for i in range(3))
        assert mat_mul(F, g, g_star) == identity
        assert mat_mul(F, g_star, g) == identity


@pytest.mark.parametrize("n, eps, q0, count", [(4, 1, 2, 3), (3, 1, 3, 3), (2, -1, 5, 4)])
def test_generator_counts(n, eps, q0, count):
    # each generator costs a table of |G| products and an orbit pass; taking
    # them from the end of the order, where matrices are dense, needs few
    G = enumerate_group(n, eps, q0)
    G.classes()
    assert len(G._generator_tables()) == count


@pytest.mark.parametrize(
    "n, eps, q0", [(1, 1, 5), (2, 1, 9), (3, 1, 3), (4, 1, 2), (2, -1, 5), (3, -1, 2)]
)
def test_right_multiplication_table_matches_mat_mul(n, eps, q0):
    # the code of g*t is read off the two halves of the code of g, the first
    # ceil(n/2) rows and the rest, so odd n gives halves of unequal size
    G = enumerate_group(n, eps, q0)
    G.classes()
    index = {g: e for e, g in enumerate(G.elements)}
    for t in random.Random(n * q0).sample(G.elements, 2):
        assert list(G._times(t)) == [index[mat_mul(G.field, g, t)] for g in G.elements]
    zero = ((0,) * n,) * n  # no product by it is an element
    assert set(G._times(zero)) == {-1}


@pytest.mark.parametrize(
    "n, eps, q0", [(2, 1, 3), (2, 1, 4), (3, 1, 2), (2, -1, 3), (2, -1, 4)]
)
def test_class_split_matches_conjugation_by_every_element(n, eps, q0):
    G = enumerate_group(n, eps, q0)
    classes, class_of = reference_split(G)
    assert [(c.rep, c.size, c.jordan) for c in G.classes()] == classes
    assert G.class_index() == class_of


def mackey_inner(G, H):
    """<Ind_H^G psi, Ind_H^G psi> by Mackey's formula, with H a map
    h -> k for psi(h) = zeta_p^k: the number of double cosets HgH on which
    psi(x) = psi(g^-1*x*g) for every x in H intersect g*H*g^-1.  No class
    split is used."""
    F = G.field
    seen, count = set(), 0
    for g in G.elements:
        if g in seen:
            continue
        seen |= {mat_mul(F, mat_mul(F, a, g), b) for a in H for b in H}
        g_inv = mat_inv(F, g)
        conjugates = ((x, mat_mul(F, mat_mul(F, g_inv, x), g)) for x in H)
        count += all(H[x] == H[y] for x, y in conjugates if y in H)
    return count


@pytest.mark.parametrize(
    "n, eps, q0", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (2, -1, 2), (2, -1, 3)]
)
def test_inner_products_match_mackey_double_cosets(n, eps, q0):
    G = enumerate_group(n, eps, q0)
    for selector in range(1, G.field.p):
        expected = mackey_inner(G, whittaker_data(G, selector))
        assert gelfand_graev_inner(G, selector) == expected, selector
    assert regular_rep_inner(G) == mackey_inner(G, {mat_identity(n): 0}) == G.order


def test_gelfand_graev_inner_frozen():
    assert gelfand_graev_inner(enumerate_group(2, 1, 2)) == 2
    assert gelfand_graev_inner(enumerate_group(2, 1, 3)) == 6
    assert gelfand_graev_inner(enumerate_group(2, -1, 2)) == 6


def test_gelfand_graev_psi_independence():
    G = enumerate_group(2, 1, 3)
    assert gelfand_graev_inner(G, 1) == gelfand_graev_inner(G, 2)
    with pytest.raises(ValueError):
        gelfand_graev_inner(G, 3)  # trivial character selector


def test_gu_oracle_needs_prime_field():
    G = enumerate_group(2, -1, 4)
    with pytest.raises(CapExceededError):
        gelfand_graev_inner(G)


def test_unsupported_unitary_oracle_fails_before_enumerating(monkeypatch, capsys):
    def no_enumeration(n, eps, q0):
        raise RuntimeError(f"enumerated ({n}, {eps}, {q0})")

    monkeypatch.setattr(oracle, "enumerate_group", no_enumeration)
    with pytest.raises(CapExceededError, match="only supports n = 2"):
        oracle_report(3, -1, 2)
    with pytest.raises(CapExceededError, match="needs a prime defining field"):
        oracle_report(2, -1, 4)
    assert main(["oracle", "--n", "3", "--q", "2", "--eps", "-1"]) == 3
    assert "only supports n = 2" in capsys.readouterr().err
    # supported configurations, and invalid ones, still go the usual way
    with pytest.raises(RuntimeError, match="enumerated"):
        oracle_report(2, -1, 3)
    with pytest.raises(ValueError, match="q0 must be one of"):
        oracle_report(2, -1, 6)


def test_regular_rep_inner():
    G = enumerate_group(2, 1, 3)
    assert regular_rep_inner(G) == 48 == G.order


def test_oracle_report_matches_symbolic():
    rep = oracle_report(2, 1, 3)
    assert rep["pass"]
    by_name = {c["check"]: c for c in rep["checks"]}
    assert by_name["group_order"]["expected"] == group_order(2, 1)(3)
    assert by_name["gelfand_graev_inner"]["expected"] == endo_dim(P((2,)), 1)(3)
    assert by_name["regular_rep_inner"]["expected"] == endo_dim(P((1, 1)), 1)(3)
    assert by_name["unipotent_count"]["actual"] == 9
