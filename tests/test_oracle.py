"""Brute-force oracle: field tables, matrix algebra, conjugacy classes,
Jordan types, and the induced-character inner products, cross-checked
against Mackey's formula and the symbolic layer."""

import hashlib
import importlib
import itertools
import os
import random
import re
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import gggr.oracle as oracle
from gggr.cli import main
from gggr.errors import CapExceededError, ContractError
from gggr.grouporders import class_size, group_order
from gggr.kawanaka import endo_dim
from gggr.oracle import (
    FiniteField,
    enumerate_group,
    finite_field,
    gelfand_graev_inner,
    gggr_inner,
    is_prime_power,
    kawanaka_datum,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_rank,
    oracle_report,
    regular_rep_inner,
)
from gggr.partitions import Partition, partitions_of

P = Partition

#: Six defining fields whose groups the code digests below cover (31 groups,
#: GL and GU, n = 1..4).  The oracle admits more: every prime power within
#: the enumeration cap whose entries' field has at most 256 elements.
DIGEST_Q = (2, 3, 4, 5, 8, 9)


def test_is_prime_power():
    assert is_prime_power(2) == (2, 1)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(16) == (2, 4)
    assert is_prime_power(1) is None
    assert is_prime_power(6) is None
    assert is_prime_power(12) is None


def test_is_prime_power_lives_in_fields():
    """Only the oracle's fields and its unitary gate read prime powers: no
    symbolic module defines or imports is_prime_power."""
    assert importlib.import_module("gggr.fields").is_prime_power(9) == (3, 2)
    for module in ("partitions", "intpoly", "polyring", "symfunc", "grouporders", "green",
                   "kawanaka"):
        assert not hasattr(importlib.import_module(f"gggr.{module}"), "is_prime_power"), module


#: Every field the oracle builds: F_q0 for GL_n(q0) and F_(q0^2) for GU_n(q0).
AMBIENT_Q = (2, 3, 4, 5, 8, 9, 16, 25, 64, 81)


def poly_rem(a, f, p):
    """a mod a monic f over F_p, coefficients lowest first, padded to deg f."""
    a = list(a)
    while len(a) >= len(f):
        c, shift = a.pop(), len(a) - len(f) + 1
        for i, fc in enumerate(f[:-1]):
            a[shift + i] = (a[shift + i] - c * fc) % p
    return [c % p for c in a] + [0] * (len(f) - 1 - len(a))


def reference_modulus(p, e):
    """The first monic f of degree e over F_p with f(0) != 0, irreducible by
    trial division, whose residue x has multiplicative order p^e - 1."""
    for tail in itertools.product(range(p), repeat=e):
        f = tail + (1,)
        if not tail[0] or any(
            not any(poly_rem(f, g + (1,), p))
            for d in range(1, e // 2 + 1)
            for g in itertools.product(range(p), repeat=d)
        ):
            continue
        one = poly_rem([1], f, p)
        power, order = poly_rem([0, 1], f, p), 1
        while power != one:
            power, order = poly_rem([0] + power, f, p), order + 1
        if order == p**e - 1:
            return f


@pytest.mark.parametrize("q", AMBIENT_Q)
def test_field_modulus_is_primitive(q):
    F = finite_field(q)
    p, e = F.p, F.e
    f = reference_modulus(p, e)
    assert F.modulus == f
    # x, the residue that F's powers are taken of, has order exactly q - 1
    x = p if e > 1 else -f[0] % p
    powers = [1]
    for _ in range(q - 1):
        powers.append(F.mul[powers[-1]][x])
    assert powers[-1] == 1 and len(set(powers[:-1])) == q - 1
    assert F.exp == powers[:-1]
    # the tables are the arithmetic of F_p[x]/(f) on digit vectors
    digits = [[a // p**i % p for i in range(e)] for a in range(q)]
    code = {tuple(d): a for a, d in enumerate(digits)}
    for a, b in itertools.product(range(q), repeat=2):
        prod = [0] * (2 * e - 1)
        for i, j in itertools.product(range(e), repeat=2):
            prod[i + j] += digits[a][i] * digits[b][j]
        assert F.mul[a][b] == code[tuple(poly_rem(prod, f, p))]
        assert F.add[a][b] == code[tuple((c + d) % p for c, d in zip(digits[a], digits[b]))]


def test_field_addition_is_digit_wise_for_every_table_size():
    # built a row at a time as Kronecker sums of rotated digit rows, the table
    # is the digit-by-digit sum mod p for every prime power with byte rows
    for q in filter(is_prime_power, range(2, 257)):
        F = FiniteField(q)
        digits = [F.p**i for i in range(F.e)]
        assert F.add == [[sum((a // d + b // d) % F.p * d for d in digits) for b in range(q)]
                         for a in range(q)], q


def test_field_f4_tables():
    # F_4 built on x^2 + x + 1; elements 0, 1, x=2, x+1=3
    F = finite_field(4)
    assert F.modulus == (1, 1, 1)
    assert F.mul[2][2] == 3  # x * x = x + 1
    assert F.mul[2][3] == 1  # x * (x+1) = x^2 + x = 1
    assert F.add[2][3] == 1
    assert F.inv[2] == 3


def test_field_f9_tables():
    # F_9 built on x^2 + x + 2, the first candidate whose x has order 8 (x^2 + 1
    # is irreducible, but x has order 4 there); x * x = 2x + 1, encoded 1 + 2*3
    # = 7
    F = finite_field(9)
    assert F.modulus == (2, 1, 1)
    assert F.mul[3][3] == 7


def test_field_characteristic_arithmetic():
    F = finite_field(5)
    assert F.add[3][4] == 2
    assert F.mul[3][4] == 2
    assert F.neg[2] == 3
    assert F.inv[2] == 3  # 2 * 3 = 6 = 1 mod 5


def test_frobenius_and_trace():
    for q in AMBIENT_Q:
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
        # the trace from each subfield F_(p^d), the fixed points of the d-th
        # power of Frobenius, is onto the prime field with balanced fibers
        for d in (d for d in range(1, F.e) if F.e % d == 0):
            sub = [a for a in range(q) if F.power(a, F.p**d) == a]
            assert len(sub) == F.p**d
            traces = [F.abs_trace(a, d) for a in sub]
            assert sorted(traces) == sorted(list(range(F.p)) * F.p ** (d - 1))
    # outside the subfield the trace can leave the prime field
    with pytest.raises(ContractError, match="^trace of 2 in F_4 left the prime field: 2$"):
        finite_field(4).abs_trace(2, 1)


def test_non_prime_power_field():
    with pytest.raises(ValueError):
        FiniteField(6)


def test_field_past_a_byte_is_refused():
    # the axioms are checked on rows of bytes, so F_256 is the largest field
    assert FiniteField(256).q == 256
    with pytest.raises(ValueError, match="^F_257 does not fit tables of bytes"):
        FiniteField(257)


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
    for n, eps, q0 in itertools.product((1, 2, 3, 4), (1, -1), DIGEST_Q):
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


#: The groups whose full split each reference split checks.
ORBIT_SPLIT_GROUPS = [(3, 1, 3), (4, 1, 2), (2, 1, 9), (2, -1, 4), (2, -1, 5)]
EVERY_ELEMENT_SPLIT_GROUPS = [(2, 1, 3), (2, 1, 4), (3, 1, 2), (2, -1, 3), (2, -1, 4)]


@pytest.mark.parametrize("n, eps, q0", ORBIT_SPLIT_GROUPS)
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
    assert G.codes.typecode == "q"  # 8 bytes a code, not a list of int objects
    assert list(G.codes) == sorted(set(G.codes))  # distinct, in increasing order
    elements = [decode(c, n, G.field.q) for c in G.codes]
    assert list(G.elements) == elements
    assert [G.encode(g) for g in elements] == list(G.codes)
    # membership is being one of the enumerated codes
    gap = next(a + 1 for a, b in zip(G.codes, G.codes[1:]) if b > a + 1)
    assert all(map(G._member, G.codes))
    assert not any(map(G._member, [0, gap, G.codes[-1] + 1]))
    G.classes()
    assert len(G._class_of) == G.order  # the closure's split reached every code


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


@pytest.mark.parametrize("n, eps, q0, count", [(4, 1, 2, 3), (3, 1, 3, 3), (2, -1, 5, 3)])
def test_generator_counts(monkeypatch, n, eps, q0, count):
    # the report's certificate takes conjugators until the orbits are the
    # unipotent classes, each costing a conjugation of every code split so
    # far; taking them from the end of the order, where matrices are dense,
    # needs few
    conjugators, conjugation = [], oracle.OracleGroup._conjugation

    def counted(G, s, reads):
        conjugators.append(s)
        return conjugation(G, s, reads)

    monkeypatch.setattr(oracle.OracleGroup, "_conjugation", counted)
    assert oracle_report(n, eps, q0)["pass"]
    assert len(conjugators) == count


@pytest.mark.parametrize(
    "n, eps, q0", [(1, 1, 5), (2, 1, 9), (3, 1, 3), (4, 1, 2), (2, -1, 5), (3, -1, 2)]
)
def test_right_multiplication_table_matches_mat_mul(n, eps, q0):
    # the code of g*t is read off blocks of ceil(n/2) rows of the code of g,
    # so odd n gives blocks of unequal size, or off single rows where such a
    # block's table would outgrow |G| (GU3(2))
    G = enumerate_group(n, eps, q0)
    for t in random.Random(n * q0).sample(G.elements, 2):
        products = [G.encode(mat_mul(G.field, g, t)) for g in G.elements]
        assert oracle._read(G._stage(t, False, G.order), G.codes) == products
        transposed = [G.encode(tuple(zip(*mat_mul(G.field, g, t)))) for g in G.elements]
        assert oracle._read(G._stage(t, True, G.order), G.codes) == transposed
    zero = ((0,) * n,) * n  # every product by it is the zero matrix, code 0, no element
    assert set(oracle._read(G._stage(zero, False, G.order), G.codes)) == {0}
    assert 0 not in set(G.codes)


@pytest.mark.parametrize("n, eps, q0", EVERY_ELEMENT_SPLIT_GROUPS)
def test_class_split_matches_conjugation_by_every_element(n, eps, q0):
    G = enumerate_group(n, eps, q0)
    classes, class_of = reference_split(G)
    assert [(c.rep, c.size, c.jordan) for c in G.classes()] == classes
    assert G.class_index() == class_of


@pytest.mark.parametrize(
    "n, eps, q0, reference",
    [(*g, reference_orbit_split) for g in ORBIT_SPLIT_GROUPS]
    + [(*g, reference_split) for g in EVERY_ELEMENT_SPLIT_GROUPS],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_unipotent_split_matches_the_reference_splits(n, eps, q0, reference):
    # seeded with the Gelfand-Graev datum's H, the split finds the unipotent
    # classes of the full split, and it reaches the unipotent elements and no
    # other, each in its class
    G = enumerate_group(n, eps, q0)
    uni = G.unipotent_classes()
    classes, class_of = reference(G)
    assert sorted((c.rep, c.size, c.jordan) for c in uni.values()) == sorted(
        c for c in classes if c[2] is not None
    )
    assert {code: G._classes[i].jordan for code, i in G._class_of.items()} == {
        G.encode(g): classes[i][2] for g, i in class_of.items() if classes[i][2] is not None
    }
    # classes() then splits the whole group afresh, in the order of its codes
    assert [(c.rep, c.size, c.jordan) for c in G.classes()] == classes


@pytest.mark.parametrize(
    "n, eps, q0", [(2, -1, 3), (2, -1, 5), (2, 1, 3), (2, -1, 4), (2, -1, 8), (2, -1, 9)]
)
def test_direct_and_table_conjugation_agree(monkeypatch, n, eps, q0):
    # a conjugation reads each code through its matrix where a table of one
    # row would have more entries than the codes it maps, else by row
    # tables; both give s^-1*h*s for every unipotent h.  The report's split
    # reads q0^(n(n-1)) codes, so GU2 goes through matrices and GL2 by tables
    G = enumerate_group(n, eps, q0)
    G.unipotent_classes()
    F, codes = G.field, sorted(G._class_of)
    assert len(codes) == q0 ** (n * n - n)
    assert (F.q**n > len(codes)) == (eps == -1) and F.q**n <= G.order
    for s in [G.elements[0], G.elements[-1], *random.Random(q0).sample(G.elements, 3)]:
        s_inv = mat_inv(F, s)
        expected = [G.encode(mat_mul(F, mat_mul(F, s_inv, G.decode(h)), s)) for h in codes]
        with monkeypatch.context() as m:
            m.setattr(oracle, "_read", None)  # no table is read
            assert G._conjugation(s, len(codes) if eps == -1 else 0)(codes) == expected
        with monkeypatch.context() as m:
            m.setattr(oracle.OracleGroup, "decode", None)  # no code is decoded
            assert G._conjugation(s, G.order)(codes) == expected


def test_report_builds_each_datum_once(monkeypatch):
    # the certificate's datum for mu = (n) serves the report's check of mu = (n)
    calls, datum = [], oracle.kawanaka_datum

    def counted(G, mu):
        calls.append(mu)
        return datum(G, mu)

    monkeypatch.setattr(oracle, "kawanaka_datum", counted)
    for n, eps, q0 in [(2, -1, 5), (3, 1, 2), (4, 1, 2)]:
        calls.clear()
        assert oracle_report(n, eps, q0)["pass"]
        assert calls == partitions_of(n)


def test_report_conjugates_only_unipotent_codes(monkeypatch):
    # GL4(2) has 20 160 elements, 4096 of them unipotent: the report's split
    # reads each unipotent code once per conjugator, and no other code
    groups, conjugated, conjugation = [], [], oracle.OracleGroup._conjugation

    def enumerate_kept(n, eps, q0):
        groups.append(enumerate_group(n, eps, q0))
        return groups[-1]

    def counted(G, s, reads):
        image = conjugation(G, s, reads)

        def counting(codes):
            conjugated.extend(codes)
            return image(codes)

        return counting

    monkeypatch.setattr(oracle, "enumerate_group", enumerate_kept)
    monkeypatch.setattr(oracle.OracleGroup, "_conjugation", counted)
    assert oracle_report(4, 1, 2)["pass"]
    G = groups[-1]
    assert len(conjugated) <= len(G._conj) * 4096
    assert len(set(conjugated)) == 4096
    assert all(G.jordan_type(G.decode(code)) is not None for code in set(conjugated))


def admitted_groups():
    """Every (n, eps, q0) with q0 in DIGEST_Q that ENUMERATION_CAP admits,
    built from them so that the list cannot drift: 31 groups, GL and GU, n = 1..4.
    |G| grows with n, so n runs until |G| passes the cap."""
    return [
        (n, eps, q0)
        for eps in (1, -1)
        for q0 in DIGEST_Q
        for n in itertools.takewhile(
            lambda n: oracle._group_size(n, eps, q0) <= oracle.ENUMERATION_CAP, itertools.count(1)
        )
    ]


#: SHA-256 of the codes of each admitted group, as 8-byte little-endian
#: integers, recorded from the enumeration that built a set of the span per
#: picked row and a Hermitian table over all of F_q^n per unit vector.  The
#: lines of V/span and the tables over unit vectors must give every code
#: back in the same order.
CODE_DIGESTS = {
    (1, 1, 2): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (2, 1, 2): "fe93b55b5cd9fc752b0052fba6c192952b5b19d16006f334ab5c276ac11d25a2",
    (3, 1, 2): "626b82ca68e1ed9786848acde4d194de1722bff5b23a93eb858947794b1e5759",
    (4, 1, 2): "ccf9f4fbc30a9ec3546a8024ed87c759de7dfa8babfeb6db800bf1c7a5f20c64",
    (1, 1, 3): "0c730b69905c5ef7a4ca5269f72365400bde2dd2c04eaf9bbb3d1c4a265a0131",
    (2, 1, 3): "4053781b4576fe4f95650a19ecdde0bda4459463174e07782b25577988f38be1",
    (3, 1, 3): "bc7804fc42e691d228e751d89a2debe000d2fe867ba4c348d7093f10d3da606b",
    (1, 1, 4): "e2e2033ae7e19d680599d4eb0a1359a2b48ec5baac75066c317fbf85159c54ef",
    (2, 1, 4): "0bf364febe476398045b35ec5d4a927eabb5332740ce28bf2709740f19437e8c",
    (3, 1, 4): "64cdbf83673316f8338074812b1afe07dc76bcfbe454b59834735aad4d057a4f",
    (1, 1, 5): "73e200e2b048c86d4e8c86b86bf62bbda84c7384e34e250b01aa30ab29d234a4",
    (2, 1, 5): "db8cf86efd83440726e63ea6e51261c0640ecd0c865d4f0a80238e8012aaab78",
    (1, 1, 8): "bca8b15e214f1957bbe2ab312dffa6660d09b86731e2dd43d123d7b1b2172b56",
    (2, 1, 8): "2306b70ad775a6acd9b1996cf093c9ba71417caab62638094217320592474428",
    (1, 1, 9): "808ae425ef1615c92cf1d1aa51060f80f18d74e3466639524eff94cdcf8564fa",
    (2, 1, 9): "3571a3726688b89d278d3b9b62a961d183e1809419606830cc403dff0d17d50e",
    (1, -1, 2): "e2e2033ae7e19d680599d4eb0a1359a2b48ec5baac75066c317fbf85159c54ef",
    (2, -1, 2): "1174f73e4018e268ea2857851bb6ff13472db3bcc8267fed8e04b6b559a141a6",
    (3, -1, 2): "3e71003aa32493851c2c43bb6d8945b5eccf8d26806d98b27facc06089cbcc9a",
    (4, -1, 2): "e4f32e5915ade7ca2e6293c3944fc59a81e76e8ac08835eab9b2febad5e1eb40",
    (1, -1, 3): "26e47e8496e1acc744c60261e700d280e159ccdf1b5452ad6441b99cf34f704f",
    (2, -1, 3): "65843b1b822de2e9e4f3290b05ed0ba52e5303856907e0fa888446005b4078c6",
    (3, -1, 3): "9078dc50c4696bf970840863926e4c7921f8033dcc5aa6bb40dd7df20466ec1a",
    (1, -1, 4): "c2812f0012913e1878c7acbc07c5e7346cbf2ed4127813dcc02ed2d8a6fe8ef8",
    (2, -1, 4): "ee616a0f63d8dd05d0a767acb4ac7a22e2e033ac171994c2be18581aa2a653be",
    (1, -1, 5): "5ea6b7fce453617db5a55b0af2aa69ed6a5dd1aad32e28dee36ae2da8765217d",
    (2, -1, 5): "85ea146ebeb22a9920d71b24e498b250fdacf4e4c22437d5443870fcc2019c94",
    (1, -1, 8): "798730a224d26011136d58e75393747045f474a1f016886c2a73ae641e1a8c88",
    (2, -1, 8): "3f0eb7eb8e87bdf1a6ffd21cb6f7706bb9b5e748a51f0aa7edfa4dc3b81435ca",
    (1, -1, 9): "62117f5dc29d011f96d4f0672bb0f99058fb09976fba9f1b708b6e2b8a08ace1",
    (2, -1, 9): "92427de2d74bb96eea448d3a58ff90e1330d5488479425cd9ffcd3a21a6fc5a0",
}


def test_code_digests_cover_the_admitted_groups():
    assert list(CODE_DIGESTS) == admitted_groups()


@pytest.mark.parametrize("n, eps, q0", admitted_groups())
def test_codes_match_their_digest(n, eps, q0):
    codes = array("q", enumerate_group(n, eps, q0).codes)
    if sys.byteorder == "big":
        codes.byteswap()
    assert hashlib.sha256(codes.tobytes()).hexdigest() == CODE_DIGESTS[n, eps, q0]


def test_admitted_groups_are_the_ones_the_cap_admits():
    def admitted(n, eps, q0):
        try:
            return bool(oracle._ambient_size(n, eps, q0))
        except CapExceededError:
            return False

    groups = admitted_groups()
    assert len(groups) == 31 and max(n for n, _, _ in groups) == 4
    assert groups == [(n, eps, q0) for eps in (1, -1) for q0 in DIGEST_Q
                      for n in range(1, 8) if admitted(n, eps, q0)]


@pytest.mark.parametrize("n, eps, q0", admitted_groups())
def test_report_never_runs_the_closure(monkeypatch, n, eps, q0):
    # the report certifies the unipotent split by Jordan types and the
    # unipotent count, or fails; only classes() and class_index() run the
    # closure.  Every admitted group certifies, so the report never needs
    # it.  The unitary gate is lifted, so GU3(2) and the rest run too.
    def no_closure(G):
        raise RuntimeError(f"{G.name}: the closure ran")

    monkeypatch.setattr(oracle.OracleGroup, "_closure", no_closure)
    monkeypatch.setattr(oracle, "check_unitary_oracle", lambda n, q0: None)
    assert oracle_report(n, eps, q0)["pass"]
    with pytest.raises(RuntimeError, match="the closure ran"):
        enumerate_group(n, eps, q0).classes()


def test_certified_split_takes_no_new_class():
    # after the certificate, an element of H must lie in a certified class
    G = enumerate_group(2, 1, 3)
    uni = G.unipotent_classes()
    assert G.unipotent_classes() == uni
    g = ((0, 1), (1, 0))  # order 2, not unipotent in characteristic 3
    message = f"GL2(F3): Whittaker element {g} starts a class outside the certified split"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        oracle._induced_inner(G, {G.encode(g): 0})


def test_seeds_must_be_unipotent_elements():
    G = enumerate_group(2, 1, 3)
    g = ((0, 1), (1, 0))  # order 2, not unipotent in characteristic 3
    message = f"GL2(F3): the class of {g} is not unipotent"
    with pytest.raises(ContractError, match=re.escape(message)):
        G._certify([G.encode(mat_identity(2)), G.encode(g)])
    singular = ((1, 1), (1, 1))
    singular_message = f"GL2(F3): seed {singular} is not in the group"
    with pytest.raises(ContractError, match=re.escape(singular_message)):
        G._certify([G.encode(singular)])


def reference_datum(G, mu):
    """Kawanaka's datum of mu matrix by matrix, as a map h -> k: each 1 + x
    is built row by row, kept for GU when (1 + x)^* J (1 + x) = J, and
    carried into G as P (1 + x) P^-1 (P = 1 for GL), with J and P found by
    the same searches as kawanaka_datum."""
    F, n = G.field, G.n
    add, mul, neg = F.add, F.mul, F.neg
    bar = [F.power(a, G.q0) for a in range(F.q)]
    weights = [k - 1 - 2 * i for k in mu for i in range(k)]
    positions = [(i, j) for i in range(n) for j in range(n) if weights[i] - weights[j] >= 2]
    read = [i for i in range(n - 1) if weights[i] - weights[i + 1] == 2]

    def herm(u, v):  # conjugate-linear in u
        acc = 0
        for a, b in zip(u, v):
            acc = add[acc][mul[bar[a]][b]]
        return acc

    def star(g):
        return tuple(tuple(bar[x] for x in col) for col in zip(*g))

    P = J = mat_identity(n)
    if G.eps == -1:
        delta = next(x for x in range(1, F.q) if add[x][bar[x]] == 0)
        form = [[0] * n for _ in range(n)]
        start = 0
        for k in mu:
            c = 1 if k % 2 else delta
            for i in range(k):
                form[start + i][start + k - 1 - i] = neg[c] if i % 2 else c
            start += k
        J = tuple(map(tuple, form))
        columns = []
        for j in range(n):
            columns.append(next(
                v for v in itertools.product(range(F.q), repeat=n)
                if herm(v, v) == J[j][j]
                and all(herm(u, v) == J[i][j] for i, u in enumerate(columns))
                and mat_rank(F, columns + [v]) == j + 1
            ))
        P = tuple(zip(*columns))
    P_inv = mat_inv(F, P)
    degree = F.e if G.eps == 1 else F.e // 2
    H = {}
    for vals in itertools.product(range(F.q), repeat=len(positions)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in zip(positions, vals):
            rows[i][j] = v
        u = tuple(map(tuple, rows))
        if G.eps == -1 and mat_mul(F, mat_mul(F, star(u), J), u) != J:
            continue
        s = 0
        for i in read:
            s = add[s][u[i][i + 1]]
        H[mat_mul(F, mat_mul(F, P, u), P_inv)] = F.abs_trace(s, degree)
    return H


@pytest.mark.parametrize(
    "n, eps, q0",
    [(2, 1, 3), (3, 1, 2), (4, 1, 2), (2, -1, 3), (3, -1, 2), (2, -1, 4), (3, -1, 3),
     (4, -1, 2), (2, -1, 5), (2, -1, 9)],
)
def test_datum_on_codes_matches_the_matrix_datum(n, eps, q0):
    # the same elements with the same exponents, in the same order
    G = enumerate_group(n, eps, q0)
    for mu in partitions_of(n):
        H, _ = kawanaka_datum(G, mu)
        assert [(G.decode(h), k) for h, k in H.items()] == list(reference_datum(G, mu).items())


@pytest.mark.parametrize("n, q0", [(3, 3), (4, 2)])
def test_datum_makes_no_matrix_per_candidate(monkeypatch, n, q0):
    # GU4(2)'s mu = (4) has 4^6 = 4 096 candidates and mu = (1^4) one: the
    # images are read off the codes, so no datum decodes, multiplies or
    # encodes a matrix
    G, calls = enumerate_group(n, -1, q0), []

    def counted(name, call):
        def counting(*args):
            calls.append(name)
            return call(*args)
        return counting

    for owner, name in [(oracle, "mat_mul"), (oracle.OracleGroup, "decode"),
                        (oracle.OracleGroup, "encode")]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    sizes = [len(kawanaka_datum(G, mu)[0]) for mu in partitions_of(n)]
    assert calls == []
    assert (sizes[0], sizes[-1]) == (q0 ** (n * (n - 1) // 2), 1)  # U and the trivial group


def test_report_makes_no_matrix_per_element(monkeypatch):
    # GL4(2): matrices are multiplied only for the Jordan type of each class
    # split, n products each, and to check each conjugator's inverse, and
    # encoded only for each conjugator's inverse
    groups, calls = [], {"mat_mul": 0, "encode": 0}
    times, encode = oracle.mat_mul, oracle.OracleGroup.encode

    def enumerate_kept(n, eps, q0):
        groups.append(enumerate_group(n, eps, q0))
        return groups[-1]

    def counted_mul(F, A, B):
        calls["mat_mul"] += 1
        return times(F, A, B)

    def counted_encode(G, g):
        calls["encode"] += 1
        return encode(G, g)

    monkeypatch.setattr(oracle, "enumerate_group", enumerate_kept)
    monkeypatch.setattr(oracle, "mat_mul", counted_mul)
    monkeypatch.setattr(oracle.OracleGroup, "encode", counted_encode)
    assert oracle_report(4, 1, 2)["pass"]
    G = groups[-1]
    assert calls["mat_mul"] == 4 * len(G._classes) + len(G._conj)
    assert calls["encode"] == len(G._conj)


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
    "n, eps, q0",
    [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (2, -1, 2), (2, -1, 3), (3, -1, 2),
     (2, -1, 4), (2, -1, 8), (2, -1, 9)],
)
def test_inner_products_match_mackey_double_cosets(n, eps, q0):
    # GU3(2), GU2(4), GU2(8) and GU2(9) are refused by oracle_report's gate,
    # not by the datum; the last two have entries in F_64 and F_81
    G = enumerate_group(n, eps, q0)
    for mu in partitions_of(n):
        H, dim_g1 = kawanaka_datum(G, mu)
        H = {G.decode(h): k for h, k in H.items()}
        expected = endo_dim(mu, eps)(q0) * q0**dim_g1
        assert gggr_inner(G, mu) == (mackey_inner(G, H), dim_g1) == (expected, dim_g1), mu
    assert regular_rep_inner(G) == mackey_inner(G, {mat_identity(n): 0}) == G.order


@pytest.mark.parametrize("n, q0", [(3, 3), (4, 2)])
def test_gggr_inner_matches_endo_dim_on_larger_unitary_groups(n, q0):
    # too large for the Mackey count above; oracle_report's gate refuses them
    G = enumerate_group(n, -1, q0)
    for mu in partitions_of(n):
        inner, dim_g1 = gggr_inner(G, mu)
        assert inner == endo_dim(mu, -1)(q0) * q0**dim_g1, mu


def test_gelfand_graev_inner_frozen():
    assert gelfand_graev_inner(enumerate_group(2, 1, 2)) == 2
    assert gelfand_graev_inner(enumerate_group(2, 1, 3)) == 6
    assert gelfand_graev_inner(enumerate_group(2, -1, 2)) == 6


def test_gelfand_graev_psi_independence():
    # psi scaled by any c in F_p^x is another character of the same kind
    for n, eps, q0 in [(2, 1, 3), (3, 1, 3), (2, 1, 9), (2, -1, 5), (2, -1, 9)]:
        G = enumerate_group(n, eps, q0)
        p = G.field.p
        for mu in partitions_of(n):
            H, _ = kawanaka_datum(G, mu)
            inners = {
                oracle._induced_inner(G, {h: c * k % p for h, k in H.items()})
                for c in range(1, p)
            }
            assert inners == {gggr_inner(G, mu)[0]}, (G.name, mu)
        # the trivial character (c = 0) gives another value, so psi is seen
        H, _ = kawanaka_datum(G, P((n,)))
        assert oracle._induced_inner(G, dict.fromkeys(H, 0)) != gelfand_graev_inner(G)


def test_gu_oracle_needs_prime_field():
    # the datum takes the trace from F_q0 to F_p, so F_4 needs no special case
    G = enumerate_group(2, -1, 4)
    assert gelfand_graev_inner(G) == endo_dim(P((2,)), -1)(4) == 20


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
    with pytest.raises(ValueError, match="q0 must be a prime power"):
        oracle_report(2, -1, 6)


@pytest.mark.parametrize(
    "n, q0, message",
    [
        (2, 2.0, "q0 must be an integer, got 2.0"),
        (2, True, "q0 must be an integer, got True"),
        (2.0, 2, "n must be an integer, got 2.0"),
    ],
)
def test_oracle_report_refuses_arguments_that_are_no_ints(n, q0, message):
    with pytest.raises(ValueError) as info:
        oracle_report(n, 1, q0)
    assert str(info.value) == message


@pytest.mark.parametrize("n, eps", itertools.product((1, 2), (1, -1)))
@pytest.mark.parametrize("q0", [10**18, 10**15 + 37])
def test_huge_q0_is_refused_by_the_cap_at_once(n, eps, q0):
    # the cap comes before the prime-power check: trial division of the
    # prime 10^15 + 37 alone takes seconds
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="exceeds cap"):
        oracle_report(n, eps, q0)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n, eps", itertools.product((1, 2), (1, -1)))
@pytest.mark.parametrize(
    "q0, message",
    [(6, "q0 must be a prime power, got 6"), (1, "q0 must be >= 2, got 1"),
     (0, "q0 must be >= 2, got 0"), (-3, "q0 must be >= 2, got -3")],
)
def test_q0_that_is_no_prime_power_is_refused(n, eps, q0, message):
    with pytest.raises(ValueError) as info:
        oracle_report(n, eps, q0)
    assert str(info.value) == message


def test_gu2_17_is_refused_by_the_field_tables(monkeypatch, capsys):
    # 17 is a prime and |GU2(17)| = 88 128 is within the cap, but the
    # entries would live in F_289, past FiniteField's 256
    def no_enumeration(F, n, eps, q0):
        raise RuntimeError(f"enumerated ({n}, {eps}, {q0})")

    monkeypatch.setattr(oracle, "_element_codes", no_enumeration)
    assert oracle._ambient_size(2, -1, 17) == 289
    message = "F_289 does not fit tables of bytes: q must be at most 256"
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_report(2, -1, 17)
    assert main(["oracle", "--n", "2", "--q", "17", "--eps", "-1"]) == 2
    assert message in capsys.readouterr().err


#: The GL2 and GU2 that the enumeration cap, the field tables and the
#: unitary gate admit past DIGEST_Q.
WIDER_GROUPS = [(2, 1, q0) for q0 in (7, 11, 13, 16, 17, 19)] + [(2, -1, q0) for q0 in (7, 11, 13)]


@pytest.mark.parametrize("n, eps, q0", WIDER_GROUPS)
def test_report_passes_on_wider_fields(n, eps, q0):
    assert oracle_report(n, eps, q0)["pass"]


def interpolate(points):
    """The coefficients, lowest first and exact, of the polynomial of degree
    below len(points) through ``points`` (Lagrange), with no trailing zeros."""
    out = [Fraction(0)] * len(points)
    for i, (x, y) in enumerate(points):
        basis, scale = [Fraction(1)], Fraction(y)
        for j, (xj, _) in enumerate(points):
            if j != i:  # basis times (q - xj)
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                scale /= x - xj
        out = [c + scale * b for c, b in zip(out, basis)]
    while out and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("eps, fit, sixth", [(1, (2, 3, 4, 5, 7), 8), (-1, (2, 3, 5, 7, 11), 13)])
def test_brute_force_alone_pins_every_endo_dim_for_n_2(eps, fit, sixth):
    # dim g_1 = 0 for both mu |- 2, so the brute-force actual of
    # gelfand_graev_inner (mu = (2)) and regular_rep_inner (mu = (1, 1)) is
    # endo_dim(q0) itself; endo_dim has degree at most 4, so five points pin it
    actual = {q0: {c["check"]: c["actual"] for c in oracle_report(2, eps, q0)["checks"]}
              for q0 in fit + (sixth,)}
    for mu, check in [((2,), "gelfand_graev_inner"), ((1, 1), "regular_rep_inner")]:
        coeffs = interpolate([(q0, actual[q0][check]) for q0 in fit])
        assert tuple(coeffs) == endo_dim(P(mu), eps).coeffs, (mu, coeffs)
        assert sum(c * sixth**k for k, c in enumerate(coeffs)) == actual[sixth][check], mu


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


def test_oracle_report_has_one_check_per_mu():
    # GL4(2): the weights of (2, 1, 1) are 1, -1, 0, 0, so dim g_1 = 4; the
    # other weights differ by even numbers only
    rep = oracle_report(4, 1, 2)
    assert rep["pass"]
    inner = [c for c in rep["checks"] if "inner" in c["check"]]
    assert [c["check"] for c in inner] == [
        "gelfand_graev_inner", "gggr_inner_3_1", "gggr_inner_2_2", "gggr_inner_2_1_1",
        "regular_rep_inner",
    ]
    G = enumerate_group(4, 1, 2)
    dims = [kawanaka_datum(G, mu)[1] for mu in partitions_of(4)]
    assert dims == [0, 0, 0, 4, 0]
    for c, mu, dim_g1 in zip(inner, partitions_of(4), dims):
        assert c["expected"] == endo_dim(mu, 1)(2) * 2**dim_g1 == c["actual"], mu


def test_package_imports_the_oracle_on_first_use():
    # `import gggr` leaves the oracle module unloaded; reading one of its names
    # through the package loads it
    code = (
        "import sys, gggr\n"
        "print('gggr.oracle' in sys.modules)\n"
        "print(gggr.oracle_report is sys.modules['gggr.oracle'].oracle_report)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.split() == ["False", "True"], done.stderr
    import gggr

    assert set(gggr._ORACLE) <= set(gggr.__all__)
    assert all(getattr(gggr, name) is getattr(oracle, name) for name in gggr._ORACLE)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gggr.no_such_name
