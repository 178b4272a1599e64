"""Symmetric-function layer: Murnaghan-Nakayama characters, charge/
Kostka-Foulkes, the X transition polynomials, and agreement between the two
independent routes (character sum vs raw Hall-Littlewood expansion)."""

import hashlib
import math
from functools import reduce

import pytest

import gggr.symfunc as symfunc
from gggr.errors import CapExceededError
from gggr.intpoly import trim
from gggr.partitions import (
    Partition,
    conjugate,
    multiplicities,
    n_stat,
    partitions_of,
    weyl_centralizer_order,
)
from gggr.polyring import RationalPoly
from gggr.symfunc import (
    HL_CAP,
    hall_littlewood_expand,
    kostka_foulkes,
    mn_character,
    x_poly,
)
from test_intpoly import add, schoolbook

P = Partition


def T(*coeffs):
    return RationalPoly(coeffs, "t")


# -- characters of S_n -------------------------------------------------------

# Fully standard small tables, rows mu / columns rho in descending lex order.
S3_TABLE = {
    ((3,), (3,)): 1, ((3,), (2, 1)): 1, ((3,), (1, 1, 1)): 1,
    ((2, 1), (3,)): -1, ((2, 1), (2, 1)): 0, ((2, 1), (1, 1, 1)): 2,
    ((1, 1, 1), (3,)): 1, ((1, 1, 1), (2, 1)): -1, ((1, 1, 1), (1, 1, 1)): 1,
}


def test_s3_character_table():
    for (mu, rho), val in S3_TABLE.items():
        assert mn_character(P(mu), P(rho)) == val


def test_s4_spot_values():
    assert mn_character(P((2, 2)), P((2, 2))) == 2
    assert mn_character(P((2, 2)), P((4,))) == 0
    assert mn_character(P((3, 1)), P((2, 1, 1))) == 1
    assert mn_character(P((3, 1)), P((4,))) == -1
    assert mn_character(P((2, 1, 1)), P((2, 2))) == -1


def hook_length_dimension(mu):
    cols = conjugate(mu)
    dim = math.factorial(sum(mu))
    for i, row in enumerate(mu):
        for j in range(row):
            dim //= row - j + cols[j] - i - 1
    return dim


def test_dimension_is_hook_length_formula():
    """chi^mu at the identity equals n! / product of hooks."""
    for n in range(1, 8):
        e = P((1,) * n)
        for mu in partitions_of(n):
            assert mn_character(mu, e) == hook_length_dimension(mu)


def test_trivial_and_sign_characters():
    for n in range(1, 8):
        for rho in partitions_of(n):
            assert mn_character(P((n,)), rho) == 1
            sign = (-1) ** (n - len(rho))
            assert mn_character(P((1,) * n), rho) == sign


def test_row_orthogonality():
    # sum_rho chi^mu(rho) chi^nu(rho) / z_rho = delta_(mu, nu), times n!
    for n in range(1, 8):
        parts = partitions_of(n)
        weights = [math.factorial(n) // weyl_centralizer_order(rho) for rho in parts]
        for mu in parts:
            for nu in parts:
                total = sum(
                    w * mn_character(mu, rho) * mn_character(nu, rho)
                    for w, rho in zip(weights, parts)
                )
                assert total == (math.factorial(n) if mu == nu else 0), (mu, nu)


def test_column_sums_of_squares():
    # sum_mu chi^mu(rho)^2 = |W_rho| (column orthogonality at rho = pi)
    for n in range(1, 8):
        for rho in partitions_of(n):
            total = sum(mn_character(mu, rho) ** 2 for mu in partitions_of(n))
            assert total == weyl_centralizer_order(rho)


# -- tableaux, charge, Kostka-Foulkes ----------------------------------------


def reference_fillings(shape, content):
    """The semistandard tableaux of the given shape and content, built cell
    by cell, row by row: each cell takes every letter that is at least its
    left neighbour, above its upper neighbour, and not used up."""
    remaining = list(content)
    rows = [[] for _ in shape]

    def fill(r, c):
        if r == len(shape):
            yield tuple(tuple(row) for row in rows)
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, rows[r - 1][c] + 1)
        for letter in range(lo, len(remaining) + 1):
            if remaining[letter - 1] == 0:
                continue
            remaining[letter - 1] -= 1
            rows[r].append(letter)
            yield from fill(nr, nc)
            rows[r].pop()
            remaining[letter - 1] += 1

    if shape.n == content.n:
        yield from fill(0, 0)


def reading_word(tableau):
    """Rows read left to right, bottom row first."""
    return tuple(letter for row in reversed(tableau) for letter in row)


def reference_charge(word):
    """Charge by peeling standard subwords off the word itself, one at a
    time: the rightmost 1, then each next letter by a cyclic leftward scan."""
    w = list(word)
    total = 0
    while w:
        top = max(w)
        chosen = [len(w) - 1 - w[::-1].index(1)]
        for letter in range(2, top + 1):
            cur = chosen[-1]
            nxt = next((k for k in range(cur - 1, -1, -1) if w[k] == letter), None)
            if nxt is None:
                nxt = next(k for k in range(len(w) - 1, cur, -1) if w[k] == letter)
            chosen.append(nxt)
        index = 0
        for prev, k in zip(chosen, chosen[1:]):
            index += k > prev
            total += index
        for k in sorted(chosen, reverse=True):
            w.pop(k)
    return total


def test_ssyt_counts_are_kostka_numbers():
    # classical Kostka numbers for n = 4
    assert len(list(reference_fillings(P((2, 2)), P((2, 1, 1))))) == 1
    assert len(list(reference_fillings(P((2, 2)), P((1, 1, 1, 1))))) == 2
    assert len(list(reference_fillings(P((3, 1)), P((1, 1, 1, 1))))) == 3
    # shape does not dominate content -> no fillings
    assert len(list(reference_fillings(P((2, 1, 1)), P((2, 2))))) == 0
    assert len(list(reference_fillings(P((2, 2)), P((3, 1))))) == 0


def test_ssyt_rows_weak_columns_strict():
    tableaux = list(reference_fillings(P((3, 2)), P((2, 2, 1))))
    assert len(tableaux) == 2
    for tab in tableaux:
        for row in tab:
            assert all(a <= b for a, b in zip(row, row[1:]))
        for i in range(1, len(tab)):
            assert all(a > b for a, b in zip(tab[i], tab[i - 1]))


def test_reading_word_and_charge():
    # single-row tableau of weight (n): word 1..1, charge 0
    assert reference_charge((1, 1, 1)) == 0
    # standard words on {1,2,3}
    assert reference_charge((3, 2, 1)) == 0
    assert reference_charge((1, 2, 3)) == 3
    assert reference_charge((2, 1, 3)) == 1
    tab = ((1, 1), (2,))
    assert reading_word(tab) == (2, 1, 1)


def test_charge_distribution_is_t_factorial():
    # sum of t^charge over all words of content (1,..,1) is [n]_t!
    import itertools

    for n in range(1, 6):
        counts = {}
        for w in itertools.permutations(range(1, n + 1)):
            c = reference_charge(w)
            counts[c] = counts.get(c, 0) + 1
        factorial = reduce(schoolbook, ((1,) * k for k in range(1, n + 1)), (1,))
        assert counts == dict(enumerate(factorial))


def test_kostka_foulkes_basics():
    for n in range(1, 7):
        for la in partitions_of(n):
            # K_{la,la} = 1 and K_{(n),la} = t^{n(la)}
            assert kostka_foulkes(la, la) == T(1)
            assert kostka_foulkes(P((n,)), la) == T(*(0,) * n_stat(la), 1)


def test_kostka_foulkes_refuses_partitions_of_another_size():
    # once 0, as if (2) were a shape no tableau of content (1) reaches
    with pytest.raises(ValueError) as info:
        kostka_foulkes(P((2,)), P((1,)))
    assert str(info.value) == "|mu| = 2 but |la| = 1"


def test_kostka_foulkes_frozen():
    assert kostka_foulkes(P((2, 1)), P((1, 1, 1))) == T(0, 1, 1)
    assert kostka_foulkes(P((2, 2)), P((2, 1, 1))) == T(0, 1)
    assert kostka_foulkes(P((3, 1)), P((2, 1, 1))) == T(0, 1, 1)
    assert kostka_foulkes(P((2, 2)), P((1, 1, 1, 1))) == T(0, 0, 1, 0, 1)
    # the two entries that distinguish charge conventions at n = 5
    assert kostka_foulkes(P((4, 1)), P((2, 2, 1))) == T(0, 0, 1, 1)
    assert kostka_foulkes(P((3, 1, 1)), P((2, 2, 1))) == T(0, 1)


def test_kostka_foulkes_at_one_counts_tableaux():
    """K_{mu,la}(t), counted by the strip walk, sums t^charge over the
    tableaux of the cell-by-cell enumerator by the reference charge."""
    for n in range(1, 7):
        for mu in partitions_of(n):
            for la in partitions_of(n):
                counts = [0] * (n_stat(la) + 1)
                for tab in reference_fillings(mu, la):
                    counts[reference_charge(reading_word(tab))] += 1
                assert kostka_foulkes(mu, la) == T(*counts), (mu, la)


def dominates(mu, la):
    """mu >= la in dominance order: every partial sum of mu is at least
    that of la."""
    mu, la = list(mu) + [0] * len(la), list(la) + [0] * len(mu)
    return all(sum(mu[: k + 1]) >= sum(la[: k + 1]) for k in range(len(mu)))


def test_kostka_foulkes_column_support():
    """One walk over the tableaux of content la fills in K_{mu,la} for every
    shape mu it reaches: exactly the mu that dominate la, with K_{la,la} = 1."""
    for n in range(9):
        for la in partitions_of(n):
            column = symfunc._kostka_foulkes(tuple(la))
            assert set(column) == {tuple(mu) for mu in partitions_of(n) if dominates(mu, la)}
            assert all(column.values()), la
            assert column[tuple(la)] == (1,)


#: sha256 of repr(x_matrix(n)), computed with the cell-by-cell enumerator
#: and the reference charge above.
X_MATRIX_SHA256 = {
    8: "a556f6f1d128cd07a74deaebacbbb1f2a35df16c3dae24740f7d7b217280738b",
    9: "e02133def5c07c4fce5d0c20e28990b459f00570e7507ed249ca439c2ae8d6c2",
    10: "4d136502059d5f5e42eac7e9c7efd7f9aac0b55913e6aeb979ffc04ee99ec844",
}


X_ROUTES = {
    "characters": symfunc.x_matrix,
    "hall_littlewood": symfunc._hl_factor,
}


@pytest.mark.parametrize(
    "n, route",
    # the character route keeps the ids [8], [9], [10] it had alone
    [pytest.param(n, "characters", id=str(n)) for n in (8, 9, 10)]
    + [pytest.param(n, "hall_littlewood", id=f"{n}-hall_littlewood") for n in (8, 9, 10)],
)
def test_x_matrix_digest(n, route):
    """Both routes give the same X, byte for byte.  X(10), the largest table
    that ``verify --big`` reads, takes ~0.3 s by characters and charge and
    ~0.1 s by horizontal strips and one triangular solve."""
    digest = hashlib.sha256(repr(X_ROUTES[route](n)).encode()).hexdigest()
    assert digest == X_MATRIX_SHA256[n]


# -- X polynomials and the Hall-Littlewood cross-check ------------------------


def test_x_poly_monic_of_degree_nstat():
    for n in range(1, 6):
        for rho in partitions_of(n):
            for la in partitions_of(n):
                f = x_poly(rho, la)
                assert f.degree == n_stat(la)
                assert f.is_monic()


def test_x_poly_at_one_multinomial():
    # p_{(1^n)} = (x_1 + x_2 + ...)^n, whose monomial coefficient at la is the
    # multinomial n! / prod(la_i!); at t = 1 that is X_{(1^n)}^la(1).
    for n in range(1, 6):
        e = P((1,) * n)
        for la in partitions_of(n):
            val = x_poly(e, la)(1)
            multinomial = math.factorial(n)
            for part in la:
                multinomial //= math.factorial(part)
            assert val == multinomial


def test_hall_littlewood_against_x_poly():
    """The dual route: expand p_rho in Hall-Littlewood P's by horizontal
    strips and one triangular solve, and compare every coefficient with
    x_poly, from n = 0, where p_() = P_() = 1."""
    for n in range(8):
        for rho in partitions_of(n):
            coords = hall_littlewood_expand(rho)
            assert list(coords) == partitions_of(n)
            for la, coeff in coords.items():
                assert coeff == x_poly(rho, la), (rho, la)


def test_hall_littlewood_cap():
    assert hall_littlewood_expand(P((HL_CAP,)))
    with pytest.raises(CapExceededError):
        hall_littlewood_expand(P((HL_CAP + 1,)))


# A test-only copy of the n-variable symmetrization route that
# ``hall_littlewood_expand`` replaced.  Multivariate polynomials in x_1..x_n
# are dicts {exponent tuple: coefficient tuple in t}, with schoolbook
# products; P_la is computed from
#
#     P_la = (1/v_la(t)) * sum_w sign(w) w(x^la prod_{i<j} (x_i - t x_j)) / D
#
# (D the Vandermonde determinant), with the alternating sum divided by D as
# a composition of divided differences f -> (f - swap_i f)/(x_i - x_{i+1})
# along a reduced word of the longest permutation.


def _neg(c):
    return tuple(-a for a in c)


def _madd(f, expo, c):
    s = add(f[expo], c) if expo in f else c
    if s:
        f[expo] = s
    else:
        f.pop(expo, None)


def _exact_quotient(f, g):
    """f / g by long division, for a g with leading coefficient 1."""
    rem, d = list(f), len(g) - 1
    quot = [0] * max(len(rem) - d, 0)
    for k in range(len(rem) - 1, d - 1, -1):
        quot[k - d] = c = rem[k]
        for j, b in enumerate(g):
            rem[k - d + j] -= c * b
    assert not any(rem), "division by v_la(t) was not exact"
    return trim(quot)


def _swap_vars(f, i, j):
    out = {}
    for expo, c in f.items():
        e = list(expo)
        e[i], e[j] = e[j], e[i]
        _madd(out, tuple(e), c)
    return out


def _divide_linear(f, a, b):
    """Exact division of f by (x_a - x_b)."""
    by_dega = {}
    for expo, c in f.items():
        e = list(expo)
        e[a] = 0
        by_dega.setdefault(expo[a], {})[tuple(e)] = c
    if not by_dega:
        return {}
    quotient, carry = {}, {}  # carry: Q_k as a poly in the non-a variables
    for k in range(max(by_dega), 0, -1):
        qk = dict(carry)
        for expo, c in by_dega.get(k, {}).items():
            _madd(qk, expo, c)
        carry = {}
        for expo, c in qk.items():
            e = list(expo)
            e[a] = k - 1
            _madd(quotient, tuple(e), c)
            e = list(expo)
            e[b] += 1
            _madd(carry, tuple(e), c)
    for expo, c in by_dega.get(0, {}).items():
        _madd(carry, expo, c)
    assert not carry, "division by a Vandermonde factor was not exact"
    return quotient


def _divided_difference(f, i):
    diff = dict(f)
    for expo, c in _swap_vars(f, i, i + 1).items():
        _madd(diff, expo, _neg(c))
    return _divide_linear(diff, i, i + 1)


def _root_product(n):
    """prod_{i<j} (x_i - t x_j)."""
    f = {(0,) * n: (1,)}
    for i in range(n):
        for j in range(i + 1, n):
            out = {}
            for expo, c in f.items():
                e = list(expo)
                e[i] += 1
                _madd(out, tuple(e), c)
                e = list(expo)
                e[j] += 1
                _madd(out, tuple(e), schoolbook(c, (0, -1)))
            f = out
    return f


def _v_norm(la, n):
    """v_la(t) = prod over multiplicities m (zero parts included) of [m]_t!."""
    mult = multiplicities(la)
    mult[0] = n - la.length
    return reduce(schoolbook, ((1,) * k for m in mult.values() for k in range(1, m + 1)), (1,))


def _padded(mu, n):
    return tuple(mu) + (0,) * (n - mu.length)


def reference_hall_littlewood_p(n):
    """{la: {mu: the coefficient of m_mu in P_la}} for every la |- n, read off
    P_la in n variables."""
    parts = partitions_of(n)
    roots = _root_product(n)
    hl = {}
    for la in parts:
        f = {}
        for expo, c in roots.items():
            _madd(f, tuple(a + b for a, b in zip(expo, _padded(la, n))), c)
        for k in range(1, n):
            for i in range(k - 1, -1, -1):
                f = _divided_difference(f, i)
        v = _v_norm(la, n)
        hl[la] = {
            mu: _exact_quotient(f[_padded(mu, n)], v) for mu in parts if _padded(mu, n) in f
        }
    return hl


def reference_hall_littlewood_expand(rho):
    n = rho.n
    parts = partitions_of(n)
    hl = reference_hall_littlewood_p(n)
    power = {(0,) * n: 1}
    for part in rho:
        out = {}
        for expo, c in power.items():
            for v in range(n):
                e = list(expo)
                e[v] += part
                out[tuple(e)] = out.get(tuple(e), 0) + c
        power = out
    residual = {mu: (power[_padded(mu, n)],) for mu in parts if power.get(_padded(mu, n))}
    expansion = {}
    for la in parts:
        c = residual.pop(la, ())
        if c:
            expansion[la] = RationalPoly(c, "t")
            for mu, coef in hl[la].items():
                if mu != la:
                    _madd(residual, mu, _neg(schoolbook(c, coef)))
    assert not residual, "Hall-Littlewood transition was not unitriangular"
    return expansion


def test_hall_littlewood_matches_symmetrization():
    """The factorisation gives the same dict, key order included, as the
    n-variable symmetrization it replaced."""
    for n in range(1, 5):
        for rho in partitions_of(n):
            new = hall_littlewood_expand(rho)
            assert list(new.items()) == list(reference_hall_littlewood_expand(rho).items())


def test_strips_give_the_monomial_expansion_of_p_la():
    """W by horizontal strips is, row by row, the monomial expansion of each
    P_la that the n-variable symmetrization reads off, for n <= 4."""
    for n in range(1, 5):
        columns = {nu: symfunc._hl_monomials(nu) for nu in partitions_of(n)}
        for la, row in reference_hall_littlewood_p(n).items():
            strips = {nu: column[la] for nu, column in columns.items() if la in column}
            assert strips == row, la


def test_strips_specialise_to_kostka_numbers_and_monomials():
    """P_la(x; 0) is the Schur function s_la and P_la(x; 1) the monomial m_la
    (Macdonald III.2), so W[la][nu] at t = 0 is the number of tableaux of
    shape la and content nu, K_{la,nu}(1), and at t = 1 is 1 if la = nu and
    0 otherwise, for n <= 8."""
    for n in range(9):
        for nu in partitions_of(n):
            column = symfunc._hl_monomials(nu)
            for la in partitions_of(n):
                w = T(*column.get(la, ()))
                assert w(0) == kostka_foulkes(la, nu)(1), (la, nu)
                assert w(1) == (la == nu), (la, nu)


#: Every function of the module, by route.
CHARACTER_ROUTE = (
    "mn_character",
    "_mn",
    "_next_letter",
    "kostka_foulkes",
    "_kostka_foulkes",
    "x_matrix",
    "x_poly",
)
HALL_LITTLEWOOD_ROUTE = (
    "_monomial_count",
    "_b",
    "_strips",
    "_hl_monomials",
    "_hl_factor",
    "hall_littlewood_expand",
)


def test_hall_littlewood_shares_nothing_with_the_character_route(monkeypatch):
    """With every function of the Murnaghan-Nakayama, tableau, charge,
    Kostka-Foulkes and X routes made to raise, and every cache cleared, the
    expansion still runs and agrees with the values x_poly gave before.
    Every function of the module belongs to one route or the other."""
    expected = {rho: {la: x_poly(rho, la) for la in partitions_of(6)} for rho in partitions_of(6)}

    def unreachable(*args):
        raise RuntimeError("the Hall-Littlewood route reached the character route")

    defined = {
        name
        for name, value in vars(symfunc).items()
        if callable(value) and getattr(value, "__module__", None) == symfunc.__name__
    }
    assert defined == set(CHARACTER_ROUTE) | set(HALL_LITTLEWOOD_ROUTE)
    for name in CHARACTER_ROUTE:
        monkeypatch.setattr(symfunc, name, unreachable)
    clear_hall_littlewood_caches()
    try:
        for rho in partitions_of(6):
            assert hall_littlewood_expand(rho) == expected[rho]
    finally:
        clear_hall_littlewood_caches()


def clear_hall_littlewood_caches():
    for name in HALL_LITTLEWOOD_ROUTE:
        getattr(getattr(symfunc, name), "cache_clear", lambda: None)()


def test_hall_littlewood_factor_is_one_solve(monkeypatch):
    """From cleared caches, X(6) takes p(6) = 11 ``bilinear`` calls: one per
    column j >= 1, with a unit weight for R's column and one for each k < j
    with W[k][j] != 0 (column 0 is R's own), then the certificate, weighted by
    n!/z_rho(t), so no b_la(t) enters as a weight."""
    weights = []
    bilinear = symfunc.bilinear

    def counted(a, w, b):
        weights.append(w)
        return bilinear(a, w, b)

    monkeypatch.setattr(symfunc, "bilinear", counted)
    clear_hall_littlewood_caches()
    try:
        symfunc._hl_factor(6)
    finally:
        clear_hall_littlewood_caches()
    parts = partitions_of(6)
    known = [sum(la in symfunc._hl_monomials(nu) for la in parts[:j]) for j, nu in enumerate(parts)]
    assert len(weights) == len(parts) == 11
    assert weights[:-1] == [[(1,)] * (k + 1) for k in known[1:]]
    z = [math.factorial(6) // weyl_centralizer_order(rho) for rho in parts]
    one_minus = [[(1,) + (0,) * (k - 1) + (-1,) for k in rho] for rho in parts]
    assert weights[-1] == [reduce(schoolbook, f, (c,)) for c, f in zip(z, one_minus)]


@pytest.mark.parametrize("n", [0, 1, 6])
def test_hall_littlewood_factor_returns_x_alone(n):
    X = symfunc._hl_factor(n)
    assert len(X) == len(partitions_of(n)) and {len(row) for row in X} == {len(X)}
    assert X == symfunc.x_matrix(n)


def test_mn_character_and_x_poly_refuse_sizes_that_differ():
    with pytest.raises(ValueError, match=r"^\|mu\| = 2 but \|rho\| = 1$"):
        mn_character(Partition((2,)), Partition((1,)))
    with pytest.raises(ValueError, match=r"^\|rho\| = 2 but \|la\| = 3$"):
        x_poly(Partition((2,)), Partition((3,)))
