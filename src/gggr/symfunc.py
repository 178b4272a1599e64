"""Symmetric-function machinery: S_n characters, Kostka-Foulkes polynomials,
and two independent routes to X_rho^la(t), the coefficient of the
Hall-Littlewood P_la in the power sum p_rho.  Their agreement is the central
self-check of the whole package.

* ``x_poly(rho, la)`` is sum_mu chi^mu(rho) K_{mu,la}(t), from
  Murnaghan-Nakayama characters and the charge statistic.
* ``hall_littlewood_expand(rho)`` sums the monomial expansion W of each P_la
  over tableaux by horizontal strips, solves R = X W for the monomial
  coefficients R of p_rho, and certifies W and X by the Gram identity.  It
  shares only the partition and integer polynomial primitives with x_poly.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from functools import lru_cache
from itertools import product, zip_longest
from math import factorial
from types import MappingProxyType
from typing import Mapping

from .errors import CapExceededError, ContractError
from .intpoly import IntPoly, bilinear, scale, times_binomials, trim
from .partitions import (
    Partition,
    b_exponents,
    dominated,
    multiplicities,
    n_stat,
    partitions_of,
    same_size,
    z_weights,
)
from .polyring import RationalPoly

#: Ceiling for ``hall_littlewood_expand``: every p_rho with rho |- 10 takes 0.12-0.14 s,
#: n = 11 0.3-0.4 s, n = 12 0.9-1.3 s (fresh processes, 2 cores, Python 3.11).
HL_CAP = 10


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama
# ---------------------------------------------------------------------------


def mn_character(mu: Partition, rho: Partition) -> int:
    """Irreducible character chi^mu of S_n evaluated on cycle type rho,
    by the Murnaghan-Nakayama border-strip recursion."""
    mu, rho = same_size(mu=mu, rho=rho)
    return _mn(mu, rho)


@lru_cache(maxsize=None)
def _mn(mu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    if not rho:
        return 1 if not mu else 0
    k, rest = rho[0], rho[1:]
    # Beta-set of mu: strictly decreasing first-column hook complements.
    # Removing a border strip of size k = subtracting k from one beta number
    # while keeping all entries distinct; the strip height is the number of
    # beta numbers jumped over.
    ell = len(mu)
    beta = [mu[i] + (ell - 1 - i) for i in range(ell)]
    occupied = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted([c for c in beta if c != b] + [nb], reverse=True)
        new_mu = tuple(p for j, c in enumerate(new_beta) if (p := c - (ell - 1 - j)) > 0)
        total += (-1) ** height * _mn(new_mu, rest)
    return total


# ---------------------------------------------------------------------------
# Semistandard tableaux, charge, Kostka-Foulkes
# ---------------------------------------------------------------------------


def _next_letter(
    rounds: list[tuple[int, int]], cells: list[int]
) -> tuple[list[tuple[int, int]], int]:
    """One letter of the charge of a word whose content is a partition
    (Lascoux-Schutzenberger; Macdonald III.6).

    The word is peeled into standard subwords: start from the rightmost 1,
    then take each next letter at its nearest occurrence to the left of the
    last one taken, or, if there is none, at its rightmost occurrence (the
    scan wraps round), and remove the subword.  In each subword letter 1 has
    index 0, and letter r+1 has the index of r, plus one exactly when the
    scan wrapped, i.e. when r+1 sits to the right of r; the charge sums
    every index.  A subword takes letter r+1 only from where it took r and
    from the occurrences of r+1 that earlier subwords left, so the subwords
    are built a letter at a time.  ``rounds`` holds, for each standard
    subword that letter l joined, where l was taken and its index; ``cells``
    holds the increasing positions of letter l+1, no more of them than there
    are rounds.  Returns the same for l+1, which joins the first len(cells)
    rounds, and the sum of its indices."""
    free = cells[:]
    out = []
    added = 0
    for (cur, index), _ in zip(rounds, cells):
        k = bisect_left(free, cur) - 1
        if k < 0:  # nothing to the left: wrap round to the rightmost
            k, index = len(free) - 1, index + 1
        out.append((free.pop(k), index))
        added += index
    return out, added


def kostka_foulkes(mu: Partition, la: Partition) -> RationalPoly:
    """K_{mu,la}(t) = sum over SSYT of shape mu, content la of t^charge."""
    mu, la = same_size(mu=mu, la=la)
    return RationalPoly(_kostka_foulkes(la).get(mu, ()), "t")


@lru_cache(maxsize=None)
def _kostka_foulkes(la: Partition) -> Mapping[tuple[int, ...], IntPoly]:
    """{mu: K_{mu,la}(t)} for every shape mu that dominates la: t^charge
    counted over every semistandard tableau of content la, walked letter by
    letter.

    Letter i+1 fills a horizontal strip of size la[i] (Macdonald, Symmetric
    Functions and Hall Polynomials, I.5): row j grows from its length so far
    to at most the length so far of row j-1, so no column gets the letter
    twice, and row 0 has no bound.  The cell in row j, column c is keyed
    c - j*(n+1), so the keys follow the reading word (bottom row first)
    whatever shape the tableau ends in.  The charge is carried down letter by
    letter (``_next_letter``), so the charge of a strip is computed once and
    shared by every tableau that extends it, and each finished tableau adds
    t^charge to the shape it reached.  Every K_{mu,la} with la |- 10 takes
    ~0.25 s in all (2 cores, Python 3.11)."""
    if not la:
        return MappingProxyType({(): (1,)})
    n = sum(la)
    step = n + 1
    size = n_stat(la) + 1
    column: defaultdict[tuple[int, ...], list[int]] = defaultdict(lambda: [0] * size)

    def grow(i: int, inner: list[int], rounds: list[tuple[int, int]], total: int) -> None:
        rows = inner + [0]  # letter i+1 may open one new row
        nu = rows[:]
        cells: list[int] = []

        def place(j: int, left: int) -> None:
            if j:  # rows below the first take up to their room, bottom up
                start = rows[j] - j * step
                for take in range(min(rows[j - 1] - rows[j], left) + 1):
                    nu[j] = rows[j] + take
                    cells.extend(range(start, start + take))
                    place(j - 1, left - take)
                    del cells[len(cells) - take :]
                return
            nu[0] = rows[0] + left  # the first row takes the rest
            cells.extend(range(rows[0], nu[0]))
            nxt, added = _next_letter(rounds, cells)
            del cells[len(cells) - left :]
            shape = nu if nu[-1] else nu[:-1]
            if i + 1 == len(la):
                column[tuple(shape)][total + added] += 1
            else:
                grow(i + 1, shape, nxt, total + added)

        place(len(inner), la[i])

    grow(0, [], [(n, 0)] * la[0], 0)
    return MappingProxyType({mu: trim(counts) for mu, counts in column.items()})


@lru_cache(maxsize=None)
def x_matrix(n: int) -> tuple[tuple[IntPoly, ...], ...]:
    """X_rho^la(t) for every rho, la |- n as integer coefficients, rows rho
    and columns la in canonical order: the character table, transposed,
    times the Kostka-Foulkes matrix."""
    parts = partitions_of(n)
    chi = [[trim((mn_character(mu, rho),)) for rho in parts] for mu in parts]
    kostka = [[kostka_foulkes(mu, la).nums for la in parts] for mu in parts]
    return tuple(map(tuple, bilinear(chi, [(1,)] * len(parts), kostka)))


def x_poly(rho: Partition, la: Partition) -> RationalPoly:
    """X_rho^la(t) = sum_mu chi^mu(rho) K_{mu,la}(t): the coefficient of the
    Hall-Littlewood P_la in the power sum p_rho.  Monic of degree n_stat(la);
    at t = 1 it degenerates to the permutation-character value."""
    rho, la = same_size(rho=rho, la=la)
    parts = partitions_of(rho.n)
    return RationalPoly(x_matrix(rho.n)[parts.index(rho)][parts.index(la)], "t")


# ---------------------------------------------------------------------------
# Independent oracle: Hall-Littlewood expansion by horizontal strips
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _monomial_count(rho: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """The coefficient of x^mu in p_rho: the number of ways to put each part
    of rho in a row so that row i sums to mu_i."""
    if not rho:
        return 0 if mu else 1
    head, total = rho[0], 0
    for i, m in enumerate(mu):
        if m >= head:
            rest = mu[:i] + mu[i + 1 :] + ((m - head,) if m > head else ())
            total += _monomial_count(rho[1:], tuple(sorted(rest, reverse=True)))
    return total


def _b(la: Partition, f: IntPoly = (1,)) -> IntPoly:
    """f(t) * b_la(t), with b_la = prod_i phi_{m_i(la)} and phi_m(t) = (1 - t)...(1 - t^m)."""
    exps = b_exponents(la)
    return scale(times_binomials(f, exps, 1), (-1) ** len(exps))


@lru_cache(maxsize=None)
def _strips(mu: tuple[int, ...], k: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """Each la with la/mu a horizontal strip of k cells, and the e with psi_{la/mu}(t) =
    prod (1 - t^e): e = m_j(mu) for each column j >= 1 the strip skips as it fills j + 1
    (Macdonald III (5.8')); the top row r of length j fills j + 1, row r + m_j(mu) fills j."""
    rows, mult, out = mu + (0,), multiplicities(mu), []
    for take in product(*(range(min(k, a - b) + 1) for a, b in zip((rows[0] + k,) + mu, rows))):
        if sum(take) == k:  # row r grows by take[r], to at most the length of row r - 1
            la = [a + b for a, b in zip(rows, take)]
            exps = tuple(mult[m] for r, m in enumerate(mu) if la[r] > m > la[r + mult[m]])
            out.append((Partition(la[: len(mu) + (la[-1] > 0)]), exps))
    return tuple(out)


@lru_cache(maxsize=None)
def _hl_monomials(nu: tuple[int, ...]) -> Mapping[Partition, IntPoly]:
    """{la: W[la][nu]} where W[la][nu] != 0: the coefficient of m_nu in P_la, the sum over
    tableaux T of shape la and content nu of psi_T(t), the product of psi over T's strips
    (Macdonald III (5.11')).  psi needs no history, so the column of nu grows that of nu
    less its last part by every strip of that size.  W must be unitriangular, vanish unless
    nu <= la and have deg W[la][nu] <= n(nu) - n(la), or it raises ``ContractError``."""
    if not nu:
        return MappingProxyType({Partition(): (1,)})
    grown: defaultdict[Partition, list[int]] = defaultdict(list)
    for mu, f in _hl_monomials(Partition(nu[:-1])).items():
        for la, exps in _strips(mu, nu[-1]):
            g, sign = times_binomials(f, exps, 1), (-1) ** len(exps)  # psi = sign prod (t^e - 1)
            grown[la] = [a + sign * b for a, b in zip_longest(grown[la], g, fillvalue=0)]
    column = {la: g for la, f in grown.items() if (g := trim(f))}
    if column.get(nu) != (1,):
        raise ContractError(f"W[{nu}][{nu}] is not 1")
    top = n_stat(nu)
    for la, f in column.items():
        if not dominated(nu, la):
            raise ContractError(f"W[{la}][{nu}] is not zero, but {nu} is not dominated by {la}")
        if len(f) - 1 > (bound := top - n_stat(la)):
            raise ContractError(f"deg W[{la}][{nu}] = {len(f) - 1} exceeds n(nu) - n(la) = {bound}")
    return MappingProxyType(column)


@lru_cache(maxsize=None)
def _hl_factor(n: int) -> tuple[tuple[IntPoly, ...], ...]:
    """X, rows rho, with R = X W for p_rho = sum_mu R[rho][mu] m_mu: one solve, column j
    X[.][j] = R[.][j] - sum_{k<j} X[.][k] W[k][j] by one ``bilinear``.  As <p_rho, p_sigma>
    = delta z_rho / prod_i (1 - t^rho_i) and <P_la, P_mu> = delta / b_la(t) (Macdonald
    III.4), R^T diag(n!/z_rho(t)) R = W^T diag(n! b) W, so R^T diag(n!/z_rho(t)) X =
    W^T diag(n! b) must hold, or it raises ``ContractError``: it certifies W, b and X."""
    parts = partitions_of(n)
    W = [[column.get(la, ()) for column in map(_hl_monomials, parts)] for la in parts]
    R = [[trim((_monomial_count(rho, mu),)) for mu in parts] for rho in parts]
    columns: list[list[IntPoly]] = []  # columns[k][r] = X[r][k]
    for j in range(len(parts)):
        known = [k for k in range(j) if W[k][j]]
        minus = [[(1,)]] + [[scale(W[k][j], -1)] for k in known]
        b = [[row[j] for row in R]] + [columns[k] for k in known]
        columns.append(bilinear(minus, [(1,)] * len(b), b)[0] if known else b[0])
    fact = factorial(n)
    gram = bilinear(R, z_weights(n), list(zip(*columns)))
    for (j, mu), (i, la) in product(enumerate(parts), repeat=2):
        if gram[j][i] != (W[i][j] and _b(la, scale(W[i][j], fact))):
            raise ContractError(f"R^T diag(n!/z_rho(t)) X != W^T diag(n! b) at [{mu}][{la}]")
    return tuple(zip(*columns))


def hall_littlewood_expand(rho: Partition) -> dict[Partition, RationalPoly]:
    """Expand the power sum p_rho in the Hall-Littlewood P basis: {la: c_la(t)} with
    p_rho = sum_la c_la(t) P_la(x; t), the independent cross-check of ``x_poly``."""
    rho = Partition(rho)
    n = rho.n
    if n > HL_CAP:
        raise CapExceededError(f"hall_littlewood_expand at n = {n} exceeds cap {HL_CAP}")
    parts = partitions_of(n)
    row = _hl_factor(n)[parts.index(rho)]
    return {la: RationalPoly(c, "t") for la, c in zip(parts, row) if c}
