"""Symmetric-function machinery: S_n characters, Kostka-Foulkes polynomials,
and the transition coefficients between power sums and Hall-Littlewood
polynomials.

Two genuinely independent routes to the same coefficients live here.

* ``x_poly(rho, la)`` computes X_rho^la(t) = sum_mu chi^mu(rho) K_{mu,la}(t)
  from Murnaghan-Nakayama characters and the charge statistic.
* ``hall_littlewood_expand(rho)`` expands the power sum p_rho in the
  Hall-Littlewood P basis from the monomial coefficients of p_rho and an
  LDL^T factorisation of the Hall-Littlewood Gram matrix over Z[t].  It
  shares nothing with the first route except the partition and integer
  polynomial primitives: no characters, no tableaux, no charge.

Their agreement (X_rho^la equals the coefficient of P_la in p_rho) is the
central self-check of the whole package.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Mapping

from .errors import CapExceededError, ContractError
from .intpoly import IntPoly, bilinear, exact_div, exact_quotient, scale, times_binomials, trim
from .partitions import (
    Partition,
    dominated,
    multiplicities,
    n_stat,
    partitions_of,
    weyl_centralizer_order,
)
from .polyring import RationalPoly

#: Ceiling for ``hall_littlewood_expand``: expanding every p_rho with
#: rho |- 10 takes ~0.14 s, n = 11 0.3-0.5 s, n = 12 0.9-1.5 s (fresh
#: processes, 2 cores, Python 3.11).
HL_CAP = 10


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama
# ---------------------------------------------------------------------------


def mn_character(mu: Partition, rho: Partition) -> int:
    """Irreducible character chi^mu of S_n evaluated on cycle type rho,
    by the Murnaghan-Nakayama border-strip recursion."""
    mu, rho = Partition(mu), Partition(rho)
    if mu.n != rho.n:
        raise ValueError(f"|mu| = {mu.n} but |rho| = {rho.n}")
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
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_mu = tuple(
            p for j, c in enumerate(new_beta) if (p := c - (ell - 1 - j)) > 0
        )
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
    mu, la = Partition(mu), Partition(la)
    if mu.n != la.n:
        raise ValueError(f"|mu| = {mu.n} but |la| = {la.n}")
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
    rho, la = Partition(rho), Partition(la)
    if rho.n != la.n:
        raise ValueError(f"|rho| = {rho.n} but |la| = {la.n}")
    parts = partitions_of(rho.n)
    return RationalPoly(x_matrix(rho.n)[parts.index(rho)][parts.index(la)], "t")


# ---------------------------------------------------------------------------
# Independent oracle: Hall-Littlewood expansion by a Gram-matrix factorisation
# ---------------------------------------------------------------------------
#
# Matrices are indexed by the partitions of n in canonical order, which
# refines dominance.  In the monomial basis p_rho = sum_mu R[rho][mu] m_mu and
# P_la = sum_mu W[la][mu] m_mu, W unitriangular (Macdonald III.2).  The
# Hall-Littlewood scalar product has <p_rho, p_sigma> = delta z_rho(t) with
# 1/z_rho(t) = prod_i (1 - t^rho_i) / z_rho, and <P_la, P_mu> = delta / b_la(t)
# (III.4).  So the Gram matrix of the basis dual to the m_mu is
#
#     G = R^T diag(1/z_rho(t)) R = W^T diag(b_la(t)) W,
#
# the unique LDL^T factorisation of G, found by exact division over Z[t]; and
# p_rho = sum_la (R W^-1)[rho][la] P_la.


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


def _b(la: Partition) -> IntPoly:
    """b_la(t) = prod_i phi_{m_i(la)}(t), with phi_m(t) = (1 - t)...(1 - t^m)."""
    exps = [k for m in multiplicities(la).values() for k in range(1, m + 1)]
    return scale(times_binomials(0, exps, 1), (-1) ** len(exps))


@lru_cache(maxsize=None)
def _hl_factor(n: int) -> tuple[tuple[IntPoly, ...], ...]:
    """X = R W^-1, rows rho, for the partitions of n.  With L = W^T, G = L
    diag(b) L^T and R = X L^T, so the rows of G and of R stack into one
    system [G; R] = Y L^T with Y = [L diag(b); X], solved column by column:

        Y[i][j] = [G; R][i][j] - sum_{k<j} Y[i][k] L[j][k],

    one ``bilinear`` per column over the rows of G from j on and every row
    of R.  Y[j][j] is the pivot b_j, L[i][j] = Y[i][j] / b_j below it, and
    X is the R-block.  X for n = 10 takes ~0.13 s (2 cores, Python 3.11)."""
    parts = partitions_of(n)
    fact = factorial(n)
    R = [[trim((_monomial_count(rho, mu),)) for mu in parts] for rho in parts]
    weights = []
    for rho in parts:
        cls = exact_div(fact, weyl_centralizer_order(rho), f"{n}! / z_rho of {rho}")
        # n!/z_rho(t) = (n!/z_rho) * (-1)^len(rho) * prod_i (t^rho_i - 1)
        weights.append(scale(times_binomials(0, rho, 1), cls * (-1) ** len(rho)))
    what = f"n! * G / {n}!"
    gram = [
        [tuple(exact_div(c, fact, what) for c in f) for f in row]
        for row in bilinear(R, weights, R)  # n! * G
    ]
    stacked = gram + R  # so stacked[j:] is the rows of G from j on and all of R
    Y: list[list[IntPoly]] = [[] for _ in stacked]
    L: list[list[IntPoly]] = [[] for _ in parts]  # L[i][k] = W[k][i], k < i
    for j, la in enumerate(parts):
        minus = [[(1,)]] + [[scale(l, -1)] for l in L[j]]
        known = [[row[j] for row in stacked[j:]]] + [[row[k] for row in Y[j:]] for k in range(j)]
        col = [f for f, in bilinear(known, [(1,)] * (j + 1), minus)]
        for row, f in zip(Y[j:], col):
            row.append(f)
        pivot = col[0]
        if pivot != _b(la):
            raise ContractError(f"the pivot of {la} is not b_la(t)")
        sign = pivot[-1]  # b_la(t) has leading coefficient +-1
        monic = scale(pivot, sign)
        for mu, row, f in zip(parts[j + 1 :], L[j + 1 :], col[1:]):
            what = f"G[{mu}][{la}] less the known terms / b_la(t)"
            entry = scale(exact_quotient(f, monic, what), sign)
            if entry and not dominated(mu, la):
                raise ContractError(f"P_{la} has a monomial {mu} it does not dominate")
            row.append(entry)
    return tuple(map(tuple, Y[len(parts) :]))


def hall_littlewood_expand(rho: Partition) -> dict[Partition, RationalPoly]:
    """Expand the power sum p_rho in the Hall-Littlewood P basis:
    returns {la: c_la(t)} with p_rho = sum_la c_la(t) P_la(x; t).

    This is the independent cross-check for ``x_poly``: the two must agree
    coefficient for coefficient.
    """
    rho = Partition(rho)
    n = rho.n
    if n > HL_CAP:
        raise CapExceededError(f"hall_littlewood_expand at n = {n} exceeds cap {HL_CAP}")
    parts = partitions_of(n)
    row = _hl_factor(n)[parts.index(rho)]
    return {la: RationalPoly(c, "t") for la, c in zip(parts, row) if c}
