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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import CapExceededError, ContractError, NonExactDivisionError
from .intpoly import IntPoly, bilinear, divmod_monic, mul, scale, trim
from .partitions import Partition, multiplicities, partitions_of, weyl_centralizer_order
from .polyring import RationalPoly

#: Default ceiling for ``hall_littlewood_expand``: expanding every p_rho with
#: rho |- 10 takes ~1.1 s (2 cores, Python 3.11), n = 11 ~2.6 s, n = 12 ~7 s.
HL_CAP = 10


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama
# ---------------------------------------------------------------------------


def mn_character(mu: Partition, rho: Partition) -> int:
    """Irreducible character chi^mu of S_n evaluated on cycle type rho,
    by the Murnaghan-Nakayama border-strip recursion."""
    if mu.n != rho.n:
        raise ValueError(f"|mu| = {mu.n} but |rho| = {rho.n}")
    return _mn(tuple(mu), tuple(rho))


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


@dataclass(frozen=True)
class CharacterTable:
    """Character table of S_n: ``values[i][j] = chi^{mus[i]}(rhos[j])`` with
    both axes in canonical (descending lexicographic) order."""

    n: int
    mus: tuple[Partition, ...]
    rhos: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]

    def chi(self, mu: Partition, rho: Partition) -> int:
        return self.values[self.mus.index(mu)][self.rhos.index(rho)]

    def check_orthogonality(self) -> bool:
        """Row orthogonality sum_rho chi(rho) psi(rho) / z_rho = delta."""
        zs = [weyl_centralizer_order(r) for r in self.rhos]
        for i, row_i in enumerate(self.values):
            for j, row_j in enumerate(self.values):
                inner = sum(
                    Fraction(a * b, z) for a, b, z in zip(row_i, row_j, zs)
                )
                if inner != (1 if i == j else 0):
                    return False
        return True


def character_table(n: int) -> CharacterTable:
    parts = partitions_of(n)
    values = tuple(
        tuple(mn_character(mu, rho) for rho in parts) for mu in parts
    )
    return CharacterTable(n, tuple(parts), tuple(parts), values)


# ---------------------------------------------------------------------------
# Semistandard tableaux, charge, Kostka-Foulkes
# ---------------------------------------------------------------------------


def ssyt_fillings(shape: Partition, content: Partition) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All semistandard tableaux of the given shape and content, as tuples of
    row tuples; rows weakly increase, columns strictly increase, and letter i
    appears content[i-1] times."""
    if shape.n != content.n:
        return
    remaining = list(content)
    rows: list[list[int]] = [[] for _ in shape]

    def fill(r: int, c: int) -> Iterator[tuple[tuple[int, ...], ...]]:
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

    if shape:
        yield from fill(0, 0)
    elif not content:
        yield ()


def reading_word(tableau: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Rows read left to right, bottom row first."""
    out: list[int] = []
    for row in reversed(tableau):
        out.extend(row)
    return tuple(out)


def charge(word: tuple[int, ...]) -> int:
    """Lascoux-Schutzenberger charge of a word whose content is a partition.

    The word is peeled into standard subwords: start from the rightmost 1,
    then find each next letter by scanning leftward (cyclically, wrapping
    from the front back to the right end), so that ties are always resolved
    by extracting the rightmost eligible occurrence.  Each extracted standard
    subword, taken in word order, contributes its index sum: letter 1 has
    index 0, and letter r+1 has the index of r, plus one exactly when r+1
    sits to the right of r in the subword.
    """
    w = list(word)
    total = 0
    while w:
        top = max(w)
        pick = len(w) - 1 - w[::-1].index(1)
        chosen = [pick]
        cur = pick
        for letter in range(2, top + 1):
            nxt = next((k for k in range(cur - 1, -1, -1) if w[k] == letter), None)
            if nxt is None:
                nxt = next(k for k in range(len(w) - 1, cur, -1) if w[k] == letter)
            chosen.append(nxt)
            cur = nxt
        chosen.sort()
        sub = [w[k] for k in chosen]
        pos = {letter: i for i, letter in enumerate(sub)}
        index = 0
        for letter in range(2, top + 1):
            if pos[letter] > pos[letter - 1]:
                index += 1
            total += index
        for k in reversed(chosen):
            w.pop(k)
    return total


def kostka_foulkes(mu: Partition, la: Partition) -> RationalPoly:
    """K_{mu,la}(t) = sum over SSYT of shape mu, content la of t^charge."""
    return _kostka_foulkes(tuple(mu), tuple(la))


@lru_cache(maxsize=None)
def _kostka_foulkes(mu: tuple[int, ...], la: tuple[int, ...]) -> RationalPoly:
    counts: dict[int, int] = {}
    for tab in ssyt_fillings(Partition(mu), Partition(la)):
        c = charge(reading_word(tab))
        counts[c] = counts.get(c, 0) + 1
    if not counts:
        return RationalPoly((), "t")
    coeffs = [0] * (max(counts) + 1)
    for c, m in counts.items():
        coeffs[c] = m
    return RationalPoly(coeffs, "t")


@lru_cache(maxsize=None)
def x_matrix(n: int) -> tuple[tuple[IntPoly, ...], ...]:
    """X_rho^la(t) for every rho, la |- n as integer coefficients, rows rho
    and columns la in canonical order: the character table, transposed,
    times the Kostka-Foulkes matrix."""
    parts = partitions_of(n)
    chi = [[trim((mn_character(mu, rho),)) for rho in parts] for mu in parts]
    kostka = [
        [tuple(c.numerator for c in kostka_foulkes(mu, la).coeffs) for la in parts]
        for mu in parts
    ]
    return tuple(map(tuple, bilinear(chi, [(1,)] * len(parts), kostka)))


def x_poly(rho: Partition, la: Partition) -> RationalPoly:
    """X_rho^la(t) = sum_mu chi^mu(rho) K_{mu,la}(t): the coefficient of the
    Hall-Littlewood P_la in the power sum p_rho.  Monic of degree n_stat(la);
    at t = 1 it degenerates to the permutation-character value."""
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


def _one_minus_t(powers) -> IntPoly:
    """prod_k (1 - t^k) over the given exponents k."""
    out: IntPoly = (1,)
    for k in powers:
        out = mul(out, (1,) + (0,) * (k - 1) + (-1,))
    return out


def _b(la: Partition) -> IntPoly:
    """b_la(t) = prod_i phi_{m_i(la)}(t), with phi_m(t) = (1 - t)...(1 - t^m)."""
    return _one_minus_t(k for m in multiplicities(la).values() for k in range(1, m + 1))


def _dominated(mu: Partition, la: Partition) -> bool:
    """mu <= la in dominance order."""
    a = b = 0
    for x, y in zip(mu, la + (0,) * len(mu)):
        a, b = a + x, b + y
        if a > b:
            return False
    return True


def _sub_products(f: IntPoly, pairs) -> IntPoly:
    """f - sum of g * h over the pairs (g, h)."""
    acc = list(f)
    for g, h in pairs:
        if g and h:
            prod = mul(g, h)
            acc.extend([0] * (len(prod) - len(acc)))
            for k, c in enumerate(prod):
                acc[k] -= c
    return trim(acc)


def _exact_quotient(f: IntPoly, pivot: IntPoly, mu: Partition, la: Partition) -> IntPoly:
    """f / pivot for a pivot b_la(t), whose leading coefficient is +-1."""
    sign = pivot[-1]
    quot, rem = divmod_monic(f, scale(pivot, sign))
    if rem:
        raise NonExactDivisionError(
            f"G[{tuple(mu)}][{tuple(la)}] less the known terms is not divisible by b_la(t)"
        )
    return scale(quot, sign)


@lru_cache(maxsize=None)
def _hl_factor(n: int) -> tuple[tuple[tuple[IntPoly, ...], ...], tuple[tuple[IntPoly, ...], ...]]:
    """R, and W^T with G = W^T diag(b) W, for the partitions of n."""
    parts = partitions_of(n)
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    R = [[trim((_monomial_count(rho, mu),)) for mu in parts] for rho in parts]
    weights = []
    for rho in parts:
        cls, rem = divmod(fact, weyl_centralizer_order(rho))
        if rem:
            raise NonExactDivisionError(f"z_rho of {tuple(rho)} does not divide {n}!")
        weights.append(scale(_one_minus_t(rho), cls))
    gram = bilinear(R, weights, R)  # n! * G
    if any(c % fact for row in gram for f in row for c in f):
        raise NonExactDivisionError(f"n! * G is not divisible by {n}! = {fact}")
    gram = [[tuple(c // fact for c in f) for f in row] for row in gram]
    # LDL^T column by column; L = W^T is lower unitriangular, L[i][k] = W[k][i].
    L: list[list[IntPoly]] = [[] for _ in parts]
    pivots: list[IntPoly] = []
    for j, la in enumerate(parts):
        scaled = [mul(l, d) if l else () for l, d in zip(L[j], pivots)]
        pivot = _sub_products(gram[j][j], zip(L[j], scaled))
        if pivot != _b(la):
            raise ContractError(f"the pivot of {tuple(la)} is not b_la(t)")
        pivots.append(pivot)
        L[j].append((1,))
        for i in range(j + 1, len(parts)):
            entry = _exact_quotient(
                _sub_products(gram[i][j], zip(L[i], scaled)), pivot, parts[i], la
            )
            if entry and not _dominated(parts[i], la):
                raise ContractError(
                    f"P_{tuple(la)} has a monomial {tuple(parts[i])} it does not dominate"
                )
            L[i].append(entry)
    return tuple(map(tuple, R)), tuple(map(tuple, L))


def hall_littlewood_expand(rho: Partition, cap: int = HL_CAP) -> dict[Partition, RationalPoly]:
    """Expand the power sum p_rho in the Hall-Littlewood P basis:
    returns {la: c_la(t)} with p_rho = sum_la c_la(t) P_la(x; t).

    This is the independent cross-check for ``x_poly``: the two must agree
    coefficient for coefficient.
    """
    n = rho.n
    if n > cap:
        raise CapExceededError(
            f"hall_littlewood_expand at n = {n} exceeds cap {cap}"
        )
    if n == 0:
        return {}
    parts = partitions_of(n)
    R, L = _hl_factor(n)
    # X W = R for W = L^T unitriangular: X_j = R_j - sum_{i<j} X_i W[i][j].
    x: list[IntPoly] = []
    for j, r in enumerate(R[parts.index(rho)]):
        x.append(_sub_products(r, zip(x, L[j])))
    return {la: RationalPoly(c, "t") for la, c in zip(parts, x) if c}
