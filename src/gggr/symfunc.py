"""Symmetric-function machinery: S_n characters, Kostka-Foulkes polynomials,
and the transition coefficients between power sums and Hall-Littlewood
polynomials.

Two genuinely independent routes to the same coefficients live here.

* ``x_poly(rho, la)`` computes X_rho^la(t) = sum_mu chi^mu(rho) K_{mu,la}(t)
  from Murnaghan-Nakayama characters and the charge statistic.
* ``hall_littlewood_expand(rho)`` expands the power sum p_rho in the
  Hall-Littlewood P basis by direct symmetrization in n variables and a
  unitriangular linear solve.  It shares nothing with the first route except
  the partition and polynomial primitives.

Their agreement (X_rho^la equals the coefficient of P_la in p_rho) is the
central self-check of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import CapExceededError
from .intpoly import IntPoly, bilinear, trim
from .partitions import Partition, multiplicities, n_stat, partitions_of, weyl_centralizer_order
from .polyring import RationalPoly, exact_div

#: Hard default ceiling for the n-variable symmetrization pipeline; n = 6 is
#: already ~0.7M permutation-weighted terms and anything larger needs an
#: explicit opt-in from the caller.
HL_CAP = 6


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
# Independent oracle: Hall-Littlewood expansion by direct symmetrization
# ---------------------------------------------------------------------------
#
# Multivariate polynomials in x_1..x_n are dicts {exponent tuple: RationalPoly
# in t}.  P_la is computed straight from its definition
#
#     P_la = (1/v_la(t)) * sum_w sign(w) w(x^la prod_{i<j} (x_i - t x_j)) / D
#
# (D the Vandermonde determinant); the alternating sum divided by D is
# evaluated as a composition of divided-difference operators
# f -> (f - swap_i f)/(x_i - x_{i+1}) along a reduced word of the longest
# permutation, which is the same symmetrization computed factor by factor.

MPoly = dict[tuple[int, ...], RationalPoly]


def _madd(f: MPoly, expo: tuple[int, ...], c: RationalPoly) -> None:
    cur = f.get(expo)
    s = c if cur is None else cur + c
    if s.is_zero():
        f.pop(expo, None)
    else:
        f[expo] = s


def _mpoly_sub(f: MPoly, g: MPoly) -> MPoly:
    out = dict(f)
    for expo, c in g.items():
        _madd(out, expo, -c)
    return out


def _swap_vars(f: MPoly, i: int, j: int) -> MPoly:
    out: MPoly = {}
    for expo, c in f.items():
        e = list(expo)
        e[i], e[j] = e[j], e[i]
        _madd(out, tuple(e), c)
    return out


def _divide_linear(f: MPoly, a: int, b: int) -> MPoly:
    """Exact division of f by (x_a - x_b)."""
    by_dega: dict[int, MPoly] = {}
    for expo, c in f.items():
        k = expo[a]
        e = list(expo)
        e[a] = 0
        by_dega.setdefault(k, {})[tuple(e)] = c
    if not by_dega:
        return {}
    quotient: MPoly = {}
    carry: MPoly = {}  # Q_k as a poly in the non-a variables
    for k in range(max(by_dega), 0, -1):
        level = by_dega.get(k, {})
        qk: MPoly = dict(carry)
        for expo, c in level.items():
            _madd(qk, expo, c)
        for expo, c in qk.items():
            e = list(expo)
            e[a] = k - 1
            _madd(quotient, tuple(e), c)
        carry = {}
        for expo, c in qk.items():
            e = list(expo)
            e[b] += 1
            _madd(carry, tuple(e), c)
    residue = dict(carry)
    for expo, c in by_dega.get(0, {}).items():
        _madd(residue, expo, c)
    if residue:
        raise ArithmeticError("division by Vandermonde factor was not exact")
    return quotient


def _divided_difference(f: MPoly, i: int) -> MPoly:
    return _divide_linear(_mpoly_sub(f, _swap_vars(f, i, i + 1)), i, i + 1)


def _alternating_quotient(f: MPoly, n: int) -> MPoly:
    """sum_w sign(w) w(f) divided by the Vandermonde determinant, computed as
    the composite divided difference along the reduced word
    (s_1)(s_2 s_1)...(s_{n-1}...s_1) of the longest element."""
    for k in range(1, n):
        for i in range(k - 1, -1, -1):
            f = _divided_difference(f, i)
    return f


def _root_product(n: int) -> MPoly:
    """prod_{i<j} (x_i - t x_j) as an n-variable polynomial over Z[t]."""
    one = RationalPoly.const(1, "t")
    minus_t = RationalPoly((0, -1), "t")
    f: MPoly = {(0,) * n: one}
    for i in range(n):
        for j in range(i + 1, n):
            out: MPoly = {}
            for expo, c in f.items():
                e = list(expo)
                e[i] += 1
                _madd(out, tuple(e), c)
                e = list(expo)
                e[j] += 1
                _madd(out, tuple(e), c * minus_t)
            f = out
    return f


def _t_factorial(m: int) -> RationalPoly:
    """[m]_t! = prod_{k=1..m} (1 + t + ... + t^{k-1})."""
    out = RationalPoly.const(1, "t")
    for k in range(1, m + 1):
        out = out * RationalPoly((1,) * k, "t")
    return out


def _v_norm(la: Partition, n: int) -> RationalPoly:
    """v_la(t): the stabilizer normalization making P_la have leading
    coefficient 1 on the monomial x^la.  Zero parts count."""
    mult = multiplicities(la)
    mult[0] = n - la.length
    out = RationalPoly.const(1, "t")
    for m in mult.values():
        out = out * _t_factorial(m)
    return out


@lru_cache(maxsize=None)
def _hl_p_coordinates(n: int) -> dict[Partition, dict[Partition, RationalPoly]]:
    """Monomial-basis coordinates (on partition exponents) of every P_la."""
    parts = partitions_of(n)
    roots = _root_product(n)
    coords: dict[Partition, dict[Partition, RationalPoly]] = {}
    for la in parts:
        f: MPoly = {}
        shape = tuple(la) + (0,) * (n - la.length)
        for expo, c in roots.items():
            _madd(f, tuple(a + b for a, b in zip(expo, shape)), c)
        sym = _alternating_quotient(f, n)
        v = _v_norm(la, n)
        row: dict[Partition, RationalPoly] = {}
        for mu in parts:
            key = tuple(mu) + (0,) * (n - mu.length)
            c = sym.get(key)
            if c is not None:
                row[mu] = exact_div(c, v)
        coords[la] = row
    return coords


def _power_sum_coordinates(rho: Partition, n: int) -> dict[Partition, RationalPoly]:
    """Partition-monomial coefficients of p_rho in n variables."""
    f: dict[tuple[int, ...], Fraction] = {(0,) * n: Fraction(1)}
    for part in rho:
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, c in f.items():
            for v in range(n):
                e = list(expo)
                e[v] += part
                key = tuple(e)
                out[key] = out.get(key, Fraction(0)) + c
        f = out
    coords: dict[Partition, RationalPoly] = {}
    for mu in partitions_of(n):
        key = tuple(mu) + (0,) * (n - mu.length)
        c = f.get(key)
        if c:
            coords[mu] = RationalPoly.const(c, "t")
    return coords


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
    p_coords = _power_sum_coordinates(rho, n)
    hl = _hl_p_coordinates(n)
    parts = partitions_of(n)  # descending lex refines dominance
    residual = dict(p_coords)
    out: dict[Partition, RationalPoly] = {}
    for la in parts:
        c = residual.pop(la, RationalPoly((), "t"))
        if not c.is_zero():
            out[la] = c
            for mu, coef in hl[la].items():
                if mu != la:
                    _setsub(residual, mu, c * coef)
    if any(not v.is_zero() for v in residual.values()):
        raise ArithmeticError("Hall-Littlewood transition was not unitriangular")
    return out


def _setsub(d: dict[Partition, RationalPoly], key: Partition, val: RationalPoly) -> None:
    cur = d.get(key, RationalPoly((), "t"))
    s = cur - val
    if s.is_zero():
        d.pop(key, None)
    else:
        d[key] = s
