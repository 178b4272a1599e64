"""Integer partitions and the statistics attached to them.

Partitions index everything downstream: unipotent classes and maximal tori
of GL_n / GU_n, irreducible characters of S_n, and the rows/columns of the
Green polynomial table.  The canonical ordering used throughout the package
is descending lexicographic, e.g. for n = 4:

    (4), (3,1), (2,2), (2,1,1), (1,1,1,1)
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

from .errors import CapExceededError
from .intpoly import IntPoly, exact_div, times_binomials

#: Ceiling on n for pure partition combinatorics.  p(30) = 5604, which is
#: still cheap; anything far beyond that is a sign the caller is misusing the
#: library (the symmetric-function pipelines cap out much earlier).
DEFAULT_CAP = 30


class Partition(tuple):
    """A partition of a non-negative integer, stored as a weakly decreasing
    tuple of positive parts.  It prints, compares and hashes as that tuple,
    so a Partition and its equal tuple share one lru_cache slot."""

    def __new__(cls, parts=()) -> "Partition":
        if type(parts) is Partition:  # checked when it was made
            return parts
        parts = tuple(parts)
        if any(type(p) is not int for p in parts):
            raise ValueError(f"parts must be integers, got {parts!r}")
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        """The number being partitioned."""
        return sum(self)

    @property
    def length(self) -> int:
        """Number of (positive) parts."""
        return len(self)

    def to_json(self) -> list[int]:
        return list(self)


def check_n(n: int, least: int, name: str = "n") -> None:
    """Refuse an n (or the int called ``name``) that is not an int of at least
    ``least``: a float or a bool is refused, as ``Partition`` refuses them."""
    if type(n) is not int:
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")


def same_size(**named) -> tuple[Partition, Partition]:
    """``mu, rho = same_size(mu=mu, rho=rho)``: both as Partitions, of one n."""
    (x, a), (y, b) = [(name, Partition(parts)) for name, parts in named.items()]
    if a.n != b.n:
        raise ValueError(f"|{x}| = {a.n} but |{y}| = {b.n}")
    return a, b


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic order, for n up to
    DEFAULT_CAP."""
    check_n(n, 0)
    if n > DEFAULT_CAP:
        raise CapExceededError(f"partitions_of({n}) exceeds cap {DEFAULT_CAP}")
    return list(_partitions(n))


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    return tuple(_partitions_iter(n, n))


def _partitions_iter(n: int, largest: int) -> Iterator[Partition]:
    if n == 0:
        yield Partition(())
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_iter(n - first, first):
            yield Partition((first,) + rest)


def n_stat(la: Partition) -> int:
    """The partition statistic n(la) = sum_i (i-1) * la_i  (1-based rows).

    Equals the number of cells strictly below the first row when each row i
    is weighted by its index, and also sum_j C(la'_j, 2) over the conjugate.
    For a unipotent element of Jordan type la the centralizer dimension in
    GL_n is n + 2 * n_stat(la).
    """
    return sum(i * part for i, part in enumerate(Partition(la)))


def conjugate(la: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not la:
        return Partition(())
    return Partition(sum(1 for p in la if p >= j) for j in range(1, la[0] + 1))


def dominated(mu: Partition, la: Partition) -> bool:
    """mu <= la in dominance order: each partial sum of mu is at most la's."""
    a = b = 0
    for x, y in zip(mu, la + (0,) * len(mu)):
        a, b = a + x, b + y
        if a > b:
            return False
    return True


def multiplicities(la: Partition) -> dict[int, int]:
    """Map part-size -> multiplicity, keys in decreasing order."""
    out: dict[int, int] = {}
    for p in la:
        out[p] = out.get(p, 0) + 1
    return out


def weyl_centralizer_order(rho: Partition) -> int:
    """|W_rho| = prod_i i^{m_i} * m_i!, the order of the centralizer in S_n of
    a permutation of cycle type rho (also the order of the relative Weyl group
    of the maximal torus labelled by rho)."""
    z = 1
    for part, mult in multiplicities(rho).items():
        z *= part**mult * math.factorial(mult)
    return z


def b_exponents(la: Partition) -> tuple[int, ...]:
    """The k of b_la(t) = prod_i prod_{k=1}^{m_i(la)} (1 - t^k), one for each
    factor; they also give the unipotent centralizer orders."""
    return tuple(k for m in multiplicities(la).values() for k in range(1, m + 1))


def z_weights(n: int) -> list[IntPoly]:
    """n!/z_rho(t) = (n!/z_rho) * prod_i (1 - t^{rho_i}) for each rho |- n in
    canonical order, z_rho(t) = <p_rho, p_rho> (Macdonald III.4): at t = q, (-1)^n
    times it is Kawanaka's torus weight sgn(rho) * (n!/|W_rho|) * |T_rho(q)|."""
    fact = math.factorial(n)
    weights = []
    for rho in partitions_of(n):
        c = exact_div(fact, weyl_centralizer_order(rho), f"{n}! / z_rho of {rho}")
        weights.append(times_binomials(((-1) ** len(rho) * c,), rho, 1))
    return weights
