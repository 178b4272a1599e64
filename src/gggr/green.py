"""Green polynomials of GL_n / GU_n and their orthogonality relation.

The Green polynomial attached to a torus label rho and a unipotent Jordan
type la is obtained from the power-sum / Hall-Littlewood transition
coefficient by reversing the coefficient order:

    Q_rho^la(t) = t^{n_stat(la)} * X_rho^la(1/t)

Evaluated at t = q (split, eps = +1) or t = -q (unitary, eps = -1) these are
the values of Deligne-Lusztig characters at unipotent elements, which is all
the downstream character formula needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import ContractError
from .grouporders import (
    check_eps,
    class_size_coeffs,
    group_order_coeffs,
    torus_order_coeffs,
)
from .intpoly import IntPoly, bilinear, mul, scale, signed, trim
from .partitions import Partition, n_stat, partitions_of, weyl_centralizer_order
from .polyring import RationalPoly, poly_to_json
from .symfunc import x_matrix


@lru_cache(maxsize=None)
def green_matrix(n: int) -> tuple[tuple[IntPoly, ...], ...]:
    """Q_rho^la(t) for every rho, la |- n as integer coefficients in t, rows
    rho and columns la in canonical order, read off the X table by reversing
    each X_rho^la within degree n_stat(la)."""
    parts = partitions_of(n)
    rows = []
    for rho, x_row in zip(parts, x_matrix(n)):
        row = []
        for la, x in zip(parts, x_row):
            top = n_stat(la)
            if len(x) > top + 1:
                raise ContractError(
                    f"Green polynomial Q_{tuple(rho)}^{tuple(la)} has negative powers:"
                    f" deg X = {len(x) - 1} > n(la) = {top}"
                )
            row.append(trim((0,) * (top + 1 - len(x)) + x[::-1]))
        rows.append(tuple(row))
    return tuple(rows)


def green_poly(rho: Partition, la: Partition) -> RationalPoly:
    """Q_rho^la(t); constant term 1, degree at most n_stat(la)."""
    return _green(tuple(rho), tuple(la))


@lru_cache(maxsize=None)
def _green(rho: tuple[int, ...], la: tuple[int, ...]) -> RationalPoly:
    parts = partitions_of(sum(rho))
    entry = green_matrix(sum(rho))[parts.index(rho)][parts.index(la)]
    return RationalPoly(entry, "t")


@dataclass(frozen=True)
class GreenTable:
    """All Green polynomials for a given n, rows = torus labels rho and
    columns = unipotent types la, both in canonical order."""

    n: int
    order: tuple[Partition, ...]
    entries: dict[tuple[Partition, Partition], RationalPoly]

    def poly(self, rho: Partition, la: Partition) -> RationalPoly:
        return self.entries[(rho, la)]

    def to_json(self, eps: Optional[int] = None) -> dict:
        """Wire format; when eps is given the table is specialized t -> eps*q."""
        if eps is not None:
            check_eps(eps)
        rows = []
        for rho in self.order:
            cols = []
            for la in self.order:
                poly = self.entries[(rho, la)]
                if eps is not None:
                    poly = RationalPoly(signed(poly.coeffs, eps), "q")
                cols.append({"lambda": la.to_json(), "poly": poly_to_json(poly)})
            rows.append({"rho": rho.to_json(), "cols": cols})
        out = {"n": self.n}
        if eps is not None:
            out["eps"] = eps
        out["rows"] = rows
        return out


@lru_cache(maxsize=None)
def green_table(n: int) -> GreenTable:
    parts = tuple(partitions_of(n))
    entries = {
        (rho, la): green_poly(rho, la) for rho in parts for la in parts
    }
    return GreenTable(n, parts, entries)


@dataclass(frozen=True)
class OrthogonalityResult:
    ok: bool
    #: On failure: (rho, pi, lhs, rhs) of the first offending pair, where the
    #: sides are the cross-multiplied polynomial forms compared exactly.
    witness: Optional[tuple[Partition, Partition, RationalPoly, RationalPoly]] = None


def verify_orthogonality(n: int, eps: int) -> OrthogonalityResult:
    """Exact symbolic check of the Green polynomial orthogonality relation:
    for every pair of torus labels (rho, pi),

        sum_la |class la| Q_rho^la(eps q) Q_pi^la(eps q)
            = delta_{rho,pi} * |W_rho| * |G| / |T_rho|

    verified as a polynomial identity in q (cross-multiplied by |T_rho|).
    The left sides for all pairs are one matrix product
    Qᵀ · diag(|class la|) · Q over Z[q]."""
    check_eps(eps)
    parts = partitions_of(n)
    table = green_matrix(n)
    by_la = [[signed(row[j], eps) for row in table] for j in range(len(parts))]
    sizes = [class_size_coeffs(tuple(la), eps) for la in parts]
    sums = bilinear(by_la, sizes, by_la)
    grp = group_order_coeffs(n, eps)
    for i, rho in enumerate(parts):
        t_rho = torus_order_coeffs(tuple(rho), eps)
        for j, pi in enumerate(parts):
            lhs = mul(sums[i][j], t_rho)
            rhs = scale(grp, weyl_centralizer_order(rho)) if i == j else ()
            if lhs != rhs:
                return OrthogonalityResult(
                    False, (rho, pi, RationalPoly(lhs, "q"), RationalPoly(rhs, "q"))
                )
    return OrthogonalityResult(True)
