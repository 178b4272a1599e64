"""Order polynomials for GL_n(q), GU_n(q) and the subgroups the character
formula needs: maximal tori, unipotent centralizers, class sizes.

The two families are treated uniformly through eps = +1 (split, GL) and
eps = -1 (unitary, GU): every unitary order polynomial is the eps-twist of
the GL one, e.g. |GU_n| = q^{n(n-1)/2} prod_i (q^i - (-1)^i).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ContractError, NonExactDivisionError
from .intpoly import IntPoly, divmod_monic, scale, times_binomials
from .partitions import Partition, conjugate, multiplicities, n_stat
from .polyring import RationalPoly


def check_eps(eps: int) -> int:
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    return eps


@lru_cache(maxsize=None)
def group_order_coeffs(n: int, eps: int) -> IntPoly:
    return times_binomials(n * (n - 1) // 2, range(1, n + 1), eps)


def group_order(n: int, eps: int) -> RationalPoly:
    """|GL_n(q)| or |GU_n(q)| as a monic degree-n^2 polynomial in q."""
    check_eps(eps)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return RationalPoly(group_order_coeffs(n, eps), "q")


@lru_cache(maxsize=None)
def torus_order_coeffs(rho: tuple[int, ...], eps: int) -> IntPoly:
    return times_binomials(0, rho, eps)


def torus_order(rho: Partition, eps: int) -> RationalPoly:
    """|T_rho(q)| = prod_i (q^{rho_i} - eps^{rho_i}): the order of the maximal
    torus labelled by rho, monic of degree n."""
    check_eps(eps)
    return RationalPoly(torus_order_coeffs(tuple(rho), eps), "q")


def e_poly(la: Partition) -> RationalPoly:
    """e_la(t) = prod_i (1 - t^{la_i}), so that |T_rho| = q^n * e_rho(1/(eps q)).
    The package does not call it: it is kept because the span table of the
    benchmark (`bench/spans.py` LAYERS) wraps it by name."""
    return RationalPoly(scale(times_binomials(0, la, 1), (-1) ** len(la)), "t")


def sgn_eps(la: Partition, eps: int) -> int:
    """The sign eps^{floor(n/2)} * (-1)^{n + r} attached to a torus label with
    r parts; for eps = +1 this is just the sign of a permutation of cycle
    type la."""
    check_eps(eps)
    n, r = la.n, la.length
    return eps ** (n // 2) * (-1) ** (n + r)


@lru_cache(maxsize=None)
def _centralizer(la: tuple[int, ...], eps: int) -> IntPoly:
    la_p = Partition(la)
    mults = multiplicities(la_p).values()
    shift = sum(c * c for c in conjugate(la_p)) - sum(m * (m + 1) // 2 for m in mults)
    if shift < 0:
        raise ContractError(
            f"centralizer order for {la} has a negative power q^{shift}"
        )
    return times_binomials(shift, [k for m in mults for k in range(1, m + 1)], eps)


def unipotent_centralizer_order(la: Partition, eps: int) -> RationalPoly:
    """Order of the centralizer of a unipotent element of Jordan type la:

        q^{sum (la'_j)^2} * prod_i prod_{k=1}^{m_i} (1 - (eps q)^{-k})
          = q^{sum (la'_j)^2 - sum_i m_i (m_i + 1) / 2}
            * prod_i prod_{k=1}^{m_i} (q^k - eps^k),

    monic of degree n + 2*n_stat(la)."""
    check_eps(eps)
    return RationalPoly(_centralizer(tuple(la), eps), "q")


@lru_cache(maxsize=None)
def class_size_coeffs(la: tuple[int, ...], eps: int) -> IntPoly:
    """|G| / |centralizer|, an exact division by a monic polynomial."""
    grp = group_order_coeffs(sum(la), eps)
    quot, rem = divmod_monic(grp, _centralizer(la, eps))
    if rem:
        raise NonExactDivisionError(f"class size for {la} left remainder {rem}")
    return quot


def class_size(la: Partition, eps: int) -> RationalPoly:
    """|G| / |centralizer|, an exact polynomial division."""
    check_eps(eps)
    return RationalPoly(class_size_coeffs(tuple(la), eps), "q")


def centralizer_dim(la: Partition) -> int:
    """dim C_G(u) = n + 2 * n_stat(la) for u unipotent of Jordan type la;
    the degree target for the endomorphism-algebra dimension polynomial."""
    return la.n + 2 * n_stat(la)
