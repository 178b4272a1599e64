"""Order polynomials for GL_n(q), GU_n(q) and the subgroups the character
formula needs: maximal tori, unipotent centralizers, class sizes.

The two families are treated uniformly through eps = +1 (split, GL) and
eps = -1 (unitary, GU): every unitary order polynomial is the eps-twist of
the GL one, e.g. |GU_n| = q^{n(n-1)/2} prod_i (q^i - (-1)^i).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ContractError
from .intpoly import IntPoly, exact_quotient, scale, times_binomials
from .partitions import Partition, b_exponents, check_n, conjugate, n_stat
from .polyring import RationalPoly


def check_eps(eps: int) -> int:
    if type(eps) is not int or eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    return eps


@lru_cache(maxsize=None)
def group_order_coeffs(n: int, eps: int) -> IntPoly:
    return times_binomials((0,) * (n * (n - 1) // 2) + (1,), range(1, n + 1), eps)


def group_order(n: int, eps: int) -> RationalPoly:
    """|GL_n(q)| or |GU_n(q)| as a monic degree-n^2 polynomial in q."""
    check_eps(eps)
    check_n(n, 1)
    return RationalPoly(group_order_coeffs(n, eps), "q")


@lru_cache(maxsize=None)
def torus_order_coeffs(rho: Partition, eps: int) -> IntPoly:
    return times_binomials((1,), rho, eps)


def torus_order(rho: Partition, eps: int) -> RationalPoly:
    """|T_rho(q)| = prod_i (q^{rho_i} - eps^{rho_i}): the order of the maximal
    torus labelled by rho, monic of degree n."""
    check_eps(eps)
    return RationalPoly(torus_order_coeffs(Partition(rho), eps), "q")


def e_poly(la: Partition) -> RationalPoly:
    """e_la(t) = prod_i (1 - t^{la_i}), so that |T_rho| = q^n * e_rho(1/(eps q)).
    The package does not call it: it is kept because the span table of the
    benchmark (`bench/spans.py` LAYERS) wraps it by name."""
    return RationalPoly(scale(times_binomials((1,), la, 1), (-1) ** len(la)), "t")


def sgn_eps(la: Partition, eps: int) -> int:
    """The sign eps^{floor(n/2)} * (-1)^{n + r} attached to a torus label with
    r parts; for eps = +1 this is just the sign of a permutation of cycle
    type la."""
    check_eps(eps)
    la = Partition(la)
    n, r = la.n, la.length
    return eps ** (n // 2) * (-1) ** (n + r)


@lru_cache(maxsize=None)
def _centralizer(la: Partition, eps: int) -> IntPoly:
    exps = b_exponents(la)
    shift = sum(c * c for c in conjugate(la)) - sum(exps)
    if shift < 0:
        raise ContractError(
            f"centralizer order for {la} has a negative power q^{shift}"
        )
    return times_binomials((0,) * shift + (1,), exps, eps)


def unipotent_centralizer_order(la: Partition, eps: int) -> RationalPoly:
    """Order of the centralizer of a unipotent element of Jordan type la:

        q^{sum (la'_j)^2} * prod_i prod_{k=1}^{m_i} (1 - (eps q)^{-k})
          = q^{sum (la'_j)^2 - sum_i m_i (m_i + 1) / 2}
            * prod_i prod_{k=1}^{m_i} (q^k - eps^k),

    monic of degree n + 2*n_stat(la)."""
    check_eps(eps)
    return RationalPoly(_centralizer(Partition(la), eps), "q")


@lru_cache(maxsize=None)
def class_size_coeffs(la: Partition, eps: int) -> IntPoly:
    """|G| / |centralizer|, an exact division by a monic polynomial."""
    grp = group_order_coeffs(sum(la), eps)
    return exact_quotient(grp, _centralizer(la, eps), f"class size for {la}")


def class_size(la: Partition, eps: int) -> RationalPoly:
    """|G| / |centralizer|, an exact polynomial division."""
    check_eps(eps)
    return RationalPoly(class_size_coeffs(Partition(la), eps), "q")


def centralizer_dim(la: Partition) -> int:
    """dim C_G(u) = n + 2 * n_stat(la) for u unipotent of Jordan type la;
    the degree target for the endomorphism-algebra dimension polynomial."""
    la = Partition(la)
    return la.n + 2 * n_stat(la)
