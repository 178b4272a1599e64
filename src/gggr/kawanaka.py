"""Generalised Gelfand-Graev characters and their endomorphism-algebra
dimension polynomials, via Kawanaka's character formula.

For a unipotent class of Jordan type mu in G = GL_n(q) (eps = +1) or
GU_n(q) (eps = -1), the generalised Gelfand-Graev character gamma_mu takes
the value, on the unipotent class of type la,

    gamma_mu(la) = eps^{n_stat(mu)} * sum_{rho |- n}  1/|W_rho|
                    * sgn_eps(rho) * |T_rho(q)|
                    * X_rho^mu(eps q) * Q_rho^la(eps q)

with |T_rho(q)| = q^n e_rho(1/(eps q)) the order of the maximal torus, and
vanishes off unipotent classes.  As q^k - eps^k = eps^k ((eps q)^k - 1) and
sgn_eps = eps^{floor(n/2)} sgn, the GU_n value is the GL_n one at q -> -q
times (-1)^{n_stat(mu) + n + floor(n/2)} (Ennola duality), so the sum over rho
is one GL_n product per n.  The self-intersection number

    <gamma_mu, gamma_mu> = (1/|G|) * sum_la |class la| * gamma_mu(la)^2

is integer-valued at every prime power, so dividing the numerator polynomial
by |G| must leave remainder zero; the quotient is the dimension of the
endomorphism algebra of the underlying representation as a polynomial in q.
The main verification target: that quotient is monic of degree
n + 2*n_stat(mu), the centralizer dimension of the class.  gamma_mu and
endo_dim are in Z[q]: n! must divide each coefficient of the Kawanaka product,
and each gamma_mu(la) must vanish unless la <= mu in dominance.  Both checks
run once per n on the GL_n product, so a product that fails either fails
every mu of its n, for both families.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple, Optional

from .errors import CapExceededError, ContractError, NonExactDivisionError
from .green import green_matrix
from .grouporders import (
    centralizer_dim,
    check_eps,
    class_size_coeffs,
    group_order_coeffs,
    sgn_eps,
    torus_order_coeffs,
)
from .intpoly import (
    IntPoly,
    bilinear,
    exact_div,
    exact_quotient,
    scale,
    signed,
    weighted_squares,
)
from .partitions import (
    Partition,
    check_n,
    dominated,
    n_stat,
    partitions_of,
    weyl_centralizer_order,
)
from .polyring import RationalPoly, poly_to_json, pretty
from .symfunc import x_matrix

#: Symbolic verification caps used by the command-line driver, the same for
#: both families (their cost is equal to within measurement noise).  A
#: `verify` run at VERIFY_CAP takes ~0.12-0.19 s, at n = 9 ~0.24-0.41 s and
#: at VERIFY_CAP_BIG ~0.66-1.26 s (fresh processes, 2 cores, Python 3.11.7).
VERIFY_CAP = 8
VERIFY_CAP_BIG = 10

#: The prime powers q0 at which verify_theorem requires endo_dim > 0.
SAMPLES = (2, 3, 4, 5)


@lru_cache(maxsize=None)
def _gamma_matrix(n: int) -> tuple[tuple[IntPoly, ...], ...]:
    """gamma_mu(la) of GL_n(q) for every mu, la |- n, rows mu and columns
    la in canonical order.  With the 1/|W_rho| weights cleared by n!, the
    sum over rho is one matrix product over Z[q]:

        n! * gamma_mu(la) = sum_rho X_rho^mu(q) * w_rho(q) * Q_rho^la(q),
        w_rho = sgn(rho) * (n! / |W_rho|) * |T_rho(q)|,

    and gamma_mu(la) is in Z[q] (Kawanaka, Adv. Stud. Pure Math. 6, 1985), so
    n! must divide every coefficient of the product.  Each quotient must
    vanish unless la <= mu in dominance: gamma_mu vanishes off the closure of
    the class of mu (Lusztig, Adv. Math. 94, 1992), which for GL_n and GU_n
    is the classes of the la <= mu.  A GU_n entry is a GL_n one at -q with a
    sign, so it vanishes where the GL_n one does, and both checks run here
    once per n for both families."""
    nfact = factorial(n)
    parts = partitions_of(n)
    weights = []
    for rho in parts:
        cls = exact_div(nfact, weyl_centralizer_order(rho), f"{n}! / |W_rho| of {rho}")
        weights.append(scale(torus_order_coeffs(rho, 1), sgn_eps(rho, 1) * cls))
    rows = []
    for mu, row in zip(parts, bilinear(x_matrix(n), weights, green_matrix(n))):
        gammas = []
        for la, g in zip(parts, row):
            what = f"n! * gamma_{mu}({la}) of GL_{n} / {n}!"
            g = tuple(exact_div(c, nfact, what) for c in g)
            if g and not dominated(la, mu):
                raise ContractError(
                    f"gamma_{mu}({la}) of GL_{n} = {pretty(RationalPoly(g, 'q'))} is not zero,"
                    f" but {la} is not dominated by {mu}"
                )
            gammas.append(g)
        rows.append(tuple(gammas))
    return tuple(rows)


def gggr_value(mu: Partition, la: Partition, eps: int) -> RationalPoly:
    """gamma_mu evaluated on the unipotent class of type la, as an exact
    polynomial in q."""
    check_eps(eps)
    mu, la = Partition(mu), Partition(la)
    if mu.n != la.n:
        raise ValueError(f"|mu| = {mu.n} but |la| = {la.n}")
    return _gggr_value(mu, la, eps)


@lru_cache(maxsize=None)
def _gggr_value(mu: Partition, la: Partition, eps: int) -> RationalPoly:
    """The GL_n entry of _gamma_matrix at eps q, times
    eps^{n_stat(mu) + n + floor(n/2)}, by q^k - eps^k = eps^k ((eps q)^k - 1)
    and sgn_eps = eps^{floor(n/2)} sgn."""
    n = sum(mu)
    parts = partitions_of(n)
    g = _gamma_matrix(n)[parts.index(mu)][parts.index(la)]
    return RationalPoly(scale(signed(g, eps), eps ** (n_stat(mu) + n + n // 2)), "q")


class GGGRCharacter(NamedTuple):
    """A generalised Gelfand-Graev character, stored by its unipotent
    columns only (it vanishes elsewhere)."""

    mu: Partition
    eps: int
    values: dict[Partition, RationalPoly]

    def to_json(self) -> dict:
        return {
            "n": self.mu.n,
            "eps": self.eps,
            "mu": self.mu.to_json(),
            "values": [
                {"lambda": la.to_json(), "poly": poly_to_json(poly)}
                for la, poly in self.values.items()
            ],
        }


def gggr_character(mu: Partition, eps: int) -> GGGRCharacter:
    mu = Partition(mu)
    return GGGRCharacter(mu, eps, {la: gggr_value(mu, la, eps) for la in partitions_of(mu.n)})


def endo_dim(mu: Partition, eps: int) -> RationalPoly:
    """dim End of the generalised Gelfand-Graev representation attached to
    mu: the exact quotient of sum_la |class la| gamma_mu(la)^2 by |G|."""
    check_eps(eps)
    return RationalPoly(_endo_dim(Partition(mu), eps), "q")


@lru_cache(maxsize=None)
def _endo_numerators(n: int, eps: int) -> tuple[IntPoly, ...]:
    """sum_la |class la| * gamma_mu(la)^2 = |G| <gamma_mu, gamma_mu> for every
    mu |- n in canonical order, as one product in which each class size is
    packed once."""
    sizes = [class_size_coeffs(la, eps) for la in partitions_of(n)]
    rows = [[signed(g, eps) for g in row] for row in _gamma_matrix(n)]
    return tuple(weighted_squares(rows, sizes))


@lru_cache(maxsize=None)
def _endo_dim(mu: Partition, eps: int) -> IntPoly:
    """endo_dim(mu), over Z[q]."""
    n = sum(mu)
    numerator = _endo_numerators(n, eps)[partitions_of(n).index(mu)]
    what = f"sum_la |class la| gamma_{mu}(la)^2 / |G|"
    return exact_quotient(numerator, group_order_coeffs(n, eps), what)


class MuResult(NamedTuple):
    """Verification record for one unipotent type.  ``bad_sample`` is the
    first sample q0 at which endo_dim is not positive, with its value there;
    ``error`` is why endo_dim is not a polynomial."""

    mu: Partition
    poly: Optional[RationalPoly]
    degree: Optional[int]
    target_degree: int
    monic: bool
    polynomial: bool
    bad_sample: Optional[tuple[int, int]] = None
    error: Optional[ContractError] = None

    @property
    def failure(self) -> Optional[str]:
        """The first condition that fails, or None."""
        if not self.polynomial:
            return "division" if isinstance(self.error, NonExactDivisionError) else "contract"
        if not self.monic:
            return "monic"
        if self.degree != self.target_degree:
            return "degree"
        if self.bad_sample is not None:
            return "sample"
        return None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def to_json(self) -> dict:
        doc = {
            "mu": self.mu.to_json(),
            "poly": None if self.poly is None else poly_to_json(self.poly),
            "degree": self.degree,
            "target_degree": self.target_degree,
            "monic": self.monic,
            "polynomial": self.polynomial,
            "pass": self.passed,
        }
        failure = self.failure
        if failure is not None:
            doc["witness"] = {"condition": failure}
            if self.error is not None:
                doc["witness"]["error"] = str(self.error)
            if failure == "sample":
                q0, value = self.bad_sample
                doc["witness"].update(q=q0, value=[value, 1])
        return doc


class VerificationReport(NamedTuple):
    n: int
    eps: int
    results: tuple[MuResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "eps": self.eps,
            "results": [r.to_json() for r in self.results],
            "pass": self.passed,
        }


def _mu_result(mu: Partition, eps: int) -> MuResult:
    target = centralizer_dim(mu)
    try:
        poly = endo_dim(mu, eps)
    except ContractError as exc:
        return MuResult(mu, None, None, target, False, False, error=exc)
    values = ((q0, poly(q0)) for q0 in SAMPLES)
    bad = next(((q0, v) for q0, v in values if v <= 0), None)
    return MuResult(mu, poly, poly.degree, target, poly.is_monic(), True, bad)


def verify_theorem(n: int, eps: int, cap: Optional[int] = None) -> VerificationReport:
    """Check, for every unipotent type mu of size n, that the endomorphism
    dimension polynomial exists (exact division), is monic, has degree
    n + 2*n_stat(mu), and is positive at q0 = 2, 3, 4, 5; a cap that is not
    an int raises ValueError.  The report lists mu in canonical partition
    order."""
    check_eps(eps)
    check_n(n, 1)
    if cap is not None and type(cap) is not int:
        raise ValueError(f"cap must be an integer, got {cap!r}")
    limit = cap if cap is not None else VERIFY_CAP
    if n > limit:
        raise CapExceededError(
            f"verify_theorem at n = {n}, eps = {eps:+d} exceeds cap {limit}"
        )
    parts = partitions_of(n)
    try:
        _gamma_matrix(n)
    except ContractError as exc:  # lru_cache keeps no failure: every mu shares this one
        results = tuple(
            MuResult(mu, None, None, centralizer_dim(mu), False, False, error=exc) for mu in parts
        )
    else:
        results = tuple(_mu_result(mu, eps) for mu in parts)
    return VerificationReport(n, eps, results)
