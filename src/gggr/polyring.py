"""Exact univariate polynomial arithmetic: the package's one public
polynomial type.

Everything the package returns (Green polynomials, character values, order
formulas, endomorphism dimensions) is a `RationalPoly` with
`fractions.Fraction` coefficients — no floats anywhere, and no negative
powers: every such quantity is a genuine polynomial.  Two formal variables
appear in practice:

* ``t`` — the Hall–Littlewood / Green polynomial variable,
* ``q`` — the field-size variable of the finite groups of Lie type.

Polynomials carry their variable name as a tag and refuse to combine with a
polynomial over a different variable; the substitution t -> eps*q (eps = +-1)
is the only sanctioned bridge between the two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import NonExactDivisionError, VariableMismatchError

Scalar = Union[int, Fraction]


def _check_var(a: "RationalPoly", b: "RationalPoly") -> None:
    if a.var != b.var:
        raise VariableMismatchError(f"cannot combine '{a.var}' with '{b.var}'")


class RationalPoly:
    """Dense polynomial over Q.  ``coeffs[k]`` is the coefficient of x^k;
    the zero polynomial has an empty coefficient tuple."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Scalar] = (), var: str = "t"):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.var = var

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: Scalar, var: str = "t") -> "RationalPoly":
        return cls((Fraction(c),), var)

    @classmethod
    def zero(cls, var: str = "t") -> "RationalPoly":
        return cls((), var)

    @classmethod
    def gen(cls, var: str = "t") -> "RationalPoly":
        """The variable itself."""
        return cls((0, 1), var)

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1, var: str = "t") -> "RationalPoly":
        if k < 0:
            raise ValueError(f"monomial exponent must be >= 0, got {k}")
        return cls((0,) * k + (Fraction(c),), var)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPoly.const(other, self.var)
        return NotImplemented

    def __add__(self, other) -> "RationalPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_var(self, other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly(
            (self.coeff(k) + other.coeff(k) for k in range(n)), self.var
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly((-c for c in self.coeffs), self.var)

    def __sub__(self, other) -> "RationalPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalPoly":
        return (-self) + other

    def __mul__(self, other) -> "RationalPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_var(self, other)
        if self.is_zero() or other.is_zero():
            return RationalPoly((), self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalPoly":
        if k < 0:
            raise ValueError("negative power of a RationalPoly")
        result = RationalPoly.const(1, self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(other, self.var)
        return (
            isinstance(other, RationalPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self) -> str:
        return f"RationalPoly({pretty(self)!r})"

    def __call__(self, x: Scalar) -> Fraction:
        """Horner evaluation at an exact rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def div_rem(f: RationalPoly, g: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Euclidean division f = q*g + r with deg r < deg g, all exact."""
    _check_var(f, g)
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    gd, glead = g.degree, g.leading()
    quot = [Fraction(0)] * max(len(rem) - gd, 0)
    for k in range(len(rem) - 1, gd - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        factor = c / glead
        quot[k - gd] = factor
        for j, gc in enumerate(g.coeffs):
            rem[k - gd + j] -= factor * gc
    return RationalPoly(quot, f.var), RationalPoly(rem, f.var)


def exact_div(f: RationalPoly, g: RationalPoly) -> RationalPoly:
    """Division that is required to be exact; nonzero remainder is an error."""
    q, r = div_rem(f, g)
    if not r.is_zero():
        raise NonExactDivisionError(
            f"division left remainder {pretty(r)} (dividing by {pretty(g)})"
        )
    return q


def substitute_signed(f: RationalPoly, eps: int) -> RationalPoly:
    """Substitute t -> eps*q (eps = +1 or -1): the coefficient of t^d picks up
    a factor eps^d and the variable tag flips from 't' to 'q'."""
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    if f.var != "t":
        raise VariableMismatchError(f"substitute_signed expects variable 't', got '{f.var}'")
    return RationalPoly((c * eps ** (k % 2) for k, c in enumerate(f.coeffs)), "q")


# -- serialization ----------------------------------------------------


def poly_to_json(f: RationalPoly) -> dict:
    """Wire format: {"var": ..., "val": v, "coeffs": [[num, den], ...]} where v
    is the lowest exponent with a nonzero coefficient (0 for the zero
    polynomial) and the coefficients run from x^v upwards as decimal strings."""
    val = next((k for k, c in enumerate(f.coeffs) if c), 0)
    return {
        "var": f.var,
        "val": val,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in f.coeffs[val:]],
    }


def poly_from_json(data: dict) -> RationalPoly:
    val = int(data["val"])
    if val < 0:
        raise ValueError(f"negative valuation {val}: not a polynomial")
    coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
    return RationalPoly([0] * val + coeffs, data["var"])


def pretty(f: RationalPoly, var: str | None = None) -> str:
    """Render highest-degree first, e.g. 'q^5 - q^4 + 2q^2 - 1'."""
    if f.is_zero():
        return "0"
    var = var or f.var
    pieces: list[tuple[str, str]] = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = var if k == 1 else f"{var}^{k}"
            body = pw if mag == 1 else f"{mag}{pw}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
