"""Finite fields held as tables, for the brute-force oracle.

F_q = F_p[x]/(f) with f chosen so that its residue x is primitive; that
makes the quotient a field without a test for irreducibility (see
FiniteField).  Elements are the integers 0..q-1, and addition, products,
negatives and inverses are read off tables that construction checks against
the field axioms.  Matrices over F_q are tuples of row tuples of elements,
multiplied, inverted and ranked by the helpers at the end.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .errors import ContractError


def is_prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, e) with q = p^e, or None, also for a q that is not an int."""
    if type(q) is not int or q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and q > p:
            break
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
    return (q, 1)


class FiniteField:
    """F_q for a prime power q = p^e, elements encoded as integers 0..q-1:
    the residue sum_i c_i x^i (c_i digits base p) modulo ``modulus`` is
    encoded as sum_i c_i p^i.  The modulus f is the first monic polynomial
    of degree e over F_p (coefficients lowest first, counted up) with
    f(0) != 0 whose residue x has q - 1 distinct nonzero powers.  Then every
    nonzero residue is a power of the unit x, so F_p[x]/(f) is a field and
    f is irreducible, indeed primitive (Lidl & Niederreiter, Finite Fields,
    1997, chapter 3).  Addition is digit-wise, and its table is built a row
    at a time: digit place d makes p^2 blocks of the table of the places
    below it, block (c, j) plus (c + j mod p)*d, so each row is a Kronecker
    sum of rotated digit rows.  Products, inverses and powers are read off
    ``exp`` (k -> x^k) and ``log``.

    Construction verifies the field axioms outright, every one over every a,
    b and c, a whole table at a time in C: each row of ``add`` and ``mul``
    is held as bytes (so q <= 256), and the composite x -> row_a[row_b[x]]
    of two rows is row_b.translate(row_a padded to 256 bytes), so the rows
    of a table joined in order are composed with one row by one call.  In
    order: the identities (a column each), negation and inverses, then
    commutativity (the table equal to its transpose), then for each a in
    turn distributivity a(b + c) = ab + ac, and the associativity of + and
    of *, each as all b and c at once."""

    def __init__(self, q: int):
        pe = is_prime_power(q)
        if pe is None:
            raise ValueError(f"{q} is not a prime power")
        if q > 256:
            raise ValueError(f"F_{q} does not fit tables of bytes: q must be at most 256")
        self.q = q
        self.p, self.e = p, e = pe
        rows = [[0]]  # the table of the places so far, place d the most significant
        for d in (p**i for i in range(e)):
            rows = [[(c + j) % p * d + x for j in range(p) for x in row]
                    for c in range(p) for row in rows]
        self.add = rows
        self.modulus, self.exp = self._primitive()
        self.log = log = [0] * q
        for k, a in enumerate(self.exp):
            log[a] = k
        exp, units = self.exp, q - 1
        self.mul = [[0] * q] + [
            [0] + [exp[(log[a] + log[b]) % units] for b in range(1, q)] for a in range(1, q)
        ]
        self.neg = [self.mul[a][p - 1] for a in range(q)]  # p - 1 encodes -1
        self.inv = [0] + [exp[-log[a] % units] for a in range(1, q)]
        self._verify_axioms()

    def _primitive(self) -> tuple[tuple[int, ...], list[int]]:
        """The modulus, lowest coefficient first, and the codes of x^0, ...,
        x^(q-2).  Times x, the residue with top digit d and the rest r is
        r shifted up a digit, plus d*x^e = -d*(f - x^e)."""
        q, p, e = self.q, self.p, self.e
        top = p ** (e - 1)
        for tail in itertools.product(range(p), repeat=e):
            if not tail[0]:
                continue
            carry = [sum(-d * c % p * p**i for i, c in enumerate(tail)) for d in range(p)]
            exp = [1]
            for _ in range(q - 2):
                a = exp[-1]
                exp.append(self.add[a % top * p][carry[a // top]])
            if 0 not in exp and len(set(exp)) == q - 1:
                return tail + (1,), exp
        raise ContractError(f"no primitive polynomial of degree {e} over F_{p}")

    def _verify_axioms(self) -> None:
        q, pad = self.q, bytes(256 - self.q)
        add, mul = list(map(bytes, self.add)), list(map(bytes, self.mul))
        add_t, mul_t = list(map(bytes, zip(*add))), list(map(bytes, zip(*mul)))
        adds, muls = b"".join(add), b"".join(mul)
        padded = [row + pad for row in add]  # as translation tables, x -> a + x
        checks = [
            ("identity axiom", add_t[0] == mul_t[1] == bytes(range(q)) and not any(mul_t[0])),
            ("negation axiom", not any(map(bytes.__getitem__, add, self.neg))),
            ("inverse axiom", all(row[b] == 1 for row, b in zip(mul[1:], self.inv[1:]))),
            ("commutativity", add_t == add and mul_t == mul),
        ]
        for a in range(q):  # every b and c at once: the rows of b = 0..q-1 joined
            times = mul[a] + pad  # x -> a*x
            checks += [
                ("distributivity",  # a(b + c) against ab + ac
                 adds.translate(times) == b"".join([mul[a].translate(padded[x]) for x in mul[a]])),
                ("additive associativity",  # a + (b + c) against (a + b) + c
                 adds.translate(padded[a]) == b"".join([add[x] for x in add[a]])),
                ("multiplicative associativity",  # a(bc) against (ab)c
                 muls.translate(times) == b"".join([mul[x] for x in mul[a]])),
            ]
        for axiom, holds in checks:
            if not holds:
                raise ContractError(f"F_{q}: {axiom} failed")

    def power(self, a: int, k: int) -> int:
        return self.exp[self.log[a] * k % (self.q - 1)] if a else int(k == 0)

    def frobenius(self, a: int) -> int:
        return self.power(a, self.p)

    def abs_trace(self, a: int, degree: Optional[int] = None) -> int:
        """Trace from the subfield with p^degree elements (by default F_q
        itself) down to the prime field, returned as an integer 0..p-1."""
        acc, cur = 0, a
        for _ in range(self.e if degree is None else degree):
            acc = self.add[acc][cur]
            cur = self.frobenius(cur)
        if acc >= self.p:
            raise ContractError(f"trace of {a} in F_{self.q} left the prime field: {acc}")
        return acc


@lru_cache(maxsize=None)
def finite_field(q: int) -> FiniteField:
    return FiniteField(q)


Mat = tuple[tuple[int, ...], ...]


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(F: FiniteField, A: Mat, B: Mat) -> Mat:
    n = len(A)
    mul, add = F.mul, F.add
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc][mul[Ai[k]][B[k][j]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _row_reduce(F: FiniteField, rows: list[list[int]], width: int) -> int:
    """Gauss-Jordan elimination in place: rows become reduced row echelon on
    their first ``width`` columns, and the number of pivots is returned."""
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = inv[rows[rank][col]]
        rows[rank] = [mul[scale][x] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                c = neg[rows[r][col]]
                rows[r] = [add[x][mul[c][y]] for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def mat_inv(F: FiniteField, A: Mat) -> Optional[Mat]:
    """Gauss-Jordan inverse, read off the reduced form of (A | 1), or None if
    A is singular."""
    n = len(A)
    aug = [list(A[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    if _row_reduce(F, aug, n) < n:
        return None
    return tuple(tuple(row[n:]) for row in aug)


def mat_rank(F: FiniteField, A: Mat) -> int:
    rows = [list(r) for r in A]
    return _row_reduce(F, rows, len(rows[0]) if rows else 0)
