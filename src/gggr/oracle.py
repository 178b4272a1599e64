"""Brute-force finite-group oracle.

Everything symbolic in this package ultimately claims to predict honest
finite-group quantities.  This module checks a handful of them the hard way:
enumerate GL_n(q0) or GU_n(q0) as explicit matrices, split it into conjugacy
classes, read off Jordan types, and compute the inner products of
generalised Gelfand-Graev characters as integer sums over the classes.
Nothing here touches the symbolic pipeline except the final comparisons.

GL_n and GU_n are enumerated by one routine, row by row, each row picked
from candidate vectors that narrow as rows are picked: for GL_n the vectors
outside the span of the rows before it, for GU_n the unit vectors orthogonal
to them.  An element is held as an integer code, its row codes concatenated
with the first row most significant, where a row's code is its index in the
lexicographic order of vectors.  The codes come out strictly increasing, and
a matrix is decoded only where one is needed.  A generating set is found and
checked by closure, which records the Cayley graph as permutations of element
indices; conjugation by each generator is read off it, and each conjugacy
class is the breadth-first orbit of its first element under those
permutations (the standard orbit algorithm; Holt, Eick & O'Brien, Handbook
of Computational Group Theory, 2005, section 4.1).

GU_n(q0) is realized inside GL_n(q0^2) as the fixed points of the twisted
Frobenius g -> transpose(g^(q0))^{-1}, i.e. matrices unitary for the identity
Hermitian form.

The generalised Gelfand-Graev character Gamma_u of a unipotent u of Jordan
type mu is built from one datum for GL and GU alike (Kawanaka, Generalized
Gelfand-Graev representations and Ennola duality, Adv. Stud. Pure Math. 6,
1985).  Grade the basis by the weights k-1, k-3, ..., 1-k of each Jordan
block of size k, let f lower them by 2, and put H = U_(>=2) = 1 + span{E_ij :
h_i - h_j >= 2} with psi(1 + x) = zeta_p^Tr(sum f_ij*x_ji).  Then
<Ind_H^G psi, Ind_H^G psi> = q0^(dim g_1) * <Gamma_u, Gamma_u>, with
dim g_1 = #{(i, j) : h_i - h_j = 1}.  For GU the datum is built for a block
Hermitian form J and carried into the identity-form group by a basis P with
P^* P = J.  mu = (n) gives the Gelfand-Graev character and mu = (1^n) the
regular one.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import CapExceededError, ContractError
from .grouporders import check_eps
from .partitions import Partition, conjugate, partitions_of

#: Enumeration budget on |G|, from measured cost: it admits GL_3(4), with
#: 181 440 elements (~0.7 s and ~46 MiB peak for its report, 2 cores, Python
#: 3.11), and refuses the next supported groups, GU_3(4) with 312 000 and
#: GL_3(5) with 1 488 000 elements.
ENUMERATION_CAP = 200_000

#: Field sizes the oracle accepts as defining fields.
SUPPORTED_Q = (2, 3, 4, 5, 8, 9)


def is_prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, e) with q = p^e, or None."""
    if q < 2:
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


# ---------------------------------------------------------------------------
# Finite fields
# ---------------------------------------------------------------------------


class FiniteField:
    """F_q for a prime power q, elements encoded as integers 0..q-1: the
    element sum_i c_i x^i (c_i digits base p) is encoded as sum_i c_i p^i.
    Addition and multiplication are table-driven; construction verifies the
    field axioms outright."""

    def __init__(self, q: int):
        pe = is_prime_power(q)
        if pe is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.e = pe
        self.modulus = self._find_irreducible() if self.e > 1 else (0, 1)
        self._build_tables()
        self._verify_axioms()

    # Polynomials over F_p as tuples, lowest degree first.

    def _poly_divmod(self, a: tuple[int, ...], b: tuple[int, ...]):
        p = self.p
        a = list(a)
        db, lead = len(b) - 1, b[-1]
        inv_lead = pow(lead, p - 2, p)
        while len(a) - 1 >= db and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            shift = len(a) - 1 - db
            c = a[-1] * inv_lead % p
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            while a and a[-1] == 0:
                a.pop()
        return tuple(a)

    def _is_irreducible(self, f: tuple[int, ...]) -> bool:
        deg = len(f) - 1
        for d in range(1, deg // 2 + 1):
            for tail in itertools.product(range(self.p), repeat=d):
                g = tuple(tail) + (1,)
                if not self._poly_divmod(f, g):
                    return False
        return True

    def _find_irreducible(self) -> tuple[int, ...]:
        for tail in itertools.product(range(self.p), repeat=self.e):
            f = tuple(tail) + (1,)
            if self._is_irreducible(f):
                return f
        raise ContractError(f"no irreducible polynomial of degree {self.e} over F_{self.p}")

    def _decode(self, code: int) -> tuple[int, ...]:
        return tuple(code // self.p**i % self.p for i in range(self.e))

    def _encode(self, digits) -> int:
        return sum(d * self.p**i for i, d in enumerate(digits))

    def _build_tables(self) -> None:
        q, p, e = self.q, self.p, self.e
        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        decoded = [self._decode(c) for c in range(q)]
        for a in range(q):
            for b in range(q):
                self.add[a][b] = self._encode(
                    ((x + y) % p for x, y in zip(decoded[a], decoded[b]))
                )
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(decoded[a]):
                    if x:
                        for j, y in enumerate(decoded[b]):
                            prod[i + j] = (prod[i + j] + x * y) % p
                if e > 1:
                    rem = list(self._poly_divmod(tuple(prod), self.modulus))
                else:
                    rem = prod
                rem += [0] * (e - len(rem))
                self.mul[a][b] = self._encode(rem[:e])
        self.neg = [self.mul[a][p - 1] for a in range(q)]  # p - 1 encodes -1
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def _verify_axioms(self) -> None:
        q = self.q
        rng = range(q)
        add, mul = self.add, self.mul
        for a in rng:
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise ContractError(f"F_{q}: identity axiom failed")
            if add[a][self.neg[a]] != 0:
                raise ContractError(f"F_{q}: negation axiom failed")
            if a and mul[a][self.inv[a]] != 1:
                raise ContractError(f"F_{q}: inverse axiom failed")
        for a in rng:
            for b in rng:
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise ContractError(f"F_{q}: commutativity failed")
                for c in rng:
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise ContractError(f"F_{q}: additive associativity failed")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise ContractError(f"F_{q}: multiplicative associativity failed")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise ContractError(f"F_{q}: distributivity failed")

    def power(self, a: int, k: int) -> int:
        out = 1
        base = a
        while k:
            if k & 1:
                out = self.mul[out][base]
            base = self.mul[base][base]
            k >>= 1
        return out

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


# ---------------------------------------------------------------------------
# Matrices over a finite field (tuples of row tuples of element codes)
# ---------------------------------------------------------------------------

Mat = tuple[tuple[int, ...], ...]


def _sums(F: FiniteField, tables) -> list[int]:
    """x -> sum_k tables[k][x_k], added in mat_mul's order, for each vector x."""
    out = [0]
    for table in tables:
        out = [F.add[a][y] for a in out for y in table]
    return out


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


# ---------------------------------------------------------------------------
# Group enumeration and conjugacy classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjClass:
    rep: Mat
    size: int
    jordan: Optional[Partition]  # set for unipotent classes


@dataclass
class OracleGroup:
    n: int
    eps: int
    q0: int
    field: FiniteField  # entries live here: F_q0 for GL, F_{q0^2} for GU
    codes: list[int]  # e -> the code of g_e, increasing

    _index: Optional[dict[int, int]] = None  # code of g_e -> e, from the split
    _class_id: Optional[list[int]] = None  # e -> the class of g_e
    _classes: Optional[list[ConjClass]] = None

    @property
    def order(self) -> int:
        return len(self.codes)

    @property
    def elements(self) -> Sequence[Mat]:
        """The elements in order, each decoded when read; len() decodes none."""
        return _Decoded(self)

    @property
    def name(self) -> str:
        return f"{'GL' if self.eps == 1 else 'GU'}{self.n}(F{self.q0})"

    def encode(self, g: Mat) -> int:
        """The code of g: its entries, first row first, as the digits base q
        of an integer.  So a row's code is its index in the lexicographic
        order of vectors, and g's is its row codes concatenated."""
        q, code = self.field.q, 0
        for x in itertools.chain.from_iterable(g):
            code = code * q + x
        return code

    def decode(self, code: int) -> Mat:
        """The matrix whose code is ``code``, as encode reads it."""
        q = self.field.q
        entries = iter([code // q**k % q for k in reversed(range(self.n**2))])
        return tuple(zip(*[entries] * self.n))

    # -- conjugacy ------------------------------------------------------

    def classes(self) -> list[ConjClass]:
        if self._classes is None:
            self._split_classes()
        return self._classes

    def class_index(self) -> dict[Mat, int]:
        """The class of each element, as an index into classes()."""
        self.classes()
        return dict(zip(self.elements, self._class_id))

    def _times(self, t: Mat) -> array:
        """R_t: e -> index of g_e*t, or -1 if the product is not an enumerated
        element, for every element at once.  Row i of g_e*t is row i of g_e
        times t, so the code of g_e*t is read off the two halves of the code
        of g_e, the first ceil(n/2) rows and the rest, through two tables of
        t's action on blocks of rows.  The larger has q^(n*ceil(n/2)) entries:
        under ENUMERATION_CAP at most 531 441, for GU3(3) with 24 192
        elements, and at most 65 536 for every other group."""
        F, n, index = self.field, self.n, self._index
        q, width = F.q, F.q**n
        rows = [0] * width  # code of v -> code of v*t
        for col in zip(*t):
            entries = _sums(F, [[row[y] for row in F.mul] for y in col])
            rows = [code * q + x for code, x in zip(rows, entries)]

        def block(k: int, place: int) -> list[int]:
            """Code of k rows -> place times the code of their product by t."""
            table, scaled = [0], [x * place for x in rows]
            for _ in range(k):
                table = [x * width + y for x in table for y in scaled]
            return table

        base = width ** (n // 2)
        low, high = block(n // 2, 1), block(n - n // 2, base)
        get = index.get
        return array("i", [get(high[c // base] + low[c % base], -1) for c in self.codes])

    def _generator_tables(self) -> list[array]:
        """A generating set, found and checked by closure, and the conjugation
        by each generator s as a permutation e -> index of s^-1*g_e*s.  The
        first element, then each from the last back (dense matrices generate
        more), not yet reached from the identity becomes a generator t, with
        R_t for every element.  The closure is extended, not restarted: R_t
        is applied to every element reached so far, then the new elements are
        searched breadth first with every generator.  So it reads every entry
        of every R_t once, and each must be an enumerated element."""
        F, n, codes, index = self.field, self.n, self.codes, self._index
        size = len(codes)
        start = index.get(self.encode(mat_identity(n)))
        if start is None:
            raise ContractError(f"{self.name}: the identity is not an enumerated element")
        generators: list[tuple[Mat, Mat]] = []  # (t, t^-1)
        tables: list[array] = []  # R_t for each generator t
        # The spanning tree: g_e = g_parent*t, with the number of t in via.
        # Each generator at least doubles the subgroup reached, so there are
        # at most log2 |G| of them, far fewer than 256.
        parent = array("i", [-1]) * size
        via = bytearray(size)
        reached = bytearray(size)
        reached[start] = 1
        order = array("i", [start])  # the reached elements, each after its parent
        for i in itertools.chain((0,), range(size - 1, 0, -1)):
            if reached[i]:
                continue
            t = self.decode(codes[i])
            t_inv = mat_inv(F, t)
            if t_inv is None:
                raise ContractError(f"{self.name}: an enumerated element is singular")
            generators.append((t, t_inv))
            tables.append(self._times(t))
            every = list(enumerate(tables))
            newest = every[-1:]
            old = len(order)
            for pos, e in enumerate(order):
                for k, times in newest if pos < old else every:
                    j = times[e]
                    if j < 0:
                        h = mat_mul(F, self.decode(codes[e]), generators[k][0])
                        raise ContractError(
                            f"{self.name}: the product {h} is not an enumerated element"
                        )
                    if not reached[j]:
                        reached[j] = 1
                        parent[j], via[j] = e, k
                        order.append(j)
        # L_s down the spanning tree, as _split_classes explains
        conjugations = []
        for (s, s_inv), times_s in zip(generators, tables):
            j = index.get(self.encode(s_inv))
            if j is None:
                raise ContractError(
                    f"{self.name}: the inverse {s_inv} of {s} is not an enumerated element"
                )
            if times_s[j] != start:
                raise ContractError(f"{self.name}: {s_inv} is not the inverse of {s}")
            left = array("i", [-1]) * size  # L_s
            left[start] = j
            for e in itertools.islice(order, 1, None):
                left[e] = tables[via[e]][left[parent[e]]]
            conjugations.append(array("i", map(times_s.__getitem__, left)))
        return conjugations

    def _split_classes(self) -> None:
        """Each class is the breadth-first orbit of its first element under
        h -> s^-1*h*s for s in the generating set, on element indices.

        The closure that checks the generating set records the Cayley graph:
        R_t (e -> index of g_e*t) for each generator t, and a spanning tree
        in which each element but the identity has a parent g_i and an edge
        g_e = g_i*t.  Left multiplication by s^-1 follows the tree with no
        matrix work: L_s at the identity is the index of s^-1, checked to be
        enumerated and to satisfy R_s[L_s[identity]] = identity, and
        L_s[e] = R_t[L_s[i]] since s^-1*g_i*t = (s^-1*g_i)*t.  The conjugate
        s^-1*g_e*s is then R_s[L_s[e]], a product in the checked table."""
        self._index = dict(zip(self.codes, itertools.count()))
        conjugations = self._generator_tables()
        class_id = [-1] * len(self.codes)
        classes: list[ConjClass] = []
        for e, code in enumerate(self.codes):
            if class_id[e] >= 0:
                continue
            idx = len(classes)
            class_id[e] = idx
            orbit = [e]
            for h in orbit:
                for conj in conjugations:
                    c = conj[h]
                    if class_id[c] < 0:
                        class_id[c] = idx
                        orbit.append(c)
            g = self.decode(code)
            classes.append(ConjClass(g, len(orbit), self.jordan_type(g)))
        self._class_id = class_id
        self._classes = classes

    def jordan_type(self, g: Mat) -> Optional[Partition]:
        """Jordan type of a unipotent element (None if g is not unipotent),
        read off the rank sequence of powers of g - 1."""
        F, n = self.field, self.n
        u = tuple(
            tuple(F.add[x][F.neg[1] if i == j else 0] for j, x in enumerate(row))
            for i, row in enumerate(g)
        )
        ranks = [n]
        power = mat_identity(n)
        for _ in range(n):
            power = mat_mul(F, power, u)
            ranks.append(mat_rank(F, power))
        if ranks[-1] != 0:
            return None
        col_counts = [ranks[k - 1] - ranks[k] for k in range(1, n + 1)]
        return conjugate(Partition(tuple(c for c in col_counts if c > 0)))

    def unipotent_classes(self) -> dict[Partition, ConjClass]:
        out = {}
        for cls in self.classes():
            if cls.jordan is not None:
                if cls.jordan in out:
                    raise ContractError(
                        f"{self.name}: two unipotent classes of Jordan type {tuple(cls.jordan)}"
                    )
                out[cls.jordan] = cls
        return out


class _Decoded(Sequence):
    def __init__(self, group: OracleGroup):
        self.codes, self.decode = group.codes, group.decode

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, e: int) -> Mat:
        return self.decode(self.codes[e])


def _group_size(n: int, eps: int, q0: int) -> int:
    """|GL_n(q0)| (eps = 1) or |GU_n(q0)| (eps = -1) by the product formula
    q0^(n(n-1)/2) * prod_{i=1..n} (q0^i - eps^i)."""
    size = q0 ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        size *= q0**i - eps**i
    return size


def _ambient_size(n: int, eps: int, q0: int) -> int:
    """The size of the field that the entries of GL_n(q0) or GU_n(q0) live
    in, once the arguments and the enumeration cap on |G| are checked."""
    check_eps(eps)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if q0 not in SUPPORTED_Q:
        raise ValueError(f"q0 must be one of {SUPPORTED_Q}, got {q0}")
    size = _group_size(n, eps, q0)
    if size > ENUMERATION_CAP:
        raise CapExceededError(
            f"enumerating {size} elements of {'GL' if eps == 1 else 'GU'}{n}(F{q0}) "
            f"exceeds cap {ENUMERATION_CAP}"
        )
    return q0 if eps == 1 else q0 * q0


def _element_codes(F: FiniteField, n: int, eps: int, q0: int) -> list[int]:
    """The codes of GL_n(F) (eps = 1) or GU_n(q0) (eps = -1), row by row,
    each row picked from candidates (vector codes, increasing) that
    narrow(candidates, state, v) narrows once row v is picked.  GL: vectors
    outside the span of the rows so far, a set of codes widened by tables
    of u + m and c*v.  GU: unit vectors orthogonal to them for the identity
    Hermitian form h (g*g^* = 1, for square g the same as g^**g = 1), by a
    table of h(v, .) per unit v; h(v, x) = 0 exactly when h(x, v) = 0."""
    add, mul, q = F.add, F.mul, F.q
    vectors = list(itertools.product(range(q), repeat=n))
    w = len(vectors)
    if eps == 1:
        code = {v: i for i, v in enumerate(vectors)}
        plus = [[code[tuple(add[a][b] for a, b in zip(u, m))] for u in vectors] for m in vectors]
        multiples = [[code[tuple(mul[c][x] for x in v)] for c in range(q)] for v in vectors]

        def narrow(candidates: list[int], span: set[int], v: int):
            wider = {plus[m][x] for m in multiples[v] for x in span}
            return [x for x in candidates if x not in wider], wider

        first, state = list(range(1, w)), {0}
    else:
        bar = [F.power(a, q0) for a in range(q)]
        norms = _sums(F, [[mul[bar[x]][x] for x in range(q)]] * n)
        first, state = [v for v in range(w) if norms[v] == 1], None
        herm = {v: bytes(_sums(F, [mul[bar[x]] for x in vectors[v]])) for v in first}

        def narrow(candidates: list[int], _, v: int):
            h = herm[v]
            return [x for x in candidates if not h[x]], None

    out: list[int] = []

    def extend(prefix: int, k: int, candidates: list[int], state) -> None:
        if k == n - 1:
            out.extend([prefix + v for v in candidates])
            return
        for v in candidates:
            extend((prefix + v) * w, k + 1, *narrow(candidates, state, v))

    extend(0, 0, first, state)
    return out


def enumerate_group(n: int, eps: int, q0: int) -> OracleGroup:
    """All elements of GL_n(q0) or GU_n(q0), subject to the enumeration cap,
    in the lexicographic order of their entries."""
    F = finite_field(_ambient_size(n, eps, q0))
    return OracleGroup(n, eps, q0, F, _element_codes(F, n, eps, q0))


# ---------------------------------------------------------------------------
# Kawanaka's generalised Gelfand-Graev data and their inner products
# ---------------------------------------------------------------------------


def check_unitary_oracle(n: int, q0: int) -> None:
    """oracle_report's gate for unitary groups: only GU_2(q0) with q0 prime
    passes, and the rest raise CapExceededError before enumerating.
    kawanaka_datum serves every GU_n(q0); the gate stays only because the
    benchmark (bench/grids.py KNOWN_FAULTS, bench/tests/test_bench_run.py)
    counts GU_3(2) and GU_2(4) as failing operations."""
    if n != 2:
        raise CapExceededError("unitary Gelfand-Graev oracle only supports n = 2")
    if is_prime_power(q0) != (q0, 1):
        raise CapExceededError(
            "unitary Gelfand-Graev oracle needs a prime defining field"
        )


def kawanaka_datum(G: OracleGroup, mu: Partition) -> tuple[dict[Mat, int], int]:
    """Kawanaka's datum for Jordan type mu, as the module docstring builds
    it: H = U_(>=2) as a map h -> k with psi(h) = zeta_p^k, and dim g_1.  The
    trace in psi is from F_q0 to F_p.

    For GU each block of size k carries the Hermitian form that pairs e_i
    with e_(k-1-i), with entries +-1 for odd k and +-delta (delta +
    bar(delta) = 0) for even k, so that f is skew for it.  H is cut to the
    1 + x with (1 + x)^* J (1 + x) = J and carried into G as P H P^-1, for
    P with P^* P = J.  Each column of P is the first vector independent of
    the ones before it with the prescribed Hermitian products; by Witt's
    theorem that never dead-ends.  An exhausted search is a ContractError."""
    F, n = G.field, G.n
    add, mul, neg = F.add, F.mul, F.neg
    bar = [F.power(a, G.q0) for a in range(F.q)]
    weights = [k - 1 - 2 * i for k in mu for i in range(k)]
    positions = [(i, j) for i in range(n) for j in range(n) if weights[i] - weights[j] >= 2]
    read = [i for i in range(n - 1) if weights[i] - weights[i + 1] == 2]
    dim_g1 = sum(a - b == 1 for a in weights for b in weights)

    def first(candidates, what: str):
        for x in candidates:
            return x
        raise ContractError(f"{G.name}: no {what} in F_{F.q}")

    def herm(u, v) -> int:  # conjugate-linear in u
        acc = 0
        for a, b in zip(u, v):
            acc = add[acc][mul[bar[a]][b]]
        return acc

    def star(g: Mat) -> Mat:
        return tuple(tuple(bar[x] for x in col) for col in zip(*g))

    P = J = mat_identity(n)
    if G.eps == -1:
        delta = first((x for x in range(1, F.q) if add[x][bar[x]] == 0), "trace-zero element")
        form = [[0] * n for _ in range(n)]
        start = 0
        for k in mu:
            c = 1 if k % 2 else delta
            for i in range(k):
                form[start + i][start + k - 1 - i] = neg[c] if i % 2 else c
            start += k
        J = tuple(map(tuple, form))
        columns: list[tuple[int, ...]] = []
        for j in range(n):
            columns.append(first(
                (v for v in itertools.product(range(F.q), repeat=n)
                 if herm(v, v) == J[j][j]
                 and all(herm(u, v) == J[i][j] for i, u in enumerate(columns))
                 and mat_rank(F, columns + [v]) == j + 1),
                f"column {j} of a basis for the form {J}",
            ))
        P = tuple(zip(*columns))
    P_inv = mat_inv(F, P)
    if P_inv is None:
        raise ContractError(f"{G.name}: the basis {P} for the form {J} is singular")

    degree = F.e if G.eps == 1 else F.e // 2  # F_q0 inside the entries' field
    H: dict[Mat, int] = {}
    for vals in itertools.product(range(F.q), repeat=len(positions)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in zip(positions, vals):
            rows[i][j] = v
        u = tuple(map(tuple, rows))
        if G.eps == -1 and mat_mul(F, mat_mul(F, star(u), J), u) != J:
            continue
        s = 0
        for i in read:
            s = add[s][u[i][i + 1]]
        H[mat_mul(F, mat_mul(F, P, u), P_inv)] = F.abs_trace(s, degree)
    return H, dim_g1


def _induced_inner(G: OracleGroup, H: dict[Mat, int]) -> int:
    """<Ind_H^G psi, Ind_H^G psi> for a subgroup H of G given as a map
    h -> k with psi(h) = zeta_p^k, in integers.

    On the class C of g the induced character is |C_G(g)| / |H| * S_C, with
    S_C the sum of psi over H intersect C.  Let a_k count the h there with
    exponent k.  S_C is rational exactly when a_1 = ... = a_(p-1), since
    zeta_p, ..., zeta_p^(p-2) and 1 are a basis of Q(zeta_p), and then
    S_C = a_0 - a_(p-1).  So

        <Ind psi, Ind psi> = sum_C (|G| / |C|) * S_C^2 / |H|^2,

    and both divisions must be exact.  H is Kawanaka's datum of some mu:
    mu = (n) gives U with a nondegenerate psi, the Gelfand-Graev character,
    and mu = (1^n) the trivial subgroup, the regular character."""
    p = G.field.p
    classes = G.classes()
    counts: dict[int, list[int]] = {}
    for h, k in H.items():
        e = G._index.get(G.encode(h))
        if e is None:
            raise ContractError(f"{G.name}: Whittaker element {h} is not in the group")
        counts.setdefault(G._class_id[e], [0] * p)[k % p] += 1
    total = 0
    for idx, a in counts.items():
        cls = classes[idx]
        if a[1:] != a[-1:] * (p - 1):
            raise ContractError(
                f"{G.name}: the sum of psi over the class of {cls.rep} is not "
                f"rational: exponent counts {a}"
            )
        centralizer, rest = divmod(G.order, cls.size)
        if rest:
            raise ContractError(
                f"{G.name}: the class of {cls.rep} has {cls.size} elements, "
                f"which does not divide |G| = {G.order}"
            )
        total += centralizer * (a[0] - a[-1]) ** 2
    inner, rest = divmod(total, len(H) ** 2)
    if rest:
        raise ContractError(
            f"{G.name}: induced inner product not integral: {total} / {len(H) ** 2}"
        )
    return inner


def gggr_inner(G: OracleGroup, mu: Partition) -> tuple[int, int]:
    """<Ind_H^G psi, Ind_H^G psi> for Kawanaka's datum (H, psi) of mu, and
    dim g_1: the inner product is q0^(dim g_1) * <Gamma_u, Gamma_u>."""
    H, dim_g1 = kawanaka_datum(G, mu)
    return _induced_inner(G, H), dim_g1


def gelfand_graev_inner(G: OracleGroup) -> int:
    """<Gamma, Gamma> for the Gelfand-Graev character (mu = (n), dim g_1 = 0)."""
    return gggr_inner(G, Partition((G.n,)))[0]


def regular_rep_inner(G: OracleGroup) -> int:
    """<chi_reg, chi_reg> (mu = (1^n): H = 1 and dim g_1 = 0)."""
    return gggr_inner(G, Partition((1,) * G.n))[0]


# ---------------------------------------------------------------------------
# Comparison against the symbolic pipeline
# ---------------------------------------------------------------------------


def oracle_report(n: int, eps: int, q0: int) -> dict:
    """Enumerate the group and compare every oracle quantity against the
    symbolic predictions: group order, unipotent class sizes, and for each
    mu |- n the inner product <Ind_H^G psi, Ind_H^G psi> of Kawanaka's datum
    against endo_dim(mu, eps)(q0) * q0^(dim g_1).  The checks for (n) and
    (1^n), where dim g_1 = 0, are named gelfand_graev_inner and
    regular_rep_inner, the others gggr_inner_<parts>."""
    from .grouporders import class_size, group_order
    from .kawanaka import endo_dim

    _ambient_size(n, eps, q0)
    if eps == -1:  # refuse before the enumeration, not after it
        check_unitary_oracle(n, q0)
    G = enumerate_group(n, eps, q0)
    checks = []

    def check(name: str, expected: int, actual: int) -> None:
        expected = int(expected)
        checks.append(
            {"check": name, "expected": expected, "actual": actual, "ok": expected == actual}
        )

    check("group_order", group_order(n, eps)(q0), G.order)
    uni = G.unipotent_classes()
    parts = partitions_of(n)
    check("unipotent_class_count", len(parts), len(uni))
    for la in parts:
        cls = uni.get(la)
        check(
            f"class_size_{'_'.join(map(str, la))}",
            int(class_size(la, eps)(q0)),
            0 if cls is None else cls.size,
        )
    check("unipotent_count", q0 ** (n * (n - 1)), sum(c.size for c in uni.values()))
    for mu in parts:
        inner, dim_g1 = gggr_inner(G, mu)
        if mu == (n,):
            name = "gelfand_graev_inner"
        elif len(mu) == n:
            name = "regular_rep_inner"
        else:
            name = f"gggr_inner_{'_'.join(map(str, mu))}"
        check(name, int(endo_dim(mu, eps)(q0)) * q0**dim_g1, inner)
    return {
        "group": G.name,
        "n": n,
        "eps": eps,
        "q0": q0,
        "order": G.order,
        "checks": checks,
        "pass": all(c["ok"] for c in checks),
    }
