"""Brute-force finite-group oracle.

Everything symbolic in this package ultimately claims to predict honest
finite-group quantities.  This module checks a handful of them the hard way:
enumerate GL_n(q0) or GU_n(q0) as explicit matrices, split off the unipotent
classes, read off Jordan types, and compute the inner products of
generalised Gelfand-Graev characters as integer sums over the classes.
Nothing here touches the symbolic pipeline except the final comparisons.

GL_n and GU_n are enumerated by one routine, row by row, each row picked
from candidate vectors that narrow as rows are picked: for GL_n the vectors
outside the span of the rows before it, for GU_n the unit vectors orthogonal
to them.  An element is held as an integer code, its row codes concatenated
with the first row most significant, where a row's code is its index in the
lexicographic order of vectors.  The codes come out strictly increasing,
membership is being one of them, and a matrix is decoded only where one is
needed.  Products and conjugations are read off the codes by tables, or
matrix by matrix where a table would outnumber the codes, and an orbit
grows breadth first from a seed (the standard orbit algorithm; Holt, Eick &
O'Brien, Handbook of Computational Group Theory, 2005, section 4.1).

unipotent_classes certifies the unipotent classes once, without a
generating set.  It seeds them with the codes of U, Kawanaka's H for
mu = (n), which meets every unipotent class and no other, and takes
conjugators one at a time until the seeds' orbits have pairwise distinct
Jordan types and hold q0^(n(n-1)) elements.  Each orbit lies in one class,
conjugation keeps the Jordan type, and a unipotent class is its Jordan
type; so the orbits lie in distinct classes, which hold q0^(n(n-1))
elements in all (Steinberg), and each orbit is its whole class, whether or
not the conjugators generate G.  This trusts the construction of
the codes (each is an element of G) and the check of |G|; a scan that does
not certify is a failed check, and so is an element of a datum outside the
certified classes.  Only classes() checks that the codes are closed under
products, by the closure of a generating set.

GU_n(q0) is realized inside GL_n(q0^2) as the fixed points of the twisted
Frobenius g -> transpose(g^(q0))^{-1}, i.e. matrices unitary for the identity
Hermitian form.

The entries live in F_q = F_p[x]/(f), held as tables by the fields module
(see fields.FiniteField).

The generalised Gelfand-Graev character Gamma_u of a unipotent u of Jordan
type mu is built from one datum for GL and GU alike (Kawanaka, Generalized
Gelfand-Graev representations and Ennola duality, Adv. Stud. Pure Math. 6,
1985).  Grade the basis by the weights k-1, k-3, ..., 1-k of each Jordan
block of size k, let f lower them by 2, and put H = U_(>=2) = 1 + span{E_ij :
h_i - h_j >= 2} with psi(1 + x) = zeta_p^Tr(sum f_ij*x_ji).  Then
<Ind_H^G psi, Ind_H^G psi> = q0^(dim g_1) * <Gamma_u, Gamma_u>, with
dim g_1 = #{(i, j) : h_i - h_j = 1}.  For GU the datum is built for a block
Hermitian form J and carried into the identity-form group by a basis P with
P^* P = J.  H is held on codes, read entry by entry with no matrix per
element; a GU candidate is unitary for J exactly when its image is
enumerated, and |H| is checked.  mu = (n) gives the Gelfand-Graev
character and mu = (1^n) the regular one.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from typing import NamedTuple, Optional

from .errors import CapExceededError, ContractError
from .fields import (
    FiniteField, Mat, finite_field, is_prime_power, mat_identity, mat_inv, mat_mul, mat_rank,
)
from .grouporders import check_eps
from .intpoly import exact_div
from .partitions import Partition, check_n, conjugate, partitions_of

#: Enumeration budget on |G|, from measured cost (fresh processes, 2 cores,
#: Python 3.11.7): it admits GL_3(4), with 181 440 elements (enumerated and
#: reported in ~0.06 s at ~19 MiB peak RSS; ~0.4 s where the certificate
#: fails as its seeds miss the class of type (3)), and refuses GU_3(4), with
#: 312 000 (~0.22 s and ~21 MiB to enumerate), and GL_3(5), with 1 488 000.  Past
#: the unitary gate, GU_2(9) and GU_2(8) report in ~0.05 s and ~0.03 s.
ENUMERATION_CAP = 200_000

#: Field sizes the oracle accepts as defining fields.
SUPPORTED_Q = (2, 3, 4, 5, 8, 9)


# ---------------------------------------------------------------------------
# Tables on codes
# ---------------------------------------------------------------------------


def _sums(F: FiniteField, tables) -> list[int]:
    """x -> sum_k tables[k][x_k], added in mat_mul's order, for each vector x."""
    out = [0]
    for table in tables:
        out = [F.add[a][y] for a in out for y in table]
    return out


def _concat(parts):
    """x -> sum_k parts[k][x_k] for each index vector x, x_0 most significant."""
    table = [0]
    for part in parts:
        table = [x + y for x in table for y in part]
    return table


def _read(stage, codes):
    """The image of each code under a map of OracleGroup._stage."""
    if len(stage) == 2:  # halves, in one pass
        (d, high), (_, low) = stage
        m = len(low)
        return [high[c // d] + low[c % m] for c in codes]
    out = [0] * len(codes)
    for d, table in stage:
        m = len(table)
        out = [x + table[c // d % m] for x, c in zip(out, codes)]
    return out


# ---------------------------------------------------------------------------
# Group enumeration and conjugacy classes
# ---------------------------------------------------------------------------


def _group_name(n: int, eps: int, q0: int) -> str:
    """GL_n(q0) or GU_n(q0) as messages and reports name it, e.g. GL3(F2)."""
    return f"{'GL' if eps == 1 else 'GU'}{n}(F{q0})"


class ConjClass(NamedTuple):
    rep: Mat
    size: int
    jordan: Optional[Partition]  # set for unipotent classes


class OracleGroup:
    def __init__(self, n: int, eps: int, q0: int, field: FiniteField, codes: Sequence[int]):
        self.n, self.eps, self.q0 = n, eps, q0
        self.name = _group_name(n, eps, q0)
        self.field = field  # entries live here: F_q0 for GL, F_{q0^2} for GU
        self.codes = codes  # e -> the code of g_e, increasing
        self._restart([])

    def _restart(self, conj: list) -> None:
        """An empty split, closed under the conjugations ``conj``."""
        self._conj = conj
        self._class_of: dict[int, int] = {}  # code -> its orbit, for each code split
        self._orbits: list[list[int]] = []  # the codes of each orbit, [] once merged
        self._classes: list[ConjClass] = []  # once set, the split is final

    def _member(self, code: int) -> bool:
        """Whether ``code`` is enumerated, by bisection of the increasing codes."""
        i = bisect_left(self.codes, code)
        return i < len(self.codes) and self.codes[i] == code

    @property
    def order(self) -> int:
        return len(self.codes)

    @property
    def elements(self) -> Sequence[Mat]:
        """The elements in order, each decoded when read; len() decodes none."""
        return _Decoded(self)

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
        """Every class, in the order of their smallest codes: the orbits under
        the generators of _closure."""
        if len(self._class_of) < self.order:  # afresh, after any seeded split
            self._restart(self._closure())
            self._split(self.codes)
            self._seal({})
        return self._classes

    def class_index(self) -> dict[Mat, int]:
        """The class of each element, as an index into classes()."""
        self.classes()
        return dict(zip(self.elements, self._split(self.codes)))

    def _stage(self, t: Mat, transpose: bool, reads: int) -> list:
        """g -> g*t on codes, or g -> transpose(g*t), as tables (d, T) on blocks
        of rows for _read: blocks of ceil(n/2) rows, or of one where n such
        tables would have more entries than the ``reads`` codes they serve
        (and where one would, _conjugation builds none).  The largest under
        the cap: 6 561 entries, a row of GU2(9) in classes(); GL3(4) reads
        halves of 4 096, GU3(3) and GU4(2) rows of 729 and 256."""
        F, n = self.field, self.n
        q, w = F.q, F.q**n
        rows = [0] * w  # code of v -> code of v*t
        for col in zip(*t):
            entries = _sums(F, [[row[y] for row in F.mul] for y in col])
            rows = [code * q + x for code, x in zip(rows, entries)]
        if transpose:  # row i goes to column i: its digits w apart, shifted by n - 1 - i
            spread = _concat([[d * w**j for d in range(q)] for j in reversed(range(n))])
            rows = [spread[r] for r in rows]
        step = q if transpose else w
        parts = [[r * step**i for r in rows] for i in reversed(range(n))]
        k = (n + 1) // 2 if n * w ** ((n + 1) // 2) <= reads else 1
        return [(w ** max(n - top - k, 0), _concat(parts[top : top + k])) for top in range(0, n, k)]

    def _candidates(self) -> Iterator[int]:
        """Conjugators to try: the first code, then each from the last back
        (dense matrices generate more)."""
        codes = self.codes
        return (codes[i] for i in itertools.chain((0,), range(len(codes) - 1, 0, -1)))

    def _conjugation(self, s: Mat, reads: int) -> Callable[[list[int]], list[int]]:
        """h -> s^-1*h*s on lists of codes, once s^-1 is checked to be
        enumerated and the inverse.  Where a table of one row would have more
        entries than the ``reads`` codes to map, each code goes through its
        matrix; else g -> transpose(g*s) -> transpose(transpose(g*s)*s'), s' =
        transpose(s^-1), two _stage maps."""
        F, n = self.field, self.n
        s_inv = mat_inv(F, s)
        if s_inv is None:
            raise ContractError(f"{self.name}: an enumerated element is singular")
        if not self._member(self.encode(s_inv)):
            raise ContractError(f"{self.name}: the inverse {s_inv} of {s} "
                                "is not an enumerated element")
        if mat_mul(F, s, s_inv) != mat_identity(n):
            raise ContractError(f"{self.name}: {s_inv} is not the inverse of {s}")
        if F.q**n > reads:
            return lambda codes: [self.encode(mat_mul(F, mat_mul(F, s_inv, self.decode(c)), s))
                                  for c in codes]
        first, second = [self._stage(m, True, reads) for m in (s, tuple(zip(*s_inv)))]
        return lambda codes: _read(second, _read(first, codes))

    def _closure(self) -> list:
        """The conjugations of a generating set checked by closure: each
        candidate not yet reached from the identity becomes a generator t, the
        reached codes are closed under each g -> g*t, and they must be all."""
        start = self.encode(mat_identity(self.n))
        if not self._member(start):
            raise ContractError(f"{self.name}: the identity is not an enumerated element")
        self._restart([])
        self._class_of[start], self._orbits = 0, [[start]]
        generators = []
        for code in self._candidates():
            if code not in self._class_of:
                generators.append(self.decode(code))
                self._conj.append(partial(_read, self._stage(generators[-1], False, self.order)))
                self._close(list(self._class_of), self._conj[-1:], "product")
        if len(self._class_of) < self.order:
            raise ContractError(f"{self.name}: the generators reach {len(self._class_of)} of "
                                f"{self.order} elements")
        return [self._conjugation(t, self.order) for t in generators]

    def _split(self, seeds: Iterable[int], what: str = "element") -> list[int]:
        """The orbit of each enumerated seed code; a new seed starts an orbit,
        closed under the conjugations, unless the split is final."""
        class_of, orbits = self._class_of, self._orbits
        out = []
        for seed in seeds:
            if not self._member(seed):
                raise ContractError(f"{self.name}: {what} {self.decode(seed)} is not in the group")
            if seed not in class_of:
                if self._classes:
                    raise ContractError(f"{self.name}: {what} {self.decode(seed)} starts a class "
                                        "outside the certified split")
                class_of[seed] = len(orbits)
                orbits.append([seed])
                self._close([seed], self._conj)
            out.append(class_of[seed])
        return out

    def _close(self, codes: list[int], conj: list, what: str = "conjugate") -> None:
        """Map ``codes`` by each of ``conj`` (maps of lists of codes), then each
        new code by every map, until none is new.  An enumerated image joins
        the orbit of its preimage, or merges the two orbits."""
        class_of, orbits = self._class_of, self._orbits
        while codes:
            found = []
            for image in conj:
                for h, c in zip(codes, image(codes)):
                    a, b = class_of[h], class_of.get(c)
                    if b is None:
                        if not self._member(c):
                            raise ContractError(f"{self.name}: the {what} {self.decode(c)} of "
                                                f"{self.decode(h)} is not an enumerated element")
                        class_of[c] = a
                        orbits[a].append(c)
                        found.append(c)
                    elif a != b:  # the larger orbit takes the smaller
                        a, b = (a, b) if len(orbits[a]) >= len(orbits[b]) else (b, a)
                        class_of.update(dict.fromkeys(orbits[b], a))
                        orbits[a] += orbits[b]
                        orbits[b] = []
            codes, conj = found, self._conj

    def _seal(self, types: dict) -> None:
        """Make the orbits left by merging the classes, with the Jordan types
        read so far (else off the reps), and the split final."""
        live = [i for i, orbit in enumerate(self._orbits) if orbit]
        if len(live) < len(self._orbits):
            self._class_of = {c: k for k, i in enumerate(live) for c in self._orbits[i]}
        self._classes = []
        for i in live:
            rep = self.decode(min(self._orbits[i]))
            jordan = types[i] if types else self.jordan_type(rep)
            self._classes.append(ConjClass(rep, len(self._orbits[i]), jordan))

    def _distinct(self, types: dict) -> bool:
        """Whether the orbits have pairwise distinct Jordan types, read into
        ``types`` for each orbit not read yet; one not unipotent is a
        ContractError."""
        live = [i for i, orbit in enumerate(self._orbits) if orbit]
        for i in live:
            if i not in types:
                rep = self.decode(min(self._orbits[i]))
                types[i] = self.jordan_type(rep)
                if types[i] is None:
                    raise ContractError(f"{self.name}: the class of {rep} is not unipotent")
        return len({types[i] for i in live}) == len(live)

    def _certify(self, seeds: Iterable[int]) -> None:
        """Split the seeds under conjugators from _candidates, one at a time,
        until the orbits hold q0^(n(n-1)) elements with pairwise distinct
        Jordan types, and seal the split.  Past q0^(n(n-1)) elements, or once
        the conjugations have mapped |G| codes, the scan fails."""
        self._restart([])
        seeds, target, types, mapped = list(seeds), self.q0 ** (self.n * self.n - self.n), {}, 0
        for code in self._candidates():
            before = len(self._class_of), self._orbits.count([])
            self._conj.append(self._conjugation(self.decode(code), target))
            self._close(list(self._class_of), self._conj[-1:])
            self._split(seeds, "seed")
            mapped += len(self._class_of)
            after = len(self._class_of), self._orbits.count([])
            if after[0] == target and self._distinct(types):
                return self._seal(types)
            if after == before:  # a conjugation that changes no orbit is not kept
                self._conj.pop()
            if after[0] > target or mapped > self.order:
                break
        self._distinct(types)
        live = [types[i] for i, orbit in enumerate(self._orbits) if orbit]
        raise ContractError(f"{self.name}: split not certified: conjugators {len(self._conj)}, "
                            f"elements {len(self._class_of)} of {target}, orbits {len(live)}, "
                            f"Jordan types {len(set(live))}")

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
        return conjugate(Partition(c for c in col_counts if c > 0))

    def unipotent_classes(self) -> dict:
        """The unipotent classes by Jordan type, certified once on the split
        of H for mu = (n), which meets every unipotent class; oracle_report
        reads that datum, kept as ``_top``, for mu = (n)."""
        if not self._classes:
            self._top = kawanaka_datum(self, Partition((self.n,)))
            self._certify(self._top[0])
        return {cls.jordan: cls for cls in self._classes if cls.jordan is not None}


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
    check_n(n, 1)
    if type(q0) is not int or q0 not in SUPPORTED_Q:
        raise ValueError(f"q0 must be one of {SUPPORTED_Q}, got {q0}")
    name = _group_name(n, eps, q0)
    # q0^i - eps^i >= q0^(i-1), so |G| >= q0^(n(n-1)) >= 2^(n(n-1)): past the
    # cap's bit length that bound refuses G before |G| is multiplied out
    if n * (n - 1) >= ENUMERATION_CAP.bit_length():
        raise CapExceededError(
            f"enumerating at least {q0}^{n * (n - 1)} elements of {name} "
            f"exceeds cap {ENUMERATION_CAP}"
        )
    size = _group_size(n, eps, q0)
    if size > ENUMERATION_CAP:
        raise CapExceededError(
            f"enumerating {size} elements of {name} exceeds cap {ENUMERATION_CAP}"
        )
    return q0 if eps == 1 else q0 * q0


def _element_codes(F: FiniteField, n: int, eps: int, q0: int) -> array:
    """The codes of GL_n(F) (eps = 1) or GU_n(q0) (eps = -1), row by row.
    Each row is picked from candidates, increasing, and branch(candidates,
    state) lists each pick v with the candidates of the next row.  A
    candidate is a position in ``index``, the increasing codes of the
    vectors a row may be.  The last two rows depend only on the candidates
    of the second-to-last, so their codes are worked out once per candidate
    list (in ``tails``) and shared by every prefix that leaves that list: the
    ordered bases of one span for GL, of one orthogonal complement for GU.
    A tail is held as one integer of 8-byte lanes in native byte order, so a
    prefix adds its head to every lane by one addition, with no carry between
    lanes as every code is below 4^16.

    GL: the vectors outside the span S of the rows so far.  Once per node
    they are sorted into the lines of V/S, the line of x being the vectors
    c*x + s with c != 0 and s in S (read off tables of u + m and of the
    multiples c*x, built digit by digit).  A pick v takes the candidates off
    its own line, one list shared by every v on that line (q + 1 lines at
    the second-to-last row), and S + F*v is S with v's line.

    GU: the unit vectors orthogonal to the rows so far for the identity
    Hermitian form h (g*g^* = 1, for square g the same as g^**g = 1); h(v, x)
    = 0 exactly when h(x, v) = 0.  For each unit v, the units orthogonal to
    it are tabled as bytes by position, over the unit vectors only, from
    per-coordinate tables: coordinate i of every unit translated by the row
    of F.mul for bar(v_i).  h(v, x) = 0 exactly when the sum of the first
    n - 1 terms equals -bar(v_(n-1))*x_(n-1); the two are compared for every
    x at once as big integers, whose XOR has a zero byte exactly there."""
    add, mul, q = F.add, F.mul, F.q
    vectors = list(itertools.product(range(q), repeat=n))
    w = len(vectors)
    if eps == 1:
        digits = [q ** (n - 1 - j) for j in range(n)]  # a vector's code, digit by digit
        plus = [_concat([[add[a][x] * d for a in range(q)] for x, d in zip(m, digits)])
                for m in vectors]  # code of m -> code of u -> code of u + m
        multiples = [[sum(mul[c][x] * d for x, d in zip(v, digits)) for c in range(1, q)]
                     for v in vectors]  # code of v -> the codes of c*v, c != 0

        def branch(candidates, span):
            line, spans = [0] * w, [span]
            for x in candidates:
                if not line[x]:
                    new = [plus[m][s] for m in multiples[x] for s in span]
                    for y in new:
                        line[y] = len(spans)
                    spans.append(span + new)
            off = [[x for x in candidates if line[x] != k] for k in range(len(spans))]
            return [(v, off[line[v]], spans[line[v]]) for v in candidates]

        index, first, state = list(range(w)), range(1, w), [0]
    else:
        bar = [F.power(a, q0) for a in range(q)]
        norms = _sums(F, [[mul[bar[x]][x] for x in range(q)]] * n)
        index, orth, state = [v for v in range(w) if norms[v] == 1], [], None
        first = range(len(index))
        columns = [bytes(column) for column in zip(*[vectors[v] for v in index])]
        pad, units = bytes(256 - q), len(index)
        scaled = [bytes(mul[b]) + pad for b in bar]  # x -> bar(a)*x, for each a
        tables = [scaled] * (n - 1) + [[bytes(mul[F.neg[b]]) + pad for b in bar]]
        for v in index:  # sum_(i<n-1) bar(v_i)*x_i against -bar(v_(n-1))*x_(n-1)
            *terms, last = [c.translate(table[a])
                            for c, table, a in zip(columns, tables, vectors[v])]
            h = terms.pop() if terms else bytes(units)
            for t in terms:
                h = bytes([add[a][b] for a, b in zip(h, t)])
            differ = int.from_bytes(h, "big") ^ int.from_bytes(last, "big")
            orth.append(differ.to_bytes(units, "big").translate(b"\1" + bytes(255)))

        def branch(candidates, _):
            return [(i, [x for x in candidates if h[x]], None)
                    for i in candidates for h in (orth[i],)]

    out = array("q")  # 8 bytes a code: every admitted code is below 4^16 (GU4(2))
    tails = {}  # candidates of the second-to-last row -> codes of the last two rows
    ones = {}  # lanes -> the integer with 1 in each lane

    def extend(prefix, k, candidates, state):  # rows k, k + 1, ... after prefix
        if k < n - 2:
            for v, rest, nxt in branch(candidates, state):
                extend((prefix + index[v]) * w, k + 1, rest, nxt)
            return
        key = tuple(candidates)
        if key not in tails:
            codes = array("q", [index[v] * w + index[x]
                                for v, rest, _ in branch(candidates, state) for x in rest])
            tails[key] = int.from_bytes(codes, sys.byteorder), len(codes)
        codes, lanes = tails[key]
        if lanes not in ones:
            ones[lanes] = ((1 << 64 * lanes) - 1) // (2**64 - 1)
        out.frombytes((codes + prefix * w * ones[lanes]).to_bytes(8 * lanes, sys.byteorder))

    if n == 1:
        out.extend([index[x] for x in first])
    else:
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


def kawanaka_datum(G: OracleGroup, mu: Partition) -> tuple[dict[int, int], int]:
    """Kawanaka's datum for Jordan type mu, as the module docstring builds
    it: H = U_(>=2) as a map from the code of each h to k with psi(h) =
    zeta_p^k, and dim g_1.  The trace in psi is from F_q0 to F_p.

    A candidate 1 + x goes into G as P (1 + x) P^-1 = 1 + sum x_ij *
    P[:, i] * P^-1[j, :], with P = 1 for GL.  So the codes of the images
    are built at once, entry by entry, each entry one field sum over the
    positions (the identity's entry where no position reaches it), and so
    is the field sum in psi; no candidate is made a matrix.  psi's trace is
    taken once per distinct sum among the kept candidates.  For GU each
    block of size k carries the Hermitian form that pairs e_i with
    e_(k-1-i), with entries +-1 for odd k and +-delta (delta + bar(delta) =
    0) for even k, so that f is skew for it, and P^* P = J; 1 + x is
    unitary for J exactly when its image is an enumerated element, and
    only those are kept.  Each column of P is the first vector independent
    of the ones before it with the prescribed Hermitian products; by Witt's
    theorem that never dead-ends.  An exhausted search is a ContractError,
    and so is an H whose size is not q0^#positions: U_(>=2)^F is an affine
    space of that dimension over F_q0."""
    F, n, q = G.field, G.n, G.field.q
    add, mul, neg = F.add, F.mul, F.neg
    bar = [F.power(a, G.q0) for a in range(q)]
    weights = [k - 1 - 2 * i for k in mu for i in range(k)]
    positions = [(i, j) for i in range(n) for j in range(n) if weights[i] - weights[j] >= 2]
    read = {(i, i + 1) for i in range(n - 1) if weights[i] - weights[i + 1] == 2}
    dim_g1 = sum(a - b == 1 for a in weights for b in weights)

    def first(candidates, what: str):
        for x in candidates:
            return x
        raise ContractError(f"{G.name}: no {what} in F_{q}")

    def herm(u, v) -> int:  # conjugate-linear in u
        acc = 0
        for a, b in zip(u, v):
            acc = add[acc][mul[bar[a]][b]]
        return acc

    P = P_inv = mat_identity(n)
    if G.eps == -1:
        delta = first((x for x in range(1, q) if add[x][bar[x]] == 0), "trace-zero element")
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
                (v for v in itertools.product(range(q), repeat=n)
                 if herm(v, v) == J[j][j]
                 and all(herm(u, v) == J[i][j] for i, u in enumerate(columns))
                 and mat_rank(F, columns + [v]) == j + 1),
                f"column {j} of a basis for the form {J}",
            ))
        P = tuple(zip(*columns))
        P_inv = mat_inv(F, P)
        if P_inv is None:
            raise ContractError(f"{G.name}: the basis {P} for the form {J} is singular")

    base, codes = 0, [0] * q ** len(positions)  # candidate k's image: base + codes[k]
    for r, c in itertools.product(range(n), repeat=2):
        place, one = q ** (n * n - 1 - r * n - c), int(r == c)  # of entry (r, c) in a code
        scales = [mul[P[r][i]][P_inv[j][c]] for i, j in positions]
        if any(scales):
            entries = _sums(F, [[one]] + [mul[k] for k in scales])
            codes = [a + x * place for a, x in zip(codes, entries)]
        else:
            base += one * place

    degree = F.e if G.eps == 1 else F.e // 2  # F_q0 inside the entries' field
    sums = _sums(F, [range(q) if x in read else [0] * q for x in positions])
    kept = [(base + c, s) for c, s in zip(codes, sums) if G._member(base + c)]
    trace = {s: F.abs_trace(s, degree) for s in dict.fromkeys(s for _, s in kept)}
    H = {h: trace[s] for h, s in kept}
    if len(H) != G.q0 ** len(positions):
        raise ContractError(f"{G.name}: U_(>=2) for mu = {mu} has {len(H)} elements, "
                            f"not {G.q0}^{len(positions)} = {G.q0 ** len(positions)}")
    return H, dim_g1


def _induced_inner(G: OracleGroup, H: dict[int, int]) -> int:
    """<Ind_H^G psi, Ind_H^G psi> for a subgroup H of G given as a map from
    the code of each h to k with psi(h) = zeta_p^k, in integers.  H must lie
    in the certified unipotent classes of G.

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
    G.unipotent_classes()
    counts: dict[int, list[int]] = {}
    for k, idx in zip(H.values(), G._split(H, "Whittaker element")):
        counts.setdefault(idx, [0] * p)[k % p] += 1
    total = 0
    for idx, a in counts.items():
        cls = G._classes[idx]
        if a[1:] != a[-1:] * (p - 1):
            raise ContractError(f"{G.name}: the sum of psi over the class of {cls.rep} is not "
                                f"rational: exponent counts {a}")
        what = f"{G.name}: the class of {cls.rep}: |G| / |class| = {G.order} / {cls.size}"
        total += exact_div(G.order, cls.size, what) * (a[0] - a[-1]) ** 2
    squared = len(H) ** 2
    return exact_div(total, squared, f"{G.name}: induced inner product {total} / {squared}")


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
            class_size(la, eps)(q0),
            0 if cls is None else cls.size,
        )
    check("unipotent_count", q0 ** (n * (n - 1)), sum(c.size for c in uni.values()))
    for mu in parts:
        H, dim_g1 = G._top if mu == (n,) else kawanaka_datum(G, mu)
        inner = _induced_inner(G, H)
        name = ("gelfand_graev_inner" if mu == (n,) else "regular_rep_inner" if len(mu) == n
                else f"gggr_inner_{'_'.join(map(str, mu))}")
        check(name, endo_dim(mu, eps)(q0) * q0**dim_g1, inner)
    return {"group": G.name, "n": n, "eps": eps, "q0": q0, "order": G.order,
            "checks": checks, "pass": all(c["ok"] for c in checks)}
