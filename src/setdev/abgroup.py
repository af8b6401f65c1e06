"""Finite abelian groups in invariant-factor form and their deviations.

Conventions
-----------
A group is an ascending divisibility chain d1 | d2 | ... | dk with every
di >= 2; the trivial group is the empty chain, and isomorphism testing is
equality of chains. A homomorphism from factors (a_1..a_m) to (b_1..b_k) is
an integer matrix M with k rows and m columns, entries reduced mod b_i
row-wise, subject to the well-definedness condition b_i | a_j * M[i][j].

The deviation of a homomorphism f : X -> Y is the pair of abstract groups
(X / ker f, Y / f(X)). Both are read off one Smith normal form, the first as
the isomorphic image f(X); an independent element-table route (explicit
coset counting, via ker f) is provided as an oracle for the same quantities.

Deviations are ordered by embeddability. The first components compare
contravariantly: a finer kernel leaves a larger quotient, so "f deviates no
more than g" asks that g's first component embed into f's, while the second
components embed the usual way round. This is the direction under which an
isomorphism's deviation sits below every other deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, prod
from typing import Iterator

MAX_HOM_ORDER = 16
MAX_TABLE_ORDER = 4096
MAX_ORACLE_ORDER = 64


@dataclass(frozen=True, slots=True)
class FinAbGroup:
    """Finite abelian group presented by its invariant factors."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 1
        for d in self.factors:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
            if d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    def order(self) -> int:
        return prod(self.factors)

    def is_trivial(self) -> bool:
        return not self.factors


TRIVIAL_GROUP = FinAbGroup(())


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _combine_prime_exponents(exps: dict[int, list[int]]) -> FinAbGroup:
    # Align each prime's exponents largest-first and multiply columns.
    cols = max((len(v) for v in exps.values()), default=0)
    factors = []
    for j in range(cols):
        d = 1
        for p, es in exps.items():
            desc = sorted(es, reverse=True)
            if j < len(desc):
                d *= p ** desc[j]
        if d > 1:
            factors.append(d)
    factors.reverse()
    return FinAbGroup(tuple(factors))


def _is_int_list(value: object) -> bool:
    # bool is an int subclass and 2.0 == 2, but JSON true and 2.0 are not integer literals.
    return isinstance(value, list) and all(type(v) is int for v in value)


@dataclass(frozen=True, slots=True)
class GroupHom:
    """Homomorphism between finite abelian groups as an integer matrix."""

    dom: FinAbGroup
    cod: FinAbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.cod.factors)
        m = len(self.dom.factors)
        if len(self.matrix) != k:
            raise ValueError(f"matrix needs {k} rows, one per codomain factor")
        for i, row in enumerate(self.matrix):
            if len(row) != m:
                raise ValueError(f"row {i} needs {m} entries, one per domain factor")
            b = self.cod.factors[i]
            for j, entry in enumerate(row):
                if not 0 <= entry < b:
                    raise ValueError(f"matrix[{i}][{j}] = {entry} not reduced mod {b}")
                a = self.dom.factors[j]
                if (a * entry) % b != 0:
                    raise ValueError(
                        f"matrix[{i}][{j}] = {entry} is not well-defined: {b} does not divide {a}*{entry}"
                    )

    @classmethod
    def from_json_dict(cls, data: dict) -> GroupHom:
        if not isinstance(data, dict) or set(data) != {"dom", "cod", "matrix"}:
            raise ValueError('hom literal needs exactly the keys "dom", "cod", "matrix"')
        rows = data["matrix"]
        if not (
            _is_int_list(data["dom"])
            and _is_int_list(data["cod"])
            and isinstance(rows, list)
            and all(_is_int_list(row) for row in rows)
        ):
            raise ValueError('hom literal needs lists of integers for "dom", "cod" and each row of "matrix"')
        return cls(
            FinAbGroup(tuple(data["dom"])),
            FinAbGroup(tuple(data["cod"])),
            tuple(tuple(row) for row in rows),
        )

    def to_json_dict(self) -> dict:
        return {
            "dom": list(self.dom.factors),
            "cod": list(self.cod.factors),
            "matrix": [list(row) for row in self.matrix],
        }

    def apply(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            sum(row[j] * coords[j] for j in range(len(coords))) % b
            for row, b in zip(self.matrix, self.cod.factors)
        )

    def then(self, other: GroupHom) -> GroupHom:
        """Diagrammatic composite: first self, then other."""
        if self.cod != other.dom:
            raise ValueError("composite needs matching middle group")
        m = len(self.dom.factors)
        mid = len(self.cod.factors)
        rows = []
        for i, b in enumerate(other.cod.factors):
            rows.append(
                tuple(
                    sum(other.matrix[i][l] * self.matrix[l][j] for l in range(mid)) % b
                    for j in range(m)
                )
            )
        return GroupHom(self.dom, other.cod, tuple(rows))


@dataclass(frozen=True)
class GroupDeviation:
    first: FinAbGroup
    second: FinAbGroup


def smith_normal_form(
    mat: list[list[int]] | tuple[tuple[int, ...], ...],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (U, D, V) with U @ mat @ V == D, D diagonal with non-negative
    entries forming a divisibility chain, and det(U), det(V) in {1, -1}.
    Pivots are always the entry of smallest absolute value, row-major on
    ties, so intermediate matrices are reproducible.
    """
    rows = [list(r) for r in mat]
    k = len(rows)
    n = len(rows[0]) if k else 0
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(a: int, b: int) -> None:
        rows[a], rows[b] = rows[b], rows[a]
        u[a], u[b] = u[b], u[a]

    def swap_cols(a: int, b: int) -> None:
        for r in rows:
            r[a], r[b] = r[b], r[a]
        for r in v:
            r[a], r[b] = r[b], r[a]

    def add_row(src: int, dst: int, mult: int) -> None:
        rows[dst] = [x + mult * y for x, y in zip(rows[dst], rows[src])]
        u[dst] = [x + mult * y for x, y in zip(u[dst], u[src])]

    def add_col(src: int, dst: int, mult: int) -> None:
        for r in rows:
            r[dst] += mult * r[src]
        for r in v:
            r[dst] += mult * r[src]

    def move_pivot(t: int) -> bool:
        # Bring the smallest nonzero entry of the trailing block to (t, t).
        pivot = None
        best = None
        for i in range(t, k):
            for j in range(t, n):
                val = abs(rows[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            return False
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        return True

    t = 0
    while t < min(k, n):
        if not move_pivot(t):
            break

        while True:
            residue = False
            for i in range(t + 1, k):
                q = rows[i][t] // rows[t][t]
                if q:
                    add_row(t, i, -q)
                if rows[i][t]:
                    residue = True
            for j in range(t + 1, n):
                q = rows[t][j] // rows[t][t]
                if q:
                    add_col(t, j, -q)
                if rows[t][j]:
                    residue = True
            if residue:
                # Some remainder is smaller than the pivot; re-pick it.
                move_pivot(t)
                continue
            bad = None
            for i in range(t + 1, k):
                for j in range(t + 1, n):
                    if rows[i][j] % rows[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if rows[t][t] < 0:
            rows[t] = [-x for x in rows[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    d = [[rows[i][j] if i == j else 0 for j in range(n)] for i in range(k)]
    return u, d, v


@lru_cache(maxsize=None)
def _shared_group(factors: tuple[int, ...]) -> FinAbGroup:
    # One object per isomorphism class, so the memo caches below hold a
    # group per class rather than one per homomorphism.
    return FinAbGroup(factors)


def _cokernel_form(f: GroupHom) -> tuple[list[list[int]], list[int]]:
    """(U, D) with U [M | diag(b)] V = [diag(D) | 0], b the codomain factors.

    [M | diag(b)] spans the lattice L of vectors whose class lies in
    image(f), so cod(f) / image(f) = Z^k / L has invariant factors D.
    """
    k = len(f.cod.factors)
    block = [
        list(f.matrix[i]) + [f.cod.factors[i] if c == i else 0 for c in range(k)]
        for i in range(k)
    ]
    u, d, _ = smith_normal_form(block)
    diag = [d[i][i] for i in range(k)]
    if any(x == 0 for x in diag):
        raise AssertionError("cokernel of a finite group must be finite")
    return u, diag


@lru_cache(maxsize=None)
def devg1(f: GroupHom) -> FinAbGroup:
    """Invariant factors of dom(f) / ker(f), computed as those of image(f).

    With (U, D) from the cokernel form, the columns of U^-1 diag(D) are a
    basis of L, and image(f) = L / diag(b) Z^k. In that basis diag(b) Z^k
    is spanned by the columns of the integer matrix X = diag(D)^-1 U diag(b),
    so image(f) = Z^k / X Z^k.
    """
    u, diag = _cokernel_form(f)
    x = [[uij * b // di for uij, b in zip(row, f.cod.factors)] for row, di in zip(u, diag)]
    _, d, _ = smith_normal_form(x)
    return _shared_group(tuple(row[i] for i, row in enumerate(d) if row[i] > 1))


@lru_cache(maxsize=None)
def devg2(f: GroupHom) -> FinAbGroup:
    """Invariant factors of the cokernel cod(f) / image(f)."""
    _, diag = _cokernel_form(f)
    return _shared_group(tuple(x for x in diag if x > 1))


def devg(f: GroupHom) -> GroupDeviation:
    return GroupDeviation(devg1(f), devg2(f))


@dataclass(frozen=True)
class ElementTable:
    """Explicit element list of a finite abelian group, for brute-force work."""

    group: FinAbGroup
    elements: tuple[tuple[int, ...], ...]

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.group.factors)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.group.factors))

    def scale(self, n: int, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((n * x) % d for x, d in zip(a, self.group.factors))

    def order_of(self, a: tuple[int, ...]) -> int:
        n = 1
        cur = a
        zero = self.zero()
        while cur != zero:
            cur = self.add(cur, a)
            n += 1
        return n


def element_table(group: FinAbGroup) -> ElementTable:
    if group.order() > MAX_TABLE_ORDER:
        raise ValueError(f"group of order {group.order()} exceeds the table bound {MAX_TABLE_ORDER}")
    elems = tuple(product(*(range(d) for d in group.factors)))
    return ElementTable(group, elems)


def _quotient_invariants(table: ElementTable, subgroup: frozenset) -> FinAbGroup:
    """Invariant factors of group/subgroup by counting torsion in cosets.

    The number of cosets killed by n equals |{x : n*x in subgroup}| / |subgroup|,
    and for n a prime power that count is a pure power of the prime; the
    exponents reconstruct the prime-exponent partition of the quotient.
    """
    q = len(table.elements) // len(subgroup)
    if q == 1:
        return TRIVIAL_GROUP
    exps: dict[int, list[int]] = {}
    for p in _factorint(q):
        conj = []
        prev_s = 0
        k = 1
        while True:
            pk = p**k
            cnt = sum(1 for x in table.elements if table.scale(pk, x) in subgroup)
            cnt //= len(subgroup)
            s = 0
            while cnt > 1:
                cnt //= p
                s += 1
            step = s - prev_s
            if step == 0:
                break
            conj.append(step)
            prev_s = s
            k += 1
        # Conjugate of the level profile gives the exponent partition.
        exps[p] = _conjugate_partition(conj)
    return _combine_prime_exponents(exps)


def devg1_oracle(f: GroupHom) -> FinAbGroup:
    """Element-table route to dom(f)/ker(f)."""
    tx = element_table(f.dom)
    zero = (0,) * len(f.cod.factors)
    ker = frozenset(x for x in tx.elements if f.apply(x) == zero)
    return _quotient_invariants(tx, ker)


def devg2_oracle(f: GroupHom) -> FinAbGroup:
    """Element-table route to cod(f)/image(f)."""
    tx = element_table(f.dom)
    ty = element_table(f.cod)
    img = frozenset(f.apply(x) for x in tx.elements)
    return _quotient_invariants(ty, img)


def _prime_exponents(group: FinAbGroup, p: int) -> list[int]:
    out = []
    for d in group.factors:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            out.append(e)
    return sorted(out, reverse=True)


def _conjugate_partition(desc: list[int]) -> list[int]:
    if not desc:
        return []
    return [sum(1 for e in desc if e >= i) for i in range(1, desc[0] + 1)]


@lru_cache(maxsize=None)
def embeds_in(a: FinAbGroup, b: FinAbGroup) -> bool:
    """Whether a is isomorphic to a subgroup of b.

    Prime by prime, the conjugate of a's exponent partition must be
    dominated pointwise by the conjugate of b's.
    """
    for p in _factorint(a.order()) if not a.is_trivial() else ():
        ca = _conjugate_partition(_prime_exponents(a, p))
        cb = _conjugate_partition(_prime_exponents(b, p))
        if len(ca) > len(cb):
            return False
        if any(x > y for x, y in zip(ca, cb)):
            return False
    return True


@lru_cache(maxsize=None)
def embeds_in_oracle(a: FinAbGroup, b: FinAbGroup) -> bool:
    """Search for an injective homomorphism, generator image by generator image.

    Independent of the partition criterion: candidates for each generator are
    the elements of its exact order, a partial assignment must keep the span
    growing by the full factor, and a branch is cut when the span plus the
    torsion subgroup available to the remaining generators cannot reach the
    needed order.
    """
    if a.order() > MAX_ORACLE_ORDER or b.order() > MAX_ORACLE_ORDER:
        raise ValueError(f"oracle embedding search is bounded at order {MAX_ORACLE_ORDER}")
    if a.is_trivial():
        return True
    # Injections restrict to injections on n-torsion.
    for p, e in _factorint(a.order()).items():
        for k in range(1, e + 1):
            pk = p**k
            ta = prod(gcd(pk, d) for d in a.factors)
            tb = prod(gcd(pk, d) for d in b.factors)
            if ta > tb:
                return False

    tb = element_table(b)
    order_of = {x: tb.order_of(x) for x in tb.elements}
    gens = sorted(a.factors, reverse=True)
    by_exact_order = {
        d: [x for x in tb.elements if order_of[x] == d] for d in set(gens)
    }
    killed_by = {
        d: frozenset(x for x in tb.elements if tb.scale(d, x) == tb.zero()) for d in set(gens)
    }
    target = a.order()

    def extend(i: int, span: frozenset) -> bool:
        if i == len(gens):
            return True
        d = gens[i]
        avail = killed_by[d]
        inter = sum(1 for x in span if x in avail) if len(span) < len(avail) else sum(
            1 for x in avail if x in span
        )
        if len(span) * len(avail) // inter < target:
            return False
        for y in by_exact_order[d]:
            new_span = set(span)
            step = span
            for _ in range(d - 1):
                step = frozenset(tb.add(s, y) for s in step)
                new_span.update(step)
            if len(new_span) == len(span) * d and extend(i + 1, frozenset(new_span)):
                return True
        return False

    return extend(0, frozenset({tb.zero()}))


def devg_leq(d: GroupDeviation, e: GroupDeviation) -> bool:
    """Deviation order on group deviations.

    First components compare contravariantly (e's quotient embeds into d's),
    second components covariantly.
    """
    return embeds_in(e.first, d.first) and embeds_in(d.second, e.second)


def enumerate_homs(dom: FinAbGroup, cod: FinAbGroup) -> Iterator[GroupHom]:
    """All well-defined homomorphisms, in lexicographic matrix order."""
    if dom.order() > MAX_HOM_ORDER or cod.order() > MAX_HOM_ORDER:
        raise ValueError(f"hom enumeration is bounded at order {MAX_HOM_ORDER}")
    m = len(dom.factors)
    k = len(cod.factors)
    choices = []
    for i in range(k):
        b = cod.factors[i]
        for j in range(m):
            a = dom.factors[j]
            step = b // gcd(a, b)
            choices.append(range(0, b, step))
    for flat in product(*choices):
        matrix = tuple(tuple(flat[i * m + j] for j in range(m)) for i in range(k))
        yield GroupHom(dom, cod, matrix)


def _partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return

    def rec(rest: int, cap: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    yield from rec(n, n)


def enumerate_groups(max_order: int) -> tuple[FinAbGroup, ...]:
    """All finite abelian groups of order up to the bound, sorted by order."""
    groups = []
    for n in range(1, max_order + 1):
        primes = _factorint(n)
        parts = [list(_partitions_of(e)) for e in primes.values()]
        for choice in product(*parts):
            exps = {p: list(part) for p, part in zip(primes, choice)}
            groups.append(_combine_prime_exponents(exps))
    return tuple(sorted(groups, key=lambda g: (g.order(), g.factors)))
