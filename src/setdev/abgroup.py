"""Finite abelian groups in invariant-factor form and their deviations.

Conventions
-----------
A group is an ascending divisibility chain d1 | d2 | ... | dk with every
di >= 2; the trivial group is the empty chain, and isomorphism testing is
equality of chains. A homomorphism from factors (a_1..a_m) to (b_1..b_k) is
an integer matrix M with k rows and m columns, entries reduced mod b_i
row-wise, subject to the well-definedness condition b_i | a_j * M[i][j].
Groups and homomorphisms are slotted tuples. ``GroupHom(...)`` checks both
conditions once, in its ``__post_init__`` hook, except for the homs ``_hom``
builds as a bare tuple: those of ``enumerate_homs``, which checks each
entry's range of choices once per pair of groups, rebuilds of enumerated
homs, and the composites of ``GroupHom.then``, reduced mod each codomain
factor and well-defined since both factors are.

The deviation of a homomorphism f : X -> Y is the pair of abstract groups
(X / ker f, Y / f(X)). Two independent routes compute it:

- ``devg1``/``devg2`` read f's matrix alone, prime by prime, through a local
  Smith form over Z/p^e: the first component as the isomorphic image f(X),
  the second as the cokernel. Both depend on f(X) alone, so ``_image`` and
  ``_cokernel`` memoise one normal form per (codomain, f's distinct columns),
  and ``devg1``/``devg2`` keep a size-0 cache for perfbench's ``cache_info()``
  alone. This route reads no element codes or tables.
- ``devg1_oracle``/``devg2_oracle`` tabulate f over the coded form of its
  groups, take kernel and image as bitmasks over codes, and count torsion
  in the cosets. This route never calls ``smith_normal_form``.

The coded form, ``element_table(group)``, numbers the elements in mixed
radix, in the order of ``product(range(d) for d in factors)``. It carries a
byte addition table and n-multiple tables, each built on first use, and
memoises quotients by subgroup bitmask. A homomorphism's table over codes
is built from the codes of its matrix columns by additions alone, and the
codomain keeps the last one, so the two oracles tabulate each hom once.

Deviations are ordered by embeddability. The first components compare
contravariantly: a finer kernel leaves a larger quotient, so "f deviates no
more than g" asks that g's first component embed into f's, while the second
components embed the usual way round. This is the direction under which an
isomorphism's deviation sits below every other deviation.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import cached_property, lru_cache
from itertools import product, zip_longest
from math import gcd, prod
from operator import mul

MAX_HOM_ORDER = 16
MAX_ORACLE_ORDER = 64
# devg1/devg2 factor group orders by trial division up to this divisor
# (about 0.15 s), so they refuse an order whose part free of smaller primes
# exceeds its square.
MAX_TRIAL_DIVISOR = 10**6


class FinAbGroup(namedtuple("FinAbGroup", "factors")):
    """Finite abelian group presented by its invariant factors."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, factors: tuple[int, ...]) -> FinAbGroup:
        prev = 1
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
            if d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d
        return tuple.__new__(cls, (factors,))

    def order(self) -> int:
        return prod(self.factors)

    def is_trivial(self) -> bool:
        return not self.factors


TRIVIAL_GROUP = FinAbGroup(())


@lru_cache(maxsize=None)
def _factorint(n: int, limit: int | None = None) -> dict[int, int]:
    """Prime factorisation by trial division, refusing to try a divisor above limit."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if limit is not None and p > limit:
            raise ValueError(f"{n} has no prime factor up to {limit} and is too large to factor")
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _valuation(n: int, p: int) -> int:
    """Exponent of p in n, for n != 0."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@lru_cache(maxsize=None)
def _shared_group(factors: tuple[int, ...]) -> FinAbGroup:
    # One object per isomorphism class, shared by every memo entry of that class.
    return FinAbGroup(factors)


def _from_prime_powers(parts: list[list[int]]) -> FinAbGroup:
    """The group whose elementary divisors are given, one list per prime."""
    if len(parts) == 1:
        return _shared_group(tuple(sorted(parts[0])))
    # Align each prime's powers largest-first and multiply columns.
    columns = zip_longest(*(sorted(powers, reverse=True) for powers in parts), fillvalue=1)
    return _shared_group(tuple(reversed([prod(column) for column in columns])))


def _is_int_list(value: object) -> bool:
    # bool is an int subclass and 2.0 == 2, but JSON true and 2.0 are not integer literals.
    return isinstance(value, list) and all(type(v) is int for v in value)


class GroupHom(namedtuple("GroupHom", "dom cod matrix")):
    """Homomorphism between finite abelian groups as an integer matrix."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, dom: FinAbGroup, cod: FinAbGroup, matrix: tuple[tuple[int, ...], ...]) -> GroupHom:
        f = tuple.__new__(cls, (dom, cod, matrix))
        f.__post_init__()  # the checks, a hook of their own: perfbench counts its calls
        return f

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

    def then(self, other: GroupHom) -> GroupHom:
        """Diagrammatic composite: first self, then other."""
        if self.cod != other.dom:
            raise ValueError("composite needs matching middle group")
        # A trivial middle group leaves self with no rows to transpose.
        columns = list(zip(*self.matrix)) or [()] * len(self.dom.factors)
        rows = zip(other.matrix, other.cod.factors)
        matrix = tuple([tuple([sum(map(mul, row, col)) % b for col in columns]) for row, b in rows])
        return _hom(self.dom, other.cod, matrix)  # reduced, and well-defined as its factors are


def _hom(dom: FinAbGroup, cod: FinAbGroup, matrix: tuple[tuple[int, ...], ...]) -> GroupHom:
    """A GroupHom whose matrix is reduced and well-defined by construction, without __post_init__."""
    return tuple.__new__(GroupHom, (dom, cod, matrix))


class GroupDeviation(namedtuple("GroupDeviation", "first second")):
    __slots__ = ()


# --- normal-form route ----------------------------------------------------------


def smith_normal_form(mat: Sequence[Sequence[int]], p: int, e: int) -> list[int]:
    """Local Smith form over Z/p^e: its diagonal, each entry divided by its unit.

    Returns one power p^v per row in ascending order, each at most p^e; p^e
    stands for a diagonal entry that is 0 mod p^e, and for each row beyond
    the number of columns. So the cokernel of the matrix, (Z/p^e)^rows
    modulo its column span, is the sum of the Z/p^v, and the column span
    itself the sum of the Z/p^(e - v).

    One row or one column has rank at most one: its form is the gcd of its
    entries with p^e, with p^e for every further row. Otherwise each pivot
    is an entry of least valuation, p^v times a unit, first in row-major
    order, so every other entry is a multiple of p^v and clearing the
    pivot's column only multiplies by the unit's inverse: no remainder
    steps, no re-pivoting. Clearing the pivot's row would change nothing
    else, so the row is dropped instead. Transforms are not kept.
    """
    q = p**e
    if len(mat) == 1:
        return [gcd(q, *mat[0])]
    if mat and len(mat[0]) == 1:
        return [gcd(q, *[row[0] for row in mat])] + [q] * (len(mat) - 1)
    rows = [[x % q for x in row] for row in mat]
    out: list[int] = []
    while rows:
        # gcd(q, ...) is p to the least valuation, capped at q.
        least = [gcd(q, *row) for row in rows]
        scale = min(least)
        if scale == q:
            break
        pivot_row = rows.pop(least.index(scale))
        # Every entry is a multiple of scale; the first that p * scale does not divide is a pivot.
        j = 0
        while not pivot_row[j] % (p * scale):
            j += 1
        inverse = pow(pivot_row[j] // scale, -1, q)
        rows = [
            [(x - c * y) % q for x, y in zip(row, pivot_row)] if (c := row[j] // scale * inverse) else row
            for row in rows
        ]
        out.append(scale)
    return out + [q] * (len(mat) - len(out))


@lru_cache(maxsize=256)
def _layout(cod: FinAbGroup, p: int) -> tuple[int, int, tuple[tuple[int, int, tuple[int, ...]], ...]]:
    """The local set-up of cod at a prime p dividing its order: e, q = p^e
    and, for each row i whose factor has p-part r > 1, (i, devg1's scale
    q // r, devg2's relation columns). p-parts ascend along the chain, so the
    rows with r < q come first, each with r in a relation column of its own;
    r = q is 0 mod q and needs none."""
    e = _valuation(cod.factors[-1], p)
    q = p**e
    kept = [(i, r) for i, b in enumerate(cod.factors) if (r := gcd(b, q)) > 1]
    n = sum(r < q for _, r in kept)
    rows = [(i, q // r, tuple([r if k == j else 0 for k in range(n)])) for j, (i, r) in enumerate(kept)]
    return e, q, tuple(rows)


@lru_cache(maxsize=None)
def _image(cod: FinAbGroup, n: int, gens: frozenset[tuple[int, ...]]) -> FinAbGroup:
    """The span of gens in cod, of order dividing n: at a prime p, row i of
    _layout(cod, p) scales Z/p^beta_i into Z/p^e by p^(e - beta_i), and each
    diagonal entry d < p^e of the scaled span's local Smith form gives Z/(p^e / d)."""
    parts = []
    for p in _factorint(n, MAX_TRIAL_DIVISOR):
        e, q, layout = _layout(cod, p)
        span = [[g[i] * scale for g in gens] for i, scale, _ in layout]
        parts.append([q // d for d in smith_normal_form(span, p, e) if d < q])
    return _from_prime_powers(parts)


@lru_cache(maxsize=None)
def _cokernel(cod: FinAbGroup, gens: frozenset[tuple[int, ...]]) -> FinAbGroup:
    """cod modulo the span of gens: at a prime p, the diagonal entries d > 1 of
    the local Smith form of [gens | diag(p^beta_i)] over the rows of _layout(cod, p)."""
    parts = []
    for p in _factorint(cod.order(), MAX_TRIAL_DIVISOR):
        e, q, layout = _layout(cod, p)
        block = [[*(g[i] for g in gens), *relations] for i, _, relations in layout]
        parts.append([d for d in smith_normal_form(block, p, e) if d > 1])
    return _from_prime_powers(parts)


@lru_cache(maxsize=0)  # no memo: _image holds the value; perfbench reads cache_info()
def devg1(f: GroupHom) -> FinAbGroup:
    """dom(f) / ker(f), as image(f): its order divides gcd(|dom|, |cod|)."""
    return _image(f.cod, gcd(f.dom.order(), f.cod.order()), frozenset(zip(*f.matrix)))


@lru_cache(maxsize=0)  # no memo: _cokernel holds the value; perfbench reads cache_info()
def devg2(f: GroupHom) -> FinAbGroup:
    """cod(f) / image(f), the cokernel."""
    return _cokernel(f.cod, frozenset(zip(*f.matrix)))


def devg(f: GroupHom) -> GroupDeviation:
    return GroupDeviation(devg1(f), devg2(f))


# --- coded form and the element route ----------------------------------------------


# Byte n of a value table becomes ASCII "1" exactly where the value is code 0.
_ZERO_TO_ONE = bytes([ord("1")] + [ord("0")] * 255)


def kernel_mask(values: bytes) -> int:
    """Bitmask of the codes x with values[x] == 0."""
    return int(values.translate(_ZERO_TO_ONE)[::-1], 2)


def image_mask(values: bytes) -> int:
    """Bitmask of the codes that occur in values."""
    return sum(map((1).__lshift__, set(values)))


class CodedGroup:
    """The elements of a group as mixed-radix codes, with tables built on use."""

    def __init__(self, group: FinAbGroup) -> None:
        self.group = group
        self.order = group.order()
        self.strides = tuple(prod(group.factors[i + 1 :]) for i in range(len(group.factors)))
        self._multiples: dict[int, bytes] = {}
        self._quotients: dict[int, FinAbGroup] = {}
        self._last: tuple[GroupHom | None, bytes] = (None, b"")

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Coordinates of each code."""
        return tuple(product(*(range(d) for d in self.group.factors)))

    @cached_property
    def sums(self) -> tuple[bytes, ...]:
        """sums[x][y] is the code of x + y. Each row is padded to 256 bytes,
        so that values.translate(sums[x]) adds x to every code in values."""
        factors, strides = self.group.factors, self.strides
        pad = bytes(256 - self.order)
        return tuple(
            bytes(
                sum((u + v) % d * s for u, v, d, s in zip(x, y, factors, strides))
                for y in self.elements
            )
            + pad
            for x in self.elements
        )

    @cached_property
    def orders(self) -> bytes:
        """orders[x] is the order of x."""
        out = []
        for x, row in enumerate(self.sums):
            n, cur = 1, x
            while cur:
                cur = row[cur]
                n += 1
            out.append(n)
        return bytes(out)

    def values(self, dom: FinAbGroup, columns: bytes) -> bytes:
        """Codes of the images of dom's elements, in dom's code order, under
        the homomorphism sending generator j to the element with code columns[j].

        Generators are taken last first: the table of the later generators
        is translated by each multiple of the current generator's image in
        turn, which keeps the last coordinate fastest.
        """
        sums = self.sums
        values = b"\0"
        for a, col in reversed(list(zip(dom.factors, columns))):
            blocks = []
            step = 0
            for _ in range(a):
                blocks.append(values.translate(sums[step]))
                step = sums[step][col]
            values = b"".join(blocks)
        return values

    def columns(self, f: GroupHom) -> bytes:
        """Codes of the images of dom(f)'s generators, i.e. of f's columns."""
        if not f.matrix:
            return bytes(len(f.dom.factors))
        return bytes(sum(map(mul, column, self.strides)) for column in zip(*f.matrix))

    def table(self, f: GroupHom) -> bytes:
        """f's values over codes, table(f)[x] the code of f(x); the last hom tabulated is kept."""
        if self._last[0] is not f:
            self._last = (f, self.values(f.dom, self.columns(f)))
        return self._last[1]

    def _matrix(self, columns: bytes) -> tuple[tuple[int, ...], ...]:
        """The matrix whose column j holds the coordinates of code columns[j]."""
        elements = self.elements
        return tuple([tuple([elements[c][i] for c in columns]) for i in range(len(self.group.factors))])

    def multiple(self, n: int) -> bytes:
        """multiple(n)[x] is the code of n * x."""
        if n not in self._multiples:
            factors = self.group.factors
            scaled = bytes(n % d * s for d, s in zip(factors, self.strides))
            self._multiples[n] = self.values(self.group, scaled)
        return self._multiples[n]

    def quotient(self, subgroup: int) -> FinAbGroup:
        """Invariant factors of the group modulo a subgroup, given as a bitmask
        over codes, by counting torsion in cosets; memoised per mask.

        The number of cosets killed by n equals |{x : n*x in subgroup}| / |subgroup|,
        and for n a prime power that count is a pure power of the prime; the
        exponents reconstruct the prime-exponent partition of the quotient.
        """
        if subgroup in self._quotients:
            return self._quotients[subgroup]
        size = subgroup.bit_count()
        parts = []
        for p in _factorint(self.order // size):
            conj = []
            prev_s = 0
            k = 1
            while True:
                cnt = sum(subgroup >> y & 1 for y in self.multiple(p**k)) // size
                s = _valuation(cnt, p)
                step = s - prev_s
                if step == 0:
                    break
                conj.append(step)
                prev_s = s
                k += 1
            # Conjugate of the level profile gives the exponent partition.
            parts.append([p**x for x in _conjugate_partition(conj)])
        self._quotients[subgroup] = _from_prime_powers(parts)
        return self._quotients[subgroup]


@lru_cache(maxsize=None)
def element_table(group: FinAbGroup) -> CodedGroup:
    """The coded form of a group, one per group; tables are built on first use."""
    if group.order() > MAX_ORACLE_ORDER:
        raise ValueError(f"group of order {group.order()} exceeds the table bound {MAX_ORACLE_ORDER}")
    return CodedGroup(group)


def devg1_oracle(f: GroupHom) -> FinAbGroup:
    """Element route to dom(f)/ker(f): the kernel as a bitmask over dom's codes."""
    return element_table(f.dom).quotient(kernel_mask(element_table(f.cod).table(f)))


def devg2_oracle(f: GroupHom) -> FinAbGroup:
    """Element route to cod(f)/image(f): the image as a bitmask over cod's codes."""
    cod = element_table(f.cod)
    return cod.quotient(image_mask(cod.table(f)))


# --- embeddability --------------------------------------------------------------


def _prime_exponents(group: FinAbGroup, p: int) -> list[int]:
    return sorted((e for d in group.factors if (e := _valuation(d, p))), reverse=True)


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
        if len(ca) > len(cb) or any(x > y for x, y in zip(ca, cb)):
            return False
    return True


@lru_cache(maxsize=None)
def embeds_in_oracle(a: FinAbGroup, b: FinAbGroup) -> bool:
    """Search for an injective homomorphism, generator image by generator image.

    Independent of the partition criterion: after a torsion count rules out
    what cannot embed, the generators of a are assigned in descending order,
    each to an element of b of its exact order whose cyclic subgroup meets
    the span of those before (a bitmask over b's codes) only in 0, so that
    the span grows by the full factor; a full assignment is an injection.
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
    sums = tb.sums
    gens = sorted(a.factors, reverse=True)
    by_exact_order = {d: [x for x, n in enumerate(tb.orders) if n == d] for d in set(gens)}

    def extend(i: int, span: list[int], mask: int) -> bool:
        if i == len(gens):
            return True
        d = gens[i]
        for y in by_exact_order[d]:
            steps = [y]
            for _ in range(d - 2):
                steps.append(sums[steps[-1]][y])
            # The span grows by the factor d iff <y> meets it only in 0.
            if any(mask >> s & 1 for s in steps):
                continue
            grown = span + [sums[s][x] for s in steps for x in span]
            if extend(i + 1, grown, image_mask(grown)):
                return True
        return False

    return extend(0, [0], 1)


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
    # Every choice is reduced and well-defined, so the matrices skip __post_init__.
    choices = [[v for v in range(b) if a * v % b == 0] for b in cod.factors for a in dom.factors]
    rows = [slice(i * m, (i + 1) * m) for i in range(len(cod.factors))]
    for flat in product(*choices):
        # From a list, not a generator: tuples grown by resizing pile up in the free lists.
        yield _hom(dom, cod, tuple([flat[row] for row in rows]))


def _partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as descending tuples."""

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
            groups.append(_from_prime_powers([[p**x for x in part] for p, part in zip(primes, choice)]))
    return tuple(sorted(groups, key=lambda g: (g.order(), g.factors)))
