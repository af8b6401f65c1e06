"""Chu spaces over a finite alphabet and the evaluation spaces over powersets.

A space is (points, states, matrix) with matrix entries drawn from the
alphabet; a morphism is a forward map on points together with a backward map
on states, adjoint in the sense that evaluating a point against a pulled-back
state equals evaluating the pushed-forward point against the original state.
Composition chains forward maps left to right and backward maps right to
left; that is the unique order under which adjointness is preserved.
"""

from __future__ import annotations

from collections import namedtuple

from .finset import Deviation, FiniteSet, Mapping, deviation
from .powerset import power_set, preimage_map


class ChuSpace(namedtuple("ChuSpace", "points states alphabet matrix")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, points: FiniteSet, states: FiniteSet, alphabet: FiniteSet, matrix: tuple) -> ChuSpace:
        if len(matrix) != points.size:
            raise ValueError("matrix needs one row per point")
        for row in matrix:
            if len(row) != states.size:
                raise ValueError("matrix rows need one entry per state")
            for w in row:
                if not 0 <= w < alphabet.size:
                    raise ValueError(f"matrix entry {w} outside the alphabet")
        return tuple.__new__(cls, (points, states, alphabet, matrix))

    def to_json_dict(self) -> dict:
        return {
            "points": self.points.size,
            "states": self.states.size,
            "alphabet": self.alphabet.size,
            "matrix": [list(row) for row in self.matrix],
        }


class ChuMorphism(namedtuple("ChuMorphism", "forward backward")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"forward": self.forward.to_json_dict(), "backward": self.backward.to_json_dict()}


def identity_morphism(space: ChuSpace) -> ChuMorphism:
    return ChuMorphism(Mapping.identity(space.points), Mapping.identity(space.states))


def morphism_is_valid(m: ChuMorphism, src: ChuSpace, dst: ChuSpace) -> bool:
    """Adjointness of the pair against the two matrices, checked pointwise."""
    if m.forward.dom != src.points or m.forward.cod != dst.points:
        raise ValueError("forward component does not match the point carriers")
    if m.backward.dom != dst.states or m.backward.cod != src.states:
        raise ValueError("backward component does not match the state carriers")
    for x in range(src.points.size):
        fx = m.forward.table[x]
        row_src = src.matrix[x]
        row_dst = dst.matrix[fx]
        for v in range(dst.states.size):
            if row_src[m.backward.table[v]] != row_dst[v]:
                return False
    return True


def compose(m: ChuMorphism, n: ChuMorphism) -> ChuMorphism:
    """Composite of m : A -> B with n : B -> C."""
    return ChuMorphism(m.forward.then(n.forward), n.backward.then(m.backward))


def e_space(base: FiniteSet) -> ChuSpace:
    """Evaluation space: points of the carrier against all of its subsets."""
    states = power_set(base)
    matrix = tuple(
        tuple(a >> x & 1 for a in range(states.size)) for x in range(base.size)
    )
    return ChuSpace(base, states, FiniteSet(2), matrix)


def embed(f: Mapping) -> ChuMorphism:
    """Represent a plain mapping between evaluation spaces.

    Forward is f itself, backward is the preimage map on subsets; the pair is
    adjoint because membership of x in a preimage is membership of f(x).
    """
    return ChuMorphism(f, preimage_map(f))


def forced_backward(u: Mapping) -> Mapping | None:
    """The backward map adjointness forces on u between evaluation spaces.

    State by state: a target state b must pull back to a source state a
    whose entry at every point x equals the target's entry at (u(x), b).
    Returns None unless every b has exactly one such a, so a result is the
    one backward map making u valid.
    """
    src, dst = e_space(u.dom), e_space(u.cod)
    by_column: dict[tuple[int, ...], list[int]] = {}
    for a in range(src.states.size):
        by_column.setdefault(tuple(row[a] for row in src.matrix), []).append(a)
    table = []
    for b in range(dst.states.size):
        solutions = by_column.get(tuple(dst.matrix[y][b] for y in u.table), [])
        if len(solutions) != 1:
            return None
        table.append(solutions[0])
    return Mapping(dst.states, src.states, tuple(table))


def ex_mapping(base: FiniteSet) -> Mapping:
    """Evaluation matrix flattened to one mapping on (point, subset) pairs.

    Pair (x, A) sits at index x * 2**n + A.
    """
    space = e_space(base)
    table = tuple(w for row in space.matrix for w in row)
    return Mapping(FiniteSet(len(table)), space.alphabet, table)


def ex_deviation(base: FiniteSet) -> Deviation:
    """Deviation of the flattened evaluation matrix.

    Needs at least two points; below that the evaluation matrix does not
    reach both alphabet values and the two-block shape degenerates.
    """
    if base.size < 2:
        raise ValueError("evaluation deviation needs a carrier with at least 2 elements")
    return deviation(ex_mapping(base))
