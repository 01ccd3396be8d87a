"""Exact permutation and cycle-type arithmetic.

This module provides the combinatorial bedrock for everything else in the
package: cycle types (integer partitions recording cycle structure), the
index of a permutation (``degree - number_of_cycles``), and the gcd formulas
for a pair of permutations acting on a grid of pairs.

A permutation of ``{1, ..., n}`` is its tuple of images, ``p[i - 1]`` being
the image of ``i``.  Explicit permutations appear only in the brute-force
oracle: the product embedding of two permutations on the pair grid, whose
cycle type realizes the gcd formulas, so the fast paths can be checked
against an independent construction.

All values are immutable and all functions are pure; everything here is safe
to call concurrently.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd, lcm

from .errors import DomainError, Frozen

#: Guard for the brute-force product construction: the embedded permutation
#: acts on ``m * n`` points, and this cap keeps exhaustive oracles desk-scale.
MAX_PRODUCT_DEGREE = 10_000


class CycleType(Frozen, namedtuple("CycleType", "parts")):
    """An integer partition recording a permutation's cycle lengths.

    ``parts`` is canonically sorted in descending order; two cycle types are
    equal exactly when they are the same partition.  Fixed points appear as
    parts of size 1, so the parts always sum to the degree.
    """

    def __new__(cls, parts: tuple[int, ...]) -> CycleType:
        if any(p < 1 for p in parts):
            raise DomainError(f"parts must be positive: {parts!r}")
        return super().__new__(cls, tuple(sorted(parts, reverse=True)))

    @property
    def degree(self) -> int:
        return sum(self.parts)

    @property
    def num_cycles(self) -> int:
        return len(self.parts)

    def is_identity(self) -> bool:
        return all(p == 1 for p in self.parts)

    def order(self) -> int:
        return lcm(*self.parts)

    def gcd_of_parts(self) -> int:
        return gcd(*self.parts)

    def representative(self) -> tuple[int, ...]:
        """A canonical permutation with this cycle type (consecutive blocks).

        >>> CycleType((3, 2, 1)).representative()
        (2, 3, 1, 5, 4, 6)
        """
        images: list[int] = []
        for p in self.parts:
            start = len(images) + 1
            images.extend(range(start + 1, start + p))
            images.append(start)
        return tuple(images)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def cycle_type(p: tuple[int, ...]) -> CycleType:
    """The cycle type of a permutation given by its images, fixed points
    included.

    >>> cycle_type((1, 2, 3, 4)).parts
    (1, 1, 1, 1)
    >>> cycle_type((2, 3, 4, 1)).parts
    (4,)
    >>> cycle_type((2, 1, 4, 3, 5)).parts
    (2, 2, 1)
    """
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise DomainError(f"images must be a bijection on 1..{n}: got {p!r}")
    seen = [False] * n
    lengths: list[int] = []
    for start in range(n):
        length = 0
        point = start
        while not seen[point]:
            seen[point] = True
            length += 1
            point = p[point] - 1
        if length:
            lengths.append(length)
    return CycleType(tuple(lengths))


def ind(ct: CycleType) -> int:
    """Index of a cycle type: degree minus number of cycles.

    At a tamely ramified prime this equals the discriminant valuation of the
    corresponding field, which is why it drives all the valuation arithmetic
    downstream.

    >>> ind(CycleType((1, 1, 1)))
    0
    >>> ind(CycleType((2, 1)))
    1
    >>> ind(CycleType((5,)))
    4
    """
    return ct.degree - ct.num_cycles


def pair_cycle_count(g: CycleType, h: CycleType) -> int:
    """Number of cycles of the product embedding of (g, h).

    A cycle of length ``a`` crossed with a cycle of length ``b`` breaks the
    ``a * b`` grid points into ``gcd(a, b)`` orbits, so the total is
    ``sum(gcd(a, b))`` over all part pairs.

    >>> pair_cycle_count(CycleType((3,)), CycleType((3,)))
    3
    >>> pair_cycle_count(CycleType((2, 1, 1, 1)), CycleType((5,)))
    4
    """
    return sum(gcd(a, b) for a in g.parts for b in h.parts)


def pair_index(g: CycleType, h: CycleType) -> int:
    """Index of (g, h) acting on the ``m * n`` grid of point pairs.

    >>> pair_index(CycleType((2, 1)), CycleType((2,)))
    3
    >>> pair_index(CycleType((1, 1)), CycleType((1, 1, 1)))
    0
    >>> pair_index(CycleType((4,)), CycleType((2,)))
    6
    """
    return g.degree * h.degree - pair_cycle_count(g, h)


def product_embed(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of pair-points induced by ``g`` and ``h`` jointly.

    The pair ``(i, j)`` with ``1 <= i <= m``, ``1 <= j <= n`` is indexed as
    point ``(i - 1) * n + j``; the result sends it to ``(g(i), h(j))``.  This
    is the brute-force oracle for :func:`pair_cycle_count` /
    :func:`pair_index`: the cycle type of the embedded permutation realizes the
    gcd formula.

    >>> product_embed((1, 2), (1, 2, 3))
    (1, 2, 3, 4, 5, 6)
    >>> cycle_type(product_embed((2, 1), (2, 1))).parts
    (2, 2)
    """
    m, n = len(g), len(h)
    if m * n > MAX_PRODUCT_DEGREE:
        raise DomainError(
            f"product degree {m * n} exceeds the configured cap {MAX_PRODUCT_DEGREE}"
        )
    images = [0] * (m * n)
    for i, gi in enumerate(g):
        for j, hj in enumerate(h):
            images[i * n + j] = (gi - 1) * n + hj
    return tuple(images)


def partitions(n: int) -> list[CycleType]:
    """All partitions of ``n`` as cycle types, in descending lexicographic
    order of their part tuples.

    >>> [ct.parts for ct in partitions(4)]
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise DomainError("n must be non-negative")

    def gen(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out: list[tuple[int, ...]] = []
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                out.append((first,) + rest)
        return out

    return [CycleType(p) for p in gen(n, n)]


def all_permutations(n: int) -> list[tuple[int, ...]]:
    """Every permutation of degree ``n`` (use only for small ``n``)."""
    if n > 8:
        raise DomainError("exhaustive permutation listing is capped at degree 8")
    return list(itertools.permutations(range(1, n + 1)))
