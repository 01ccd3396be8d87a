"""Exact permutation and cycle-type arithmetic.

This module provides the combinatorial bedrock for everything else in the
package: permutations in one-line notation, cycle types (integer partitions
recording cycle structure), the index of a permutation
(``degree - number_of_cycles``), and the product embedding of two symmetric
groups acting on a grid of pairs.  The product embedding doubles as a
brute-force oracle for the gcd-based pair formulas, so the fast paths can be
checked against an independent construction.

All values are immutable and all functions are pure; everything here is safe
to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .errors import DegreeMismatchError, DomainError

#: Guard for the brute-force product construction: the embedded permutation
#: acts on ``m * n`` points, and this cap keeps exhaustive oracles desk-scale.
MAX_PRODUCT_DEGREE = 10_000


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1, ..., degree}`` in one-line notation.

    ``images[i - 1]`` is the image of point ``i``.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise DomainError(
                f"images must be a bijection on 1..{n}: got {self.images!r}"
            )

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise DomainError(f"point {point} out of range 1..{self.degree}")
        return self.images[point - 1]

    @staticmethod
    def identity(degree: int) -> "Permutation":
        if degree < 0:
            raise DomainError("degree must be non-negative")
        return Permutation(tuple(range(1, degree + 1)))

    @staticmethod
    def from_cycles(degree: int, cycles: list[tuple[int, ...]]) -> "Permutation":
        """Build a permutation from disjoint cycles given as point tuples.

        >>> Permutation.from_cycles(4, [(1, 2, 3, 4)]).images
        (2, 3, 4, 1)
        >>> Permutation.from_cycles(5, [(1, 2), (3, 4)]).images
        (2, 1, 4, 3, 5)
        """
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for point in cycle:
                if not 1 <= point <= degree:
                    raise DomainError(f"cycle point {point} out of range 1..{degree}")
                if point in seen:
                    raise DomainError(f"point {point} repeated across cycles")
                seen.add(point)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return Permutation(tuple(images))

    def compose(self, other: "Permutation") -> "Permutation":
        """Return ``self after other`` (apply ``other`` first)."""
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot compose degrees {self.degree} and {other.degree}"
            )
        return Permutation(tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            images[j - 1] = i
        return Permutation(tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, fixed points included, each starting at its
        smallest point, listed by smallest point."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            point = self.images[start - 1]
            while point != start:
                cycle.append(point)
                seen.add(point)
                point = self.images[point - 1]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def power(self, k: int) -> "Permutation":
        """Return the k-th power (k may be negative or zero)."""
        k %= self.order()
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result


@dataclass(frozen=True)
class CycleType:
    """An integer partition recording a permutation's cycle lengths.

    ``parts`` is canonically sorted in descending order; two cycle types are
    equal exactly when they are the same partition.  Fixed points appear as
    parts of size 1, so the parts always sum to the degree.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.parts):
            raise DomainError(f"parts must be positive: {self.parts!r}")
        canonical = tuple(sorted(self.parts, reverse=True))
        if self.parts != canonical:
            object.__setattr__(self, "parts", canonical)

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

    def representative(self) -> Permutation:
        """A canonical permutation with this cycle type (consecutive blocks)."""
        cycles: list[tuple[int, ...]] = []
        next_point = 1
        for p in self.parts:
            cycles.append(tuple(range(next_point, next_point + p)))
            next_point += p
        return Permutation.from_cycles(self.degree, cycles)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def cycle_type(p: Permutation) -> CycleType:
    """The cycle type of a permutation, fixed points included.

    >>> cycle_type(Permutation.identity(4)).parts
    (1, 1, 1, 1)
    >>> cycle_type(Permutation.from_cycles(4, [(1, 2, 3, 4)])).parts
    (4,)
    >>> cycle_type(Permutation.from_cycles(5, [(1, 2), (3, 4)])).parts
    (2, 2, 1)
    """
    return CycleType(tuple(len(c) for c in p.cycles()))


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


def product_embed(g: Permutation, h: Permutation) -> Permutation:
    """The permutation of pair-points induced by ``g`` and ``h`` jointly.

    The pair ``(i, j)`` with ``1 <= i <= m``, ``1 <= j <= n`` is indexed as
    point ``(i - 1) * n + j``; the result sends it to ``(g(i), h(j))``.  This
    is the brute-force oracle for :func:`pair_cycle_count` /
    :func:`pair_index`: the cycle type of the embedded permutation realizes the
    gcd formula.

    >>> e = product_embed(Permutation.identity(2), Permutation.identity(3))
    >>> e.images
    (1, 2, 3, 4, 5, 6)
    >>> swap = Permutation.from_cycles(2, [(1, 2)])
    >>> cycle_type(product_embed(swap, swap)).parts
    (2, 2)
    """
    m, n = g.degree, h.degree
    if m * n > MAX_PRODUCT_DEGREE:
        raise DomainError(
            f"product degree {m * n} exceeds the configured cap {MAX_PRODUCT_DEGREE}"
        )
    images = [0] * (m * n)
    for i, gi in enumerate(g.images):
        for j, hj in enumerate(h.images):
            images[i * n + j] = (gi - 1) * n + hj
    return Permutation(tuple(images))


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


def all_permutations(n: int) -> list[Permutation]:
    """Every permutation of degree ``n`` (use only for small ``n``)."""
    if n > 8:
        raise DomainError("exhaustive permutation listing is capped at degree 8")
    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]
