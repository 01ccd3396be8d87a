"""Enumerating oracles that the tests check closed forms against.

``malle_invariants_product`` gives b = 1 and ``abelian_counting_constants``
counts the order-p power-map orbits in closed form; these functions walk the
orbits element by element, so the tests can compare the two.
"""

from __future__ import annotations

from math import gcd

from sdxa.errors import DomainError
from sdxa.groups import AbelianElement, AbelianGroup, ClassPair


def galois_orbits(group: AbelianGroup) -> list[tuple[AbelianElement, ...]]:
    """Orbits of the power maps ``a -> k*a`` over all k coprime to the group
    exponent, each orbit sorted by residue vector, orbits sorted by their
    smallest member.

    >>> [len(o) for o in galois_orbits(AbelianGroup.from_label("C5"))]
    [1, 4]
    """
    exponent = group.exponent
    units = [k for k in range(1, exponent + 1) if gcd(k, exponent) == 1]
    remaining = {a.residues: a for a in group.elements()}
    orbits: list[tuple[AbelianElement, ...]] = []
    while remaining:
        seed = remaining[min(remaining)]
        orbit = {seed.scale(k).residues for k in units}
        orbits.append(tuple(group.element(r) for r in sorted(orbit)))
        for r in orbit:
            del remaining[r]
    return orbits


def cyclotomic_class_orbits(
    group: AbelianGroup, classes: list[ClassPair]
) -> list[tuple[ClassPair, ...]]:
    """Orbits of the cyclotomic power action ``(g, a) -> (g^k, k*a)`` over all
    k coprime to the product group's exponent, each orbit sorted, orbits
    sorted by their smallest member.

    Every cycle length of S_d divides that exponent, hence is coprime to k,
    so g^k has the cycle type of g and only the abelian coordinate moves.
    The units mod the exponent reduce onto the units mod exp(A), so the orbit
    of (g, a) is {g} x (the :func:`galois_orbits` orbit of a), for every d.
    """
    orbit_of = {a: orbit for orbit in galois_orbits(group) for a in orbit}
    present = set(classes)
    orbits: dict[tuple[ClassPair, ...], None] = {}
    for g, h in sorted(present, key=lambda c: (c[0].parts, c[1].residues)):
        orbit = tuple((g, a) for a in orbit_of[h])
        if not present.issuperset(orbit):
            # Power maps permute the full class list; a miss can only
            # happen if the caller passed a strict subset that is not
            # power-closed.
            raise DomainError("class list is not closed under power maps")
        orbits[orbit] = None
    return list(orbits)
