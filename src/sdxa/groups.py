"""Abelian groups, product conjugacy classes, and counting invariants.

An abelian group is presented by its invariant factors (a divisibility chain),
parsed from labels like ``"C2"`` or ``"C2xC4"``.  Elements are residue
vectors; the regular action on the group's own elements supplies the
permutation-theoretic view (cycle types, indices).  On top of this sit the
conjugacy classes of the direct product of a symmetric group with the abelian
group, the cyclotomic power action on those classes, and the two invariant
packages that drive asymptotic field counts: the minimal-index data for the
product group and the growth constants for the abelian group alone.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .errors import DegreeMismatchError, DomainError
from .perms import CycleType, Permutation, cycle_type, ind, pair_index, partitions

_LABEL_RE = re.compile(r"^C(\d+)(?:xC(\d+))*$")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n < 1:
        raise DomainError("can only factor positive integers")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n:
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _normalize_invariant_factors(factors: tuple[int, ...]) -> tuple[int, ...]:
    """Rewrite an arbitrary cyclic-factor list as an invariant-factor chain.

    Collect each prime's exponents across all factors, then stack the largest
    prime powers into the last factor, the second largest into the one before,
    and so on; the result is the unique chain d_1 | d_2 | ... | d_r.
    """
    exponents: dict[int, list[int]] = {}
    for f in factors:
        if f < 1:
            raise DomainError(f"cyclic factor must be >= 1: {f}")
        for p, e in factorize(f).items():
            exponents.setdefault(p, []).append(e)
    depth = max((len(v) for v in exponents.values()), default=0)
    chain: list[int] = []
    for i in range(depth):
        factor = 1
        for p, exps in exponents.items():
            padded = sorted(exps, reverse=True) + [0] * depth
            factor *= p ** padded[i]
        chain.append(factor)
    chain = [c for c in chain if c > 1]
    return tuple(reversed(chain))


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group in invariant-factor form.

    ``invariant_factors`` is a chain d_1 | d_2 | ... | d_r with every d_i >= 2;
    the empty chain is the trivial group.  Construction normalizes any list of
    cyclic factors, so ``AbelianGroup((2, 3))`` equals ``AbelianGroup((6,))``.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        normalized = _normalize_invariant_factors(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", normalized)

    @staticmethod
    def from_label(label: str) -> "AbelianGroup":
        """Parse labels like ``"C6"`` or ``"C2xC4"`` (``"C1"`` is trivial).

        >>> AbelianGroup.from_label("C2xC3").invariant_factors
        (6,)
        """
        if not _LABEL_RE.match(label):
            raise DomainError(f"bad abelian group label: {label!r}")
        return AbelianGroup(tuple(int(t[1:]) for t in label.split("x")))

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def label(self) -> str:
        if self.is_trivial:
            return "C1"
        return "x".join(f"C{d}" for d in self.invariant_factors)

    def identity(self) -> "AbelianElement":
        return AbelianElement(self, (0,) * len(self.invariant_factors))

    def element(self, residues: tuple[int, ...]) -> "AbelianElement":
        return AbelianElement(self, residues)

    def elements(self) -> list["AbelianElement"]:
        """All elements, in lexicographic residue order (identity first)."""
        return [
            AbelianElement(self, residues)
            for residues in itertools.product(
                *(range(d) for d in self.invariant_factors)
            )
        ]

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class AbelianElement:
    """An element of an :class:`AbelianGroup` as a reduced residue vector."""

    group: AbelianGroup
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = self.group.invariant_factors
        if len(self.residues) != len(factors):
            raise DegreeMismatchError(
                f"residue vector length {len(self.residues)} does not match "
                f"group rank {len(factors)}"
            )
        reduced = tuple(a % d for a, d in zip(self.residues, factors))
        object.__setattr__(self, "residues", reduced)

    @property
    def is_identity(self) -> bool:
        return all(a == 0 for a in self.residues)

    def add(self, other: "AbelianElement") -> "AbelianElement":
        if other.group != self.group:
            raise DomainError("elements belong to different groups")
        return AbelianElement(
            self.group, tuple(a + b for a, b in zip(self.residues, other.residues))
        )

    def scale(self, k: int) -> "AbelianElement":
        """The k-fold multiple (additive power map)."""
        return AbelianElement(self.group, tuple(k * a for a in self.residues))

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.residues) + ")"


def element_order(a: AbelianElement) -> int:
    """Multiplicative order of an element: lcm of d_i / gcd(a_i, d_i).

    >>> g = AbelianGroup.from_label("C6")
    >>> element_order(g.element((2,)))
    3
    """
    factors = a.group.invariant_factors
    if not factors:
        return 1
    return lcm(*(d // gcd(r, d) for r, d in zip(a.residues, factors)))


def regular_permutation(a: AbelianElement) -> Permutation:
    """The permutation induced by ``x -> x + a`` on the group's own elements,
    numbered in the order of :meth:`AbelianGroup.elements`."""
    elements = a.group.elements()
    position = {e.residues: i for i, e in enumerate(elements, start=1)}
    return Permutation(tuple(position[e.add(a).residues] for e in elements))


def regular_cycle_type(a: AbelianElement) -> CycleType:
    """Cycle type of the regular action of ``a``: |A|/ord(a) cycles of length
    ord(a) (the translation orbits are the cosets of the cyclic subgroup).

    >>> g = AbelianGroup.from_label("C4")
    >>> regular_cycle_type(g.identity()).parts
    (1, 1, 1, 1)
    >>> regular_cycle_type(AbelianGroup.from_label("C5").element((1,))).parts
    (5,)
    """
    order = element_order(a)
    return CycleType((order,) * (a.group.order // order))


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


@lru_cache(maxsize=None)
def _abelian_groups_of_order(n: int) -> tuple[AbelianGroup, ...]:
    prime_power_lists = [
        [tuple(p**k for k in part.parts) for part in partitions(e)]
        for p, e in factorize(n).items()
    ]
    groups = [
        AbelianGroup(tuple(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*prime_power_lists)
    ]
    return tuple(sorted(set(groups), key=lambda g: g.invariant_factors))


def abelian_groups_of_order(n: int) -> list[AbelianGroup]:
    """All isomorphism classes of abelian groups of order ``n``.

    >>> [g.label() for g in abelian_groups_of_order(8)]
    ['C2xC2xC2', 'C2xC4', 'C8']
    """
    if n < 1:
        raise DomainError("order must be positive")
    return list(_abelian_groups_of_order(n))


def abelian_groups_up_to(max_order: int, include_trivial: bool = False) -> list[AbelianGroup]:
    """Every isomorphism class of abelian group of order <= ``max_order``."""
    start = 1 if include_trivial else 2
    out: list[AbelianGroup] = []
    for n in range(start, max_order + 1):
        out.extend(abelian_groups_of_order(n))
    return out


@dataclass(frozen=True)
class ProductClass:
    """A conjugacy class of the product of S_d with an abelian group.

    Conjugation is trivial on the abelian factor, so a class is exactly a
    (cycle type, element) pair.
    """

    sd_part: CycleType
    a_part: AbelianElement

    @property
    def is_trivial(self) -> bool:
        return self.sd_part.is_identity() and self.a_part.is_identity

    @property
    def both_nontrivial(self) -> bool:
        return not self.sd_part.is_identity() and not self.a_part.is_identity

    def __str__(self) -> str:
        return f"({self.sd_part}, {self.a_part})"


def conjugacy_classes_product(
    d: int, group: AbelianGroup, nontrivial_only: bool = True
) -> list[ProductClass]:
    """All conjugacy classes of the product group, identity pair optionally
    excluded; deterministic order (partitions in descending lexicographic
    order, elements in residue order).

    >>> g = AbelianGroup.from_label("C2")
    >>> len(conjugacy_classes_product(3, g))
    5
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    classes = [
        ProductClass(ct, a)
        for ct in partitions(d)
        for a in group.elements()
    ]
    if nontrivial_only:
        classes = [c for c in classes if not c.is_trivial]
    return classes


def product_class_index(cls: ProductClass) -> int:
    """Index of a product class in the natural degree-(d*|A|) action: the
    pair index of its cycle type against the regular cycle type of its
    abelian part."""
    return pair_index(cls.sd_part, regular_cycle_type(cls.a_part))


def product_exponent(d: int, group: AbelianGroup) -> int:
    """Exponent of the product group: lcm of all cycle lengths <= d and of the
    abelian exponent."""
    return lcm(lcm(*range(1, d + 1)) if d > 1 else 1, group.exponent)


def cyclotomic_class_orbits(
    d: int, group: AbelianGroup, classes: list[ProductClass]
) -> list[tuple[ProductClass, ...]]:
    """Orbits of the cyclotomic power action ``(g, a) -> (g^k, k*a)`` over all
    k coprime to the product group's exponent.

    Cycle types of S_d are preserved by every such k (each cycle length
    divides the exponent, hence is coprime to k), so the action moves only
    the abelian coordinate — but the power map is applied to both components
    regardless, keeping the implementation honest about the definition.
    """
    exponent = product_exponent(d, group)
    units = [k for k in range(1, exponent + 1) if gcd(k, exponent) == 1]
    index = {(c.sd_part.parts, c.a_part.residues): c for c in classes}
    remaining = dict(index)
    orbits: list[tuple[ProductClass, ...]] = []
    while remaining:
        seed_key = min(remaining)
        seed = remaining[seed_key]
        orbit_keys = set()
        for k in units:
            image = ProductClass(seed.sd_part.power(k), seed.a_part.scale(k))
            key = (image.sd_part.parts, image.a_part.residues)
            if key not in index:
                # Power maps permute the full class list; a miss can only
                # happen if the caller passed a strict subset that is not
                # power-closed.
                raise DomainError("class list is not closed under power maps")
            orbit_keys.add(key)
        orbits.append(tuple(index[k] for k in sorted(orbit_keys)))
        for k in orbit_keys:
            remaining.pop(k, None)
    return orbits


@dataclass(frozen=True)
class MalleInvariants:
    """Minimal-index data governing the conjectured growth rate of field
    counts: the count grows like X^(1/a) * (log X)^(b-1)."""

    a: int
    exponent: Fraction
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise DomainError("invariants require a >= 1 and b >= 1")


def malle_invariants_product(d: int, group: AbelianGroup) -> MalleInvariants:
    """Minimal index over nontrivial product classes, the reciprocal growth
    exponent, and the number of cyclotomic orbits attaining the minimum.

    >>> malle_invariants_product(3, AbelianGroup.from_label("C2"))
    MalleInvariants(a=2, exponent=Fraction(1, 2), b=1)
    """
    if d < 3:
        raise DomainError("the product model requires d >= 3")
    classes = conjugacy_classes_product(d, group, nontrivial_only=True)
    minimal = min(product_class_index(c) for c in classes)
    minimal_classes = [c for c in classes if product_class_index(c) == minimal]
    orbits = cyclotomic_class_orbits(d, group, minimal_classes)
    return MalleInvariants(a=minimal, exponent=Fraction(1, minimal), b=len(orbits))


def abelian_counting_constants(group: AbelianGroup) -> tuple[Fraction, int]:
    """Growth constants for counting the abelian fields alone.

    Returns ``(a_A, b_A)`` where ``a_A = 1 / (|A| (1 - 1/p))`` with p the
    smallest prime dividing |A|, and ``b_A`` is one less than the number of
    cyclotomic orbits of minimal-index elements (the elements of order p) in
    the regular representation.

    >>> abelian_counting_constants(AbelianGroup.from_label("C2"))
    (Fraction(1, 1), 0)
    >>> abelian_counting_constants(AbelianGroup.from_label("C2xC2"))
    (Fraction(1, 2), 2)
    """
    if group.is_trivial:
        raise DomainError("counting constants require a nontrivial group")
    order = group.order
    p = min(factorize(order))
    a_constant = Fraction(1, order - order // p)
    minimal = order - order // p  # ind of the regular type of an order-p element
    minimal_elements = {
        a.residues
        for a in group.elements()
        if not a.is_identity and ind(regular_cycle_type(a)) == minimal
    }
    orbit_count = sum(
        1
        for orbit in galois_orbits(group)
        if orbit[0].residues in minimal_elements
    )
    return a_constant, orbit_count - 1

