"""Abelian groups, product conjugacy classes, and counting invariants.

An abelian group is presented by its invariant factors (a divisibility chain),
parsed from labels like ``"C2"`` or ``"C2xC4"`` and brought into chain form by
gcd/lcm steps, with no factoring.  Elements are residue vectors; the regular
action on the group's own elements supplies the permutation-theoretic view
(cycle types, indices).  On top of this sit the conjugacy classes of the
direct product of a symmetric group with the abelian group, and the two
invariant packages, in closed form, that drive asymptotic field counts: the
minimal-index data for the product group and the growth constants for the
abelian group alone.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .errors import DegreeMismatchError, DomainError, Frozen, cached_property, parse_int
from .perms import CycleType, partitions

_LABEL_RE = re.compile(r"^C([0-9]+)(?:xC([0-9]+))*$")
ClassPair = tuple[CycleType, "AbelianElement"]  # a conjugacy class (g, h) of S_d x A


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


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (B, k): every odd composite n < B fails Miller-Rabin to one of the first k primes
# (Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86, 2017).
_PROVEN_BASES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
                 (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
                 (318665857834031151167461, 12), (3317044064679887385961981, 13))


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime, by Miller-Rabin to the fewest first primes
    proven for its size; DomainError past the last bound, where none is."""
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    for bound, k in _PROVEN_BASES:
        if n < bound:
            break
    else:
        raise DomainError(f"cannot prove {n} prime or composite: it is not below {bound}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * t with t odd
    t = (n - 1) >> s
    for a in _SMALL_PRIMES[:k]:
        x = pow(a, t, n)
        if x != 1 and x != n - 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(1, s)):
            return False
    return True


def _normalize_invariant_factors(factors: tuple[int, ...]) -> tuple[int, ...]:
    """Rewrite an arbitrary cyclic-factor list as an invariant-factor chain:
    C_a x C_b = C_gcd x C_lcm, so replacing each pair (a_i, a_j), i < j, by
    (gcd, lcm) leaves a_i dividing every later entry, and dropping the 1s
    gives the unique chain d_1 | ... | d_r (the Smith normal form of diag)."""
    chain = list(factors)
    for f in chain:
        if f < 1:
            raise DomainError(f"cyclic factor must be >= 1: {f}")
    for i, j in itertools.combinations(range(len(chain)), 2):
        chain[i], chain[j] = gcd(chain[i], chain[j]), lcm(chain[i], chain[j])
    return tuple(c for c in chain if c > 1)


class AbelianGroup(Frozen, namedtuple("AbelianGroup", "invariant_factors")):
    """A finite abelian group in invariant-factor form.

    ``invariant_factors`` is a chain d_1 | d_2 | ... | d_r with every d_i >= 2;
    the empty chain is the trivial group.  Construction normalizes any list of
    cyclic factors by gcd/lcm steps, so ``AbelianGroup((2, 3))`` equals
    ``AbelianGroup((6,))``.
    """

    def __new__(cls, invariant_factors: tuple[int, ...]) -> AbelianGroup:
        return super().__new__(cls, _normalize_invariant_factors(invariant_factors))

    @staticmethod
    def from_label(label: str) -> "AbelianGroup":
        """Parse labels like ``"C6"`` or ``"C2xC4"`` (``"C1"`` is trivial).

        >>> AbelianGroup.from_label("C2xC3").invariant_factors
        (6,)
        """
        message = f"bad abelian group label: {label!r}"
        if not _LABEL_RE.match(label):
            raise DomainError(message)
        tokens = label.split("x")
        return AbelianGroup(tuple(parse_int(t[1:], DomainError, message) for t in tokens))

    @cached_property
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

    @lru_cache(maxsize=1024)  # bounded, as delta is: cli.main may run any number of times
    def element_of_order(self, order: int) -> "AbelianElement":
        """The element of order ``order`` with residue exp(A)/order in the last
        invariant factor and d_i, which reduces to 0, in each earlier factor
        d_i; built once per (group, order) and kept in a process-wide cache."""
        if order < 1 or self.exponent % order:
            raise DomainError(f"group {self.label()} has no element of order {order}")
        factors = self.invariant_factors
        return self.element(factors[:-1] + (self.exponent // order,) if factors else ())

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


class AbelianElement(Frozen, namedtuple("AbelianElement", "group residues")):
    """An element of an :class:`AbelianGroup` as a reduced residue vector."""

    def __new__(cls, group: AbelianGroup, residues: tuple[int, ...]) -> AbelianElement:
        factors = group.invariant_factors
        if len(residues) != len(factors):
            raise DegreeMismatchError(
                f"residue vector length {len(residues)} does not match "
                f"group rank {len(factors)}"
            )
        return super().__new__(cls, group, tuple(a % d for a, d in zip(residues, factors)))

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


def regular_permutation(a: AbelianElement) -> tuple[int, ...]:
    """The permutation induced by ``x -> x + a`` on the group's own elements,
    numbered in the order of :meth:`AbelianGroup.elements`."""
    elements = a.group.elements()
    position = {e.residues: i for i, e in enumerate(elements, start=1)}
    return tuple(position[e.add(a).residues] for e in elements)


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


def abelian_groups_of_order(n: int) -> list[AbelianGroup]:
    """All isomorphism classes of abelian groups of order ``n``.

    >>> [g.label() for g in abelian_groups_of_order(8)]
    ['C2xC2xC2', 'C2xC4', 'C8']
    """
    if n < 1:
        raise DomainError("order must be positive")
    prime_power_lists = [
        [tuple(p**k for k in part.parts) for part in partitions(e)]
        for p, e in factorize(n).items()
    ]
    groups = (AbelianGroup(tuple(itertools.chain.from_iterable(combo)))
              for combo in itertools.product(*prime_power_lists))
    return sorted(groups, key=lambda g: g.invariant_factors)


def abelian_groups_up_to(max_order: int) -> list[AbelianGroup]:
    """Every isomorphism class of nontrivial abelian group of order <= ``max_order``."""
    out: list[AbelianGroup] = []
    for n in range(2, max_order + 1):
        out.extend(abelian_groups_of_order(n))
    return out


def conjugacy_classes_product(d: int, group: AbelianGroup) -> list[ClassPair]:
    """All nontrivial conjugacy classes of the product group, in a
    deterministic order (partitions in descending lexicographic order,
    elements in residue order).  Conjugation is trivial on the abelian
    factor, so a class is exactly a (cycle type, element) pair ``(g, h)``.

    >>> g = AbelianGroup.from_label("C2")
    >>> len(conjugacy_classes_product(3, g))
    5
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    elements = group.elements()
    return [
        (g, h)
        for g in partitions(d)
        for h in elements
        if not (g.is_identity() and h.is_identity)
    ]


class MalleInvariants(Frozen, namedtuple("MalleInvariants", "a exponent b")):
    """Minimal-index data governing the conjectured growth rate of field
    counts: the count grows like X^(1/a) * (log X)^(b-1)."""

    def __new__(cls, a: int, exponent: Fraction, b: int) -> MalleInvariants:
        if a < 1 or b < 1:
            raise DomainError("invariants require a >= 1 and b >= 1")
        return super().__new__(cls, a, exponent, b)


def malle_invariants_product(d: int, group: AbelianGroup) -> MalleInvariants:
    """Minimal index over nontrivial product classes, its reciprocal, and the
    number of cyclotomic orbits attaining it: (|A|, 1/|A|, 1) for every d >= 3.

    (tau, 0), tau a transposition, has index |A| * ind(tau) = |A|; any other
    (g, 0) has |A| * ind(g) >= 2|A|.  For h != 0, an orbit of <(g, h)> above an
    h_reg-cycle of length c has a multiple of c points, so at most d orbits lie
    above it, and ``pair_index(g, h_reg)`` >= d * ind(h_reg) >= d|A|/2 > |A|.
    The one minimal class (tau, 0) is fixed by the power maps, so b = 1: the
    test ``test_minimal_index_is_group_order_and_orbit_unique`` counts its
    orbits with the enumerating oracle ``cyclotomic_class_orbits``.

    >>> malle_invariants_product(3, AbelianGroup.from_label("C2"))
    MalleInvariants(a=2, exponent=Fraction(1, 2), b=1)
    """
    if d < 3:
        raise DomainError("the product model requires d >= 3")
    return MalleInvariants(group.order, Fraction(1, group.order), 1)


def abelian_counting_constants(group: AbelianGroup) -> tuple[Fraction, int]:
    """Growth constants for counting the abelian fields alone: ``(a_A, b_A)``
    with ``a_A = 1 / (|A| (1 - 1/p))``, p the smallest prime dividing |A|, and
    ``b_A = (p^r - 1)/(p - 1) - 1``, r the number of invariant factors that p
    divides.  An element of order o has regular index |A| (1 - 1/o), least at
    o = p, so the minimal elements are the p^r - 1 of order p, in
    A[p] = (Z/p)^r.  The units mod exp(A) act on them through all of (Z/p)^*,
    in orbits {j*a : 0 < j < p} of size p - 1: there are (p^r - 1)/(p - 1).

    >>> abelian_counting_constants(AbelianGroup.from_label("C2"))
    (Fraction(1, 1), 0)
    >>> abelian_counting_constants(AbelianGroup.from_label("C2xC2"))
    (Fraction(1, 2), 2)
    """
    if group.is_trivial:
        raise DomainError("counting constants require a nontrivial group")
    p = min(factorize(group.order))
    r = sum(1 for f in group.invariant_factors if f % p == 0)
    return Fraction(1, group.order - group.order // p), (p**r - 1) // (p - 1) - 1
