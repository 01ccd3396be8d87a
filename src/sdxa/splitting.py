"""Tame splitting patterns, decomposition-orbit enumeration, and
discriminant-valuation tables.

A splitting pattern is the multiset of (ramification index, inertial degree)
pairs describing how a prime factors in a field.  At a tame prime everything
is governed by two permutations: a generator of the cyclic inertia group and
a Frobenius lift normalizing it.  Enumerating all group-theoretically possible
Frobenius lifts yields every pattern compatible with a given inertia class;
running that enumeration for the product action regenerates the package's
golden valuation tables.

Over all primes, the Frobenius lifts that commute with inertia (g, h) already
give every pattern: sigma in the centraliser of g, and one translation tau per
coset of <h> (see :func:`decomposition_patterns`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .errors import DegreeMismatchError, DomainError, PatternError
from .groups import (
    AbelianElement,
    AbelianGroup,
    factorize,
    regular_cycle_type,
    regular_permutation,
)
from .indexcalc import delta
from .perms import (
    CycleType,
    Permutation,
    all_permutations,
    ind,
    pair_index,
    partitions,
    product_embed,
)

_TOKEN_RE = re.compile(r"^(\d+)\^(?:(\d+)|\{(\d+)\})$")


@dataclass(frozen=True)
class SplittingPattern:
    """A multiset of (e, f) factor pairs; canonical order is descending
    lexicographic on (e, f)."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for e, f in self.factors:
            if e < 1 or f < 1:
                raise DomainError(f"factor ({e},{f}) must have positive entries")
        if not self.factors:
            raise DomainError("a splitting pattern needs at least one factor")
        canonical = tuple(sorted(self.factors, reverse=True))
        if self.factors != canonical:
            object.__setattr__(self, "factors", canonical)

    @property
    def degree(self) -> int:
        return sum(e * f for e, f in self.factors)

    @property
    def valuation(self) -> int:
        """Tame discriminant valuation carried by this pattern:
        sum of f * (e - 1)."""
        return sum(f * (e - 1) for e, f in self.factors)

    @property
    def ramification_indices(self) -> tuple[int, ...]:
        """The e-multiset with each index repeated f times, descending."""
        out: list[int] = []
        for e, f in self.factors:
            out.extend([e] * f)
        return tuple(sorted(out, reverse=True))

    def is_unramified(self) -> bool:
        return all(e == 1 for e, _ in self.factors)

    def __str__(self) -> str:
        return format_pattern(self)


def parse_pattern(text: str, degree: int | None = None) -> SplittingPattern:
    """Parse a pattern string like ``"(1^2 12)"``.

    Grammar: a parenthesized, space-separated list of tokens.  A token
    ``f^e`` contributes one factor with inertial degree ``f`` and
    ramification index ``e`` (the exponent may be brace-wrapped for multiple
    digits, as in ``1^{10}``); a bare token is a run of single digits, each a
    separate unramified-index factor with that inertial degree (so ``12``
    means two factors, f=1 and f=2, both with e=1).

    >>> parse_pattern("(1^2 12)").factors
    ((2, 1), (1, 2), (1, 1))
    >>> parse_pattern("(1^6)").factors
    ((6, 1),)
    >>> parse_pattern("(1 1 1)").factors
    ((1, 1), (1, 1), (1, 1))
    """
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise PatternError(f"pattern must be parenthesized: {text!r}")
    factors: list[tuple[int, int]] = []
    for token in stripped[1:-1].split():
        match = _TOKEN_RE.match(token)
        if match:
            f = int(match.group(1))
            e = int(match.group(2) or match.group(3))
            if f == 0 or e == 0:
                raise PatternError(f"zero entry in token {token!r}")
            factors.append((e, f))
        elif token.isdigit():
            for char in token:
                if char == "0":
                    raise PatternError(
                        f"inertial degree 0 in token {token!r}; "
                        "degrees >= 10 need an explicit exponent (e.g. 10^1)"
                    )
                factors.append((1, int(char)))
        else:
            raise PatternError(f"malformed token {token!r} in {text!r}")
    if not factors:
        raise PatternError(f"empty pattern: {text!r}")
    pattern = SplittingPattern(tuple(factors))
    if degree is not None and pattern.degree != degree:
        raise PatternError(
            f"pattern {text!r} has degree {pattern.degree}, expected {degree}"
        )
    return pattern


def format_pattern(pattern: SplittingPattern) -> str:
    """Canonical text form; inverse of :func:`parse_pattern`.

    >>> format_pattern(SplittingPattern(((2, 1), (1, 1), (1, 2))))
    '(1^2 2 1)'
    >>> format_pattern(SplittingPattern(((10, 1),)))
    '(1^{10})'
    """
    tokens: list[str] = []
    for e, f in pattern.factors:
        if e == 1:
            tokens.append(str(f) if f < 10 else f"{f}^1")
        else:
            e_text = str(e) if e < 10 else "{" + str(e) + "}"
            tokens.append(f"{f}^{e_text}")
    return "(" + " ".join(tokens) + ")"


def _check_pair(g: CycleType, h: AbelianElement, d: int, group: AbelianGroup) -> None:
    if g.degree != d:
        raise DegreeMismatchError(f"cycle type degree {g.degree} != d = {d}")
    if h.group != group:
        raise DomainError("element does not belong to the given group")


def inertia_orbits(
    g: CycleType, h: AbelianElement, d: int, group: AbelianGroup
) -> tuple[int, ...]:
    """Multiset (descending) of ramification indices for the pair (g, h):
    the orbit lengths of the product action on d * |A| points.

    >>> g3 = AbelianGroup.from_label("C3")
    >>> inertia_orbits(CycleType((3,)), g3.element((1,)), 3, g3)
    (3, 3, 3)
    """
    _check_pair(g, h, d, group)
    h_reg = regular_cycle_type(h)
    lengths: list[int] = []
    for a in g.parts:
        for b in h_reg.parts:
            lengths.extend([lcm(a, b)] * gcd(a, b))
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=None)
def decomposition_patterns(
    g: CycleType, h: AbelianElement, d: int, group: AbelianGroup
) -> frozenset[SplittingPattern]:
    """Every splitting pattern compatible with inertia class (g, h).

    The inertia generator iota is the product permutation of a fixed
    representative of ``g`` with the translation action of ``h``.  Frobenius
    lifts are the product-group permutations phi = (sigma, tau) conjugating
    iota to a coprime power iota^u (every unit class is admissible — each is
    hit by infinitely many primes).  Each lift's decomposition orbits, refined
    into inertia orbits, give one (e, f) factor per decomposition orbit.

    A is abelian, so tau commutes with h's regular permutation and
    phi iota phi^-1 = (sigma g sigma^-1, h).  Two reductions leave only the
    lifts with sigma in the centraliser C(g) and one tau per coset of <h>:

    1. A lift has sigma g sigma^-1 = g^u and h = uh, so u = 1 mod ord(h).
       Let sigma' send g^k x_C to g^k sigma(x_C), for one base point x_C of
       each g-cycle C.  Then sigma' commutes with g, and (sigma, tau) and
       (sigma', tau) send every iota-orbit to the same iota-orbit:
       sigma(g^k x) = g^(uk) sigma(x), and iota^((u-1)k) changes the
       A-coordinate by (u-1)k h = 0.  A pattern depends only on that
       permutation of iota-orbits.
    2. <iota, phi> = <iota, phi iota^j>, and phi iota^j = (sigma g^j, tau + jh)
       with sigma g^j still in C(g).  So one tau per coset of <h> is enough;
       the cosets are the cycles of h's regular permutation.

    Each surviving phi is still checked to commute with iota.

    >>> c2 = AbelianGroup.from_label("C2")
    >>> patterns = decomposition_patterns(CycleType((2, 1)), c2.element((1,)), 3, c2)
    >>> sorted(str(p) for p in patterns)
    ['(1^2 1^2 1^2)', '(2^2 1^2)']
    """
    _check_pair(g, h, d, group)
    if d > 6:
        raise DomainError("Frobenius enumeration is capped at d = 6")
    base, h_perm = g.representative(), regular_permutation(h)
    iota = product_embed(base, h_perm)
    elements = group.elements()
    translations = [
        regular_permutation(elements[coset[0] - 1]) for coset in h_perm.cycles()
    ]
    patterns: set[SplittingPattern] = set()
    for sigma in all_permutations(d):
        if _conjugate(sigma, base) != base.images:
            continue
        for tau in translations:
            phi = product_embed(sigma, tau)
            if _conjugate(phi, iota) != iota.images:
                raise AssertionError("a centraliser lift does not commute with iota")
            patterns.add(_orbit_pattern(iota, phi))
    return frozenset(patterns)


def _conjugate(phi: Permutation, x: Permutation) -> tuple[int, ...]:
    """The images of phi x phi^-1."""
    images = [0] * x.degree
    for point, image in enumerate(x.images):
        images[phi.images[point] - 1] = phi.images[image - 1]
    return tuple(images)


def _orbit_pattern(iota: Permutation, phi: Permutation) -> SplittingPattern:
    """Factor the point set into decomposition orbits of <iota, phi> and count
    the inertia (iota-)orbits inside each."""
    inertia_size = {point - 1: len(c) for c in iota.cycles() for point in c}
    seen = [False] * iota.degree
    factors: list[tuple[int, int]] = []
    for start in range(iota.degree):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        orbit = []
        while stack:
            point = stack.pop()
            orbit.append(point)
            for image in (iota.images[point] - 1, phi.images[point] - 1):
                if not seen[image]:
                    seen[image] = True
                    stack.append(image)
        sizes = {inertia_size[point] for point in orbit}
        if len(sizes) != 1:
            raise AssertionError(
                "inertia orbits inside one decomposition orbit differ in size"
            )
        e = sizes.pop()
        factors.append((e, len(orbit) // e))
    return SplittingPattern(tuple(factors))


def disc_valuation_pair(
    g: CycleType, h: AbelianElement, d: int, group: AbelianGroup
) -> int:
    """Compositum discriminant valuation at a tame prime where the two
    inertia classes are ``g`` and ``h``.

    >>> c2 = AbelianGroup.from_label("C2")
    >>> disc_valuation_pair(CycleType((4,)), c2.element((1,)), 4, c2)
    6
    """
    _check_pair(g, h, d, group)
    return pair_index(g, regular_cycle_type(h))


def remark_formula(pattern_f: SplittingPattern, pattern_k: SplittingPattern) -> int:
    """Compositum valuation straight from the two fields' splitting patterns:

        sum over factor pairs of  f_i * f_j * gcd(e_i, e_j) * (lcm(e_i, e_j) - 1).

    Valid in the tame regime (prime coprime to both degrees); the caller is
    responsible for that hypothesis.

    >>> remark_formula(parse_pattern("(1^2 1)"), parse_pattern("(1^2)"))
    3
    """
    return sum(
        fi * fj * gcd(ei, ej) * (lcm(ei, ej) - 1)
        for ei, fi in pattern_f.factors
        for ej, fj in pattern_k.factors
    )


@dataclass(frozen=True)
class TableRow:
    """One line of a discriminant-valuation table: an inertia class for the
    degree-d field, the patterns it allows on both sides, and the three
    valuation columns."""

    generator: CycleType
    f_splitting: tuple[SplittingPattern, ...]
    fk_splitting: tuple[SplittingPattern, ...]
    v_disc_f: int
    v_disc_fk: int
    delta: int


@dataclass(frozen=True)
class ValuationTable:
    """A full table for one (d, prime-cyclic group) pair, with the caption
    bound ``delta_cap`` = the largest discrepancy any row can carry."""

    d: int
    group: AbelianGroup
    rows: tuple[TableRow, ...]
    delta_cap: int


@lru_cache(maxsize=None)
def generate_table(d: int, group: AbelianGroup) -> ValuationTable:
    """Valuation table for composita of a degree-d field with a ramified
    prime-cyclic field: one row per nontrivial inertia class of the degree-d
    side, with the cyclic side totally ramified (its inertia is the full
    group, represented by a generator).

    >>> table = generate_table(3, AbelianGroup.from_label("C2"))
    >>> [row.delta for row in table.rows]
    [2, 2]
    >>> table.delta_cap
    3
    """
    if d not in (3, 4, 5):
        raise DomainError("tables are generated for d in {3, 4, 5}")
    factors = group.invariant_factors
    if len(factors) != 1 or factorize(factors[0]) != {factors[0]: 1}:
        raise DomainError(
            "tables require a prime-cyclic group (column conventions depend on it)"
        )
    generator = group.element((1,))
    trivial = AbelianGroup(())
    rows: list[TableRow] = []
    for g in sorted(
        (ct for ct in partitions(d) if not ct.is_identity()),
        key=lambda ct: (ind(ct), ct.parts),
    ):
        f_patterns = sorted(
            decomposition_patterns(g, trivial.identity(), d, trivial),
            key=lambda p: p.factors,
        )
        fk_patterns = sorted(
            decomposition_patterns(g, generator, d, group),
            key=lambda p: p.factors,
        )
        rows.append(
            TableRow(
                generator=g,
                f_splitting=tuple(f_patterns),
                fk_splitting=tuple(fk_patterns),
                v_disc_f=ind(g),
                v_disc_fk=disc_valuation_pair(g, generator, d, group),
                delta=delta(d, group, g, generator),
            )
        )
    cap = d * ind(regular_cycle_type(generator))
    return ValuationTable(d=d, group=group, rows=tuple(rows), delta_cap=cap)

