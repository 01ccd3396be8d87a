"""Tame splitting patterns read off cycle data, and discriminant-valuation
tables.

A splitting pattern is the multiset of (ramification index, inertial degree)
pairs describing how a prime factors in a field.  At a tame prime it is fixed
by the inertia class (g, h) in S_d x A and a Frobenius lift normalising the
inertia group.  Running over every group-theoretically possible lift yields
every pattern compatible with the class; running that for each class of the
degree-d side regenerates the package's golden valuation tables.

Over all primes, the lifts that commute with inertia already give every
pattern, and each is cycle data: a permutation of the equal-length cycles of
g, a rotation of each, and a translation of A.  Its pattern is a closed
form in the permutation's cycle type, the rotation sum along each of its
cycles and the translation's order modulo <h>, so no lift is built and no
inertia orbit is walked (see :func:`decomposition_patterns`).

A function of one inertia class takes ``(g, h)`` and reads d = ``g.degree``
and A = ``h.group`` off it; a table, over all classes, takes ``(d, group)``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .errors import DomainError, Frozen, PatternError, parse_int
from .groups import (
    AbelianElement,
    AbelianGroup,
    element_order,
    is_prime,
    regular_cycle_type,
)
from .indexcalc import delta
from .perms import CycleType, ind, pair_index, partitions

_TOKEN_RE = re.compile(r"^([0-9]+)\^(?:([0-9]+)|\{([0-9]+)\})$")


class SplittingPattern(Frozen, namedtuple("SplittingPattern", "factors")):
    """A multiset of (e, f) factor pairs, held in descending lexicographic
    order of (e, f); patterns sort by that tuple of factors."""

    _ordered = True

    def __new__(cls, factors: tuple[tuple[int, int], ...]) -> SplittingPattern:
        for e, f in factors:
            if e < 1 or f < 1:
                raise DomainError(f"factor ({e},{f}) must have positive entries")
        if not factors:
            raise DomainError("a splitting pattern needs at least one factor")
        return super().__new__(cls, tuple(sorted(factors, reverse=True)))

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


def parse_pattern(text: str) -> SplittingPattern:
    """Parse a pattern string like ``"(1^2 12)"``.

    Grammar: a parenthesized, space-separated list of tokens.  A token
    ``f^e`` contributes one factor with inertial degree ``f`` and
    ramification index ``e`` (the exponent may be brace-wrapped for multiple
    digits, as in ``1^{10}``); a bare token is a run of single digits, each a
    separate unramified-index factor with that inertial degree (so ``12``
    means two factors, f=1 and f=2, both with e=1).  Digits are ASCII ``0-9``.

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
            f = parse_int(match.group(1), PatternError, field="inertial degree")
            e = parse_int(match.group(2) or match.group(3), PatternError,
                          field="ramification index")
            if f == 0 or e == 0:
                raise PatternError(f"zero entry in token {token!r}")
            factors.append((e, f))
            continue
        malformed = f"malformed token {token!r} in {text!r}"
        degrees = [parse_int(char, PatternError, malformed) for char in token]
        if 0 in degrees:
            raise PatternError(
                f"inertial degree 0 in token {token!r}; "
                "degrees >= 10 need an explicit exponent (e.g. 10^1)"
            )
        factors.extend((1, f) for f in degrees)
    if not factors:
        raise PatternError(f"empty pattern: {text!r}")
    return SplittingPattern(tuple(factors))


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


def inertia_orbits(g: CycleType, h: AbelianElement) -> tuple[int, ...]:
    """Multiset (descending) of ramification indices for the pair (g, h):
    the orbit lengths of the product action on d * |A| points.

    >>> g3 = AbelianGroup.from_label("C3")
    >>> inertia_orbits(CycleType((3,)), g3.element((1,)))
    (3, 3, 3)
    """
    h_reg = regular_cycle_type(h)
    lengths: list[int] = []
    for a in g.parts:
        for b in h_reg.parts:
            lengths.extend([lcm(a, b)] * gcd(a, b))
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=1024)  # bounded, as delta is: cli.main may run any number of times
def decomposition_patterns(g: CycleType, h: AbelianElement) -> frozenset[SplittingPattern]:
    """Every splitting pattern compatible with inertia class (g, h).

    The inertia generator iota acts on the d * |A| points (x, a) as
    (g x, a + h), for a fixed representative of ``g``.  Frobenius lifts are
    the product-group elements phi = (sigma, tau) conjugating iota to a
    coprime power iota^u (every unit class is admissible — each is hit by
    infinitely many primes).  Each decomposition orbit of <iota, phi>,
    refined into inertia (iota-)orbits, gives one (e, f) factor.

    A is abelian, so tau commutes with translation by h and
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
       with sigma g^j still in C(g).  So one tau per coset of <h> is enough.

    No point is needed after that, only labels of iota-orbits.  Take a
    g-cycle C of length c, a coset K = a_K + <h> of size o = ord(h), and
    k = gcd(c, o).  The iota-orbits on C x K are labelled by
    lambda = (i - j) mod k, where (g^i x_C, a_K + jh) is a point of the
    orbit: iota adds 1 to both i and j, and by the Chinese remainder theorem
    the points with one label form one orbit, of length lcm(c, o).  Write
    sigma in C(g) = prod_c C_c wr S_{m_c} as
    sigma(g^i x_C) = g^(i + r_C) x_pi(C), and a_K + tau = a_K' + s_K h.
    Then phi sends the label (C, K, lambda) to
    (pi(C), K', lambda + r_C - s_K mod k), and each cycle of that action on
    labels is one factor (lcm(c, o), cycle length).

    Those lengths have a closed form.  tau moves the |A|/o cosets by its
    image in A/<h>, so its cycles on them all have length t, the order of
    that image, and around each the s_K add up to S, where t tau = S h.  On
    the labels of one such cycle and a cycle of pi of length l whose r_C add
    up to R, phi acts as (i, j, lambda) -> (i + 1, j + 1, lambda + r_i - s_j)
    and first returns to (i, j) after L = lcm(l, t) steps, having added
    D = (L/l) R - (L/t) S mod k.  So each such label lies on a cycle of
    length f = L k / gcd(k, D), and the pi-cycle gives l k (|A|/o) / f
    factors (lcm(c, o), f).  C(g) holds every pi and every rotation, so the
    patterns are all choices, for each c, of a partition of m_c and one R in
    Z/k per part, over the pairs (t, S) that A realises.  By point 2 only
    S mod gcd(t, o) matters: tau + jh has the same t and S + tj.

    >>> c2 = AbelianGroup.from_label("C2")
    >>> patterns = decomposition_patterns(CycleType((2, 1)), c2.element((1,)))
    >>> sorted(str(p) for p in patterns)
    ['(1^2 1^2 1^2)', '(2^2 1^2)']
    """
    o, moduli = element_order(h), h.group.invariant_factors
    powers = {tuple(j * a % n for a, n in zip(h.residues, moduli)): j for j in range(o)}
    shapes = set()  # (t, S mod gcd(t, o)): t = order of tau in A/<h>, t tau = S h
    for tau in product(*(range(n) for n in moduli)):
        t = 1
        while (t_tau := tuple(t * a % n for a, n in zip(tau, moduli))) not in powers:
            t += 1
        shapes.add((t, powers[t_tau] % gcd(t, o)))
    patterns: set[SplittingPattern] = set()
    for t, S in shapes:
        blocks = []  # per cycle length c: the factors of each of its choices
        for c in set(g.parts):
            k, e, choices = gcd(c, o), lcm(c, o), set()
            for mu in partitions(g.parts.count(c)):
                for sums in product(range(k), repeat=len(mu.parts)):
                    factors: list[tuple[int, int]] = []
                    for ell, R in zip(mu.parts, sums):
                        L = lcm(ell, t)
                        f = L * k // gcd(k, L // ell * R - L // t * S)
                        factors += [(e, f)] * (ell * k * h.group.order // (o * f))
                    choices.add(tuple(factors))
            blocks.append(choices)
        for choice in product(*blocks):
            patterns.add(SplittingPattern(sum(choice, ())))
    return frozenset(patterns)


def disc_valuation_pair(g: CycleType, h: AbelianElement) -> int:
    """Compositum discriminant valuation at a tame prime where the two
    inertia classes are ``g`` and ``h``.

    >>> c2 = AbelianGroup.from_label("C2")
    >>> disc_valuation_pair(CycleType((4,)), c2.element((1,)))
    6
    """
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


class TableRow(Frozen, namedtuple(
        "TableRow", "generator f_splitting fk_splitting v_disc_f v_disc_fk delta")):
    """One line of a discriminant-valuation table: an inertia class for the
    degree-d field, the patterns it allows on both sides, and the three
    valuation columns."""

    generator: CycleType
    f_splitting: tuple[SplittingPattern, ...]
    fk_splitting: tuple[SplittingPattern, ...]
    v_disc_f: int
    v_disc_fk: int
    delta: int


class ValuationTable(Frozen, namedtuple("ValuationTable", "d group rows delta_cap")):
    """A full table for one (d, prime-cyclic group) pair, with the caption
    bound ``delta_cap`` = the largest discrepancy any row can carry."""

    d: int
    group: AbelianGroup
    rows: tuple[TableRow, ...]
    delta_cap: int


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
    if len(factors) != 1 or not is_prime(factors[0]):
        raise DomainError(
            "tables require a prime-cyclic group (column conventions depend on it)"
        )
    generator = group.element((1,))
    identity = AbelianGroup(()).identity()
    rows: list[TableRow] = []
    for g in sorted(
        (ct for ct in partitions(d) if not ct.is_identity()),
        key=lambda ct: (ind(ct), ct.parts),
    ):
        f_patterns = sorted(decomposition_patterns(g, identity))
        fk_patterns = sorted(decomposition_patterns(g, generator))
        rows.append(
            TableRow(
                generator=g,
                f_splitting=tuple(f_patterns),
                fk_splitting=tuple(fk_patterns),
                v_disc_f=ind(g),
                v_disc_fk=disc_valuation_pair(g, generator),
                delta=delta(g, generator),
            )
        )
    cap = d * ind(regular_cycle_type(generator))
    return ValuationTable(d=d, group=group, rows=tuple(rows), delta_cap=cap)

