"""Unit tests for abelian groups, product classes, and counting invariants.

Brute-force oracles here recompute everything from explicit permutations of
the group's own elements (regular action), never trusting the closed-form
shortcuts they certify.
"""

import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdxa.errors import INT_MAX_STR_DIGITS, DegreeMismatchError, DomainError
from sdxa.groups import (
    AbelianGroup,
    MalleInvariants,
    _normalize_invariant_factors,
    abelian_counting_constants,
    abelian_groups_of_order,
    abelian_groups_up_to,
    conjugacy_classes_product,
    element_order,
    factorize,
    is_prime,
    malle_invariants_product,
    regular_cycle_type,
    regular_permutation,
)
from sdxa.perms import CycleType, cycle_type, ind, pair_index, partitions

from oracles import cyclotomic_class_orbits, galois_orbits

GROUP_LABELS = st.sampled_from(
    ["C2", "C3", "C4", "C2xC2", "C5", "C6", "C7", "C8", "C2xC4", "C2xC2xC2", "C12"]
)


class TestAbelianGroup:
    def test_label_parse_and_normalize(self):
        assert AbelianGroup.from_label("C6").invariant_factors == (6,)
        assert AbelianGroup.from_label("C2xC3").invariant_factors == (6,)
        assert AbelianGroup.from_label("C2xC4").invariant_factors == (2, 4)
        assert AbelianGroup.from_label("C4xC2").invariant_factors == (2, 4)
        assert str(AbelianGroup.from_label("C4xC2")) == "C2xC4"
        assert AbelianGroup.from_label("C1").is_trivial

    def test_elements_of_two_groups_do_not_add(self):
        c2, c3 = AbelianGroup.from_label("C2"), AbelianGroup.from_label("C3")
        with pytest.raises(DomainError, match="^elements belong to different groups$"):
            c2.element((1,)).add(c3.element((1,)))

    def test_bad_labels_rejected(self):
        for bad in ["", "D4", "C2x", "xC2", "C-2", "C2 x C2"]:
            with pytest.raises(DomainError):
                AbelianGroup.from_label(bad)

    def test_a_factor_past_the_int_digit_limit_is_a_bad_label(self):
        # int() refuses more than 4,300 digits; the label is bad, not a crash
        for label in ["C" + "9" * 5000, "C2xC" + "9" * 5000]:
            with pytest.raises(DomainError, match="^bad abelian group label: 'C"):
                AbelianGroup.from_label(label)
        assert AbelianGroup.from_label("C" + "9" * 4000).order == int("9" * 4000)

    def test_a_factor_is_ascii_digits_up_to_the_limit(self):
        # \d and int() also take other scripts' digits, "+", "_" and spaces
        for bad in ["C٢", "C２", "C2xC٣", "C+2", "C2_0", "C 2", "C2\n",
                    "C" + "9" * (INT_MAX_STR_DIGITS + 1)]:
            with pytest.raises(DomainError, match="^bad abelian group label: 'C"):
                AbelianGroup.from_label(bad)
        at_limit = "9" * INT_MAX_STR_DIGITS
        assert AbelianGroup.from_label("C" + at_limit).order == int(at_limit)

    def test_order_and_exponent(self):
        g = AbelianGroup.from_label("C2xC4")
        assert g.order == 8
        assert g.exponent == 4
        assert AbelianGroup.from_label("C1").order == 1

    def test_elements_identity_first(self):
        g = AbelianGroup.from_label("C2xC2")
        elements = g.elements()
        assert len(elements) == 4
        assert elements[0].is_identity

    def test_element_with_wrong_rank_rejected(self):
        with pytest.raises(DegreeMismatchError, match="length 1 does not match group rank 2"):
            AbelianGroup.from_label("C2xC4").element((1,))

    def test_isomorphism_classes_per_order(self):
        # Number of abelian groups of order n for n = 1..16.
        expected = [1, 1, 1, 2, 1, 1, 1, 3, 2, 1, 1, 2, 1, 1, 1, 5]
        for n, count in enumerate(expected, start=1):
            assert len(abelian_groups_of_order(n)) == count
        with pytest.raises(DomainError, match="^order must be positive$"):
            abelian_groups_of_order(0)

    def test_up_to_excludes_trivial_by_default(self):
        groups = abelian_groups_up_to(8)
        assert all(not g.is_trivial for g in groups)
        assert groups == [g for n in range(2, 9) for g in abelian_groups_of_order(n)]


def _oracle_invariant_factors(factors: tuple[int, ...]) -> tuple[int, ...]:
    """The per-prime normaliser: collect each prime's exponents across all
    factors, then stack the largest prime powers into the last factor, the
    second largest into the one before, and so on."""
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


P12, Q12, P18 = 999999999989, 1000000000039, 1000000000000000003  # primes


class TestInvariantFactors:
    def test_gcd_lcm_chain_matches_per_prime_stacking(self):
        rng = random.Random(1901)
        for _ in range(20_000):
            factors = tuple(
                rng.randint(1, 400) if rng.randrange(8) else 1
                for _ in range(rng.randint(0, 5))
            )
            chain = _normalize_invariant_factors(factors)
            assert chain == _oracle_invariant_factors(factors), factors

    def test_primes_near_10_to_the_12_match_the_oracle(self):
        for factors in [(P12,), (2 * P12, 3 * P12), (P12, 1, Q12, 6), (Q12, 4, 2)]:
            chain = _normalize_invariant_factors(factors)
            assert chain == _oracle_invariant_factors(factors), factors

    def test_primes_near_10_to_the_18(self):
        # beyond the oracle's trial division: the chains are worked by hand
        label = f"C2xC{2 * P18}"
        assert AbelianGroup.from_label(label).invariant_factors == (2, 2 * P18)
        for factors, chain in [
            ((P18,), (P18,)),
            ((1, P18, 1), (P18,)),
            ((P18, P18), (P18, P18)),
            ((2 * P18, 3 * P18), (P18, 6 * P18)),
            ((4, 6, P18), (2, 12 * P18)),
        ]:
            assert AbelianGroup(factors).invariant_factors == chain

    def test_nonpositive_factor_is_the_same_domain_error(self):
        for factors, bad in [((0,), 0), ((4, 0), 0), ((2, -3, 0), -3)]:
            message = f"^cyclic factor must be >= 1: {bad}$"
            for normalize in (_normalize_invariant_factors, _oracle_invariant_factors):
                with pytest.raises(DomainError, match=message):
                    normalize(factors)
        with pytest.raises(DomainError, match="^cyclic factor must be >= 1: 0$"):
            AbelianGroup.from_label("C2xC0")


# The least odd composite that is a strong pseudoprime to each of the first k
# primes, with its factors: each is a bound of the proven base table.
STRONG_PSEUDOPRIMES = {
    1: (2047, (23, 89)),
    2: (1373653, (829, 1657)),
    3: (25326001, (2251, 11251)),
    4: (3215031751, (151, 751, 28351)),
    5: (2152302898747, (6763, 10627, 29947)),
    6: (3474749660383, (1303, 16927, 157543)),
    7: (341550071728321, (10670053, 32010157)),
    9: (3825123056546413051, (149491, 747451, 34233211)),
    12: (318665857834031151167461, (399165290221, 798330580441)),
    13: (3317044064679887385961981, (1287836182261, 2575672364521)),
}
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int, a: int) -> bool:
    """The textbook Miller-Rabin round to base ``a`` for odd ``n``."""
    t, s = n - 1, 0
    while t % 2 == 0:
        t, s = t // 2, s + 1
    x = pow(a, t, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestIsPrime:
    def test_matches_trial_division_up_to_10_to_the_5(self):
        for n in range(-3, 10**5 + 1):
            assert is_prime(n) == (n > 1 and factorize(n) == {n: 1}), n

    def test_each_bound_is_a_composite_its_bases_miss(self):
        # n < B uses the first k primes, B itself one base set more: a bound
        # read as n <= B, or paired with too few bases, calls B prime
        for k, (n, factors) in STRONG_PSEUDOPRIMES.items():
            assert math.prod(factors) == n and min(factors) > 1
            assert all(_strong_probable_prime(n, a) for a in FIRST_PRIMES[:k])
            if k < 13:
                assert is_prime(n) is False, n
        with pytest.raises(DomainError, match="^cannot prove 3317044064679887385961981 "):
            is_prime(STRONG_PSEUDOPRIMES[13][0])

    def test_large_primes_and_composites(self):
        m61, m89 = 2**61 - 1, 2**89 - 1  # Mersenne primes
        for n in (P12, Q12, P18, m61, 2**31 - 1, 10**24 + 7):
            assert is_prime(n), n
        for n in (P12 * Q12, P12 * P12, 3 * P18, m61 * 3, 2**64 + 1, 10**24 + 1):
            assert not is_prime(n), n
        with pytest.raises(DomainError, match=f"cannot prove {m89} prime"):
            is_prime(m89)
        with pytest.raises(DomainError, match=f"cannot prove {P18 * P18} prime"):
            is_prime(P18 * P18)


class TestElements:
    def test_element_order_examples(self):
        assert element_order(AbelianGroup.from_label("C4").identity()) == 1
        assert element_order(AbelianGroup.from_label("C2xC2").element((1, 0))) == 2
        assert element_order(AbelianGroup.from_label("C6").element((2,))) == 3

    @given(GROUP_LABELS, st.integers(min_value=0, max_value=100))
    def test_element_order_matches_regular_permutation_order(self, label, seed):
        group = AbelianGroup.from_label(label)
        element = group.elements()[seed % group.order]
        permutation = regular_permutation(element)
        assert element_order(element) == cycle_type(permutation).order()

    def test_regular_cycle_type_examples(self):
        assert regular_cycle_type(AbelianGroup.from_label("C4").identity()).parts == (
            1,
            1,
            1,
            1,
        )
        assert regular_cycle_type(
            AbelianGroup.from_label("C5").element((1,))
        ).parts == (5,)
        assert regular_cycle_type(
            AbelianGroup.from_label("C2xC2").element((1, 0))
        ).parts == (2, 2)

    def test_regular_cycle_type_matches_explicit_orbits(self):
        # Oracle: the closed form must match the cycle type of the explicit
        # translation permutation, for every element of every group up to
        # order 12.
        for group in [AbelianGroup(()), *abelian_groups_up_to(12)]:
            for element in group.elements():
                assert regular_cycle_type(element) == cycle_type(
                    regular_permutation(element)
                )


class TestGaloisOrbits:
    def test_klein_four_fixes_every_involution(self):
        orbits = galois_orbits(AbelianGroup.from_label("C2xC2"))
        assert [len(o) for o in orbits] == [1, 1, 1, 1]

    def test_c5_has_one_big_orbit(self):
        orbits = galois_orbits(AbelianGroup.from_label("C5"))
        assert [len(o) for o in orbits] == [1, 4]

    def test_c6_orbits(self):
        orbits = galois_orbits(AbelianGroup.from_label("C6"))
        residue_sets = [{e.residues[0] for e in o} for o in orbits]
        assert residue_sets == [{0}, {1, 5}, {2, 4}, {3}]

    @given(GROUP_LABELS)
    def test_orbits_partition_the_group_and_preserve_order(self, label):
        group = AbelianGroup.from_label(label)
        orbits = galois_orbits(group)
        seen = [e.residues for o in orbits for e in o]
        assert sorted(seen) == sorted(e.residues for e in group.elements())
        assert len(seen) == len(set(seen))
        for orbit in orbits:
            orders = {element_order(e) for e in orbit}
            assert len(orders) == 1


class TestConjugacyClassesProduct:
    def test_class_counts(self):
        assert len(conjugacy_classes_product(3, AbelianGroup.from_label("C2"))) == 5
        assert len(conjugacy_classes_product(5, AbelianGroup.from_label("C1"))) == 6
        assert len(conjugacy_classes_product(4, AbelianGroup.from_label("C2xC2"))) == 19

    def test_minimal_index_attained(self):
        for label in ["C2", "C3", "C2xC2", "C6"]:
            group = AbelianGroup.from_label(label)
            for d in (3, 4, 5):
                inv = malle_invariants_product(d, group)
                indices = [
                    pair_index(g, regular_cycle_type(h))
                    for g, h in conjugacy_classes_product(d, group)
                ]
                assert min(indices) == inv.a
                assert inv.a in indices


class TestMalleInvariants:
    def test_known_anchor_values(self):
        assert malle_invariants_product(
            3, AbelianGroup.from_label("C2")
        ) == MalleInvariants(2, Fraction(1, 2), 1)
        assert malle_invariants_product(
            5, AbelianGroup.from_label("C5")
        ) == MalleInvariants(5, Fraction(1, 5), 1)

    def test_degenerate_trivial_group_matches_symmetric_group_facts(self):
        inv = malle_invariants_product(4, AbelianGroup.from_label("C1"))
        assert inv.a == 1
        assert inv.b == 1

    def test_rejects_small_degree(self):
        with pytest.raises(DomainError):
            malle_invariants_product(2, AbelianGroup.from_label("C2"))

    def test_degree_30_answers(self):
        assert malle_invariants_product(
            30, AbelianGroup.from_label("C2")
        ) == MalleInvariants(2, Fraction(1, 2), 1)

    def test_minimal_index_is_group_order_and_orbit_unique(self):
        # For every d in 3..8 and every abelian group of order <= 12:
        # a = |A|, exponent = 1/|A|, b = 1, and the unique minimal orbit is
        # the (transposition, identity) class.
        for group in abelian_groups_up_to(12):
            for d in range(3, 9):
                inv = malle_invariants_product(d, group)
                assert inv.a == group.order
                assert inv.exponent == Fraction(1, group.order)
                assert inv.b == 1
                transposition = CycleType((2,) + (1,) * (d - 2))
                minimal = [
                    (g, h)
                    for g, h in conjugacy_classes_product(d, group)
                    if pair_index(g, regular_cycle_type(h)) == inv.a
                ]
                assert minimal == [(transposition, group.identity())]
                assert len(cyclotomic_class_orbits(group, minimal)) == inv.b


class TestAbelianCountingConstants:
    def test_quadratic(self):
        assert abelian_counting_constants(AbelianGroup.from_label("C2")) == (
            Fraction(1),
            0,
        )

    def test_quintic_cyclic(self):
        assert abelian_counting_constants(AbelianGroup.from_label("C5")) == (
            Fraction(1, 4),
            0,
        )

    def test_klein_four_by_brute_force(self):
        group = AbelianGroup.from_label("C2xC2")
        a_constant, b_constant = abelian_counting_constants(group)
        assert a_constant == Fraction(1, 2)
        assert b_constant == 2
        # Independent route, for C2xC2 and every abelian group of order
        # <= 64: minimal regular index over nontrivial elements, then count
        # their orbits under all power maps directly.
        for group in abelian_groups_up_to(64):
            indices = {
                e.residues: ind(regular_cycle_type(e))
                for e in group.elements()
                if not e.is_identity
            }
            minimal = min(indices.values())
            minimal_elements = {r for r, v in indices.items() if v == minimal}
            orbits = set()
            for residues in minimal_elements:
                element = group.element(residues)
                orbit = frozenset(
                    element.scale(k).residues
                    for k in range(1, group.exponent + 1)
                    if gcd(k, group.exponent) == 1
                )
                orbits.add(orbit)
            assert abelian_counting_constants(group) == (
                Fraction(1, minimal), len(orbits) - 1
            )

    def test_prime_cyclic_formula(self):
        for p in (2, 3, 5, 7, 11, 13):
            group = AbelianGroup.from_label(f"C{p}")
            assert abelian_counting_constants(group) == (Fraction(1, p - 1), 0)

    def test_rejects_trivial(self):
        with pytest.raises(DomainError):
            abelian_counting_constants(AbelianGroup.from_label("C1"))


class TestCyclotomicClassOrbits:
    def test_orbits_cover_classes(self):
        group = AbelianGroup.from_label("C6")
        classes = conjugacy_classes_product(4, group)
        orbits = cyclotomic_class_orbits(group, classes)
        covered = [c for orbit in orbits for c in orbit]
        assert len(covered) == len(classes)
        # The abelian coordinates inside one orbit all share an order, and the
        # cycle types never move.
        for orbit in orbits:
            assert len({g for g, _ in orbit}) == 1
            assert len({element_order(h) for _, h in orbit}) == 1

    def test_orbit_sizes_match_element_orbits(self):
        group = AbelianGroup.from_label("C5")
        identity = (CycleType((1, 1, 1)), group.identity())
        classes = [identity, *conjugacy_classes_product(3, group)]
        orbits = cyclotomic_class_orbits(group, classes)
        sizes = sorted(len(o) for o in orbits)
        # 3 partitions x orbits {identity}, {4 generators} -> sizes 1,1,1,4,4,4
        assert sizes == [1, 1, 1, 4, 4, 4]

    def test_rejects_a_subset_not_closed_under_power_maps(self):
        group = AbelianGroup.from_label("C5")
        classes = [(CycleType((2, 1)), group.element((1,)))]
        with pytest.raises(DomainError, match="not closed under power maps"):
            cyclotomic_class_orbits(group, classes)
