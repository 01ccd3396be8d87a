"""Unit tests for exact permutation and cycle-type arithmetic.

The brute-force oracle used here deliberately avoids the library's own
product construction: orbits on the pair grid are walked directly with a
dict-based union-find, so agreement is evidence rather than tautology.
"""

import itertools
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdxa.errors import DomainError
from sdxa.perms import (
    CycleType,
    all_permutations,
    cycle_type,
    ind,
    pair_cycle_count,
    pair_index,
    partitions,
    product_embed,
)


def orbit_count_on_pairs(g: tuple[int, ...], h: tuple[int, ...]) -> int:
    """Independent oracle: count orbits of (i,j) -> (g(i), h(j)) by direct walk."""
    seen = set()
    count = 0
    for start in itertools.product(range(1, len(g) + 1), range(1, len(h) + 1)):
        if start in seen:
            continue
        count += 1
        point = start
        while point not in seen:
            seen.add(point)
            point = (g[point[0] - 1], h[point[1] - 1])
    return count


def perm_strategy(max_degree: int = 6):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(tuple)


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """``a after b``: apply ``b`` first."""
    return tuple(a[i - 1] for i in b)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(DomainError, match=r"bijection on 1\.\.3: got \(1, 1, 3\)"):
            cycle_type((1, 1, 3))
        with pytest.raises(DomainError):
            cycle_type((0, 1))


class TestCycleType:
    def test_canonical_descending(self):
        assert CycleType((1, 3, 2)).parts == (3, 2, 1)
        assert CycleType((2, 2)).degree == 4
        with pytest.raises(DomainError):
            CycleType((2, 0))

    def test_representative_round_trip(self):
        for ct in partitions(6):
            assert cycle_type(ct.representative()) == ct

    def test_order_and_gcd(self):
        assert CycleType((6, 4)).order() == 12
        assert CycleType((6, 4)).gcd_of_parts() == 2
        assert CycleType((1, 1)).gcd_of_parts() == 1


class TestCycleTypeOfPermutation:
    def test_identity_is_all_ones(self):
        assert cycle_type((1, 2, 3, 4)).parts == (1, 1, 1, 1)

    def test_single_cycle(self):
        assert cycle_type((2, 3, 4, 1)).parts == (4,)

    def test_double_transposition_with_fixed_point(self):
        assert cycle_type((2, 1, 4, 3, 5)).parts == (2, 2, 1)


class TestInd:
    def test_identity_is_zero(self):
        assert ind(CycleType((1, 1, 1))) == 0

    def test_transposition(self):
        assert ind(CycleType((2, 1))) == 1

    def test_full_cycle_on_five_points(self):
        assert ind(CycleType((5,))) == 4

    def test_zero_iff_identity(self):
        for n in range(1, 8):
            for ct in partitions(n):
                assert (ind(ct) == 0) == ct.is_identity()


class TestPairFormulas:
    def test_three_cycle_pair(self):
        assert pair_cycle_count(CycleType((3,)), CycleType((3,))) == 3

    def test_identity_left_factor(self):
        g = CycleType((1, 1, 1, 1))
        for h in partitions(6):
            assert pair_cycle_count(g, h) == g.num_cycles * h.num_cycles

    def test_transposition_against_five_cycle(self):
        g = (2, 1, 3, 4, 5)
        h = (2, 3, 4, 5, 1)
        assert orbit_count_on_pairs(g, h) == 4
        assert pair_cycle_count(CycleType((2, 1, 1, 1)), CycleType((5,))) == 4

    def test_pair_index_examples(self):
        assert pair_index(CycleType((2, 1)), CycleType((2,))) == 3
        assert pair_index(CycleType((1, 1)), CycleType((1, 1, 1))) == 0
        assert pair_index(CycleType((4,)), CycleType((2,))) == 6

    def test_pair_index_against_identity_is_scaled_ind(self):
        for m in range(1, 6):
            for g in partitions(m):
                for n in range(1, 6):
                    assert pair_index(g, CycleType((1,) * n)) == n * ind(g)

    @given(perm_strategy(5), perm_strategy(5))
    def test_pair_cycle_count_matches_direct_orbit_walk(self, g, h):
        assert pair_cycle_count(cycle_type(g), cycle_type(h)) == orbit_count_on_pairs(
            g, h
        )

    @given(perm_strategy(6), perm_strategy(6))
    def test_symmetry(self, g, h):
        a, b = cycle_type(g), cycle_type(h)
        assert pair_cycle_count(a, b) == pair_cycle_count(b, a)
        assert pair_index(a, b) == pair_index(b, a)


class TestProductEmbed:
    def test_identity_embeds_to_identity(self):
        e = product_embed((1, 2, 3), (1, 2, 3, 4))
        assert e == tuple(range(1, 13))

    def test_two_transpositions(self):
        swap = (2, 1)
        assert cycle_type(product_embed(swap, swap)).parts == (2, 2)

    def test_degree_cap(self):
        identity = tuple(range(1, 201))
        with pytest.raises(DomainError):
            product_embed(identity, identity)

    def test_degree_cap_is_inclusive(self):
        # 100 * 100 = 10,000 is the cap itself; 73 * 137 = 10,001 is one past it
        hundred = tuple(range(1, 101))
        assert product_embed(hundred, hundred) == tuple(range(1, 10_001))
        with pytest.raises(DomainError, match="exceeds the configured cap"):
            product_embed(tuple(range(1, 74)), tuple(range(1, 138)))

    def test_oracle_equivalence_on_class_representatives(self):
        # Exhaustive over conjugacy-class representatives for m <= 5, n <= 8:
        # the gcd formula, the embedded permutation, and the direct orbit walk
        # must all agree.
        for m in range(1, 6):
            for g in partitions(m):
                gp = g.representative()
                for n in range(1, 9):
                    for h in partitions(n):
                        hp = h.representative()
                        embedded = cycle_type(product_embed(gp, hp))
                        assert ind(embedded) == pair_index(g, h)
                        assert embedded.num_cycles == orbit_count_on_pairs(gp, hp)

    @given(perm_strategy(5), perm_strategy(6))
    def test_embed_respects_composition(self, g, h):
        # (g,h) -> embedded is a homomorphism: check on squares.
        left = compose(product_embed(g, h), product_embed(g, h))
        right = product_embed(compose(g, g), compose(h, h))
        assert left == right


class TestPartitions:
    def test_counts(self):
        # Partition numbers p(1..8).
        expected = [1, 2, 3, 5, 7, 11, 15, 22]
        for n, count in enumerate(expected, start=1):
            assert len(partitions(n)) == count
        assert [ct.parts for ct in partitions(0)] == [()]
        with pytest.raises(DomainError, match="^n must be non-negative$"):
            partitions(-1)

    def test_all_permutations_cap(self):
        assert len(all_permutations(4)) == 24
        assert len(all_permutations(8)) == 40_320
        with pytest.raises(DomainError):
            all_permutations(9)
