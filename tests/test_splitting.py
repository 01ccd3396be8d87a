"""Unit tests for splitting patterns, orbit enumeration, and the tables.

The golden files record the reference tables verbatim; comparisons parse both
sides down to factor multisets so that cosmetic ordering differences cannot
mask (or fake) agreement.  Advisory cells are asserted to be defective rather
than contained.
"""

from collections import Counter
from itertools import permutations, product
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goldens import GOLDEN_TABLES, all_pattern_strings, load_golden
from sdxa import groups, perms
from sdxa.errors import INT_MAX_STR_DIGITS, DomainError, PatternError
from sdxa.groups import (
    AbelianGroup,
    element_order,
    factorize,
    regular_cycle_type,
    regular_permutation,
)
from sdxa.indexcalc import delta
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
from sdxa.splitting import (
    SplittingPattern,
    decomposition_patterns,
    disc_valuation_pair,
    format_pattern,
    generate_table,
    inertia_orbits,
    parse_pattern,
    remark_formula,
)

factor_strategy = st.tuples(
    st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12)
)
pattern_strategy = st.lists(factor_strategy, min_size=1, max_size=6).map(
    lambda factors: SplittingPattern(tuple(factors))
)


class TestSplittingPattern:
    def test_canonical_order(self):
        p = SplittingPattern(((1, 2), (2, 1), (1, 1)))
        assert p.factors == ((2, 1), (1, 2), (1, 1))

    def test_degree_and_valuation(self):
        p = parse_pattern("(1^2 12)")
        assert p.degree == 5
        assert p.valuation == 1
        # Each (e, f) factor stands for f inertia orbits of size e.
        assert p.ramification_indices == (2, 1, 1, 1)

    def test_rejects_empty_or_zero(self):
        with pytest.raises(DomainError):
            SplittingPattern(())
        with pytest.raises(DomainError):
            SplittingPattern(((0, 1),))


class TestParseFormat:
    def test_mixed_token(self):
        assert parse_pattern("(1^2 12)").factors == ((2, 1), (1, 2), (1, 1))

    def test_single_totally_ramified(self):
        assert parse_pattern("(1^6)").factors == ((6, 1),)

    def test_totally_split(self):
        assert parse_pattern("(1 1 1)").factors == ((1, 1), (1, 1), (1, 1))

    def test_braced_exponent(self):
        assert parse_pattern("(1^{10})").factors == ((10, 1),)
        assert parse_pattern("(2^{10} 1^5)").factors == ((10, 2), (5, 1))

    def test_malformed_inputs(self):
        for bad in ["1^2", "()", "(1^)", "(^2)", "(a)", "(1^2x)", "(10)", "(1^0)", "(0)"]:
            with pytest.raises(PatternError):
                parse_pattern(bad)

    def test_digits_are_ascii_digits(self):
        # "²".isdigit() holds, and \d and int() take other scripts' digits
        for bad in ["(²)", "(1²)", "(٢)", "(١^٢)", "(1^{٢})", "(1^+2)", "(1^2_0)", "(٠a)"]:
            with pytest.raises(PatternError, match="^malformed token"):
                parse_pattern(bad)

    def test_an_entry_past_the_int_digit_limit_is_a_pattern_error(self):
        n = INT_MAX_STR_DIGITS
        past = "9" * (n + 1)
        with pytest.raises(PatternError, match=f"^inertial degree has more than {n} digits$"):
            parse_pattern(f"({past}^1)")
        for token in (f"1^{past}", f"1^{{{past}}}"):
            with pytest.raises(PatternError,
                               match=f"^ramification index has more than {n} digits$"):
                parse_pattern(f"({token})")
        # a bare token is one integer per digit, so no length limits it
        assert parse_pattern("(" + "1" * (n + 1) + ")").degree == n + 1

    def test_large_inertial_degree_round_trip(self):
        p = SplittingPattern(((1, 10),))
        assert format_pattern(p) == "(10^1)"
        assert parse_pattern("(10^1)") == p

    def test_golden_strings_round_trip(self):
        strings = all_pattern_strings()
        assert len(strings) >= 30
        for text in strings:
            pattern = parse_pattern(text)
            assert parse_pattern(format_pattern(pattern)) == pattern

    @given(pattern_strategy)
    def test_round_trip_random_patterns(self, pattern):
        assert parse_pattern(format_pattern(pattern)) == pattern


class TestInertiaOrbits:
    def test_totally_ramified_cubic_pair(self):
        g3 = AbelianGroup.from_label("C3")
        assert inertia_orbits(CycleType((3,)), g3.element((1,))) == (3, 3, 3)

    def test_quintic_pair(self):
        g5 = AbelianGroup.from_label("C5")
        assert inertia_orbits(CycleType((5,)), g5.element((1,))) == (
            5,
            5,
            5,
            5,
            5,
        )

    def test_unramified(self):
        g2 = AbelianGroup.from_label("C2")
        assert inertia_orbits(CycleType((1, 1, 1)), g2.identity()) == (1,) * 6

    def test_sum_and_count_match_pair_formulas(self):
        for label in ["C2", "C3", "C2xC2", "C6"]:
            group = AbelianGroup.from_label(label)
            for d in (3, 4, 5):
                for g in partitions(d):
                    for h in group.elements():
                        orbits = inertia_orbits(g, h)
                        assert sum(orbits) == d * group.order
                        assert len(orbits) == pair_cycle_count(
                            g, regular_cycle_type(h)
                        )


def _orbit_pattern(iota: tuple[int, ...], phi: tuple[int, ...]) -> SplittingPattern:
    """Factor the point set into decomposition orbits of <iota, phi> and count
    the inertia (iota-)orbits inside each."""
    inertia_size = {}
    for start in range(len(iota)):  # walk each inertia cycle once
        if start in inertia_size:
            continue
        cycle, point = [start], iota[start] - 1
        while point != start:
            cycle.append(point)
            point = iota[point] - 1
        for point in cycle:
            inertia_size[point] = len(cycle)
    seen = [False] * len(iota)
    factors: list[tuple[int, int]] = []
    for start in range(len(iota)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        orbit = []
        while stack:
            point = stack.pop()
            orbit.append(point)
            for image in (iota[point] - 1, phi[point] - 1):
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


def brute_force_patterns(g, h, d, group):
    """The oracle for decomposition_patterns: every (sigma, tau) in S_d x A,
    each embedded on d * |A| points and kept when it conjugates the inertia
    generator iota to a coprime power of itself."""
    iota = product_embed(g.representative(), regular_permutation(h))
    order = cycle_type(iota).order()
    unit_powers, power = set(), iota
    for u in range(1, order + 1):
        if gcd(u, order) == 1:
            unit_powers.add(power)
        power = tuple(iota[i - 1] for i in power)
    translations = [regular_permutation(t) for t in group.elements()]
    n = len(iota)
    patterns = set()
    for sigma in all_permutations(d):
        for tau in translations:
            phi = product_embed(sigma, tau)
            conjugate = [0] * n
            for point in range(n):
                conjugate[phi[point] - 1] = phi[iota[point] - 1]
            if tuple(conjugate) in unit_powers:
                patterns.add(_orbit_pattern(iota, phi))
    return frozenset(patterns)


def _label_walk_patterns(g, h, d, group):
    """The second oracle: walk every lift (sigma, tau) with sigma in C(g) and
    one tau per coset of <h>, as cycle data (pi, r_C mod gcd(c, o)) and
    (K -> K', s_K), and read each pattern off the cycles of the lift's
    action (C, K, lambda) -> (pi(C), K', lambda + r_C - s_K) on the labels
    of inertia orbits.  Builds no permutation, but walks
    prod_c m_c! gcd(c, o)^m_c lifts per tau."""
    o, parts = element_order(h), g.parts
    coset = {}  # a_K + jh -> (K, j)
    bases = []
    for a in group.elements():
        if a.residues not in coset:
            for j in range(o):
                coset[a.add(h.scale(j)).residues] = (len(bases), j)
            bases.append(a)
    blocks = []  # per cycle length c: every C -> (pi(C), r_C) on the c-cycles
    for c in set(parts):
        cycles = [C for C, part in enumerate(parts) if part == c]
        blocks.append(
            [
                tuple(zip(cycles, zip(image, rotation)))
                for image in permutations(cycles)
                for rotation in product(range(gcd(c, o)), repeat=len(cycles))
            ]
        )
    labels = [
        (C, K, lam)
        for C, c in enumerate(parts)
        for K in range(len(bases))
        for lam in range(gcd(c, o))
    ]
    patterns = set()
    for tau in bases:
        moves = [coset[base.add(tau).residues] for base in bases]  # K -> (K', s_K)
        for choice in product(*blocks):
            sigma = dict(pair for block in choice for pair in block)
            seen = set()
            factors = []
            for label in labels:
                e, f = lcm(parts[label[0]], o), 0
                while label not in seen:
                    seen.add(label)
                    f += 1
                    C, K, lam = label
                    (image, r), (image_k, s) = sigma[C], moves[K]
                    label = (image, image_k, (lam + r - s) % gcd(parts[C], o))
                if f:
                    factors.append((e, f))
            patterns.add(SplittingPattern(tuple(factors)))
    return frozenset(patterns)


ORACLE_GROUPS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C2xC2", "C2xC4", "C3xC3")


def oracle_cases(d, label):
    """Every (g, h), except that h is a generator of A alone for C101 and for
    the cyclic groups of prime order at d = 5.  C4 and C2xC2 at d = 5 have
    cosets of <h> with more than one element."""
    group = AbelianGroup.from_label(label)
    elements = group.elements()
    if label == "C101" or (d == 5 and label in ("C2", "C3", "C5", "C7")):
        elements = [group.element((1,))]
    return [(g, h, group) for g in partitions(d) for h in elements]


@pytest.mark.parametrize(
    "d,label",
    [(d, label) for d in (3, 4) for label in ORACLE_GROUPS]
    + [(3, "C11"), (3, "C101")]
    + [(5, label) for label in ("C1", "C2", "C3", "C4", "C5", "C7", "C2xC2")],
)
def test_normaliser_enumeration_matches_brute_force(d, label):
    for g, h, group in oracle_cases(d, label):
        assert decomposition_patterns(g, h) == brute_force_patterns(
            g, h, d, group
        ), (g, h)


ORDER_AT_MOST_12 = ORACLE_GROUPS + (
    "C8", "C9", "C10", "C11", "C12", "C2xC6", "C2xC2xC2",
)


def test_closed_form_matches_the_label_walk():
    """Every (g, h) for d = 3..5 over every abelian group of order <= 12,
    and every (g, h) at d = 6 and d = 7 over C1, C2 and C3 except
    g = (1^7), for which the walk takes 7! lifts per tau."""
    cases = [
        (d, g, h, group)
        for d in (3, 4, 5)
        for group in map(AbelianGroup.from_label, ORDER_AT_MOST_12)
        for g in partitions(d)
        for h in group.elements()
    ]
    assert len(cases) == 1785
    cases += [
        (d, g, h, group)
        for d in (6, 7)
        for group in map(AbelianGroup.from_label, ("C1", "C2", "C3"))
        for g in partitions(d)
        if d == 6 or not g.is_identity()
        for h in group.elements()
    ]
    for d, g, h, group in cases:
        assert decomposition_patterns(g, h) == _label_walk_patterns(
            g, h, d, group
        ), (d, g, h, group)


@pytest.mark.parametrize("parts", [(2, 2, 1), (4, 1)])
def test_patterns_for_a_larger_prime_rescale_the_c5_patterns(parts):
    """A prime p dividing no part of g only stretches each inertia orbit:
    every factor (5c, f) for C5 becomes (pc, f) for C_p."""
    g = CycleType(parts)

    def patterns(p):
        group = AbelianGroup.from_label(f"C{p}")
        return decomposition_patterns(g, group.element((1,)))

    for p in range(5, 102):
        if factorize(p) != {p: 1} or any(c % p == 0 for c in parts):
            continue
        rescaled = {
            SplittingPattern(tuple((e // 5 * p, f) for e, f in pattern.factors))
            for pattern in patterns(5)
        }
        assert patterns(p) == rescaled, p


def test_table_path_builds_no_permutation(monkeypatch):
    def refuse(*args):
        raise AssertionError("a permutation was built on the table path")

    monkeypatch.setattr(perms, "product_embed", refuse)
    monkeypatch.setattr(perms, "all_permutations", refuse)
    monkeypatch.setattr(groups, "regular_permutation", refuse)
    monkeypatch.setattr(CycleType, "representative", refuse)
    decomposition_patterns.cache_clear()
    for d in (3, 4, 5):
        for label in ("C2", "C3", "C5", "C7"):
            generate_table(d, AbelianGroup.from_label(label))


def test_degree_seven_needs_no_cap():
    """Degrees past the tables (7, 8 and 12) need no cap on d: over the
    trivial group the patterns are the cycle types of C(g), and over C2 and
    C3 every pattern carries the inertia orbits as its indices."""
    trivial = AbelianGroup(())
    for d in (7, 8, 12):
        for g in partitions(d):
            per_length = [
                [[(c, part) for part in mu.parts] for mu in partitions(m)]
                for c, m in Counter(g.parts).items()
            ]
            closed_form = {
                SplittingPattern(tuple(f for factors in choice for f in factors))
                for choice in product(*per_length)
            }
            patterns = decomposition_patterns(g, trivial.identity())
            assert patterns == closed_form
    for label in ("C2", "C3"):
        group = AbelianGroup.from_label(label)
        for d in (7, 8):
            for g in partitions(d):
                for h in group.elements():
                    expected = inertia_orbits(g, h)
                    for pattern in decomposition_patterns(g, h):
                        assert pattern.ramification_indices == expected


def test_eight_fixed_points_over_c2_give_27_patterns():
    """The walk over every lift needs 8! * 2 of them here; the closed form
    reads the same 27 patterns off the 22 partitions of 8 and the two
    translations of C2."""
    c2 = AbelianGroup.from_label("C2")
    patterns = decomposition_patterns(CycleType((1,) * 8), c2.identity())
    assert len(patterns) == 27


def test_decomposition_patterns_keeps_at_most_its_bound():
    # the 1,434 classes of S3 x A over the abelian groups of order <= 24 are
    # more than the bound, so a process that goes on asking keeps no more
    decomposition_patterns.cache_clear()
    for group in groups.abelian_groups_up_to(24):
        for g, h in groups.conjugacy_classes_product(3, group):
            decomposition_patterns(g, h)
    info = decomposition_patterns.cache_info()
    assert info.misses == 1434 and info.maxsize is not None
    assert info.currsize <= info.maxsize < info.misses


class TestDecompositionPatterns:
    def test_cubic_transposition_with_involution(self):
        c2 = AbelianGroup.from_label("C2")
        patterns = decomposition_patterns(CycleType((2, 1)), c2.element((1,)))
        assert parse_pattern("(1^2 1^2 1^2)") in patterns

    def test_quartic_transposition_both_frobenius_shapes(self):
        c2 = AbelianGroup.from_label("C2")
        patterns = decomposition_patterns(CycleType((2, 1, 1)), c2.element((1,)))
        assert parse_pattern("(1^2 1^2 1^2 1^2)") in patterns
        assert parse_pattern("(1^2 1^2 2^2)") in patterns

    def test_trivial_pair_gives_unramified_patterns(self):
        c2 = AbelianGroup.from_label("C2")
        patterns = decomposition_patterns(CycleType((1, 1, 1)), c2.identity())
        assert all(p.is_unramified() for p in patterns)
        assert parse_pattern("(1 1 1 1 1 1)") in patterns
        # Frobenius shapes are exactly the cycle types of the product group's
        # elements acting on 6 points.
        assert parse_pattern("(6)") in patterns

    def test_every_pattern_consistent_with_inertia(self):
        for label in ["C2", "C3"]:
            group = AbelianGroup.from_label(label)
            for d in (3, 4):
                for g in partitions(d):
                    for h in group.elements():
                        expected = inertia_orbits(g, h)
                        for pattern in decomposition_patterns(g, h):
                            assert pattern.ramification_indices == expected
                            assert pattern.degree == d * group.order


class TestValuationFunctions:
    def test_disc_valuation_examples(self):
        # the tame discriminant valuation of F is ind(g)
        assert ind(CycleType((2, 2, 1))) == 2
        assert ind(CycleType((1, 1))) == 0
        table = generate_table(3, AbelianGroup.from_label("C2"))
        assert all(row.v_disc_f == ind(row.generator) for row in table.rows)

    def test_disc_valuation_pair_example(self):
        c2 = AbelianGroup.from_label("C2")
        assert disc_valuation_pair(CycleType((4,)), c2.element((1,))) == 6

    def test_remark_formula_examples(self):
        assert remark_formula(parse_pattern("(1^2 1)"), parse_pattern("(1^2)")) == 3
        assert remark_formula(parse_pattern("(1 1 1)"), parse_pattern("(1 1)")) == 0
        assert remark_formula(parse_pattern("(1^3)"), parse_pattern("(1^5)")) == 14
        assert pair_index(CycleType((3,)), CycleType((5,))) == 14

    def test_remark_formula_equals_pair_valuation_exhaustively(self):
        # Oracle equivalence for d <= 5 against every prime-cyclic group up
        # to order 7, using the inertia-level (f = 1) patterns.
        for p in (2, 3, 5, 7):
            group = AbelianGroup.from_label(f"C{p}")
            for d in (3, 4, 5):
                for g in partitions(d):
                    for h in group.elements():
                        pattern_f = SplittingPattern(
                            tuple((e, 1) for e in g.parts)
                        )
                        pattern_k = SplittingPattern(
                            tuple((e, 1) for e in regular_cycle_type(h).parts)
                        )
                        assert remark_formula(
                            pattern_f, pattern_k
                        ) == disc_valuation_pair(g, h)

    @given(pattern_strategy, pattern_strategy, st.data())
    def test_remark_formula_is_refinement_invariant(self, left, right, data):
        # Splitting one factor (e, f) into (e, f1) + (e, f - f1) never changes
        # the value: the formula is linear in each inertial degree.  Together
        # with the f = 1 base case above this pins the formula to the pair
        # index for every refinement.
        index = data.draw(st.integers(min_value=0, max_value=len(left.factors) - 1))
        e, f = left.factors[index]
        f1 = data.draw(st.integers(min_value=1, max_value=f)) if f > 1 else 1
        if f1 == f:
            split = left
        else:
            rest = left.factors[:index] + left.factors[index + 1 :]
            split = SplittingPattern(rest + ((e, f1), (e, f - f1)))
        assert remark_formula(split, right) == remark_formula(left, right)
        assert remark_formula(right, split) == remark_formula(right, left)


class TestGenerateTable:
    def test_requires_prime_cyclic(self):
        with pytest.raises(DomainError):
            generate_table(3, AbelianGroup.from_label("C4"))
        with pytest.raises(DomainError):
            generate_table(3, AbelianGroup.from_label("C2xC2"))
        with pytest.raises(DomainError):
            generate_table(6, AbelianGroup.from_label("C2"))

    def test_row_counts_and_caps(self):
        expectations = {
            (3, "C2"): (2, 3),
            (3, "C3"): (2, 6),
            (4, "C2"): (4, 4),
            (5, "C2"): (6, 5),
            (5, "C5"): (6, 20),
        }
        for (d, label), (row_count, cap) in expectations.items():
            table = generate_table(d, AbelianGroup.from_label(label))
            assert len(table.rows) == row_count
            assert table.delta_cap == cap

    def test_delta_columns(self):
        assert [r.delta for r in generate_table(3, AbelianGroup.from_label("C3")).rows] == [2, 6]
        assert [r.delta for r in generate_table(4, AbelianGroup.from_label("C2")).rows] == [2, 4, 2, 4]
        assert [r.delta for r in generate_table(5, AbelianGroup.from_label("C5")).rows] == [4, 8, 8, 12, 12, 20]

    def test_row_internal_consistency(self):
        for filename, d, label in GOLDEN_TABLES:
            group = AbelianGroup.from_label(label)
            generator = group.element((1,))
            table = generate_table(d, group)
            for row in table.rows:
                assert row.v_disc_f == ind(row.generator)
                assert row.delta == delta(row.generator, generator)
                assert 0 <= row.delta <= table.delta_cap
                for pattern in row.f_splitting:
                    assert pattern.degree == d
                    assert pattern.valuation == row.v_disc_f
                    assert d - sum(f for _, f in pattern.factors) == row.v_disc_f
                for pattern in row.fk_splitting:
                    assert pattern.degree == d * group.order
                    assert pattern.valuation == row.v_disc_fk

    def test_matches_golden_tables(self):
        for filename, d, label in GOLDEN_TABLES:
            golden = load_golden(filename)
            assert (golden.d, golden.group_label) == (d, label)
            group = AbelianGroup.from_label(label)
            table = generate_table(d, group)
            assert table.delta_cap == golden.delta_cap
            assert len(table.rows) == len(golden.rows)
            for row, gold in zip(table.rows, golden.rows):
                assert row.generator.parts == gold.generator_parts
                assert row.v_disc_f == gold.v_disc_f
                assert row.v_disc_fk == gold.v_disc_fk
                assert row.delta == gold.delta
                # The degree-d side must reproduce the recorded cells exactly.
                golden_f = {parse_pattern(c.text) for c in gold.f_cells}
                assert all(pattern.degree == d for pattern in golden_f)
                assert golden_f == set(row.f_splitting)
                enumerated = set(row.fk_splitting)
                for cell in gold.fk_cells:
                    pattern = parse_pattern(cell.text)
                    if cell.advisory:
                        # An advisory cell must actually be defective: wrong
                        # total degree, wrong valuation, or an index multiset
                        # that no Frobenius choice can produce.
                        defects = [
                            pattern.degree != d * group.order,
                            pattern.valuation != row.v_disc_fk,
                            pattern.ramification_indices
                            != inertia_orbits(row.generator, group.element((1,))),
                        ]
                        assert any(defects), f"advisory cell {cell.text} is fine"
                        assert pattern not in enumerated
                    else:
                        assert pattern in enumerated, (
                            f"{filename}: {cell.text} missing from row "
                            f"{row.generator}"
                        )

    def test_corrected_forms_of_advisory_cells_are_enumerated(self):
        # The two defective cells have obvious intended forms; both appear in
        # the enumeration, which is strong evidence they are typos rather
        # than modelling gaps.
        group = AbelianGroup.from_label("C5")
        table = generate_table(5, group)
        first_row = table.rows[0]
        assert first_row.generator.parts == (2, 1, 1, 1)
        enumerated = set(first_row.fk_splitting)
        assert parse_pattern("(1^{10} 1^5 2^5)") in enumerated
        assert parse_pattern("(1^{10} 3^5)") in enumerated
