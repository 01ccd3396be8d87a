"""Tests for record ingestion, discriminant composition, counting, and
uniformity measurement.

Independent oracles used here:

* fundamental discriminants are re-derived from the definition (congruence
  and squarefreeness conditions) when checking the bundled fixture;
* composed magnitudes in the unit examples are computed by hand from the
  per-prime valuation formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import pytest

from sdxa.census import (
    ComposeResult,
    Dataset,
    FieldRecord,
    LocalDatum,
    PrimeBreakdown,
    UniformityBin,
    WildOverrides,
    compose_disc,
    count_N,
    count_N_truncated,
    dump_dataset,
    factorize,
    fundamental_discriminant,
    ingest,
    iter_census_pairs,
    linearly_disjoint,
    load_dataset,
    measure_uniformity,
    parse_record,
    truncated_magnitude,
)
from sdxa.errors import (
    DomainError,
    InsufficientDataError,
    RecordParseError,
    RecordValidationError,
    SdxaError,
)
from sdxa.groups import AbelianGroup
from sdxa.perms import CycleType

FIXTURE = Path(__file__).resolve().parent.parent / "src" / "sdxa" / "data" / (
    "cubic_quadratic_fields.txt"
)

C2 = AbelianGroup.from_label("C2")
C3 = AbelianGroup.from_label("C3")


def record(text: str) -> FieldRecord:
    return parse_record(text)


# ---------------------------------------------------------------------------
# factorization / fundamental discriminants
# ---------------------------------------------------------------------------


def test_factorize_basics():
    assert factorize(1) == {}
    assert factorize(2 * 2 * 3 * 49) == {2: 2, 3: 1, 7: 2}
    with pytest.raises(DomainError):
        factorize(0)


@pytest.mark.parametrize(
    "disc,expected",
    [
        (-23, -23),  # already fundamental, 1 mod 4
        (12, 12),  # 4 * 3 with 3 = 3 mod 4
        (8, 8),  # 4 * 2 with 2 = 2 mod 4
        (-4, -4),
        (148, 37),  # 4 * 37 but 37 = 1 mod 4: the square class is 37
        (45, 5),  # 9 * 5
        (-104, -104),  # -8 * 13: kernel -26 = 2 mod 4, so 4 * (-26)
        (9, 1),  # square: trivial square class
        (50, 8),  # 2 * 25 -> kernel 2 -> 8
    ],
)
def test_fundamental_discriminant(disc, expected):
    assert fundamental_discriminant(disc) == expected


def test_fundamental_discriminant_rejects_zero():
    with pytest.raises(DomainError):
        fundamental_discriminant(0)


# ---------------------------------------------------------------------------
# record grammar / validation
# ---------------------------------------------------------------------------


def test_parse_cubic_record_round_trip():
    line = "3.-23.1;3;S3;-23;23:t(2.1);"
    rec = record(line)
    assert rec.label == "3.-23.1"
    assert rec.degree == 3
    assert rec.group == "S3"
    assert rec.disc == -23
    assert rec.local == (LocalDatum(23, tame_class=CycleType((2, 1))),)
    assert rec.quad_subfield_discs == ()
    assert rec.serialize() == line


def test_parse_quadratic_record_round_trip():
    line = "2.-104.1;2;C2;-104;2:w(3),13:t(2);-104"
    rec = record(line)
    assert rec.local == (
        LocalDatum(2, wild_valuation=3),
        LocalDatum(13, tame_class=CycleType((2,))),
    )
    assert rec.quad_subfield_discs == (-104,)
    assert rec.serialize() == line


def test_abelian_group_is_parsed_once_per_record():
    rec = next(r for r in ingest(str(FIXTURE)).records if not r.is_symmetric)
    assert rec.abelian_group is rec.abelian_group
    assert rec.abelian_group == AbelianGroup.from_label(rec.group)


def test_parse_wild_only_record():
    rec = record("3.-108.1;3;S3;-108;2:w(2),3:w(3);")
    assert all(not datum.is_tame for datum in rec.local)
    assert rec.serialize() == "3.-108.1;3;S3;-108;2:w(2),3:w(3);"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("a;3;S3;-23;23:t(2.1)", "6 ';'-separated fields"),
        (";3;S3;-23;23:t(2.1);", "empty label"),
        ("a;three;S3;-23;23:t(2.1);", "must be integers"),
        ("a;3;S3;0;;", "nonzero"),
        ("a;3;G3;-23;23:t(2.1);", "unknown group label"),
        ("a;3;S3;-23;23:x(2.1);", "neither t(...) nor w(...)"),
        ("a;3;S3;-23;q:t(2.1);", "bad prime"),
    ],
)
def test_parse_errors(line, fragment):
    with pytest.raises(RecordParseError) as err:
        parse_record(line, line_number=7)
    assert fragment in str(err.value)
    assert "line 7" in str(err.value)


@pytest.mark.parametrize(
    "line,fragment",
    [
        # degree disagrees with the group
        ("a;4;S3;-23;23:t(2.1.1);", "does not match group"),
        ("a;3;C2;-23;23:t(2.1);", "does not match group order"),
        # symmetric records must leave the quadratic-subfield field empty
        ("a;3;S3;-23;23:t(2.1);-23", "reserved for abelian"),
        # tame data at a prime dividing the closure modulus
        ("a;3;S3;-135;3:t(2.1),5:t(3);", "divides the closure modulus"),
        # wild data at a prime coprime to the closure modulus
        ("a;3;S3;-23;23:w(1);", "coprime to the closure modulus"),
        # wrong-degree inertia class
        ("a;3;S3;-20;5:t(2.1.1);", "has degree 4"),
        # trivial inertia class
        ("a;3;S3;-23;23:t(1.1.1);", "trivial"),
        # abelian tame class must be a regular type of a group element
        ("a;4;C2xC2;-175;5:t(2.1.1),7:t(4);", "regular type"),
        ("a;2;C2;15;3:t(1.1),5:t(2);", "trivial"),
        # primes out of order / repeated
        ("a;3;S3;-115;23:t(2.1),5:t(2.1);", "distinct and sorted"),
        ("a;3;S3;-2645;23:t(2.1),23:t(3);", "distinct and sorted"),
        # local product disagrees with |disc|
        ("a;3;S3;-46;23:t(2.1);", "!= |disc|"),
        # non-fundamental quadratic subfield discriminant
        ("a;2;C2;12;2:w(2),3:t(2);45", "not a fundamental discriminant"),
    ],
)
def test_validation_errors(line, fragment):
    with pytest.raises(RecordValidationError) as err:
        parse_record(line)
    assert fragment in str(err.value)
    assert "record 'a'" in str(err.value)


def test_wild_valuation_must_be_positive():
    with pytest.raises(SdxaError):
        parse_record("a;3;S3;-23;2:w(0);")


def test_load_dataset_headers_and_duplicates():
    text = (
        "# a header\n"
        "#coverage group=S3 maxdisc=2000\n"
        "\n"
        "x;3;S3;-23;23:t(2.1);\n"
    )
    data = load_dataset(text)
    assert data.headers == ("# a header", "#coverage group=S3 maxdisc=2000")
    assert data.coverage == {"S3": 2000}
    assert data.group_counts() == {"S3": 1}
    assert data.get("x").disc == -23
    with pytest.raises(DomainError):
        data.get("missing")
    with pytest.raises(RecordValidationError, match="duplicate"):
        load_dataset("x;3;S3;-23;23:t(2.1);\nx;3;S3;-31;31:t(2.1);\n")


def test_parse_error_carries_line_number():
    with pytest.raises(RecordParseError, match="line 3"):
        load_dataset("# h\nx;3;S3;-23;23:t(2.1);\nbroken\n")


def test_dump_round_trip_preserves_headers_and_order():
    text = (
        "# narrative header\n"
        "#coverage group=C2 maxdisc=100\n"
        "2.8.1;2;C2;8;2:w(3);8\n"
        "2.-3.1;2;C2;-3;3:t(2);-3\n"
    )
    data = load_dataset(text)
    assert dump_dataset(data) == text  # record order is preserved, not sorted


# ---------------------------------------------------------------------------
# linear disjointness
# ---------------------------------------------------------------------------


def test_disjointness_odd_order_is_automatic():
    f_rec = record("f;3;S3;-23;23:t(2.1);")
    k_rec = record("k;3;C3;49;7:t(3);")
    assert linearly_disjoint(f_rec, k_rec) is True


def test_disjointness_even_order_needs_quadratic_data():
    f_rec = record("f;3;S3;-23;23:t(2.1);")
    bare = record("k;2;C2;-23;23:t(2);")  # no quadratic-subfield data
    with pytest.raises(InsufficientDataError):
        linearly_disjoint(f_rec, bare)


def test_disjointness_detects_shared_quadratic_resolvent():
    f_rec = record("f;3;S3;-23;23:t(2.1);")
    same = record("k;2;C2;-23;23:t(2);-23")
    other = record("k2;2;C2;-4;2:w(2);-4")
    assert linearly_disjoint(f_rec, same) is False
    assert linearly_disjoint(f_rec, other) is True
    # the resolvent is the square class of the discriminant, not the raw value
    f_148 = record("g;3;S3;148;2:w(2),37:t(2.1);")
    k_37 = record("k37;2;C2;37;37:t(2);37")
    assert linearly_disjoint(f_148, k_37) is False


def test_disjointness_requires_abelian_second_argument():
    f_rec = record("f;3;S3;-23;23:t(2.1);")
    with pytest.raises(DomainError):
        linearly_disjoint(f_rec, f_rec)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_disjoint_ramification():
    f_rec = record("f;3;S3;-23;23:t(2.1);")
    k_rec = record("k;2;C2;-4;2:w(2);-4")
    result = compose_disc(f_rec, k_rec)
    # no shared primes: |disc| = (23^1)^2 * (2^2)^3
    assert result.magnitude == 23**2 * 2**6 == 33856
    assert result.naive_magnitude == result.magnitude
    assert result.exact
    assert result.unresolved_primes == ()
    by_prime = {entry.prime: entry for entry in result.breakdown}
    assert by_prime[2].delta_p == 0 and by_prime[2].v_fk == 6
    assert by_prime[23].delta_p == 0 and by_prime[23].v_fk == 2


def test_compose_tame_tame_overlap_quadratic():
    # shared tame prime 7: a 3-cycle meeting the involution drops the
    # valuation from 2*2 + 3*1 = 7 to 5
    f_rec = record("f;3;S3;-49;7:t(3);")
    k_rec = record("k;2;C2;-7;7:t(2);-7")
    result = compose_disc(f_rec, k_rec)
    assert result.breakdown == (
        PrimeBreakdown(prime=7, v_f=2, v_k=1, delta_p=2, v_fk=5),
    )
    assert result.magnitude == 7**5
    assert result.exact


def test_compose_tame_tame_overlap_cyclic_cubic():
    # shared tame prime 7 against a cyclic cubic: valuation 3*2 + 3*2 - 6 = 6
    f_rec = record("f;3;S3;-49;7:t(3);")
    k_rec = record("k;3;C3;49;7:t(3);")
    result = compose_disc(f_rec, k_rec)
    assert [e.v_fk for e in result.breakdown] == [6]
    assert result.magnitude == 7**6


def test_compose_wild_overlap_flags_the_prime():
    f_rec = record("f;3;S3;-104;2:w(3),13:t(2.1);")
    k_rec = record("k;2;C2;8;2:w(3);8")
    result = compose_disc(f_rec, k_rec)
    assert result.unresolved_primes == (2,)
    assert not result.exact
    # naive valuation at 2: 2*3 + 3*3 = 15; at 13: 2*1 = 2
    assert result.naive_magnitude == 2**15 * 13**2
    assert result.magnitude == result.naive_magnitude  # unresolved treated as 0
    assert result.lower_bound == 2 ** max(2 * 3, 3 * 3) * 13**2
    by_prime = {entry.prime: entry for entry in result.breakdown}
    assert by_prime[2].delta_p is None
    assert by_prime[13].delta_p == 0


def test_compose_wild_overlap_with_override():
    f_rec = record("f;3;S3;-104;2:w(3),13:t(2.1);")
    k_rec = record("k;2;C2;8;2:w(3);8")
    overrides = WildOverrides.from_json(
        '{"overrides": [{"p": 2, "f_val": 3, "k_val": 3, "delta": 4}]}'
    )
    result = compose_disc(f_rec, k_rec, overrides)
    assert result.exact
    assert result.magnitude == 2 ** (15 - 4) * 13**2
    # an override for a different valuation pair does not apply
    miss = WildOverrides.from_json(
        '{"overrides": [{"p": 2, "f_val": 2, "k_val": 3, "delta": 4}]}'
    )
    assert not compose_disc(f_rec, k_rec, miss).exact


def test_compose_rejects_overlarge_override():
    f_rec = record("f;3;S3;-104;2:w(3),13:t(2.1);")
    k_rec = record("k;2;C2;8;2:w(3);8")
    too_big = WildOverrides.from_json(
        '{"overrides": [{"p": 2, "f_val": 3, "k_val": 3, "delta": 7}]}'
    )
    with pytest.raises(DomainError, match="exceeds the bound"):
        compose_disc(f_rec, k_rec, too_big)


def test_override_json_rejects_negative_delta():
    with pytest.raises(DomainError):
        WildOverrides.from_json('{"overrides": [{"p":2,"f_val":1,"k_val":1,"delta":-1}]}')


def test_compose_argument_roles():
    f_rec = record("f;3;S3;-23;23:t(2.1);")
    k_rec = record("k;2;C2;-4;2:w(2);-4")
    with pytest.raises(DomainError):
        compose_disc(k_rec, k_rec)
    with pytest.raises(DomainError):
        compose_disc(f_rec, f_rec)


def test_compose_magnitude_bracket_is_ordered():
    f_rec = record("f;3;S3;-104;2:w(3),13:t(2.1);")
    for k_line in (
        "k;2;C2;8;2:w(3);8",
        "k;2;C2;-4;2:w(2);-4",
        "k;2;C2;-7;7:t(2);-7",
        "k;2;C2;-104;2:w(3),13:t(2);-104",
    ):
        result = compose_disc(f_rec, record(k_line))
        assert result.lower_bound <= result.magnitude <= result.naive_magnitude


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def toy_dataset() -> Dataset:
    return load_dataset(
        "#coverage group=S3 maxdisc=200\n"
        "#coverage group=C2 maxdisc=10\n"
        "f1;3;S3;-23;23:t(2.1);\n"
        "f2;3;S3;-104;2:w(3),13:t(2.1);\n"
        "k1;2;C2;-4;2:w(2);-4\n"
        "k2;2;C2;8;2:w(3);8\n"
        "k3;2;C2;-23;23:t(2);-23\n"
    )


def test_iter_census_pairs_excludes_non_disjoint():
    pairs = iter_census_pairs(toy_dataset(), 3, C2)
    labels = {(f.label, k.label) for f, k in pairs}
    # f1 x k3 shares the quadratic resolvent Q(sqrt(-23)); all else disjoint
    assert ("f1", "k3") not in labels
    assert len(labels) == 5


def test_count_N_exact_and_flagged():
    data = toy_dataset()
    # f1 x k1 composes exactly to 33856; X just below and above straddle it
    below = count_N(data, 3, C2, 33856)
    above = count_N(data, 3, C2, 33857)
    assert above.count == below.count + 1
    # pairs overlapping wildly at 2 are flagged, never counted; f1 is odd at
    # 2, so exactly the two f2 x {k1, k2} pairs are inexact.  At X = 33857
    # only f2 x k1 (lower bound 2^6 * 13^2 = 10816) can still land below X;
    # f2 x k2's lower bound 2^9 * 13^2 = 86528 already exceeds it.
    assert above.flagged_wild_pairs == 1
    wide = count_N(data, 3, C2, 10**6)
    assert wide.flagged_wild_pairs == 2
    assert above.x == 33857
    assert above.fit_constant == pytest.approx(above.count / math.sqrt(33857))


def test_count_N_monotone_in_x():
    data = toy_dataset()
    counts = [count_N(data, 3, C2, x).count for x in (1, 10**2, 10**4, 10**5, 10**9)]
    assert counts == sorted(counts)
    assert counts[0] == 0


def test_count_N_flagged_requires_reachable_bracket():
    data = toy_dataset()
    # at tiny X even the lower bound exceeds X: nothing is flagged
    assert count_N(data, 3, C2, 10).flagged_wild_pairs == 0


def test_count_N_overrides_convert_flags_to_counts():
    data = toy_dataset()
    overrides = WildOverrides.from_json(
        '{"overrides": ['
        '{"p": 2, "f_val": 3, "k_val": 2, "delta": 4},'
        '{"p": 2, "f_val": 3, "k_val": 3, "delta": 6}]}'
    )
    plain = count_N(data, 3, C2, 10**9)
    resolved = count_N(data, 3, C2, 10**9, overrides)
    assert plain.flagged_wild_pairs == 2
    assert resolved.flagged_wild_pairs == 0
    assert resolved.count == plain.count + 2


def test_count_N_coverage_warnings():
    data = toy_dataset()
    # X = 10^4: needs S3 disc to 100 (< 200 ok) and C2 disc to 10^(4/3) > 10
    result = count_N(data, 3, C2, 10**4)
    assert any("C2" in w for w in result.warnings)
    assert not any("S3" in w for w in result.warnings)
    # X = 10^5 exceeds the S3 square coverage too: 200^2 = 4*10^4 < 10^5
    result = count_N(data, 3, C2, 10**5)
    assert any("S3" in w for w in result.warnings)
    bare = load_dataset("f1;3;S3;-23;23:t(2.1);\nk1;2;C2;-4;2:w(2);-4\n")
    warnings = count_N(bare, 3, C2, 10).warnings
    assert any("no coverage assertion for group S3" in w for w in warnings)
    assert any("no coverage assertion for group C2" in w for w in warnings)


def test_count_N_rejects_bad_x():
    with pytest.raises(DomainError):
        count_N(toy_dataset(), 3, C2, 0)


def test_truncated_cutoff_must_clear_wild_modulus():
    data = toy_dataset()
    with pytest.raises(DomainError):
        count_N_truncated(data, 3, C2, 10**6, 12)  # |C2| * 3! = 12
    count_N_truncated(data, 3, C2, 10**6, 13)  # minimal admissible cutoff


def test_truncated_magnitude_dominates_true_magnitude():
    data = toy_dataset()
    for f_rec, k_rec in iter_census_pairs(data, 3, C2):
        result = compose_disc(f_rec, k_rec)
        previous = None
        for y in (13, 31, 100, 1000):
            trunc = truncated_magnitude(result, 2, 3, y)
            assert trunc >= result.magnitude
            if previous is not None:
                assert trunc <= previous  # larger cutoff, closer to the truth
            previous = trunc
        assert truncated_magnitude(result, 2, 3, 10**6) == result.magnitude


def test_truncation_bites_above_the_cutoff():
    # tame-tame overlap at 37: the true valuation there is 2 + 3 - 2 = 3 but
    # the naive one is 5, so a cutoff below 37 inflates the magnitude past X
    data = load_dataset(
        "g;3;S3;148;2:w(2),37:t(2.1);\n"
        "k;2;C2;-111;3:t(2),37:t(2);-111\n"
    )
    pair = compose_disc(data.get("g"), data.get("k"))
    assert pair.exact
    assert pair.magnitude == 2**4 * 3**3 * 37**3
    assert truncated_magnitude(pair, 2, 3, 31) == 2**4 * 3**3 * 37**5
    x = 10**8
    assert count_N(data, 3, C2, x).count == 1
    assert count_N_truncated(data, 3, C2, x, 31).count == 0
    assert count_N_truncated(data, 3, C2, x, 100).count == 1


def test_truncated_count_below_true_count_and_monotone():
    data = toy_dataset()
    x = 33857
    full = count_N(data, 3, C2, x).count
    sweep = [count_N_truncated(data, 3, C2, x, y).count for y in (13, 31, 100, 1000)]
    assert sweep == sorted(sweep)
    assert all(n <= full for n in sweep)
    assert count_N_truncated(data, 3, C2, x, 10**6).count == full


# ---------------------------------------------------------------------------
# uniformity measurement
# ---------------------------------------------------------------------------


def uniformity_dataset() -> Dataset:
    # three synthetic degree-3 records with controlled tame primes
    return load_dataset(
        "u1;3;S3;-49;7:t(3);\n"
        "u2;3;S3;-637;7:t(3),13:t(2.1);\n"  # 637 = 7^2 * 13
        "u3;3;S3;-289;17:t(3);\n"  # 289 = 17^2
        "k1;2;C2;-4;2:w(2);-4\n"
    )


def test_uniformity_trivial_bin_counts_fields():
    rows = measure_uniformity(
        uniformity_dataset(),
        3,
        [UniformityBin(classes=frozenset({CycleType((3,))}), q=1)],
        [50, 300, 1000],
    )
    # q = 1 admits only the empty subset (every nonempty product is >= 5),
    # so each field below the cutoff counts exactly once
    assert [(row.x, row.count) for row in rows] == [(50, 1), (300, 2), (1000, 3)]
    assert all(row.ratio is None for row in rows)


def test_uniformity_dyadic_bin_filters_primes():
    rows = measure_uniformity(
        uniformity_dataset(),
        3,
        [UniformityBin(classes=frozenset({CycleType((3,))}), q=7)],
        [1000],
    )
    # [7, 14): prime 7 qualifies for u1 and u2; u3's only (3)-prime is 17 >= 14
    assert rows[0].count == 2


def test_uniformity_two_bins_multiply():
    rows = measure_uniformity(
        uniformity_dataset(),
        3,
        [
            UniformityBin(classes=frozenset({CycleType((3,))}), q=7),
            UniformityBin(classes=frozenset({CycleType((2, 1))}), q=13),
        ],
        [1000],
    )
    # only u2 has both a (3)-prime in [7,14) and a (2,1)-prime in [13,26)
    assert rows[0].count == 1


def test_uniformity_ratio_uses_exponents():
    rows = measure_uniformity(
        uniformity_dataset(),
        3,
        [
            UniformityBin(
                classes=frozenset({CycleType((3,))}), q=7, exponent=Fraction(-1, 2)
            )
        ],
        [1000],
    )
    assert rows[0].ratio == pytest.approx(2 / (1000 * 7**-0.5))


def test_uniformity_rejects_overlapping_bins():
    shared = frozenset({CycleType((3,))})
    with pytest.raises(DomainError, match="disjoint"):
        measure_uniformity(
            uniformity_dataset(),
            3,
            [UniformityBin(classes=shared, q=1), UniformityBin(classes=shared, q=7)],
            [100],
        )


def test_uniformity_rejects_wrong_degree_class():
    with pytest.raises(DomainError, match="degree"):
        measure_uniformity(
            uniformity_dataset(),
            3,
            [UniformityBin(classes=frozenset({CycleType((2, 2))}), q=1)],
            [100],
        )


def test_uniformity_bin_validation():
    with pytest.raises(DomainError):
        UniformityBin(classes=frozenset(), q=1)
    with pytest.raises(DomainError):
        UniformityBin(classes=frozenset({CycleType((3,))}), q=0)


# ---------------------------------------------------------------------------
# the bundled fixture
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bundled() -> Dataset:
    return ingest(str(FIXTURE))


def test_fixture_round_trips_byte_identically(bundled):
    assert dump_dataset(bundled) == FIXTURE.read_text(encoding="utf-8")


def test_fixture_coverage_headers(bundled):
    assert bundled.coverage == {"S3": 2000, "C2": 100}


def test_fixture_contains_first_cubic_discriminants(bundled):
    discs = {rec.disc for rec in bundled.by_group("S3")}
    for anchor in (-23, -31, -44, -59, -76, -83, -87, -104, -107, -108):
        assert anchor in discs
    for anchor in (148, 229, 257, 316, 321, 404):
        assert anchor in discs


def test_fixture_excludes_cyclic_cubics(bundled):
    discs = {rec.disc for rec in bundled.by_group("S3")}
    for square in (49, 81, 169, 361, 49 * 4):
        assert square not in discs
    assert all(not _is_square_int(abs(d)) or d < 0 for d in discs)


def _is_square_int(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


def test_fixture_cubic_density_window(bundled):
    # leading-order density 0.277 * X predicts ~555 fields at X = 2000, but
    # the negative X^(5/6) secondary term is large at this scale; published
    # counts give ~272 complex + ~54 totally real.  The window must stay
    # tight enough to catch systematic multiple counting (e.g. a broken
    # isomorphism merge re-counts each totally real field ~3x).
    total = len(bundled.by_group("S3"))
    assert 270 <= total <= 420


def test_fixture_quadratics_match_independent_enumeration(bundled):
    # oracle straight from the definition: D = 1 mod 4 squarefree, or D = 4m
    # with m squarefree and m = 2, 3 mod 4
    def squarefree(n: int) -> bool:
        n = abs(n)
        return all(e == 1 for e in factorize(n).values())

    expected = set()
    for d in range(-100, 101):
        if d % 4 == 1 and d != 1 and squarefree(d):
            expected.add(d)
        elif d % 4 == 0 and d != 0:
            m = d // 4
            if m % 4 in (2, 3) and squarefree(m):
                expected.add(d)
    got = {rec.disc for rec in bundled.by_group("C2")}
    assert got == expected


def test_fixture_quadratics_carry_their_own_square_class(bundled):
    for rec in bundled.by_group("C2"):
        assert rec.quad_subfield_discs == (rec.disc,)
        assert fundamental_discriminant(rec.disc) == rec.disc


def test_fixture_local_data_conventions(bundled):
    for rec in bundled.records:
        for datum in rec.local:
            if rec.group == "S3":
                if datum.prime in (2, 3):
                    assert not datum.is_tame
                else:
                    assert datum.is_tame
                    assert datum.tame_class in (CycleType((2, 1)), CycleType((3,)))
            else:
                if datum.prime == 2:
                    assert not datum.is_tame
                    assert datum.wild_valuation in (2, 3)
                else:
                    assert datum.tame_class == CycleType((2,))


def test_fixture_census_runs_clean(bundled):
    # the smallest composed magnitude the fixture can produce is
    # 23^2 * 3^3 = 14283 (smallest cubic paired with smallest odd quadratic)
    x = 20000
    result = count_N(bundled, 3, C2, x)
    assert result.count > 0
    assert not result.warnings  # x <= 2000^2 and x <= 100^3
    # truncation sweep on real data stays under the full count and grows
    previous = 0
    for y in (31, 100, 1000):
        trunc = count_N_truncated(bundled, 3, C2, x, y)
        assert previous <= trunc.count <= result.count
        assert trunc.flagged_wild_pairs == result.flagged_wild_pairs
        previous = trunc.count
