"""Tests for record ingestion, discriminant composition, counting, and
uniformity measurement.

Independent oracles used here:

* fundamental discriminants are re-derived from the definition (congruence
  and squarefreeness conditions) when checking the bundled fixture;
* composed magnitudes in the unit examples are computed by hand from the
  per-prime valuation formula;
* ``_oracle_compose`` keeps the per-prime composition that walked every
  ramified prime of both records, and the shared-prime ``compose_disc`` and
  the counts built on it are checked against it field for field.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sdxa import census
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
    parse_uniformity_spec,
    parse_wild_overrides,
    truncated_magnitude,
)
from sdxa.errors import (
    INT_MAX_STR_DIGITS,
    DomainError,
    FrozenInstanceError,
    InsufficientDataError,
    RecordParseError,
    RecordValidationError,
)
from sdxa.groups import AbelianGroup, element_order
from sdxa.indexcalc import delta
from sdxa.perms import CycleType

FIXTURE = Path(__file__).resolve().parent.parent / "src" / "sdxa" / "data" / (
    "cubic_quadratic_fields.txt"
)

C2 = AbelianGroup.from_label("C2")
C3 = AbelianGroup.from_label("C3")


def record(text: str) -> FieldRecord:
    return parse_record(text)


def _empty_census_caches() -> None:
    """Empty the census caches, which every load of the process shares."""
    for cache in (census._parse_datum, census._parse_inertia, census._datum_problem,
                  census._group_of_label):
        cache.cache_clear()


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
        (-8, -8),  # kernel -2 = 2 mod 4
        (148, 37),  # 4 * 37 but 37 = 1 mod 4: the square class is 37
        (45, 5),  # 9 * 5
        (-104, -104),  # -8 * 13: kernel -26 = 2 mod 4, so 4 * (-26)
        (9, 1),  # square: trivial square class
        (50, 8),  # 2 * 25 -> kernel 2 -> 8
    ],
)
def test_fundamental_discriminant(disc, expected):
    assert fundamental_discriminant(disc) == expected
    local = tuple(
        LocalDatum(p, wild_valuation=e) for p, e in factorize(abs(disc)).items()
    )
    assert FieldRecord("x", 3, "S3", disc, local).fundamental_disc == expected


def test_fundamental_discriminant_rejects_zero():
    with pytest.raises(DomainError):
        fundamental_discriminant(0)


def test_record_square_class_comes_from_its_own_primes(bundled):
    # records and bare discriminants share one square-class formula; a record
    # whose primes do not cover its disc raises rather than answer wrongly
    assert len(bundled.records) == 385
    for rec in bundled.records:
        assert rec.fundamental_disc == fundamental_discriminant(rec.disc)
    wild_2 = LocalDatum(2, wild_valuation=3)
    with pytest.raises(DomainError, match="prime factor outside"):
        FieldRecord("x", 3, "S3", -104, (wild_2,)).fundamental_disc


P18 = 1000000000000000003  # prime


def test_quadratic_subfields_are_read_off_the_records_own_primes(monkeypatch):
    # no quadratic-subfield check factors: a C2 record at a prime near 10^18
    # loads, and each fundamental q of the fixture passes from its record's primes
    import sdxa.census as census

    def refuse(n):
        raise AssertionError(f"factorize({n}) was called")

    monkeypatch.setattr(census, "factorize", refuse)
    big = load_dataset(f"2.big;2;C2;-{P18};{P18}:t(2);-{P18}\n").records[0]
    assert (big.quad_subfield_discs, big.fundamental_disc) == ((-P18,), -P18)
    assert len(ingest(str(FIXTURE)).by_group("C2")) == 61


@pytest.mark.parametrize("q", [-4, 8, -8, 5, -3, 12, -20, 24, 40, -56, 60, -15, 21])
def test_square_class_of_a_fundamental_q_survives_an_outside_part(q):
    # taking the part of q outside the primes as squarefree (less its square
    # 2-power) keeps a fundamental q fixed, so "not fundamental" is only said
    # when the record's primes prove it; otherwise the cofactor is reported
    from sdxa.census import _square_class

    assert fundamental_discriminant(q) == q
    primes = tuple(factorize(abs(q)))
    for k in range(len(primes) + 1):
        fundamental, rest = _square_class(q, primes[:k])
        assert fundamental == q
        assert rest == math.prod(p**e for p, e in factorize(abs(q)).items()
                                 if p not in primes[:k])


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


def test_a_symmetric_record_has_no_abelian_group():
    rec = record("3.-23.1;3;S3;-23;23:t(2.1);")
    with pytest.raises(DomainError, match="^record '3.-23.1' is not abelian$"):
        rec.abelian_group


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
        ("a;3;S3;-23;23:t(0.1);", "parts must be positive"),
        ("a;3;S3;-23;23:w(0);", "must carry a positive valuation"),
        ("a;3;S3;-23;0:w(1);", "prime 0 is below 2"),
        ("a;3;S3;-23;-23:t(2.1);", "prime -23 is below 2"),
        ("a;2;C2;5;5:t(2);x", "quadratic-subfield discriminants must be integers"),
    ],
)
def test_parse_errors(line, fragment):
    with pytest.raises(RecordParseError) as err:
        parse_record(line, line_number=7)
    assert fragment in str(err.value)
    assert "line 7" in str(err.value)


VALIDATION_CASES = [
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
    # a quadratic subfield ramified where the record is not
    ("a;2;C2;-23;23:t(2);-4", "-4 ramifies outside the record's primes"),
    ("a;2;C2;12;2:w(2),3:t(2);-15", "-15 ramifies outside the record's primes"),
    # a datum at a number that is not prime, or not provably prime
    ("a;3;S3;175;175:t(2.1);", "local datum at 175, which is not prime"),
    ("a;2;C2;-8188;2:w(2),2047:t(2);", "local datum at 2047, which is not prime"),
    (f"a;2;C2;{2**89 - 1};{2**89 - 1}:t(2);",
     f"cannot prove {2**89 - 1} prime or composite"),
    # two faults at once: the first check in the order of validate reports
    ("a;3;S3;-115;23:w(1),5:t(2.1);", "record 'a': ramified primes must be distinct and sorted"),
    ("a;3;S3;-46;23:w(1);", "record 'a': wild datum at 23, a prime coprime to the closure "
     "modulus 6; expected a tame class"),
    ("a;2;C2;12;3:t(2),2:w(2);45", "record 'a': ramified primes must be distinct and sorted"),
    # the quadratic subfields are checked only against primes proven prime
    ("a;2;C2;-255;15:t(2),17:t(2);12", "record 'a': local datum at 15, which is not prime"),
    ("a;2;C2;-51;6:t(2),17:t(2);12,45", "record 'a': tame datum at 6 but the prime divides "
     "the closure modulus 2"),
]


@pytest.mark.parametrize("line,fragment", VALIDATION_CASES)
def test_validation_errors(line, fragment):
    with pytest.raises(RecordValidationError) as err:
        parse_record(line)
    assert fragment in str(err.value)
    assert "record 'a'" in str(err.value)


def hand_built(line: str) -> FieldRecord:
    """The record a line spells, built through ``LocalDatum`` and
    ``CycleType`` directly rather than through the parser."""
    label, degree, group, disc, local_text, quad_text = line.split(";")
    local = []
    for chunk in local_text.split(","):
        prime, kind, value = chunk[:-1].replace("(", ":").split(":")
        if kind == "t":
            parts = tuple(int(p) for p in value.split("."))
            local.append(LocalDatum(int(prime), tame_class=CycleType(parts)))
        else:
            local.append(LocalDatum(int(prime), wild_valuation=int(value)))
    quads = tuple(int(q) for q in quad_text.split(",")) if quad_text else ()
    return FieldRecord(label, int(degree), group, int(disc), tuple(local), quads)


@pytest.mark.parametrize("line,fragment", VALIDATION_CASES)
def test_hand_built_records_fail_the_same_checks(line, fragment):
    with pytest.raises(RecordValidationError) as parsed:
        parse_record(line)
    with pytest.raises(RecordValidationError) as built:
        hand_built(line).validate()
    assert str(built.value) == str(parsed.value)


@pytest.mark.parametrize(
    "good,bad,message",
    [
        # same degree and closure modulus; only the group exponent differs
        (
            "g;4;C4;125;5:t(4);5",
            "b;4;C2xC2;125;5:t(4);5",
            "record 'b': inertia class at 5 is not the regular type of a "
            "group element",
        ),
        (
            "g;3;S3;-7;7:t(2.1);",
            "b;2;C2;-7;7:t(2.1);-7",
            "record 'b': inertia class at 7 has degree 3, record degree 2",
        ),
    ],
)
def test_datum_checks_depend_on_the_record_shape(good, bad, message):
    assert load_dataset(good + "\n").records[0].label == "g"
    for lines in ((good, bad), (bad, good)):
        with pytest.raises(RecordValidationError) as err:
            load_dataset("\n".join(lines) + "\n")
        assert str(err.value) == message


def test_repeated_chunks_share_one_datum_across_files():
    text = "x;3;S3;-23;23:t(2.1);\ny;3;S3;-23;23:t(2.1);\n"
    first, second = load_dataset(text), load_dataset(text)
    assert first.records[0].local[0] is first.records[1].local[0]
    assert first.records[0].local[0] is second.records[0].local[0]
    assert first.records[0].local[0] == second.records[0].local[0]


def test_the_census_caches_keep_at_most_their_bound_across_loads():
    # 1,100 one-record files, each with its own chunk and datum check, and
    # 1,100 distinct inertia texts and group labels: each cache keeps 1,024
    primes = [p for p in range(5, 9000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    _empty_census_caches()
    for p in primes[:1100]:
        assert load_dataset(f"x;3;S3;-{p};{p}:t(2.1);\n").records[0].disc == -p
    for n in range(2, 1102):
        assert census._parse_inertia(f"t({n}.1)")[0].parts == (n, 1)
        assert census._group_of_label(f"C{n}").order == n
    for name in ("_parse_datum", "_datum_problem", "_parse_inertia", "_group_of_label"):
        info = getattr(census, name).cache_info()
        assert info.misses == 1100 and info.maxsize == 1024
        assert info.currsize <= info.maxsize < info.misses


def test_a_shared_cache_names_the_line_and_record_of_each_file():
    # the caches carry no line number and no label from the file that filled them
    bad_chunk = "7:t(0.1)"
    with pytest.raises(RecordParseError) as first:
        load_dataset(f"g;3;S3;-23;23:t(2.1);\nb;3;S3;-7;{bad_chunk};\n")
    with pytest.raises(RecordParseError) as second:
        load_dataset(f"# a\n# b\n\ng;3;S3;-23;23:t(2.1);\nb;3;S3;-7;{bad_chunk};\n")
    message = f"bad local datum '{bad_chunk}': parts must be positive: (0, 1)"
    assert (str(first.value), str(second.value)) == (f"line 2: {message}", f"line 5: {message}")
    problem = "inertia class at 7 has degree 4, record degree 3"
    for label in ("a", "b"):
        with pytest.raises(RecordValidationError) as err:
            load_dataset(f"{label};3;S3;-49;7:t(2.2);\n")
        assert str(err.value) == f"record {label!r}: {problem}"


def _tame_classes(dataset: Dataset) -> list[CycleType]:
    return [datum.tame_class for rec in dataset.records for datum in rec.local
            if datum.tame_class is not None]


def test_inertia_classes_are_built_once_and_shared_by_later_loads(monkeypatch):
    _empty_census_caches()
    built: list[tuple[int, ...]] = []
    original = CycleType.__new__

    def counted(cls, parts):
        built.append(parts)
        return original(cls, parts)

    monkeypatch.setattr(CycleType, "__new__", counted)
    first = ingest(str(FIXTURE))
    assert sorted(built) == [(2,), (2, 1), (3,)]
    assert len({id(ct) for ct in _tame_classes(first)}) == 3
    second = ingest(str(FIXTURE))
    assert len(built) == 3
    assert list(map(id, _tame_classes(first))) == list(map(id, _tame_classes(second)))
    assert _tame_classes(first) == _tame_classes(second)


@pytest.mark.parametrize("text,message", [
    ("t(0.1)", "bad local datum '{}': parts must be positive: (0, 1)"),
    ("t(2..1)", "bad cycle lengths in '{}'"),
    ("w(0)", "bad local datum '{}': a wild datum must carry a positive valuation"),
    ("x(2.1)", "local datum '{}' is neither t(...) nor w(...)"),
], ids=["zero-part", "empty-part", "zero-valuation", "neither"])
def test_a_bad_inertia_text_names_each_chunk_and_line_it_is_in(text, message):
    # parse_record shares the caches of one load, as the records of a file do
    load_dataset("")
    for prime, line_number in ((5, 2), (7, 9)):
        chunk = f"{prime}:{text}"
        with pytest.raises(RecordParseError) as err:
            parse_record(f"a;3;S3;-{prime};{chunk};", line_number)
        assert str(err.value) == f"line {line_number}: " + message.format(chunk)
        assert err.value.line_number == line_number


def test_wild_valuation_must_be_positive():
    with pytest.raises(RecordParseError):
        parse_record("a;3;S3;-23;2:w(0);")


LONG = "9" * 5000  # past Python's default 4,300-digit limit of int()


@pytest.mark.parametrize(
    "line,message",
    [
        (f"2.5.1;2;C{LONG};5;5:t(2);5", f"unknown group label 'C{LONG}'"),
        (f"a;3;S3;-104;2:w({LONG}),13:t(2.1);", f"bad wild valuation in '2:w({LONG})'"),
        (f"a;3;S3;-23;23:t(2.{LONG});", f"bad cycle lengths in '23:t(2.{LONG})'"),
    ],
    ids=["group-label", "wild-valuation", "cycle-length"],
)
def test_a_number_past_the_int_digit_limit_is_a_parse_error(line, message):
    with pytest.raises(RecordParseError) as err:
        load_dataset(f"#coverage group=S3 maxdisc=2000\n{line}\n")
    assert str(err.value) == f"line 2: {message}"


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
    overrides = parse_wild_overrides(
        '{"overrides": [{"p": 2, "f_val": 3, "k_val": 3, "delta": 4}]}'
    )
    result = compose_disc(f_rec, k_rec, overrides)
    assert result.exact
    assert result.magnitude == 2 ** (15 - 4) * 13**2
    # an override for a different valuation pair does not apply
    miss = parse_wild_overrides(
        '{"overrides": [{"p": 2, "f_val": 2, "k_val": 3, "delta": 4}]}'
    )
    assert not compose_disc(f_rec, k_rec, miss).exact


def test_compose_rejects_overlarge_override():
    f_rec = record("f;3;S3;-104;2:w(3),13:t(2.1);")
    k_rec = record("k;2;C2;8;2:w(3);8")
    too_big = parse_wild_overrides(
        '{"overrides": [{"p": 2, "f_val": 3, "k_val": 3, "delta": 7}]}'
    )
    with pytest.raises(DomainError, match="exceeds the bound"):
        compose_disc(f_rec, k_rec, too_big)


def test_breakdown_is_derived_on_first_access():
    f_rec = record("f;3;S3;-104;2:w(3),13:t(2.1);")
    k_rec = record("k;2;C2;8;2:w(3);8")
    result = compose_disc(f_rec, k_rec)
    assert "breakdown" not in vars(result)
    assert result.breakdown is result.breakdown
    assert [entry.prime for entry in result.breakdown] == [2, 13]


@pytest.mark.parametrize(
    "f_line,k_line,exact",
    [
        # shared tame prime 7 (delta 2) next to the unshared 13
        ("f;3;S3;-637;7:t(3),13:t(2.1);", "k;2;C2;-7;7:t(2);-7", True),
        # shared wild prime 2 left unresolved, unshared 13
        ("f;3;S3;-104;2:w(3),13:t(2.1);", "k;2;C2;8;2:w(3);8", False),
    ],
    ids=["exact", "unresolved"],
)
def test_breakdown_multiplies_out_to_the_magnitudes(f_line, k_line, exact):
    result = compose_disc(record(f_line), record(k_line))
    assert result.exact is exact
    entries = result.breakdown
    assert math.prod(e.prime**e.v_fk for e in entries) == result.magnitude
    assert (
        math.prod(e.prime ** (2 * e.v_f + 3 * e.v_k) for e in entries)
        == result.naive_magnitude
    )
    assert [e.prime for e in entries if e.delta_p is None] == list(
        result.unresolved_primes
    )


def test_override_json_rejects_negative_delta():
    with pytest.raises(DomainError):
        parse_wild_overrides('{"overrides": [{"p":2,"f_val":1,"k_val":1,"delta":-1}]}')


def test_override_json_accepts_a_zero_delta():
    # delta = 0 is a discrepancy like any other; only a negative one is refused
    assert parse_wild_overrides(
        '{"overrides": [{"p": 2, "f_val": 3, "k_val": 2, "delta": 0}]}'
    ) == {(2, 3, 2): 0}


def test_override_json_reads_integral_values_as_before():
    assert parse_wild_overrides('{"overrides": []}') == parse_wild_overrides("{}") == {}
    for entry in ('{"p": 2, "f_val": 3, "k_val": 2, "delta": 4}',
                  '{"p": 2.0, "f_val": "3", "k_val": 2e0, "delta": 4}'):
        assert parse_wild_overrides(f'{{"overrides": [{entry}]}}') == {(2, 3, 2): 4}


def test_uniformity_spec_reads_integral_values_as_before():
    three, two = frozenset({CycleType((3,))}), frozenset({CycleType((2, 1))})
    assert parse_uniformity_spec(
        '{"bins": [{"classes": ["3"], "q": 8, "exponent": "-1/2"},'
        ' {"classes": ["2.1"], "q": 2.0, "exponent": null}]}'
    ) == [UniformityBin(three, 8, Fraction(-1, 2)), UniformityBin(two, 2)]
    assert parse_uniformity_spec('{"bins": [{"classes": ["3", "2.1"], "q": "4"}]}') == [
        UniformityBin(three | two, 4)
    ]


@pytest.mark.parametrize("exponent,value", [
    ('"-1/2"', Fraction(-1, 2)), ('"-0.25"', Fraction(-1, 4)), ('"3"', Fraction(3)),
    ("-2", Fraction(-2)), ("-0.5", Fraction(-1, 2)), ("-0.00001", Fraction(-1, 100000)),
    ("1e-5", Fraction(1, 100000)), ("null", None)])
def test_a_spec_exponent_is_a_rational_string_or_a_json_number(exponent, value):
    spec = '{"bins": [{"classes": ["3"], "q": 8, "exponent": %s}]}' % exponent
    assert parse_uniformity_spec(spec) == [UniformityBin(frozenset({CycleType((3,))}), 8, value)]


@pytest.mark.parametrize("exponent,text", [
    ('"+1/2"', "'+1/2'"), ('" -1/2"', "' -1/2'"), ('"٣"', "'٣'"),
    ('"1_0"', "'1_0'"), ('"1e-5"', "'1e-5'"), ("true", "'True'"), ('"1/-2"', "'1/-2'")])
def test_any_other_spec_exponent_is_malformed(exponent, text):
    spec = '{"bins": [{"classes": ["3"], "q": 8, "exponent": %s}]}' % exponent
    with pytest.raises(DomainError) as err:
        parse_uniformity_spec(spec)
    assert str(err.value) == f"malformed uniformity spec: Invalid literal for Fraction: {text}"


@pytest.mark.parametrize(
    "parse,message",
    [(parse_wild_overrides, "malformed wild overrides: "),
     (parse_uniformity_spec, "malformed uniformity spec: ")],
)
def test_json_nested_past_the_recursion_limit_is_malformed(parse, message):
    with pytest.raises(DomainError) as err:
        parse("[" * 100_000 + "]" * 100_000)
    assert str(err.value).startswith(message + "maximum recursion depth exceeded")


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
    overrides = parse_wild_overrides(
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


def test_count_N_coverage_warning_names_the_disc_the_cutoff_needs():
    # X = 10^5 needs |disc| up to ceil(10^(5/2)) = 317 for S3 (|A| = 2) and
    # ceil(10^(5/3)) = 47 for C2 (d = 3); neither root is an integer
    assert count_N(toy_dataset(), 3, C2, 10**5).warnings == (
        "X = 100000 needs S3 records up to |disc| = 317, coverage asserts only 200",
        "X = 100000 needs C2 records up to |disc| = 47, coverage asserts only 10",
    )
    # 2001^5 needs 2001 exactly, where the ceiling of the float root was 2002
    data = load_dataset("#coverage group=S3 maxdisc=2000\n")
    for x, root in ((2001**5, 2001), (2001**5 + 1, 2002)):
        assert count_N(data, 3, AbelianGroup((5,)), x).warnings[0] == (
            f"X = {x} needs S3 records up to |disc| = {root}, coverage asserts only 2000")


def test_a_coverage_header_covers_its_group_under_any_label():
    # C2xC3 names C6, as --A C2xC3 does; a label that names no group covers nothing
    data = load_dataset("#coverage group=S3 maxdisc=2000\n#coverage group=C2xC3 maxdisc=100\n"
                        "#coverage group=Q8 maxdisc=5\n")
    assert data.coverage == {"S3": 2000, "C6": 100, "Q8": 5}
    for label in ("C2xC3", "C6", "C3xC2"):
        group = AbelianGroup.from_label(label)
        assert count_N(data, 3, group, 10**6).warnings == ()
        assert count_N(data, 3, group, 10**7).warnings == (
            "X = 10000000 needs C6 records up to |disc| = 216, coverage asserts only 100",)
    assert count_N(data, 3, C2, 10).warnings == ("no coverage assertion for group C2",)


def test_a_coverage_bound_is_ascii_digits_up_to_the_limit():
    n = INT_MAX_STR_DIGITS
    with pytest.raises(RecordParseError, match=f"^line 2: maxdisc has more than {n} digits$"):
        load_dataset(f"# a note\n#coverage group=S3 maxdisc={'9' * (n + 1)}\n")
    assert load_dataset(f"#coverage group=S3 maxdisc={'9' * n}\n").coverage == {
        "S3": int("9" * n)
    }
    # a bound in other digits, or with a sign or "_", is refused with its line
    for bound in ("abc", "٢٠٠٠", "-5", "+2000", "2_000", "2000 C2", ""):
        header = f"#coverage group=S3 maxdisc={bound}"
        with pytest.raises(RecordParseError) as info:
            load_dataset(f"#coverage group=C2 maxdisc=100\n\n{header}\n")
        assert str(info.value) == f"line 3: malformed coverage header: {header!r}"
        assert info.value.line_number == 3
        with pytest.raises(RecordParseError, match="^malformed coverage header: "):
            Dataset((), (header,)).coverage


@pytest.mark.parametrize("header", ["#coverage", "#coverage group=S3", "#coverage maxdisc=5",
                                    "#coverage\tgroup=S3 maxdisc=5 more"])
def test_a_header_that_starts_with_the_coverage_word_must_be_one(header):
    with pytest.raises(RecordParseError, match="^line 1: malformed coverage header: "):
        load_dataset(f"{header}\n")


@pytest.mark.parametrize("header", ["#", "# coverage group=S3 maxdisc=abc",
                                    "#coverages group=S3 maxdisc=abc", "#note maxdisc=-5"])
def test_another_header_is_a_comment(header):
    data = load_dataset(f"{header}\n#coverage group=S3 maxdisc=20\n")
    assert data.headers == (header, "#coverage group=S3 maxdisc=20")
    assert data.coverage == {"S3": 20}


def test_count_N_rejects_bad_x():
    with pytest.raises(DomainError):
        count_N(toy_dataset(), 3, C2, 0)


def test_both_counts_reject_a_degree_outside_the_product_model():
    data = toy_dataset()
    with pytest.raises(DomainError, match="requires d >= 3"):
        count_N(data, 2, C2, 100)
    with pytest.raises(DomainError, match="requires d >= 3"):
        count_N_truncated(data, 2, C2, 100, 13)


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


def test_uniformity_bin_counts_products_of_neighbouring_primes():
    # 5, 7 and 11 all carry (2,1): in [32, 64) lie 5*7 = 35 and 5*11 = 55
    data = load_dataset("v1;3;S3;-385;5:t(2.1),7:t(2.1),11:t(2.1);\n")
    rows = measure_uniformity(
        data, 3, [UniformityBin(classes=frozenset({CycleType((2, 1))}), q=32)], [1000]
    )
    assert rows[0].count == 2


def test_subset_products_in_range_counts_every_subset_in_low_to_high():
    primes = [5, 7, 11, 13]
    products = [math.prod(c) for r in range(len(primes) + 1)
                for c in itertools.combinations(primes, r)]
    assert census._subset_products_in_range(primes[:3], 35, 77) == 2  # 35, 55
    assert census._subset_products_in_range(primes[:3], 35, 78) == 3  # and 77
    bounds = sorted({b for product in products for b in (product, product + 1)})
    for low, high in itertools.combinations_with_replacement(bounds, 2):
        expected = sum(low <= product < high for product in products)
        assert census._subset_products_in_range(primes, low, high) == expected


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


@pytest.mark.parametrize("d", [-1, 0, 2])
def test_uniformity_rejects_a_degree_below_3(d):
    # as the census does, even with no bin whose classes could disagree with d
    with pytest.raises(DomainError, match=r"^the product model requires d >= 3$"):
        measure_uniformity(uniformity_dataset(), d, [], [100])


def test_uniformity_bin_validation():
    with pytest.raises(DomainError):
        UniformityBin(classes=frozenset(), q=1)
    with pytest.raises(DomainError):
        UniformityBin(classes=frozenset({CycleType((3,))}), q=0)


@pytest.mark.parametrize("seed", range(12))
def test_uniformity_over_many_cutoffs_equals_one_call_per_cutoff(bundled, seed):
    # seeded bins over the two ramified cubic classes, q a power of two, and
    # 1-6 cutoffs (repeats allowed) across the fixture's range
    rng = random.Random(seed)
    classes = [CycleType((2, 1)), CycleType((3,))]
    rng.shuffle(classes)
    split = rng.choice([[classes], [classes[:1], classes[1:]], [classes[:1]]])
    bins = [
        UniformityBin(
            classes=frozenset(part),
            q=2 ** rng.randrange(8),
            exponent=rng.choice([None, Fraction(-1, 2), Fraction(-1, 3)]),
        )
        for part in split
    ]
    xs = [rng.randrange(1, 2500) for _ in range(rng.randrange(1, 7))]
    rows = measure_uniformity(bundled, 3, bins, xs)
    one_by_one = [measure_uniformity(bundled, 3, bins, [x]) for x in sorted(xs)]
    assert all(len(single) == 1 for single in one_by_one)
    assert rows == [single[0] for single in one_by_one]


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


# ---------------------------------------------------------------------------
# shared-prime composition against the per-prime oracle
# ---------------------------------------------------------------------------


def _oracle_compose(f_record, k_record, overrides=None):
    """The per-prime composition: every prime ramified in either record,
    each looked up by a linear scan of the local data.  Returns
    (magnitude, naive_magnitude, lower_bound, unresolved_primes, breakdown)."""

    def local_at(rec, p):
        return next((datum for datum in rec.local if datum.prime == p), None)

    d = f_record.degree
    group = k_record.abelian_group
    order = group.order
    magnitude = naive_magnitude = lower_bound = 1
    unresolved, breakdown = [], []
    primes = sorted(
        {x.prime for x in f_record.local} | {x.prime for x in k_record.local}
    )
    for p in primes:
        f_local, k_local = local_at(f_record, p), local_at(k_record, p)
        v_f = f_local.valuation if f_local else 0
        v_k = k_local.valuation if k_local else 0
        naive = order * v_f + d * v_k
        delta_p = 0
        if f_local and k_local:
            if f_local.is_tame and k_local.is_tame:
                n = k_local.tame_class.parts[0]
                h = next(e for e in group.elements() if element_order(e) == n)
                delta_p = delta(f_local.tame_class, h)
            else:
                found = overrides.get((p, v_f, v_k)) if overrides else None
                if found is not None:
                    if found > min(order * v_f, d * v_k):
                        raise DomainError(
                            f"override discrepancy {found} at prime {p} exceeds "
                            f"the bound min({order * v_f}, {d * v_k})"
                        )
                    delta_p = found
                else:
                    delta_p = None
                    unresolved.append(p)
        v_fk = naive - (delta_p or 0)
        magnitude *= p**v_fk
        naive_magnitude *= p**naive
        lower_bound *= p ** max(order * v_f, d * v_k)
        breakdown.append(PrimeBreakdown(p, v_f, v_k, delta_p, v_fk))
    return magnitude, naive_magnitude, lower_bound, tuple(unresolved), tuple(breakdown)


def _oracle_truncated(oracle, order, d, y):
    return math.prod(
        e.prime ** (e.v_fk if e.prime <= y else order * e.v_f + d * e.v_k)
        for e in oracle[4]
    )


def _assert_matches_oracle(f_rec, k_rec, overrides=None):
    expected = _oracle_compose(f_rec, k_rec, overrides)
    result = compose_disc(f_rec, k_rec, overrides)
    got = (
        result.magnitude,
        result.naive_magnitude,
        result.lower_bound,
        result.unresolved_primes,
        result.breakdown,
    )
    assert got == expected, (f_rec.label, k_rec.label)
    assert result.exact == (not expected[3])
    order = k_rec.abelian_group.order
    for y in (13, 31, 100, 1000):
        assert truncated_magnitude(result, order, f_rec.degree, y) == (
            _oracle_truncated(expected, order, f_rec.degree, y)
        )


FIXTURE_OVERRIDES = WildOverrides({(2, 2, 2): 2, (2, 3, 3): 4, (3, 1, 1): 2})


@pytest.mark.parametrize(
    "overrides", [None, FIXTURE_OVERRIDES], ids=["plain", "overrides"]
)
def test_compose_matches_oracle_on_every_fixture_pair(bundled, overrides):
    k_records = bundled.abelian_records(C2)
    for f_rec in bundled.by_group("S3"):
        for k_rec in k_records:
            _assert_matches_oracle(f_rec, k_rec, overrides)


def _hand_record(label: str, group: str, local_text: str) -> FieldRecord:
    """A validated record whose discriminant is the product of its local
    valuations (the index of a tame class, the stated wild valuation)."""
    degree = {"S3": 3, "S4": 4, "S5": 5}.get(group)
    degree = degree or AbelianGroup.from_label(group).order
    disc = 1
    for chunk in local_text.split(","):
        prime, _, kind = chunk.partition(":")
        parts = [int(x) for x in kind[2:-1].split(".")]
        valuation = parts[0] if kind[0] == "w" else sum(parts) - len(parts)
        disc *= int(prime) ** valuation
    return parse_record(f"{label};{degree};{group};{-disc};{local_text};")


HAND_F = [
    _hand_record("f3", "S3", "3:w(3),5:t(2.1),7:t(3)"),
    _hand_record("f4", "S4", "2:w(2),3:w(2),5:t(4),7:t(2.1.1),11:t(3.1)"),
    _hand_record("f5", "S5", "2:w(3),3:w(1),5:w(4),7:t(5),13:t(3.1.1)"),
]
HAND_K = [
    _hand_record("k3", "C3", "3:w(4),7:t(3),13:t(3)"),
    _hand_record("k4", "C4", "2:w(11),3:t(2.2),5:t(4),7:t(2.2),11:t(4)"),
    _hand_record("k6", "C6", "2:w(3),3:w(8),5:t(6),7:t(3.3),13:t(2.2.2)"),
]


def _wild_keys(f_rec, k_rec):
    """(key, bound) at each shared prime where either side is wild."""
    order, d = k_rec.abelian_group.order, f_rec.degree
    keys = []
    for f_datum in f_rec.local:
        k_datum = k_rec.local_by_prime.get(f_datum.prime)
        if k_datum and not (f_datum.is_tame and k_datum.is_tame):
            v_f, v_k = f_datum.valuation, k_datum.valuation
            keys.append(((f_datum.prime, v_f, v_k), min(order * v_f, d * v_k)))
    return keys


@pytest.mark.parametrize("k_rec", HAND_K, ids=lambda r: r.group)
@pytest.mark.parametrize("f_rec", HAND_F, ids=lambda r: r.group)
def test_compose_matches_oracle_on_hand_built_overlaps(f_rec, k_rec):
    keys = _wild_keys(f_rec, k_rec)
    assert keys  # every hand-built pair has a wild overlap ...
    oracle = _oracle_compose(f_rec, k_rec)
    # ... and a tame-tame one with a nonzero discrepancy
    assert any(e.delta_p for e in oracle[4])
    _assert_matches_oracle(f_rec, k_rec)
    _assert_matches_oracle(f_rec, k_rec, WildOverrides({keys[0][0]: keys[0][1]}))
    _assert_matches_oracle(
        f_rec, k_rec, WildOverrides({key: bound // 2 for key, bound in keys})
    )
    too_big = WildOverrides({key: bound + 1 for key, bound in keys})
    with pytest.raises(DomainError) as expected:
        _oracle_compose(f_rec, k_rec, too_big)
    with pytest.raises(DomainError, match="exceeds the bound") as got:
        compose_disc(f_rec, k_rec, too_big)
    assert str(got.value) == str(expected.value)


@pytest.fixture(scope="module")
def oracle_pairs(bundled):
    """Oracle results of every linearly disjoint fixture pair, disjointness
    decided straight from the square classes."""
    return [
        _oracle_compose(f_rec, k_rec)
        for f_rec in bundled.by_group("S3")
        for k_rec in bundled.abelian_records(C2)
        if fundamental_discriminant(f_rec.disc) not in k_rec.quad_subfield_discs
    ]


@pytest.mark.parametrize("y", [None, 13, 31, 100, 1000])
def test_counts_match_oracle_driven_counts(bundled, oracle_pairs, y):
    for x in (10**k for k in range(1, 9)):
        count = flagged = 0
        for oracle in oracle_pairs:
            if oracle[3]:
                flagged += oracle[2] < x
            else:
                magnitude = (
                    oracle[0] if y is None else _oracle_truncated(oracle, 2, 3, y)
                )
                count += magnitude < x
        if y is None:
            result = count_N(bundled, 3, C2, x)
        else:
            result = count_N_truncated(bundled, 3, C2, x, y)
        assert (result.count, result.flagged_wild_pairs) == (count, flagged), x


def _count_from_label(monkeypatch, calls: dict[str, int]) -> None:
    """Count ``AbelianGroup.from_label`` in ``calls["from_label"]``, patched
    on the class as the benchmark tracer patches it."""
    original = AbelianGroup.from_label
    calls.setdefault("from_label", 0)

    def counted(label):
        calls["from_label"] += 1
        return original(label)

    monkeypatch.setattr(AbelianGroup, "from_label", staticmethod(counted))


@pytest.mark.parametrize(
    "y,overrides",
    [(None, None), (100, None), (None, FIXTURE_OVERRIDES)],
    ids=["None", "100", "overrides"],
)
def test_census_calls_each_layer_once_per_pair(monkeypatch, y, overrides):
    # the binding sites the benchmark tracer wraps; one parse_record per
    # fixture record, one compose_disc per disjoint pair, one
    # linearly_disjoint per candidate pair, one delta per shared tame-tame
    # prime of a disjoint pair, and one from_label per group label of a cold load
    import sdxa.census as census

    _empty_census_caches()
    names = ("parse_record", "compose_disc", "linearly_disjoint", "delta")
    calls = dict.fromkeys(names, 0)
    for name in calls:

        def counted(*args, _name=name, _original=getattr(census, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(census, name, counted)
    _count_from_label(monkeypatch, calls)
    dataset = ingest(str(FIXTURE))
    assert (calls["parse_record"], calls["from_label"]) == (385, 1)
    if y is None:
        count_N(dataset, 3, C2, 10**6, overrides)
    else:
        count_N_truncated(dataset, 3, C2, 10**6, y, overrides)
    assert calls == {
        "parse_record": 385,
        "compose_disc": 19_704,
        "linearly_disjoint": 19_764,
        "delta": 1_441,
        "from_label": 1,
    }


@pytest.mark.parametrize(
    "y,overrides",
    [(None, None), (100, None), (None, FIXTURE_OVERRIDES)],
    ids=["None", "100", "overrides"],
)
def test_counts_compose_the_listed_pairs_in_order(monkeypatch, bundled, y, overrides):
    # the streamed pair loop and iter_census_pairs enumerate the same pairs
    import sdxa.census as census

    composed = []

    def recording(f_record, k_record, overrides=None, _original=census.compose_disc):
        composed.append((f_record, k_record))
        return _original(f_record, k_record, overrides)

    monkeypatch.setattr(census, "compose_disc", recording)
    if y is None:
        count_N(bundled, 3, C2, 10**6, overrides)
    else:
        count_N_truncated(bundled, 3, C2, 10**6, y, overrides)
    pairs = list(iter_census_pairs(bundled, 3, C2))
    assert len(pairs) == 19_704
    assert [(f.label, k.label) for f, k in composed] == [
        (f.label, k.label) for f, k in pairs
    ]
    assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(composed, pairs))


TWO_FAULTS = (
    "f1;3;S3;-104;2:w(3),13:t(2.1);",
    "k1;2;C2;8;2:w(3);8",
    "k2;2;C2;-4;2:w(2);",
)


def test_a_count_reports_the_first_faulty_pair_it_reaches():
    # pairs are composed as they are found: f1 x k1 breaks the override bound
    # before f1 x k2, whose record lacks its quadratic subfield, is reached; a
    # file listing k2 first meets the missing subfield first
    def count(dataset, d, group, x, y, overrides):
        if y is None:
            return count_N(dataset, d, group, x, overrides)
        return count_N_truncated(dataset, d, group, x, y, overrides)

    too_big = WildOverrides({(2, 3, 3): 7})
    forward = load_dataset("\n".join(TWO_FAULTS) + "\n")
    backward = load_dataset("\n".join(TWO_FAULTS[::-1]) + "\n")
    for y in (None, 1000):
        with pytest.raises(DomainError, match="override discrepancy 7 at prime 2 exceeds"):
            count(forward, 3, C2, 10**6, y, too_big)
        with pytest.raises(InsufficientDataError, match="'k2' has even order"):
            count(backward, 3, C2, 10**6, y, too_big)
    with pytest.raises(InsufficientDataError, match="'k2' has even order"):
        list(iter_census_pairs(forward, 3, C2))


def test_a_count_builds_one_element_per_order_per_process(monkeypatch):
    # compose_disc asks for the element of order 2 at each of the 1,441 shared
    # tame-tame primes; the loads share one group, and any equal group shares
    # its element of each order
    _empty_census_caches()
    AbelianGroup.element_of_order.cache_clear()
    built: list[AbelianGroup] = []
    original = AbelianGroup.element

    def counted(self, residues):
        built.append(self)
        return original(self, residues)

    monkeypatch.setattr(AbelianGroup, "element", counted)
    first, second = ingest(str(FIXTURE)), ingest(str(FIXTURE))
    results = []
    for dataset in (first, second, first):
        results.append(count_N(dataset, 3, C2, 10**6))
        results.append(count_N_truncated(dataset, 3, C2, 10**6, 100))
    group_1 = first.by_group("C2")[0].abelian_group
    group_2 = second.by_group("C2")[0].abelian_group
    assert built == [group_1] and built[0] is group_1 is group_2
    assert C2.element_of_order(2) is group_1.element_of_order(2)
    info = AbelianGroup.element_of_order.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    assert results[:2] == results[2:4] == results[4:]


def test_groups_records_and_counts_never_factor(monkeypatch):
    # a group label is normalised by gcd/lcm, a record's square class and its
    # quadratic subfields are read off its own primes, and compose_disc's
    # element of each order is a closed form: neither ingest nor a count factors
    import sdxa.census as census
    import sdxa.groups as groups
    import sdxa.splitting as splitting

    unpatched = ingest(str(FIXTURE))
    reference = [count_N(unpatched, 3, C2, 10**6),
                 count_N_truncated(unpatched, 3, C2, 10**6, 100)]

    def refuse(n):
        raise AssertionError(f"factorize({n}) was called")

    assert not hasattr(splitting, "factorize")  # its prime check is is_prime
    for module in (groups, census):
        monkeypatch.setattr(module, "factorize", refuse)
    dataset = ingest(str(FIXTURE))
    p12, p18 = 100000000000031, 1000000000000000003
    for label, factors in (("C2xC4", (2, 4)), ("C4xC2xC3", (2, 12)),
                           (f"C{p12}", (p12,)), (f"C{p18}", (p18,)),
                           (f"C2xC{2 * p18}", (2, 2 * p18))):
        assert AbelianGroup.from_label(label).invariant_factors == factors
    for f_rec in dataset.by_group("S3"):
        for k_rec in dataset.by_group("C2"):
            compose_disc(f_rec, k_rec)
    assert [count_N(dataset, 3, C2, 10**6),
            count_N_truncated(dataset, 3, C2, 10**6, 100)] == reference
    assert all("fundamental_disc" in vars(r) for r in dataset.by_group("S3"))


RECORD_FIELDS = ("label", "degree", "group", "disc", "local", "quad_subfield_discs")


def test_per_record_facts_are_kept_outside_the_fields(bundled):
    assert all("is_symmetric" in vars(r) for r in bundled.records)
    assert FieldRecord._fields == RECORD_FIELDS
    for parsed in (bundled.get("3.-104.1"), bundled.by_group("C2")[0]):
        built = FieldRecord(*(getattr(parsed, name) for name in RECORD_FIELDS))
        assert "is_symmetric" not in vars(built)
        assert built == parsed and hash(built) == hash(parsed)
        assert repr(built) == repr(parsed)
        assert built.serialize() == parsed.serialize()
    cubic = bundled.get("3.-104.1")
    relabelled = cubic._replace(group="C6")
    assert "is_symmetric" not in vars(relabelled)
    assert cubic.is_symmetric and not relabelled.is_symmetric


MIXED_LABELS = (
    "2.-23.1;2;C2;-23;23:t(2);-23\n"
    "3.49.1;3;C3;49;7:t(3);\n"
    "2.5.1;2;C2;5;5:t(2);5\n"
)


def test_each_group_label_is_parsed_once_per_load(monkeypatch):
    # from cold caches; a later load parses no label that an earlier one did
    _empty_census_caches()
    calls: dict[str, int] = {}
    _count_from_label(monkeypatch, calls)
    ingest(str(FIXTURE))
    assert calls["from_label"] == 1
    first = load_dataset(MIXED_LABELS)
    assert calls["from_label"] == 2
    c2_a, c3, c2_b = (r.abelian_group for r in first.records)
    assert c2_a is c2_b and (c2_a.order, c3.order) == (2, 3)
    second = load_dataset(MIXED_LABELS)
    assert calls["from_label"] == 2
    assert [id(r.abelian_group) for r in first.records] == [
        id(r.abelian_group) for r in second.records
    ]
    with pytest.raises(RecordParseError, match="unknown group label 'Q8'") as info:
        load_dataset(MIXED_LABELS + "2.5.2;2;Q8;5;5:t(2);5\n")
    assert info.value.line_number == 4
    assert calls["from_label"] == 3


def test_record_caches_are_built_on_first_access():
    data = ingest(str(FIXTURE))
    assert not any(
        "local_by_prime" in vars(r) or "fundamental_disc" in vars(r)
        for r in data.records
    )
    rec = data.get("3.-104.1")
    assert rec.local_by_prime.get(13) is rec.local[1]
    assert rec.local_by_prime.get(5) is None
    assert rec.fundamental_disc == fundamental_discriminant(rec.disc) == -104


def test_compose_result_is_frozen(bundled):
    result = compose_disc(bundled.get("3.-104.1"), bundled.by_group("C2")[0])
    with pytest.raises(FrozenInstanceError):
        result.magnitude = 0
    assert "breakdown" not in vars(result)


COMPOSE_FIELDS = (
    "magnitude",
    "naive_magnitude",
    "lower_bound",
    "unresolved_primes",
    "shared",
    "f_record",
    "k_record",
)


def test_compose_result_compares_as_a_frozen_dataclass(bundled):
    f_rec, k_rec = bundled.get("3.-104.1"), bundled.by_group("C2")[0]
    first, second = compose_disc(f_rec, k_rec), compose_disc(f_rec, k_rec)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    other = compose_disc(f_rec, bundled.by_group("C2")[1])
    assert first != other and not first == other
    fields = tuple(getattr(first, name) for name in COMPOSE_FIELDS)
    assert first != fields and fields != first
    assert not first == fields and not fields == first
    for name in COMPOSE_FIELDS:
        with pytest.raises(FrozenInstanceError):
            delattr(first, name)
    with pytest.raises(FrozenInstanceError):
        first.breakdown = ()
    assert "breakdown" not in vars(first)
    breakdown = first.breakdown
    assert vars(first)["breakdown"] is breakdown is first.breakdown
    assert first == second and hash(first) == hash(second)


def test_compose_without_a_shared_prime_is_exact_and_naive():
    # F is wild at 3 and K wild at 2; their tame primes 5 and 7 differ
    f_rec = _hand_record("f", "S3", "3:w(3),5:t(2.1)")
    k_rec = _hand_record("k", "C2", "2:w(2),7:t(2)")
    result = compose_disc(f_rec, k_rec)
    naive = (3**3 * 5) ** 2 * (2**2 * 7) ** 3
    assert result.exact
    assert result.magnitude == result.naive_magnitude == result.lower_bound == naive
    assert result.unresolved_primes == result.shared == ()
    assert [entry.delta_p for entry in result.breakdown] == [0, 0, 0, 0]
    _assert_matches_oracle(f_rec, k_rec)
    # an override keyed at either wild prime has no shared prime to apply to
    overrides = WildOverrides(
        {(2, 0, 2): 1, (2, 2, 2): 2, (3, 3, 0): 1, (3, 3, 1): 2}
    )
    assert compose_disc(f_rec, k_rec, overrides) == result
    _assert_matches_oracle(f_rec, k_rec, overrides)


def test_fast_built_compose_result_equals_the_public_constructor(bundled):
    # one fixture pair of each kind: no shared prime, shared tame primes only,
    # an unresolved wild overlap, and that overlap resolved by an override
    pairs = list(iter_census_pairs(bundled, 3, C2))
    results = [compose_disc(f_rec, k_rec) for f_rec, k_rec in pairs]
    kinds = (
        lambda r: not r.shared,
        lambda r: r.shared and r.exact,
        lambda r: not r.exact,
    )
    cases = [(*pairs[next(i for i, r in enumerate(results) if kind(r))], None)
             for kind in kinds]
    wild_f, wild_k, _ = cases[-1]
    overrides = WildOverrides({key: 1 for key, _ in _wild_keys(wild_f, wild_k)})
    cases.append((wild_f, wild_k, overrides))
    assert compose_disc(wild_f, wild_k, overrides).exact
    for f_rec, k_rec, ov in cases:
        result = compose_disc(f_rec, k_rec, ov)
        public = ComposeResult(*result)
        assert result == public and hash(result) == hash(public)
        assert type(result) is ComposeResult and ComposeResult._fields == COMPOSE_FIELDS
        assert result.f_record is f_rec and result.k_record is k_rec
        assert "breakdown" not in vars(result)
        _assert_matches_oracle(f_rec, k_rec, ov)


def test_equal_groups_from_different_records_share_one_delta_entry(bundled):
    # the records of one load share their group, so the second, equal group
    # is built by hand: delta's cache is keyed by value, not identity
    parsed, built = bundled.by_group("C2")[0].abelian_group, AbelianGroup((2,))
    assert parsed == built and parsed is not built
    g = CycleType((2, 1))
    delta.cache_clear()
    for group in (parsed, built):
        assert delta(g, group.element_of_order(2)) == 2
    info = delta.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_coverage_power_is_decided_without_building_it():
    from sdxa.census import _coverage_warnings, _root_ceiling

    class Unpowered(int):
        def __pow__(self, power):
            raise AssertionError("the power was built")

    # a power past x's bit length pins the root to 2 with one step, 1 ** power
    assert _root_ceiling(10**7, 10**12) == 2
    assert not Unpowered(2000) < _root_ceiling(10**7, 10**12)
    # the coverage warning's test, coverage < root, is coverage**power < x;
    # power 0 has no least root and is no group order or degree
    for base in range(6):
        for power in range(1, 13):
            for x in range(1, 300):
                assert (base < _root_ceiling(x, power)) == (base**power < x)
    data = load_dataset("#coverage group=S3 maxdisc=2000\n")
    assert _coverage_warnings(data, 3, AbelianGroup((10**12,)), 10**7) == [
        "no coverage assertion for group C1000000000000"
    ]


def test_coverage_root_is_exact_beside_every_perfect_power():
    from sdxa.census import _root_ceiling

    rng = random.Random(3101)
    bases = [*range(2, 1001), *(rng.randrange(2, 10**6 + 1) for _ in range(1000))]
    for power in range(2, 25):
        for c in bases:
            x = c**power
            assert (_root_ceiling(x - 1, power), _root_ceiling(x, power),
                    _root_ceiling(x + 1, power)) == (c, c, c + 1)

