"""Field-record ingestion, pair composition, counting, and uniformity
measurements.

A dataset is a line-oriented text file of field records (degree, group,
discriminant, per-prime local data).  Records for a degree-d field with full
symmetric Galois group compose with records for abelian fields: at every prime
where both ramify tamely, the compositum valuation follows from the two
inertia classes alone; at a shared prime with wild data the discrepancy is
unknowable from the records, so the pair is flagged and segregated unless an
explicit override supplies the value.  Counting functions report exact counts,
flagged residues, and completeness warnings rather than guessing.

The census reads and checks its three input formats: record files
(:func:`load_dataset`), and the JSON wild overrides and uniformity spec
(:func:`parse_wild_overrides`, :func:`parse_uniformity_spec`) through one reader.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache, partial
from typing import Any, Callable, Iterable, Iterator

from .errors import (
    INT_MAX_STR_DIGITS,
    DomainError,
    Frozen,
    InsufficientDataError,
    RecordParseError,
    RecordValidationError,
    cached_property,
    parse_fraction,
    parse_int,
)
from .groups import AbelianGroup, factorize, is_prime
from .indexcalc import delta
from .perms import CycleType, ind

_SYMMETRIC_GROUPS = {"S3": 3, "S4": 4, "S5": 5}
_TAME_RE = re.compile(r"^t\(([0-9.]+)\)$")
_WILD_RE = re.compile(r"^w\(([0-9]+)\)$")
_COVERAGE_RE = re.compile(r"^#coverage\s+group=(\S+)\s+maxdisc=([0-9]+)\s*$")


def _square_class(n: int, primes: Iterable[int]) -> tuple[int, int]:
    """The fundamental discriminant in the square class of ``n`` (see
    :func:`fundamental_discriminant`) and ``rest``, the part of ``n`` prime to
    ``primes``, taken as squarefree: a fundamental ``n`` gets ``n`` back."""
    if n == 0:
        raise DomainError("discriminant must be nonzero")
    core, rest = (1 if n > 0 else -1), abs(n)
    for p in primes:
        e = 0
        while rest % p == 0:
            rest, e = rest // p, e + 1
        core *= p ** (e % 2)
    core *= rest >> ((rest & -rest).bit_length() - 1 & ~1)  # less its square 2-power
    return (core if core % 4 == 1 else 4 * core), rest


def fundamental_discriminant(disc: int) -> int:
    """The fundamental discriminant with the same square class as ``disc``:
    the squarefree kernel when that is 1 mod 4, otherwise 4 times it.

    >>> fundamental_discriminant(-23)
    -23
    >>> fundamental_discriminant(148)
    37
    >>> fundamental_discriminant(8)
    8
    """
    return _square_class(disc, factorize(abs(disc)) if disc else ())[0]


class LocalDatum(Frozen, namedtuple("LocalDatum", "prime tame_class wild_valuation")):
    """Ramification data at one prime: either a tame inertia class or a bare
    wild discriminant valuation."""

    def __new__(cls, prime: int, tame_class: CycleType | None = None,
                wild_valuation: int | None = None) -> LocalDatum:
        if prime < 2:
            raise DomainError(f"prime {prime} is below 2")
        if (tame_class is None) == (wild_valuation is None):
            raise DomainError("exactly one of tame_class/wild_valuation is required")
        if wild_valuation is not None and wild_valuation < 1:
            raise DomainError("a wild datum must carry a positive valuation")
        return super().__new__(cls, prime, tame_class, wild_valuation)

    @property
    def is_tame(self) -> bool:
        return self.tame_class is not None

    @cached_property
    def valuation(self) -> int:
        if self.tame_class is not None:
            return ind(self.tame_class)
        assert self.wild_valuation is not None
        return self.wild_valuation

    def serialize(self) -> str:
        if self.tame_class is not None:
            return f"{self.prime}:t({'.'.join(str(p) for p in self.tame_class.parts)})"
        return f"{self.prime}:w({self.wild_valuation})"


class FieldRecord(Frozen, namedtuple("FieldRecord", "label degree group disc local "
                                      "quad_subfield_discs")):
    """One census entry: a number field described by its degree, Galois
    group label, signed discriminant, local data at every ramified prime,
    and (for abelian records) the fundamental discriminants of its quadratic
    subfields.  The constructor, which ``_replace`` and ``_make`` call, checks
    it and raises :class:`RecordValidationError` on the first problem found."""

    def __new__(cls, label: str, degree: int, group: str, disc: int,
                local: tuple[LocalDatum, ...],
                quad_subfield_discs: tuple[int, ...] = ()) -> FieldRecord:
        record = super().__new__(cls, label, degree, group, disc, local, quad_subfield_discs)
        problem = record._problem()
        if problem is not None:
            raise RecordValidationError(problem, label)
        return record

    @cached_property
    def is_symmetric(self) -> bool:
        """Whether the group is S3, S4 or S5; computed by the constructor's
        check and kept on the record, outside its fields."""
        return self.group in _SYMMETRIC_GROUPS

    @cached_property
    def abelian_group(self) -> AbelianGroup:
        """The parsed abelian group, computed on first access and kept on the
        record; records that name one label share the group
        :func:`_group_of_label` keeps for it."""
        if self.is_symmetric:
            raise DomainError(f"record {self.label!r} is not abelian")
        return _group_of_label(self.group)

    @property
    def ramified_primes(self) -> tuple[int, ...]:
        return tuple(datum.prime for datum in self.local)

    @cached_property
    def local_by_prime(self) -> dict[int, LocalDatum]:
        """The local data keyed by prime, built on first access."""
        return {datum.prime: datum for datum in self.local}

    @cached_property
    def fundamental_disc(self) -> int:
        """The square class of ``disc`` from the record's own primes, on first
        access; the constructor has checked that they are prime and cover it."""
        return _square_class(self.disc, self.ramified_primes)[0]

    def _problem(self) -> str | None:
        """The first thing wrong with the record, or None: the group checks,
        then sorted and distinct primes, then each datum, then the quadratic
        subfields (against primes the datum checks have proven prime), then
        the product."""
        degree = self.degree
        group = None if self.is_symmetric else self.abelian_group
        if group is None:
            if degree != _SYMMETRIC_GROUPS[self.group]:
                return f"degree {degree} does not match group {self.group}"
            if self.quad_subfield_discs:
                return "quadratic-subfield field is reserved for abelian records"
        elif group.order != degree:
            return f"degree {degree} does not match group order {group.order}"
        previous = product = 1
        for datum in self.local:
            if datum.prime <= previous:
                return "ramified primes must be distinct and sorted"
            previous = datum.prime
        # Primes prime to the Galois closure's order carry tame inertia classes.
        modulus = math.factorial(degree) if group is None else group.order
        for datum in self.local:
            tame, prime = datum.tame_class, datum.prime
            if tame is None:
                if modulus % prime != 0:
                    return (
                        f"wild datum at {prime}, a prime coprime to the closure "
                        f"modulus {modulus}; expected a tame class"
                    )
            elif math.gcd(prime, modulus) != 1:
                return (
                    f"tame datum at {prime} but the prime divides the closure modulus "
                    f"{modulus}; such primes carry only wild valuations"
                )
            elif tame.degree != degree:
                return f"inertia class at {prime} has degree {tame.degree}, record degree {degree}"
            elif tame.is_identity():
                return (
                    f"inertia class at {prime} is trivial; unramified primes must not "
                    "be listed"
                )
            elif group is not None and (
                len(set(tame.parts)) != 1 or group.exponent % tame.parts[0]
            ):
                return f"inertia class at {prime} is not the regular type of a group element"
            try:
                if not is_prime(prime):
                    return f"local datum at {prime}, which is not prime"
            except DomainError as exc:
                return f"local datum at {prime}: {exc}"
            product *= prime ** datum.valuation
        for q in self.quad_subfield_discs:
            fundamental, rest = _square_class(q, self.ramified_primes) if q else (0, 1)
            if q in (0, 1) or fundamental != q:
                return f"{q} is not a fundamental discriminant"
            if rest != 1:
                return f"{q} ramifies outside the record's primes"
        if product != abs(self.disc):
            return f"local data product {product} != |disc| = {abs(self.disc)}"
        return None

    def serialize(self) -> str:
        local_field = ",".join(datum.serialize() for datum in self.local)
        quad_field = ",".join(str(q) for q in self.quad_subfield_discs)
        return (
            f"{self.label};{self.degree};{self.group};{self.disc};"
            f"{local_field};{quad_field}"
        )


class Dataset(Frozen, namedtuple("Dataset", "records headers", defaults=((),))):
    """An immutable collection of validated field records plus the header
    lines (including coverage assertions) of the file they came from."""

    records: tuple[FieldRecord, ...]
    headers: tuple[str, ...]  # default ()

    @cached_property
    def coverage(self) -> dict[str, int]:
        return dict(entry for entry in map(_coverage_entry, self.headers) if entry)

    def group_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.group] = counts.get(record.group, 0) + 1
        return counts

    def by_group(self, group: str) -> list[FieldRecord]:
        return [r for r in self.records if r.group == group]

    def abelian_records(self, group: AbelianGroup) -> list[FieldRecord]:
        return [
            r
            for r in self.records
            if not r.is_symmetric and r.abelian_group == group
        ]

    def get(self, label: str) -> FieldRecord:
        for record in self.records:
            if record.label == label:
                return record
        raise DomainError(f"no record labelled {label!r}")


def _coverage_entry(header: str, line_number: int | None = None) -> tuple[str, int] | None:
    """The (group label, maxdisc) a ``#coverage`` header asserts, None for another header;
    :class:`RecordParseError` at ``line_number`` if it is malformed or its bound
    is not ASCII digits."""
    if header.split()[0] != "#coverage":
        return None
    error = partial(RecordParseError, line_number=line_number)
    match = _COVERAGE_RE.match(header)
    if not match:
        raise error(f"malformed coverage header: {header!r:.200}")
    label = match.group(1)
    with suppress(DomainError):  # as the census spells its group (C2xC3 is C6), if any
        label = label if label in _SYMMETRIC_GROUPS else _group_of_label(label).label()
    return label, parse_int(match.group(2), error, field="maxdisc")


@lru_cache(maxsize=1024)
def _group_of_label(label: str) -> AbelianGroup:
    """The group a label spells, one object per label for the process, shared by the
    records and coverage headers that name it: ``element_of_order`` keys match by identity."""
    return AbelianGroup.from_label(label)


def _cycle_parts(text: str, message: str | None = None,
                 field: str | None = None) -> tuple[int, ...]:
    """The parts of a dotted cycle type such as ``"2.1"``, each read by :func:`parse_int`."""
    return tuple(parse_int(part, ValueError, message, field) for part in text.split("."))


@lru_cache(maxsize=1024)
def _parse_inertia(text: str) -> tuple[CycleType | None, int | None] | None:
    """The (tame class, wild valuation) a ``t(...)``/``w(...)`` text spells, None
    for other text; a bad class or valuation raises :class:`DomainError` or a
    ``ValueError`` that names the fault, not the text.  Memoised, so a cold load
    builds one class per text (3 on the fixture), which ``delta``'s cache finds by
    identity."""
    tame = _TAME_RE.match(text)
    if tame:
        return CycleType(_cycle_parts(tame.group(1), message="bad cycle lengths")), None
    wild = _WILD_RE.match(text)
    return (None, parse_int(wild.group(1), message="bad wild valuation")) if wild else None


def _parse_datum(chunk: str) -> LocalDatum:
    """The local datum one ``prime:t(...)``/``prime:w(...)`` chunk spells, else
    :class:`RecordParseError`: the prime is read first, then the text by
    :func:`_parse_inertia`.  Not memoised: :func:`_record` keeps each line's data."""
    prime_text, _, type_text = chunk.partition(":")
    prime = parse_int(prime_text, RecordParseError, f"bad prime in local datum {chunk!r}")
    try:
        inertia = _parse_inertia(type_text)
        if inertia is not None:
            return LocalDatum(prime, *inertia)
    except DomainError as exc:  # a ValueError too, so caught first
        raise RecordParseError(f"bad local datum {chunk!r}: {exc}") from None
    except ValueError as exc:
        raise RecordParseError(f"{exc} in {chunk!r}") from None
    raise RecordParseError(f"local datum {chunk!r} is neither t(...) nor w(...)")


@lru_cache(maxsize=1024)
def _record(line: str) -> FieldRecord:
    """The checked record a line spells, one object per line for the process;
    :class:`RecordParseError` here carries no line number, and no error is cached."""
    fields = line.split(";")
    if len(fields) != 6:
        raise RecordParseError(f"expected 6 ';'-separated fields, got {len(fields)}")
    label, degree_text, group, disc_text, local_text, quad_text = fields
    if not label:
        raise RecordParseError("empty label")
    message = f"degree/disc must be integers: {degree_text!r}, {disc_text!r}"
    degree = parse_int(degree_text, RecordParseError, message, "degree")
    disc = parse_int(disc_text, RecordParseError, message, "disc")
    if disc == 0:
        raise RecordParseError("discriminant must be nonzero")
    local = tuple(map(_parse_datum, local_text.split(","))) if local_text else ()
    quads: tuple[int, ...] = ()
    if quad_text:
        message = f"quadratic-subfield discriminants must be integers: {quad_text!r}"
        quads = tuple(parse_int(q, RecordParseError, message) for q in quad_text.split(","))
    if group not in _SYMMETRIC_GROUPS:
        try:
            _group_of_label(group)
        except DomainError:
            raise RecordParseError(f"unknown group label {group!r}") from None
    return FieldRecord(label, degree, group, disc, local, quads)


def parse_record(line: str, line_number: int | None = None) -> FieldRecord:
    """Parse one record line: :class:`RecordParseError` with the line number if it is
    malformed, and :class:`RecordValidationError` from the record's constructor if it
    is inconsistent.  A line the process has read before is not read again."""
    try:
        return _record(line)
    except RecordParseError as exc:
        raise RecordParseError(str(exc), line_number) from None


def load_dataset(text: str) -> Dataset:
    """Parse a whole record file (text content), one :func:`parse_record` per
    record line.  The memos of lines, inertia texts and group labels are shared by
    every load of the process: a record is immutable, each value is a function of
    its key alone and none holds a line number (:func:`parse_record` adds it), so
    it means the same in any file; an error is never cached."""
    headers: list[str] = []
    records: list[FieldRecord] = []
    labels: set[str] = set()
    first_lines: dict[str, int] = {}  # the coverage header line of each group
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            entry = _coverage_entry(line, line_number)
            if entry and first_lines.setdefault(entry[0], line_number) != line_number:
                raise RecordParseError(
                    f"duplicate coverage header for group {entry[0]}", line_number)
            headers.append(line)
            continue
        record = parse_record(line, line_number)
        if record.label in labels:
            raise RecordValidationError("duplicate label", record.label)
        labels.add(record.label)
        records.append(record)
    return Dataset(records=tuple(records), headers=tuple(headers))


def read_text(path: str) -> str:
    """The content of a UTF-8 text file; :class:`DomainError` if it is not."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def ingest(path: str) -> Dataset:
    """Load and validate a record file from disk."""
    return load_dataset(read_text(path))


def dump_dataset(dataset: Dataset) -> str:
    """Serialize a dataset back to the file format (headers preserved)."""
    lines = list(dataset.headers) + [r.serialize() for r in dataset.records]
    return "\n".join(lines) + "\n"


# Discrepancies at wild-overlap primes, keyed by the only data the records carry
# there: (prime, valuation in the degree-d field, valuation in the abelian field).
WildOverrides = dict[tuple[int, int, int], int]


def _integer(entry: Any, key: str) -> int:
    """``entry[key]``, a JSON value that must be an integer: a string is read by
    :func:`parse_int`, and a boolean or a number with a fractional part is
    refused, not truncated."""
    value = entry[key]
    if isinstance(value, str):
        return parse_int(value, field=key)
    number = int(value)
    if isinstance(value, bool) or isinstance(value, float) and number != value:
        raise ValueError(f"{json.dumps(value)} is not an integer")
    return number


def _rational(value: Any) -> Fraction | None:
    """A JSON exponent: null, text for :func:`parse_fraction`, or a number read as it prints."""
    if isinstance(value, str):
        return parse_fraction(value)
    return None if value is None else Fraction(str(value))


def _read_json(text: str, lacks: str, malformed: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the JSON document ``text``; a missing key is reported as
    "``lacks`` lacks the key ...", any other bad value as "malformed ``malformed``"."""
    try:
        return parse(json.loads(text, parse_int=partial(parse_int, field="an integer")))
    except KeyError as exc:
        raise DomainError(f"{lacks} lacks the key {exc}") from None
    except (ArithmeticError, AttributeError, RecursionError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed {malformed}: {exc}") from None


def parse_wild_overrides(text: str) -> WildOverrides:
    """The wild overrides a JSON text lists, ``{"overrides": [{"p": .., "f_val":
    .., "k_val": .., "delta": ..}, ...]}``, keyed by ``(p, f_val, k_val)``."""
    table = _read_json(text, "wild override entry", "wild overrides", lambda doc: {
        (_integer(entry, "p"), _integer(entry, "f_val"), _integer(entry, "k_val")):
        _integer(entry, "delta")
        for entry in doc.get("overrides", [])
    })
    if any(value < 0 for value in table.values()):
        raise DomainError("override discrepancies must be non-negative")
    return table


class PrimeBreakdown(Frozen, namedtuple("PrimeBreakdown", "prime v_f v_k delta_p v_fk")):
    """Per-prime composition detail: the two input valuations, the
    discrepancy applied (None when unresolved), and the output valuation."""

    prime: int
    v_f: int
    v_k: int
    delta_p: int | None
    v_fk: int


class ComposeResult(Frozen, namedtuple("ComposeResult", "magnitude naive_magnitude "
                                        "lower_bound unresolved_primes shared f_record k_record")):
    """Composed discriminant magnitude for one (F, K) pair.

    ``magnitude`` applies every resolved discrepancy and zero at unresolved
    wild overlaps; when ``unresolved_primes`` is empty the value is exact and
    equals the compositum discriminant magnitude.  ``naive_magnitude`` applies
    no discrepancy anywhere; ``lower_bound`` uses the largest discrepancy any
    prime can carry, so the true magnitude always lies in
    [lower_bound, naive_magnitude].  ``shared`` holds ``(prime, delta_p)`` at
    each prime where both records ramify, the only primes with a discrepancy;
    ``breakdown`` is derived from it and the two records on first access.
    """

    magnitude: int
    naive_magnitude: int
    lower_bound: int
    unresolved_primes: tuple[int, ...]
    shared: tuple[tuple[int, int | None], ...]
    f_record: FieldRecord
    k_record: FieldRecord

    @property
    def exact(self) -> bool:
        return not self.unresolved_primes

    @cached_property
    def breakdown(self) -> tuple[PrimeBreakdown, ...]:
        """Per-prime detail over every prime ramified in F or K, ascending."""
        d, order = self.f_record.degree, self.k_record.abelian_group.order
        f_local, k_local = self.f_record.local_by_prime, self.k_record.local_by_prime
        deltas = dict(self.shared)
        entries = []
        for p in sorted(f_local.keys() | k_local.keys()):
            v_f = f_local[p].valuation if p in f_local else 0
            v_k = k_local[p].valuation if p in k_local else 0
            delta_p = deltas.get(p, 0)
            v_fk = order * v_f + d * v_k - (delta_p or 0)
            entries.append(PrimeBreakdown(p, v_f, v_k, delta_p, v_fk))
        return tuple(entries)


def compose_disc(
    f_record: FieldRecord,
    k_record: FieldRecord,
    overrides: WildOverrides | None = None,
) -> ComposeResult:
    """Compose a full-symmetric degree-d record with an abelian record.

    The magnitude is ``|D_F|^|A| * |D_K|^d / prod p^delta_p`` over the primes
    where both records ramify; at a shared tame-tame prime the
    discrepancy follows from the two inertia classes, and at a shared prime
    with wild data it is taken from ``overrides`` or the prime is reported
    unresolved.  Shared primes come out ascending: the walk follows
    ``f_record.local``, which its constructor keeps sorted and distinct.  A pair
    that shares no ramified prime skips the walk: a discrepancy, an unresolved
    prime and an overlap arise only where both records ramify, so it has
    ``magnitude == naive_magnitude == lower_bound`` and nothing unresolved.
    """
    if not f_record.is_symmetric:
        raise DomainError(
            f"record {f_record.label!r} must have a full symmetric group"
        )
    if k_record.is_symmetric:
        raise DomainError(f"record {k_record.label!r} must be abelian")
    d, group = f_record.degree, k_record.abelian_group
    order = group.order
    k_local = k_record.local_by_prime
    naive = abs(f_record.disc) ** order * abs(k_record.disc) ** d
    if k_local.keys().isdisjoint(f_record.local_by_prime):
        return tuple.__new__(ComposeResult, (naive, naive, naive, (), (), f_record, k_record))
    discrepancy = overlap = 1
    unresolved: list[int] = []
    shared: list[tuple[int, int | None]] = []
    for f_datum in f_record.local:
        p = f_datum.prime
        k_datum = k_local.get(p)
        if k_datum is None:
            continue
        v_f, v_k = f_datum.valuation, k_datum.valuation
        delta_p: int | None
        if f_datum.tame_class is not None and k_datum.tame_class is not None:
            h = group.element_of_order(k_datum.tame_class.parts[0])
            delta_p = delta(f_datum.tame_class, h)
        else:
            delta_p = overrides.get((p, v_f, v_k)) if overrides else None
            if delta_p is None:
                unresolved.append(p)
            elif delta_p > min(order * v_f, d * v_k):
                raise DomainError(
                    f"override discrepancy {delta_p} at prime {p} exceeds "
                    f"the bound min({order * v_f}, {d * v_k})"
                )
        shared.append((p, delta_p))
        discrepancy *= p ** (delta_p or 0)
        overlap *= p ** min(order * v_f, d * v_k)
    return tuple.__new__(ComposeResult, (
        naive // discrepancy,
        naive,
        naive // overlap,
        tuple(unresolved),
        tuple(shared),
        f_record,
        k_record,
    ))


def linearly_disjoint(f_record: FieldRecord, k_record: FieldRecord) -> bool:
    """Whether the Galois closures share no subfield: automatic for an
    odd-order abelian side (the only candidate common subfield is quadratic),
    otherwise decided by comparing the quadratic resolvent of the degree-d
    field against the abelian field's quadratic subfields.

    Raises :class:`InsufficientDataError` for an even-order abelian record
    with no recorded quadratic subfields — an even-order group always has at
    least one, so an empty list is missing data, not a negative answer.
    """
    if k_record.is_symmetric:
        raise DomainError("second record must be abelian")
    group = k_record.abelian_group
    if group.order % 2 == 1:
        return True
    if not k_record.quad_subfield_discs:
        raise InsufficientDataError(
            f"record {k_record.label!r} has even order but no quadratic-subfield "
            "discriminants; cannot decide disjointness"
        )
    return f_record.fundamental_disc not in k_record.quad_subfield_discs


class CensusResult(Frozen, namedtuple("CensusResult", "x count flagged_wild_pairs "
                                       "fit_constant warnings y", defaults=((), None))):
    """Outcome of a census count: the exact count over resolved pairs, the
    number of flagged pairs whose unresolved wild overlap leaves their
    membership uncertain (the true count lies in
    [count, count + flagged_wild_pairs]), the crude fit constant
    count / X^(1/|A|), and completeness warnings."""

    x: int
    count: int
    flagged_wild_pairs: int
    fit_constant: float
    warnings: tuple[str, ...]  # default ()
    y: int | None  # default None


def missing_coverage(dataset: Dataset, label: str) -> list[str]:
    """The warning, if any, that no coverage header names group ``label``."""
    if label in dataset.coverage:
        return []
    return [f"no coverage assertion for group {label}"]


def product_order(d: int, group: AbelianGroup) -> int:
    """|A| * d!, the order of S_d x A and the census's wild modulus.  DomainError
    if Python prints no int that long (``sys.get_int_max_str_digits()``, 0 for
    no limit, else >= 640); as d! > 10^d for d >= 25, a d past it skips d!."""
    limit = INT_MAX_STR_DIGITS
    order = None if limit and d > limit else group.order * math.factorial(d)
    if order is None or limit and order >= 10**limit:
        raise DomainError(f"|S{d} x {group.label()}| = |A| * d! has over {limit} digits")
    return order


def _root_ceiling(x: int, power: int) -> int:
    """The least integer r with ``r ** power >= x`` (x >= 0, power >= 1), bisected in
    [2**(e - 1), 2**e], e = ceil(x.bit_length() / power), so no power tops x * 2**power."""
    high = 1 << -(-x.bit_length() // power)
    low = high >> 1
    while low < high:
        mid = (low + high) // 2
        low, high = (mid + 1, high) if mid**power < x else (low, mid)
    return low


Pair = tuple[FieldRecord, FieldRecord]


def _coverage_warnings(
    dataset: Dataset, d: int, group: AbelianGroup, x: int
) -> list[str]:
    warnings: list[str] = []
    coverage = dataset.coverage
    f_label, k_label = f"S{d}", group.label()
    for label, power in ((f_label, group.order), (k_label, d)):
        warnings += missing_coverage(dataset, label)
        if label in coverage and coverage[label] < (needed := _root_ceiling(x, power)):
            warnings.append(
                f"X = {x} needs {label} records up to "
                f"|disc| = {needed}, coverage asserts only "
                f"{coverage[label]}"
            )
    return warnings


def iter_census_pairs(dataset: Dataset, d: int, group: AbelianGroup) -> Iterator[Pair]:
    """The linearly disjoint (F, K) candidate pairs of the census, one at a time."""
    k_records = dataset.abelian_records(group)
    for f_record in dataset.by_group(f"S{d}"):
        for k_record in k_records:
            if linearly_disjoint(f_record, k_record):
                yield f_record, k_record


def _count(
    dataset: Dataset,
    d: int,
    group: AbelianGroup,
    x: int,
    y: int | None,
    overrides: WildOverrides | None,
) -> CensusResult:
    """The pair loop behind :func:`count_N` and :func:`count_N_truncated`:
    exact pairs are counted by their composed magnitude, or by their
    :func:`truncated_magnitude` when a prime cutoff ``y`` is given.  An x
    past the float range has no fit constant and raises DomainError."""
    if d < 3:
        raise DomainError("the product model requires d >= 3")
    if x < 1:
        raise DomainError("x must be a positive integer")
    # d! >= 2^(d-1) > y once d > y.bit_length(), so no d! is built to reach y.
    if y is not None and (d > y.bit_length() or y <= group.order * math.factorial(d)):
        raise DomainError(f"cutoff y = {y} must exceed the wild modulus |A| * d! = "
                          f"{product_order(d, group)}")
    try:
        scale = x ** (1 / group.order)
    except OverflowError:
        raise DomainError("x is beyond the float range") from None
    count = flagged = 0
    for f_record, k_record in iter_census_pairs(dataset, d, group):
        result = compose_disc(f_record, k_record, overrides)
        if result.unresolved_primes:
            flagged += result.lower_bound < x
        elif y is None or not result.shared:
            count += result.magnitude < x
        else:
            count += truncated_magnitude(result, group.order, d, y) < x
    return CensusResult(
        x=x,
        count=count,
        flagged_wild_pairs=flagged,
        fit_constant=count / scale,
        warnings=tuple(_coverage_warnings(dataset, d, group, x)),
        y=y,
    )


def count_N(
    dataset: Dataset,
    d: int,
    group: AbelianGroup,
    x: int,
    overrides: WildOverrides | None = None,
) -> CensusResult:
    """Count disjoint pairs whose composed discriminant magnitude is < x.

    Pairs with an unresolved wild overlap are never silently included or
    dropped: they are excluded from ``count`` and reported in
    ``flagged_wild_pairs`` whenever their magnitude bracket straddles x.
    """
    return _count(dataset, d, group, x, None, overrides)


def truncated_magnitude(result: ComposeResult, order: int, d: int, y: int) -> int:
    """Discriminant magnitude with the true valuation below the cutoff and
    the naive product valuation above it; unresolved primes (all below any
    admissible cutoff) contribute their naive valuation.  Only shared primes
    carry a discrepancy, so this is ``magnitude`` times ``p^delta_p`` at each
    shared prime above ``y``; ``order`` and ``d`` stay for existing callers."""
    magnitude = result.magnitude
    for p, delta_p in result.shared:
        if p > y and delta_p:
            magnitude *= p**delta_p
    return magnitude


def count_N_truncated(
    dataset: Dataset,
    d: int,
    group: AbelianGroup,
    x: int,
    y: int,
    overrides: WildOverrides | None = None,
) -> CensusResult:
    """Count pairs under the truncated discriminant: exact composition at
    primes <= y, the naive product above.  Requires y above the wild modulus
    |A| * d!, so every potentially wild prime lies below the cutoff."""
    return _count(dataset, d, group, x, y, overrides)


class UniformityBin(Frozen, namedtuple("UniformityBin", "classes q exponent")):
    """One dyadic constraint: primes carrying any of ``classes`` must appear
    with squarefree product in [q, 2q); ``exponent`` is an optional comparison
    exponent for the reported ratio."""

    def __new__(cls, classes: frozenset[CycleType], q: int,
                exponent: Fraction | None = None) -> UniformityBin:
        if q < 1:
            raise DomainError("dyadic base must be >= 1")
        if not classes:
            raise DomainError("a bin needs at least one inertia class")
        return super().__new__(cls, classes, q, exponent)


def parse_uniformity_spec(text: str) -> list[UniformityBin]:
    """The bins a JSON text lists, ``{"bins": [{"classes": ["3", "2.1"], "q": ..,
    "exponent": "-1/2"}, ...]}``; the exponent is optional."""
    entries = _read_json(text, "uniformity spec", "uniformity spec", lambda doc: [
        ([_cycle_parts(cls, field="a class") for cls in entry["classes"]],
         _integer(entry, "q"),
         _rational(entry.get("exponent")))
        for entry in doc["bins"]
    ])
    return [
        UniformityBin(frozenset(CycleType(parts) for parts in classes), q, exponent)
        for classes, q, exponent in entries
    ]


class UniformityRow(Frozen, namedtuple("UniformityRow", "x count ratio")):
    x: int
    count: int
    ratio: float | None


def _subset_products_in_range(primes: list[int], low: int, high: int) -> int:
    """Number of subsets of ``primes`` whose product lies in [low, high)."""

    def walk(index: int, product: int) -> int:
        if product >= high:
            return 0
        total = 1 if product >= low else 0
        for next_index in range(index, len(primes)):
            total += walk(next_index + 1, product * primes[next_index])
        return total

    return walk(0, 1)


def measure_uniformity(
    dataset: Dataset,
    d: int,
    bins: list[UniformityBin],
    x_values: list[int],
) -> list[UniformityRow]:
    """For each cutoff x, the number of (field, prime-tuple) configurations:
    fields with |disc| < x weighted by the number of ways to pick, for every
    bin, a squarefree product of that bin's designated tame primes inside the
    bin's dyadic range.  When every bin carries an exponent the ratio against
    x * prod(q^exponent) is reported alongside.  An x below 1, or a
    comparator outside the float range, raises DomainError, as does d < 3.
    """
    if d < 3:
        raise DomainError("the product model requires d >= 3")
    seen: set[CycleType] = set()
    for item in bins:
        if item.classes & seen:
            raise DomainError("bins must use pairwise disjoint class sets")
        seen |= item.classes
        for ct in item.classes:
            if ct.degree != d:
                raise DomainError(f"class {ct} has degree {ct.degree}, expected {d}")
    if min(x_values, default=1) < 1:
        raise DomainError("x must be a positive integer")
    top = max(x_values, default=0)
    weighted: list[tuple[int, int]] = []  # (|disc|, weight) of each field below top
    for record in dataset.by_group(f"S{d}"):
        if abs(record.disc) >= top:
            continue
        weight = 1
        for item in bins:
            primes = [datum.prime for datum in record.local
                      if datum.tame_class in item.classes]
            weight *= _subset_products_in_range(primes, item.q, 2 * item.q)
            if weight == 0:
                break
        weighted.append((abs(record.disc), weight))
    rows: list[UniformityRow] = []
    for x in sorted(x_values):
        total = sum(weight for disc, weight in weighted if disc < x)
        ratio: float | None = None
        if all(item.exponent is not None for item in bins):
            try:
                comparator = float(x)
                for item in bins:
                    comparator *= float(item.q) ** float(item.exponent)  # type: ignore[arg-type]
            except OverflowError:
                comparator = math.inf
            if not 0 < comparator < math.inf:
                raise DomainError(f"the comparator leaves the float range at x = {x}")
            ratio = total / comparator
        rows.append(UniformityRow(x=x, count=total, ratio=ratio))
    return rows
