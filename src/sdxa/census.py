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
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    DomainError,
    InsufficientDataError,
    RecordParseError,
    RecordValidationError,
)
from .groups import AbelianElement, AbelianGroup, element_order, factorize
from .indexcalc import delta
from .perms import CycleType, ind

_SYMMETRIC_GROUPS = {"S3": 3, "S4": 4, "S5": 5}
_TAME_RE = re.compile(r"^t\(([\d.]+)\)$")
_WILD_RE = re.compile(r"^w\((\d+)\)$")
_COVERAGE_RE = re.compile(r"^#coverage\s+group=(\S+)\s+maxdisc=(\d+)\s*$")


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
    if disc == 0:
        raise DomainError("discriminant must be nonzero")
    sign = 1 if disc > 0 else -1
    core = 1
    for p, e in factorize(abs(disc)).items():
        if e % 2:
            core *= p
    core *= sign
    return core if core % 4 == 1 else 4 * core


@dataclass(frozen=True)
class LocalDatum:
    """Ramification data at one prime: either a tame inertia class or a bare
    wild discriminant valuation."""

    prime: int
    tame_class: CycleType | None = None
    wild_valuation: int | None = None

    def __post_init__(self) -> None:
        if (self.tame_class is None) == (self.wild_valuation is None):
            raise DomainError("exactly one of tame_class/wild_valuation is required")
        if self.wild_valuation is not None and self.wild_valuation < 1:
            raise DomainError("a wild datum must carry a positive valuation")

    @property
    def is_tame(self) -> bool:
        return self.tame_class is not None

    @property
    def valuation(self) -> int:
        if self.tame_class is not None:
            return ind(self.tame_class)
        assert self.wild_valuation is not None
        return self.wild_valuation

    def serialize(self) -> str:
        if self.tame_class is not None:
            return f"{self.prime}:t({'.'.join(str(p) for p in self.tame_class.parts)})"
        return f"{self.prime}:w({self.wild_valuation})"


@dataclass(frozen=True)
class FieldRecord:
    """One census entry: a number field described by its degree, Galois
    group label, signed discriminant, local data at every ramified prime,
    and (for abelian records) the fundamental discriminants of its quadratic
    subfields."""

    label: str
    degree: int
    group: str
    disc: int
    local: tuple[LocalDatum, ...]
    quad_subfield_discs: tuple[int, ...] = ()

    @property
    def is_symmetric(self) -> bool:
        return self.group in _SYMMETRIC_GROUPS

    @cached_property
    def abelian_group(self) -> AbelianGroup:
        """The parsed abelian group, computed on first access and kept on the
        record."""
        if self.is_symmetric:
            raise DomainError(f"record {self.label!r} is not abelian")
        return AbelianGroup.from_label(self.group)

    @property
    def closure_modulus(self) -> int:
        """Primes coprime to this carry honest tame inertia classes: the
        Galois closure's order (d! for full symmetric records, the group
        order for abelian ones)."""
        if self.is_symmetric:
            return math.factorial(self.degree)
        return self.abelian_group.order

    @property
    def ramified_primes(self) -> tuple[int, ...]:
        return tuple(datum.prime for datum in self.local)

    def local_at(self, prime: int) -> LocalDatum | None:
        for datum in self.local:
            if datum.prime == prime:
                return datum
        return None

    def validate(self) -> None:
        if self.is_symmetric:
            if self.degree != _SYMMETRIC_GROUPS[self.group]:
                raise RecordValidationError(
                    f"degree {self.degree} does not match group {self.group}",
                    self.label,
                )
            if self.quad_subfield_discs:
                raise RecordValidationError(
                    "quadratic-subfield field is reserved for abelian records",
                    self.label,
                )
        else:
            group = self.abelian_group
            if group.order != self.degree:
                raise RecordValidationError(
                    f"degree {self.degree} does not match group order {group.order}",
                    self.label,
                )
            for q in self.quad_subfield_discs:
                if q in (0, 1) or fundamental_discriminant(q) != q:
                    raise RecordValidationError(
                        f"{q} is not a fundamental discriminant", self.label
                    )
        primes = self.ramified_primes
        if list(primes) != sorted(set(primes)):
            raise RecordValidationError(
                "ramified primes must be distinct and sorted", self.label
            )
        modulus = self.closure_modulus
        for datum in self.local:
            if datum.is_tame:
                assert datum.tame_class is not None
                if math.gcd(datum.prime, modulus) != 1:
                    raise RecordValidationError(
                        f"tame datum at {datum.prime} but the prime divides the "
                        f"closure modulus {modulus}; such primes carry only "
                        "wild valuations",
                        self.label,
                    )
                if datum.tame_class.degree != self.degree:
                    raise RecordValidationError(
                        f"inertia class at {datum.prime} has degree "
                        f"{datum.tame_class.degree}, record degree {self.degree}",
                        self.label,
                    )
                if datum.tame_class.is_identity():
                    raise RecordValidationError(
                        f"inertia class at {datum.prime} is trivial; unramified "
                        "primes must not be listed",
                        self.label,
                    )
                if not self.is_symmetric:
                    parts = datum.tame_class.parts
                    if len(set(parts)) != 1 or self.abelian_group.exponent % parts[0]:
                        raise RecordValidationError(
                            f"inertia class at {datum.prime} is not the regular "
                            "type of a group element",
                            self.label,
                        )
            else:
                if modulus % datum.prime != 0:
                    raise RecordValidationError(
                        f"wild datum at {datum.prime}, a prime coprime to the "
                        f"closure modulus {modulus}; expected a tame class",
                        self.label,
                    )
        product = 1
        for datum in self.local:
            product *= datum.prime ** datum.valuation
        if product != abs(self.disc):
            raise RecordValidationError(
                f"local data product {product} != |disc| = {abs(self.disc)}",
                self.label,
            )

    def serialize(self) -> str:
        local_field = ",".join(datum.serialize() for datum in self.local)
        quad_field = ",".join(str(q) for q in self.quad_subfield_discs)
        return (
            f"{self.label};{self.degree};{self.group};{self.disc};"
            f"{local_field};{quad_field}"
        )


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of validated field records plus the header
    lines (including coverage assertions) of the file they came from."""

    records: tuple[FieldRecord, ...]
    headers: tuple[str, ...] = ()

    @property
    def coverage(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for line in self.headers:
            match = _COVERAGE_RE.match(line)
            if match:
                out[match.group(1)] = int(match.group(2))
        return out

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


def parse_record(line: str, line_number: int | None = None) -> FieldRecord:
    """Parse one record line; raises :class:`RecordParseError` with the line
    number on malformed input."""
    fields = line.split(";")
    if len(fields) != 6:
        raise RecordParseError(
            f"expected 6 ';'-separated fields, got {len(fields)}", line_number
        )
    label, degree_text, group, disc_text, local_text, quad_text = fields
    if not label:
        raise RecordParseError("empty label", line_number)
    try:
        degree = int(degree_text)
        disc = int(disc_text)
    except ValueError:
        raise RecordParseError(
            f"degree/disc must be integers: {degree_text!r}, {disc_text!r}",
            line_number,
        ) from None
    if disc == 0:
        raise RecordParseError("discriminant must be nonzero", line_number)
    local: list[LocalDatum] = []
    if local_text:
        for chunk in local_text.split(","):
            prime_text, _, type_text = chunk.partition(":")
            try:
                prime = int(prime_text)
            except ValueError:
                raise RecordParseError(
                    f"bad prime in local datum {chunk!r}", line_number
                ) from None
            tame = _TAME_RE.match(type_text)
            wild = _WILD_RE.match(type_text)
            if tame:
                try:
                    parts = tuple(int(p) for p in tame.group(1).split("."))
                except ValueError:
                    raise RecordParseError(
                        f"bad cycle lengths in {chunk!r}", line_number
                    ) from None
                local.append(LocalDatum(prime, tame_class=CycleType(parts)))
            elif wild:
                local.append(LocalDatum(prime, wild_valuation=int(wild.group(1))))
            else:
                raise RecordParseError(
                    f"local datum {chunk!r} is neither t(...) nor w(...)",
                    line_number,
                )
    quads = tuple(int(q) for q in quad_text.split(",")) if quad_text else ()
    record = FieldRecord(
        label=label,
        degree=degree,
        group=group,
        disc=disc,
        local=tuple(local),
        quad_subfield_discs=quads,
    )
    if not record.is_symmetric:
        try:
            record.abelian_group
        except DomainError:
            raise RecordParseError(
                f"unknown group label {group!r}", line_number
            ) from None
    record.validate()
    return record


def load_dataset(text: str) -> Dataset:
    """Parse a whole record file (text content)."""
    headers: list[str] = []
    records: list[FieldRecord] = []
    labels: set[str] = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            headers.append(line)
            continue
        record = parse_record(line, line_number)
        if record.label in labels:
            raise RecordValidationError("duplicate label", record.label)
        labels.add(record.label)
        records.append(record)
    return Dataset(records=tuple(records), headers=tuple(headers))


def ingest(path: str) -> Dataset:
    """Load and validate a record file from disk."""
    with open(path, encoding="utf-8") as handle:
        return load_dataset(handle.read())


def dump_dataset(dataset: Dataset) -> str:
    """Serialize a dataset back to the file format (headers preserved)."""
    lines = list(dataset.headers) + [r.serialize() for r in dataset.records]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WildOverrides:
    """Discrepancy values for wild-overlap primes, keyed by the only data the
    records carry there: (prime, valuation in the degree-d field, valuation
    in the abelian field)."""

    table: dict[tuple[int, int, int], int] = field(default_factory=dict)

    @staticmethod
    def from_json(text: str) -> "WildOverrides":
        table: dict[tuple[int, int, int], int] = {}
        try:
            for entry in json.loads(text).get("overrides", []):
                key = (int(entry["p"]), int(entry["f_val"]), int(entry["k_val"]))
                table[key] = int(entry["delta"])
        except KeyError as exc:
            raise DomainError(f"wild override entry lacks the key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed wild overrides: {exc}") from None
        if any(value < 0 for value in table.values()):
            raise DomainError("override discrepancies must be non-negative")
        return WildOverrides(table)

    @staticmethod
    def load(path: str) -> "WildOverrides":
        with open(path, encoding="utf-8") as handle:
            return WildOverrides.from_json(handle.read())

    def lookup(self, prime: int, f_val: int, k_val: int) -> int | None:
        return self.table.get((prime, f_val, k_val))


@dataclass(frozen=True)
class PrimeBreakdown:
    """Per-prime composition detail: the two input valuations, the
    discrepancy applied (None when unresolved), and the output valuation."""

    prime: int
    v_f: int
    v_k: int
    delta_p: int | None
    v_fk: int


@dataclass(frozen=True)
class ComposeResult:
    """Composed discriminant magnitude for one (F, K) pair.

    ``magnitude`` applies every resolved discrepancy and zero at unresolved
    wild overlaps; when ``unresolved_primes`` is empty the value is exact and
    equals the compositum discriminant magnitude.  ``naive_magnitude`` applies
    no discrepancy anywhere; ``lower_bound`` uses the largest discrepancy any
    prime can carry, so the true magnitude always lies in
    [lower_bound, naive_magnitude].
    """

    magnitude: int
    naive_magnitude: int
    lower_bound: int
    unresolved_primes: tuple[int, ...]
    breakdown: tuple[PrimeBreakdown, ...]

    @property
    def exact(self) -> bool:
        return not self.unresolved_primes


def _element_of_order(group: AbelianGroup, order: int) -> AbelianElement:
    for candidate in group.elements():
        if element_order(candidate) == order:
            return candidate
    raise DomainError(f"group {group.label()} has no element of order {order}")


def compose_disc(
    f_record: FieldRecord,
    k_record: FieldRecord,
    overrides: WildOverrides | None = None,
) -> ComposeResult:
    """Compose a full-symmetric degree-d record with an abelian record.

    At each prime, the compositum valuation is
    ``|A| * v_F + d * v_K - delta_p`` with ``delta_p = 0`` unless both fields
    ramify; at a shared tame-tame prime the discrepancy follows from the two
    inertia classes, and at a shared prime with wild data it is taken from
    ``overrides`` or the prime is reported unresolved.
    """
    if not f_record.is_symmetric:
        raise DomainError(
            f"record {f_record.label!r} must have a full symmetric group"
        )
    if k_record.is_symmetric:
        raise DomainError(f"record {k_record.label!r} must be abelian")
    d = f_record.degree
    group = k_record.abelian_group
    order = group.order
    magnitude = 1
    naive_magnitude = 1
    lower_bound = 1
    unresolved: list[int] = []
    breakdown: list[PrimeBreakdown] = []
    primes = sorted(set(f_record.ramified_primes) | set(k_record.ramified_primes))
    for p in primes:
        f_local = f_record.local_at(p)
        k_local = k_record.local_at(p)
        v_f = f_local.valuation if f_local else 0
        v_k = k_local.valuation if k_local else 0
        naive = order * v_f + d * v_k
        delta_p: int | None = 0
        if f_local and k_local:
            if f_local.is_tame and k_local.is_tame:
                assert f_local.tame_class is not None
                assert k_local.tame_class is not None
                h = _element_of_order(group, k_local.tame_class.parts[0])
                delta_p = delta(d, group, f_local.tame_class, h)
            else:
                found = overrides.lookup(p, v_f, v_k) if overrides else None
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
        applied = delta_p if delta_p is not None else 0
        v_fk = naive - applied
        magnitude *= p**v_fk
        naive_magnitude *= p**naive
        lower_bound *= p ** max(order * v_f, d * v_k)
        breakdown.append(
            PrimeBreakdown(prime=p, v_f=v_f, v_k=v_k, delta_p=delta_p, v_fk=v_fk)
        )
    return ComposeResult(
        magnitude=magnitude,
        naive_magnitude=naive_magnitude,
        lower_bound=lower_bound,
        unresolved_primes=tuple(unresolved),
        breakdown=tuple(breakdown),
    )


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
    resolvent = fundamental_discriminant(f_record.disc)
    return resolvent not in k_record.quad_subfield_discs


@dataclass(frozen=True)
class CensusResult:
    """Outcome of a census count: the exact count over resolved pairs, the
    number of flagged pairs whose unresolved wild overlap leaves their
    membership uncertain (the true count lies in
    [count, count + flagged_wild_pairs]), the crude fit constant
    count / X^(1/|A|), and completeness warnings."""

    x: int
    count: int
    flagged_wild_pairs: int
    fit_constant: float
    warnings: tuple[str, ...] = ()
    y: int | None = None


def _coverage_warnings(
    dataset: Dataset, d: int, group: AbelianGroup, x: int
) -> list[str]:
    warnings: list[str] = []
    coverage = dataset.coverage
    f_label, k_label = f"S{d}", group.label()
    for label, power in ((f_label, group.order), (k_label, d)):
        if label not in coverage:
            warnings.append(f"no coverage assertion for group {label}")
        elif coverage[label] ** power < x:
            warnings.append(
                f"X = {x} needs {label} records up to "
                f"|disc| = {math.ceil(x ** (1 / power))}, coverage asserts only "
                f"{coverage[label]}"
            )
    return warnings


def iter_census_pairs(
    dataset: Dataset, d: int, group: AbelianGroup
) -> list[tuple[FieldRecord, FieldRecord]]:
    """All linearly disjoint (F, K) candidate pairs for the product census."""
    f_records = dataset.by_group(f"S{d}")
    k_records = dataset.abelian_records(group)
    return [
        (f_record, k_record)
        for f_record in f_records
        for k_record in k_records
        if linearly_disjoint(f_record, k_record)
    ]


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
    :func:`truncated_magnitude` when a prime cutoff ``y`` is given."""
    if x < 1:
        raise DomainError("x must be a positive integer")
    if y is not None:
        modulus = group.order * math.factorial(d)
        if y <= modulus:
            raise DomainError(
                f"cutoff y = {y} must exceed the wild modulus |A| * d! = {modulus}"
            )
    count = 0
    flagged = 0
    for f_record, k_record in iter_census_pairs(dataset, d, group):
        result = compose_disc(f_record, k_record, overrides)
        if result.exact:
            magnitude = (
                result.magnitude
                if y is None
                else truncated_magnitude(result, group.order, d, y)
            )
            if magnitude < x:
                count += 1
        elif result.lower_bound < x:
            flagged += 1
    return CensusResult(
        x=x,
        count=count,
        flagged_wild_pairs=flagged,
        fit_constant=count / x ** (1 / group.order),
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
    admissible cutoff) contribute their naive valuation."""
    magnitude = 1
    for entry in result.breakdown:
        if entry.prime <= y:
            magnitude *= entry.prime**entry.v_fk
        else:
            magnitude *= entry.prime ** (order * entry.v_f + d * entry.v_k)
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


@dataclass(frozen=True)
class UniformityBin:
    """One dyadic constraint: primes carrying any of ``classes`` must appear
    with squarefree product in [q, 2q); ``exponent`` is an optional comparison
    exponent for the reported ratio."""

    classes: frozenset[CycleType]
    q: int
    exponent: Fraction | None = None

    def __post_init__(self) -> None:
        if self.q < 1:
            raise DomainError("dyadic base must be >= 1")
        if not self.classes:
            raise DomainError("a bin needs at least one inertia class")


@dataclass(frozen=True)
class UniformityRow:
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
    x * prod(q^exponent) is reported alongside.
    """
    seen: set[CycleType] = set()
    for item in bins:
        if item.classes & seen:
            raise DomainError("bins must use pairwise disjoint class sets")
        seen |= item.classes
        for ct in item.classes:
            if ct.degree != d:
                raise DomainError(
                    f"class {ct} has degree {ct.degree}, expected {d}"
                )
    records = dataset.by_group(f"S{d}")
    rows: list[UniformityRow] = []
    for x in sorted(x_values):
        total = 0
        for record in records:
            if abs(record.disc) >= x:
                continue
            weight = 1
            for item in bins:
                primes = [
                    datum.prime
                    for datum in record.local
                    if datum.is_tame and datum.tame_class in item.classes
                ]
                weight *= _subset_products_in_range(primes, item.q, 2 * item.q)
                if weight == 0:
                    break
            total += weight
        ratio: float | None = None
        if all(item.exponent is not None for item in bins):
            comparator = float(x)
            for item in bins:
                comparator *= float(item.q) ** float(item.exponent)  # type: ignore[arg-type]
            ratio = total / comparator
        rows.append(UniformityRow(x=x, count=total, ratio=ratio))
    return rows
