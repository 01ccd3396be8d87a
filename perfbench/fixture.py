"""An independent reader for the bundled census fixture.

The benchmark needs the fixture twice: to draw ``compose`` pairs and
``uniformity`` specs, and to check what the program prints for them.  Both
use this small parser instead of ``sdxa.census`` so that a defect in the
program's own ingest cannot hide in its checks.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

FIXTURE = os.path.join("src", "sdxa", "data", "cubic_quadratic_fields.txt")


@dataclass(frozen=True)
class Local:
    prime: int
    tame: tuple[int, ...] | None  # cycle lengths of a tame inertia class
    wild: int | None  # bare discriminant valuation at a wild prime

    @property
    def valuation(self) -> int:
        if self.tame is not None:
            return sum(self.tame) - len(self.tame)
        return self.wild


@dataclass(frozen=True)
class Record:
    label: str
    degree: int
    group: str
    disc: int
    local: dict[int, Local]
    quads: tuple[int, ...]

    @property
    def fundamental(self) -> int:
        """Fundamental discriminant of the square class of ``disc``, read off
        the local valuations (their product is |disc|)."""
        core = 1
        for p, datum in self.local.items():
            if datum.valuation % 2:
                core *= p
        core = core if self.disc > 0 else -core
        return core if core % 4 == 1 else 4 * core


@dataclass(frozen=True)
class Fixture:
    records: dict[str, Record]
    coverage: dict[str, int]
    sha256: str

    def by_group(self, group: str) -> list[Record]:
        return [r for r in self.records.values() if r.group == group]


def _parse_local(chunk: str) -> Local:
    prime_text, _, kind = chunk.partition(":")
    body = kind[2:-1]
    if kind.startswith("t("):
        return Local(int(prime_text), tuple(int(p) for p in body.split(".")), None)
    return Local(int(prime_text), None, int(body))


def load_fixture(root: str) -> Fixture:
    path = os.path.join(root, FIXTURE)
    with open(path, "rb") as handle:
        raw = handle.read()
    records: dict[str, Record] = {}
    coverage: dict[str, int] = {}
    for line in raw.decode("utf-8").splitlines():
        if line.startswith("#coverage"):
            fields = dict(item.split("=") for item in line.split()[1:])
            coverage[fields["group"]] = int(fields["maxdisc"])
        if not line.strip() or line.startswith("#"):
            continue
        label, degree, group, disc, local_text, quad_text = line.split(";")
        local = [_parse_local(c) for c in local_text.split(",") if c]
        records[label] = Record(
            label=label,
            degree=int(degree),
            group=group,
            disc=int(disc),
            local={datum.prime: datum for datum in local},
            quads=tuple(int(q) for q in quad_text.split(",") if q),
        )
    return Fixture(records, coverage, hashlib.sha256(raw).hexdigest())


def disjoint(f: Record, k: Record) -> bool:
    """Linear disjointness of an S_d record with a C2 record: the quadratic
    resolvent of F must not be K's quadratic subfield."""
    return f.fundamental not in k.quads


def wild_overlap(f: Record, k: Record) -> bool:
    """Whether the two records share a prime at which either one is wild."""
    return any(
        p in k.local and (datum.tame is None or k.local[p].tame is None)
        for p, datum in f.local.items()
    )
