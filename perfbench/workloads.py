"""Seeded command generators for the four benchmark workloads.

A workload is a stream of sessions; a session is a list of ``sdxa`` argv
lists that one fresh interpreter runs in order.  Everything here is a pure
function of (workload, seed, session index), so the same seed always gives
the same commands.  Each command carries the parameters its output check
needs, the key that says whether its work was already done earlier in the
same session, and any input file it needs on disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from fixture import Fixture, disjoint, wild_overlap

SPEC_DIR = os.path.join("perfbench", "out", "specs")
EPSILON = Fraction(1, 1000)


@dataclass(frozen=True)
class Command:
    argv: list[str]
    params: dict
    # (d, A) or (d, p): work an earlier command of the session may have cached
    key: tuple
    # a coarser key: tables share the trivial-side pattern sets per d
    shared_d: int | None = None
    files: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: str
    moves: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-count",
            "census --d 3 --A C2 at X log-uniform in [1e3, 1e7], some with --Y or tsv: "
            "the census pair loop, the known hot spot",
            "census (pair loop: compose_disc, linearly_disjoint, from_label, delta)",
            "throughput_cmd_s and latency_p90_ms fall or rise with per-pair cost; "
            "X spans cutoffs that pruning removes and ones it cannot touch",
        ),
        Workload(
            "census-lookup",
            "compose on any fixture pair and uniformity on seeded bins: "
            "a full ingest plus microseconds of census work per command",
            "census (ingest, parse_record, measure_uniformity) and cli",
            "latency_p50_ms shows work moved from the pair loop into ingest "
            "or record compilation as a loss",
        ),
        Workload(
            "tables",
            "all twelve delta-table (d in 3..5, A in C2..C7) per session in seeded "
            "order and format: Frobenius enumeration in splitting",
            "splitting (generate_table, decomposition_patterns) over perms",
            "throughput_cmd_s and latency_p90_ms; no census and no tail work",
        ),
        Workload(
            "exponents",
            "invariants, verify-lemmas and tail-bound with exponents log-uniform "
            "in [-1/2, -1e-4]: groups, indexcalc and the tail loop",
            "groups and indexcalc (tail_series, beta, theta, index_compare)",
            "latency_p90_ms and throughput_cmd_s follow the tail loop; "
            "latency_p50_ms follows class enumeration",
        ),
    )
}


GOLDEN = (math.sqrt(5) - 1) / 2


class _Sequence:
    """Points of [0, 1) stepping by the golden ratio from a seeded start.

    Each point is uniform, as a random draw would be, but any run of
    consecutive points covers [0, 1) almost evenly, so the costly end of a
    cost distribution is drawn about equally often in every run; that end
    sets latency_p90_ms."""

    def __init__(self, seed: str, per_session: int) -> None:
        self.start = random.Random(seed).random()
        self.per_session = per_session

    def points(self, session: int) -> list[float]:
        first = session * self.per_session
        return [
            (self.start + (first + i) * GOLDEN) % 1.0
            for i in range(self.per_session)
        ]


def _flags(rng: random.Random, k: int, n: int) -> list[bool]:
    """Exactly k of n True, in seeded order."""
    out = [True] * k + [False] * (n - k)
    rng.shuffle(out)
    return out


def _census_count(rng: random.Random) -> list[Command]:
    exponents = [rng.uniform(3, 7) for _ in range(5)]
    ys = rng.sample((31, 100, 1000), 2) + [None] * 3
    rng.shuffle(ys)
    out = []
    for exponent, y, tsv in zip(exponents, ys, _flags(rng, 2, 5)):
        x = round(10**exponent)
        argv = ["census", "--d", "3", "--A", "C2", "--X", str(x)]
        if y is not None:
            argv += ["--Y", str(y)]
        fmt = "tsv" if tsv else "plain"
        if tsv:
            argv += ["--format", "tsv"]
        out.append(Command(argv, {"kind": "census", "x": x, "y": y, "fmt": fmt}, (3, "C2")))
    return out


class _PairPools:
    """Fixture pairs for ``compose``, split so that the rare branches are
    drawn in every session."""

    def __init__(self, fixture: Fixture) -> None:
        self.s3 = sorted(r.label for r in fixture.by_group("S3"))
        self.c2 = sorted(r.label for r in fixture.by_group("C2"))
        records = fixture.records
        pairs = [(f, k) for f in self.s3 for k in self.c2]
        self.non_disjoint = [
            p for p in pairs if not disjoint(records[p[0]], records[p[1]])
        ]
        self.wild = [p for p in pairs if wild_overlap(records[p[0]], records[p[1]])]

    def draw(self, rng: random.Random) -> list[tuple[str, str]]:
        """18 pairs: 2 non-disjoint, 2 with a wild overlap, 14 uniform."""
        return (
            [rng.choice(self.non_disjoint) for _ in range(2)]
            + [rng.choice(self.wild) for _ in range(2)]
            + [(rng.choice(self.s3), rng.choice(self.c2)) for _ in range(14)]
        )


_BIN_CLASSES = ([["2.1"]], [["3"]], [["2.1", "3"]], [["2.1"], ["3"]])
_BIN_EXPONENTS = (None, "-1/2", "-1", "1/3", "-2/3")


def _uniformity(rng: random.Random, layout: list[list[str]], n_x: int) -> Command:
    bins = []
    for classes in layout:
        entry = {"classes": classes, "q": 2 ** rng.randrange(0, 11)}
        exponent = rng.choice(_BIN_EXPONENTS)
        if exponent is not None:
            entry["exponent"] = exponent
        bins.append(entry)
    xs = sorted(rng.sample(range(50, 3001), n_x))
    text = json.dumps({"bins": bins}, sort_keys=True)
    path = os.path.join(SPEC_DIR, hashlib.sha256(text.encode()).hexdigest()[:16] + ".json")
    argv = ["uniformity", "--d", "3", "--uniformity-spec", path]
    for x in xs:
        argv += ["--X", str(x)]
    fmt = rng.choice(("plain", "tsv"))
    argv += ["--format", fmt]
    params = {"kind": "uniformity", "bins": bins, "xs": xs, "fmt": fmt}
    return Command(argv, params, (3, None), files={path: text})


def _census_lookup(rng: random.Random, pools: _PairPools) -> list[Command]:
    out = []
    for f_label, k_label in pools.draw(rng):
        fmt = rng.choice(("plain", "tsv"))
        argv = ["compose", "--F", f_label, "--K", k_label, "--format", fmt]
        params = {"kind": "compose", "f": f_label, "k": k_label, "fmt": fmt}
        out.append(Command(argv, params, (3, "C2")))
    for layout in _BIN_CLASSES * 3:
        out.append(_uniformity(rng, layout, rng.randint(1, 3)))
    rng.shuffle(out)
    return out


TABLE_DEGREES = (3, 4, 5)
TABLE_PRIMES = (2, 3, 5, 7)


def _table(rng: random.Random, d: int, p: int) -> Command:
    fmt = rng.choice(("plain", "tsv"))
    argv = ["delta-table", "--d", str(d), "--A", f"C{p}", "--format", fmt]
    params = {"kind": "delta-table", "d": d, "p": p, "fmt": fmt}
    return Command(argv, params, (d, p), shared_d=d)


def _tables(rng: random.Random) -> list[Command]:
    """All twelve tables, each once, in seeded order."""
    pairs = [(d, p) for d in TABLE_DEGREES for p in TABLE_PRIMES]
    rng.shuffle(pairs)
    return [_table(rng, d, p) for d, p in pairs]


def _exponents(rng: random.Random, groups: list[str], tails: list[float],
               width: int) -> list[Command]:
    """5 invariants, 5 verify-lemmas, 2 tail-bound on the preset exponent
    and 8 with an explicit one, log-uniform over [-1/2, -1e-4].  ``tails``
    places the 8 exponents; their --Y counts cycle through 1..4 from
    ``width``, so that over a run the pairs (exponent, count) form a lattice
    with every count equally often."""
    out = []
    for kind in ["invariants"] * 5 + ["verify-lemmas"] * 5:
        d, group = rng.choice((3, 4, 5)), rng.choice(groups)
        argv = [kind, "--d", str(d), "--A", group]
        params = {"kind": kind, "d": d, "A": group}
        if kind == "invariants":
            params["fmt"] = rng.choice(("plain", "tsv"))
            argv += ["--format", params["fmt"]]
        out.append(Command(argv, params, (d, group)))
    low, high = math.log10(1e-4), math.log10(0.5)
    exponents = [None, None] + [low + (high - low) * u for u in tails]
    y_counts = [rng.randint(1, 4), rng.randint(1, 4)] + [1 + (width + i) % 4 for i in range(8)]
    for log_exponent, n_y in zip(exponents, y_counts):
        d, group, m = rng.choice((3, 4, 5)), rng.choice(groups), rng.randint(1, 4)
        ys = [f"{2 ** rng.uniform(4, 64):.6g}" for _ in range(n_y)]
        argv = ["tail-bound", "--d", str(d), "--A", group, "--m", str(m), "--Y", *ys]
        params = {"kind": "tail-bound", "d": d, "A": group, "m": m, "ys": ys, "beta": None}
        if log_exponent is not None:
            # beta + epsilon as an exact rational with 7 decimal places
            exponent = -Fraction(round(10 ** (log_exponent + 7)), 10**7)
            params["beta"] = str(exponent - EPSILON)
            argv.append(f"--beta={params['beta']}")
        params["fmt"] = rng.choice(("plain", "tsv"))
        argv += ["--format", params["fmt"]]
        out.append(Command(argv, params, (d, group)))
    rng.shuffle(out)
    return out


class Generator:
    """Builds the sessions of one workload for one seed."""

    def __init__(self, workload: str, seed: int, fixture: Fixture, refs: dict) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.refs = refs
        self.pools = _PairPools(fixture) if workload == "census-lookup" else None
        self.tails = _Sequence(f"{workload}:{seed}:tails", 8)
        self.width = random.Random(f"{workload}:{seed}:widths").randrange(4)

    def session(self, index: int) -> list[Command]:
        rng = random.Random(f"{self.workload.name}:{self.seed}:{index}")
        name = self.workload.name
        if name == "census-count":
            return _census_count(rng)
        if name == "census-lookup":
            return _census_lookup(rng, self.pools)
        if name == "tables":
            return _tables(rng)
        return _exponents(rng, self.refs["groups"], self.tails.points(index), self.width)
