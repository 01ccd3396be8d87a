"""Output checks for every command the workload generators emit.

* ``census``: counts read off a reference curve recorded from the program
  (``refs/census_curve.json``); coverage warnings from the fixture headers.
* ``compose`` and ``uniformity``: recomputed here from the fixture text.
* ``delta-table``: recorded references for all twelve tables, and the
  golden files in ``tests/golden`` for the tables they cover, read with the
  same rules as the acceptance suite (exact base-field cells, containment
  of sound compositum cells, exclusion of advisory ``!`` cells).
* ``invariants`` and ``verify-lemmas``: recorded outputs.
* ``tail-bound``: the tail value from the finite binomial identity
  sum_{r>=r0} C(r+m-1, m-1) x^r = (1-x)^-m P[Bin(r0+m-1, x) >= r0], the
  comparator from its definition, both compared at the printed precision.

``Checker.check`` returns None for a correct result, else the reason.
"""

from __future__ import annotations

import bisect
import glob
import json
import math
import os
import re
from fractions import Fraction
from itertools import combinations

from fixture import Fixture, Record, disjoint
from workloads import EPSILON

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
GOLDEN_DIR = os.path.join("tests", "golden")
_GOLDEN_HEADER = re.compile(r"d=(\d+), A=C(\d+), delta_cap=(\d+)")
_CELL_GAP = re.compile(r" {2,}")
_TOKEN = re.compile(r"^(\d+)\^(?:(\d+)|\{(\d+)\})$")


def load_refs() -> tuple[dict, dict]:
    with open(os.path.join(REFS_DIR, "outputs.json"), encoding="utf-8") as handle:
        outputs = json.load(handle)
    with open(os.path.join(REFS_DIR, "census_curve.json"), encoding="utf-8") as handle:
        curve = json.load(handle)
    return outputs, curve


def _close(printed: str, expected: float, decimals_of) -> bool:
    """Whether ``printed`` is ``expected`` to within half a unit of its last
    printed digit (plus float noise)."""
    value = float(printed)
    return abs(value - expected) <= 0.5 * decimals_of(printed) + 1e-9 * abs(expected)


def _unit_e(text: str) -> float:
    mantissa, _, exponent = text.partition("e")
    digits = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 10.0 ** (int(exponent) - digits)


def _unit_f(text: str) -> float:
    return 10.0 ** -(len(text.split(".")[1]) if "." in text else 0)


def tail_value(exponent: float, m: int, y: float) -> float:
    """The dyadic tail sum in closed form: a finite sum of m terms."""
    r0 = max(0, math.ceil(math.log2(y) - m))
    q = -math.expm1(exponent * math.log(2))  # 1 - x, accurately
    x = 1.0 - q
    n = r0 + m - 1
    return sum(
        math.comb(n, k) * x**k * q ** (n - k - m) for k in range(r0, n + 1)
    )


def _tokens(line: str, fmt: str) -> list[str]:
    return line.split("\t") if fmt == "tsv" else line.split()


class Checker:
    def __init__(self, root: str, fixture: Fixture, outputs: dict, curve: dict) -> None:
        self.fixture = fixture
        self.outputs = outputs
        self.curve = curve
        counts: dict[str, int] = {}
        for record in fixture.records.values():
            counts[record.group] = counts.get(record.group, 0) + 1
        self.group_summary = ", ".join(f"{g}={n}" for g, n in sorted(counts.items()))
        self.goldens = self._load_goldens(root)

    @staticmethod
    def _load_goldens(root: str) -> dict[tuple[int, int], dict]:
        paths = sorted(glob.glob(os.path.join(root, GOLDEN_DIR, "*.tsv")))
        if not paths:
            raise FileNotFoundError(f"no golden tables under {GOLDEN_DIR}")
        goldens = {}
        for path in paths:
            header, rows = None, []
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.rstrip("\n")
                    if line.startswith("#"):
                        header = header or _GOLDEN_HEADER.search(line)
                    elif line:
                        rows.append(line.split("\t"))
            d, p, cap = (int(g) for g in header.groups())
            goldens[(d, p)] = {"cap": cap, "rows": rows}
        return goldens

    def check(self, params: dict, result: dict) -> str | None:
        if result["code"] != 0:
            return f"exit code {result['code']}: {result['err'][-300:]}"
        if "Traceback" in result["err"]:
            return "traceback on stderr"
        kind = params["kind"]
        reason = getattr(self, "_" + kind.replace("-", "_"))(
            params, result["out"], result["err"]
        )
        if reason is None and kind != "census" and result["err"]:
            reason = f"unexpected stderr: {result['err'][:200]!r}"
        return reason

    # census -----------------------------------------------------------------

    def _census(self, p: dict, out: str, err: str) -> str | None:
        if self.curve["fixture_sha256"] != self.fixture.sha256:
            return "fixture changed since the census curve was recorded"
        x, y = p["x"], p["y"]
        if x > self.curve["x_max"]:
            return f"X = {x} lies beyond the recorded curve"
        curve = self.curve["curves"]["full" if y is None else str(y)]
        count = bisect.bisect_left(curve["exact"], x)
        flagged = bisect.bisect_left(curve["flagged"], x)
        fit = f"{count / x ** (1 / 2):.6g}"
        if p["fmt"] == "tsv":
            expected = (
                "x\ty\tcount\tflagged_wild_pairs\tfit_constant\n"
                f"{x}\t{'' if y is None else y}\t{count}\t{flagged}\t{fit}\n"
            )
            if out != expected:
                return f"census tsv {out!r} != {expected!r}"
        else:
            lines = out.splitlines()
            head = f" ({self.group_summary})"
            if not (lines and lines[0].startswith("dataset: ") and lines[0].endswith(head)):
                return f"census dataset line {lines[:1]!r}"
            scope = "exact" if y is None else f"truncated at y = {y}"
            expected_lines = [
                f"count below X = {x} ({scope}): {count}",
                f"flagged wild-overlap pairs: {flagged}",
                f"fit constant count / X^(1/2) = {fit}",
            ]
            if lines[1:] != expected_lines:
                return f"census {lines[1:]!r} != {expected_lines!r}"
        warnings = ""
        for label, power in (("S3", 2), ("C2", 3)):
            cover = self.fixture.coverage[label]
            if cover**power < x:
                warnings += (
                    f"warning: X = {x} needs {label} records up to |disc| = "
                    f"{math.ceil(x ** (1 / power))}, coverage asserts only {cover}\n"
                )
        if err != warnings:
            return f"census stderr {err!r} != {warnings!r}"
        return None

    # compose ----------------------------------------------------------------

    def _compose(self, p: dict, out: str, err: str) -> str | None:
        f: Record = self.fixture.records[p["f"]]
        k: Record = self.fixture.records[p["k"]]
        d, order = f.degree, k.degree
        rows = [["prime", "v_f", "v_k", "delta_p", "v_fk"]]
        magnitude = naive_magnitude = lower = 1
        unresolved = []
        for prime in sorted(set(f.local) | set(k.local)):
            lf, lk = f.local.get(prime), k.local.get(prime)
            v_f = lf.valuation if lf else 0
            v_k = lk.valuation if lk else 0
            naive = order * v_f + d * v_k
            delta: int | None = 0
            if lf and lk:
                if lf.tame and lk.tame:
                    # naive valuation minus the pair index of (g, h_reg), the
                    # index of the product action on d * |A| points
                    cycles = sum(math.gcd(a, b) for a in lf.tame for b in lk.tame)
                    delta = naive - (d * order - cycles)
                else:
                    delta = None
                    unresolved.append(prime)
            v_fk = naive - (delta or 0)
            magnitude *= prime**v_fk
            naive_magnitude *= prime**naive
            lower *= prime ** max(order * v_f, d * v_k)
            rows.append(
                [str(prime), str(v_f), str(v_k), "?" if delta is None else str(delta), str(v_fk)]
            )
        head = []
        if p["fmt"] == "plain":
            head = [
                f"F = {f.label} ({f.group}, disc {f.disc})",
                f"K = {k.label} ({k.group}, disc {k.disc})",
                f"linearly disjoint: {'yes' if disjoint(f, k) else 'no'}",
            ]
        if unresolved:
            tail = [
                "# unresolved wild overlap at: " + ", ".join(map(str, unresolved)),
                f"# magnitude in [{lower}, {naive_magnitude}]",
            ]
        else:
            tail = [f"# magnitude = {magnitude} (exact)"]
        lines = out.splitlines()
        if len(lines) != len(head) + len(rows) + len(tail):
            return f"compose printed {len(lines)} lines"
        if lines[: len(head)] != head or lines[len(lines) - len(tail):] != tail:
            return f"compose {lines!r} != head {head!r} / tail {tail!r}"
        got = [_tokens(line, p["fmt"]) for line in lines[len(head): len(head) + len(rows)]]
        return None if got == rows else f"compose rows {got!r} != {rows!r}"

    # uniformity -------------------------------------------------------------

    def _uniformity(self, p: dict, out: str, err: str) -> str | None:
        bins = [
            (
                {tuple(int(c) for c in text.split(".")) for text in entry["classes"]},
                entry["q"],
                Fraction(entry["exponent"]) if "exponent" in entry else None,
            )
            for entry in p["bins"]
        ]
        records = [r for r in self.fixture.records.values() if r.group == "S3"]
        rows = []
        for x in sorted(p["xs"]):
            total = 0
            for record in records:
                if abs(record.disc) >= x:
                    continue
                weight = 1
                for classes, q, _ in bins:
                    primes = [
                        prime
                        for prime, datum in record.local.items()
                        if datum.tame is not None and datum.tame in classes
                    ]
                    weight *= sum(
                        1
                        for size in range(len(primes) + 1)
                        for subset in combinations(primes, size)
                        if q <= math.prod(subset) < 2 * q
                    )
                total += weight
            ratio = None
            if all(exponent is not None for _, _, exponent in bins):
                comparator = float(x)
                for _, q, exponent in bins:
                    comparator *= float(q) ** float(exponent)
                ratio = total / comparator
            rows.append((str(x), str(total), ratio))
        lines = out.splitlines()
        if p["fmt"] == "plain":
            described = "; ".join(
                "{"
                + ", ".join(sorted("(" + ",".join(map(str, c)) + ")" for c in classes))
                + "}"
                + f" q={q}"
                + (f" exponent={exponent}" if exponent is not None else "")
                for classes, q, exponent in bins
            )
            if not lines or lines[0] != f"bins: {described}":
                return f"uniformity bins line {lines[:1]!r} != {described!r}"
            lines = lines[1:]
        if len(lines) != 1 + len(rows) or _tokens(lines[0], p["fmt"]) != ["x", "count", "ratio"]:
            return f"uniformity table shape {lines!r}"
        for line, (x, total, ratio) in zip(lines[1:], rows):
            got = _tokens(line, p["fmt"])
            if ratio is None:
                expected = [x, total] + ([""] if p["fmt"] == "tsv" else [])
                if got != expected:
                    return f"uniformity row {got!r} != {expected!r}"
            elif len(got) != 3 or got[:2] != [x, total] or not _close(got[2], ratio, _unit_g):
                return f"uniformity row {got!r} != {[x, total, ratio]!r}"
        return None

    # delta-table ------------------------------------------------------------

    def _delta_table(self, p: dict, out: str, err: str) -> str | None:
        ref = self.outputs["tables"][f"{p['d']}|{p['p']}"]
        lines = out.splitlines()
        if p["fmt"] == "plain":
            if not lines or lines[0] != ref["caption"]:
                return f"table caption {lines[:1]!r} != {ref['caption']!r}"
            got = [_CELL_GAP.split(line) for line in lines[1:]]
        else:
            got = [line.split("\t") for line in lines]
        if got != ref["rows"]:
            return f"table rows differ from the recorded reference: {got!r}"
        golden = self.goldens.get((p["d"], p["p"]))
        if golden is not None:
            return _golden(golden, ref, got[1:])
        return None

    # groups and indexcalc ---------------------------------------------------

    def _invariants(self, p: dict, out: str, err: str) -> str | None:
        expected = self.outputs["invariants"][f"{p['d']}|{p['A']}|{p['fmt']}"]
        return None if out == expected else f"invariants {out!r} != {expected!r}"

    def _verify_lemmas(self, p: dict, out: str, err: str) -> str | None:
        expected = self.outputs["verify-lemmas"][f"{p['d']}|{p['A']}"]
        if "all verified" not in out:
            return "verify-lemmas did not report 'all verified'"
        return None if out == expected else f"verify-lemmas {out!r} != {expected!r}"

    def _tail_bound(self, p: dict, out: str, err: str) -> str | None:
        m = p["m"]
        lines = out.splitlines()
        if p["beta"] is None:
            preset = self.outputs["presets"][f"{p['d']}|{p['A']}"]
            beta, origin, head = Fraction(preset["beta"]), "preset", [preset["attained"]]
        else:
            beta, origin, head = Fraction(p["beta"]), "explicit", []
        exponent = beta + EPSILON
        if p["fmt"] == "plain":
            head.insert(
                0,
                f"beta = {beta} ({origin}), epsilon = {EPSILON}, m = {m}, "
                f"series exponent beta + epsilon = {exponent}",
            )
            if lines[: len(head)] != head:
                return f"tail-bound header {lines[: len(head)]!r} != {head!r}"
            lines = lines[len(head):]
        header = ["y", "r_start", "terms", "value", "comparator", "ratio"]
        if len(lines) != 1 + len(p["ys"]) or _tokens(lines[0], p["fmt"]) != header:
            return f"tail-bound table shape {lines!r}"
        e = float(exponent)
        for line, text in zip(lines[1:], p["ys"]):
            y = float(text)
            cells = _tokens(line, p["fmt"])
            if len(cells) != 6:
                return f"tail-bound row {cells!r}"
            value, comparator = tail_value(e, m, y), math.log(y) ** (m - 1) * y**e
            r_start = max(0, math.ceil(math.log2(y) - m))
            if cells[0] != f"{y:g}" or cells[1] != str(r_start):
                return f"tail-bound y/r_start {cells[:2]!r} for y = {text}, m = {m}"
            if not cells[2].isdigit() or int(cells[2]) < m:
                return f"tail-bound terms {cells[2]!r}"
            if not _close(cells[3], value, _unit_e):
                return f"tail value {cells[3]} != closed form {value:.9e}"
            if not _close(cells[4], comparator, _unit_e):
                return f"comparator {cells[4]} != {comparator:.9e}"
            if not _close(cells[5], value / comparator, _unit_f):
                return f"ratio {cells[5]} != {value / comparator:.6f}"
        return None


def _unit_g(text: str) -> float:
    """Last-digit unit of a number printed with ``:.6g``."""
    if "e" in text:
        return _unit_e(text)
    return _unit_f(text) if "." in text else 1.0


def _pattern(text: str) -> tuple[tuple[int, int], ...]:
    """A splitting pattern as its multiset of (e, f) factors: ``f^e`` (or
    ``f^{e}``) is one factor, a bare digit run is one unramified factor per
    digit, so the golden files' ``(1^2 11)`` equals the printed ``(1^2 1 1)``."""
    factors = []
    for token in text.strip("()").split():
        match = _TOKEN.match(token)
        if match:
            factors.append((int(match.group(2) or match.group(3)), int(match.group(1))))
        else:
            factors.extend((1, int(c)) for c in token)
    return tuple(sorted(factors, reverse=True))


def _patterns(cell: str) -> set:
    return {_pattern(text) for text in cell.split(", ")}


def _golden(golden: dict, ref: dict, rows: list[list[str]]) -> str | None:
    cap = int(ref["caption"].rsplit("=", 1)[1])
    if cap != golden["cap"] or len(rows) != len(golden["rows"]):
        return "table caption or row count differs from the golden file"
    for row, gold in zip(rows, golden["rows"]):
        generator, f_cells, fk_cells, *valuations = gold
        if row[0] != generator or row[3:] != valuations:
            return f"golden row {gold!r} != {row!r}"
        if _patterns(row[1]) != _patterns(f_cells):
            return f"golden base-field cells {f_cells!r} != {row[1]!r}"
        printed = _patterns(row[2])
        for cell in fk_cells.split(", "):
            if cell.startswith("!") == (_pattern(cell.lstrip("!")) in printed):
                return f"golden compositum cell {cell!r} against {row[2]!r}"
    return None
