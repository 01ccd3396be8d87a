"""Record the reference outputs the benchmark checks against.

Run from the repository root, by hand, only when the program's intended
output changes:

    PYTHONPATH=src python3 perfbench/record_refs.py

It writes ``perfbench/refs/outputs.json`` (CLI output of every table,
``invariants`` and ``verify-lemmas`` command the generators can emit, and
the preset exponent of every ``tail-bound`` (d, A)) and
``perfbench/refs/census_curve.json`` (every pair magnitude below the largest
generated cutoff, with and without each truncation cutoff).
"""

from __future__ import annotations

import bisect
import io
import json
import os
import sys
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import REFS_DIR  # noqa: E402
from fixture import load_fixture  # noqa: E402
from workloads import TABLE_DEGREES, TABLE_PRIMES  # noqa: E402

from sdxa import cli  # noqa: E402
from sdxa.census import (  # noqa: E402
    compose_disc,
    ingest,
    iter_census_pairs,
    truncated_magnitude,
)
from sdxa.groups import AbelianGroup, abelian_groups_up_to  # noqa: E402

X_MAX = 10**7
Y_CUTOFFS = (31, 100, 1000)
# (X, count, flagged) of the full census, as stated when the benchmark was built
ANCHORS = ((10**4, 0, 1), (10**6, 59, 113), (4 * 10**6, 150, 286))


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"sdxa {' '.join(argv)} exited {code}")
    return out.getvalue()


def record_outputs() -> dict:
    groups = [g.label() for g in abelian_groups_up_to(12)]
    outputs: dict = {"groups": groups, "tables": {}, "invariants": {},
                     "verify-lemmas": {}, "presets": {}}
    for d in TABLE_DEGREES:
        for p in TABLE_PRIMES:
            plain = run_cli("delta-table", "--d", str(d), "--A", f"C{p}")
            tsv = run_cli("delta-table", "--d", str(d), "--A", f"C{p}", "--format", "tsv")
            outputs["tables"][f"{d}|{p}"] = {
                "caption": plain.splitlines()[0],
                "rows": [line.split("\t") for line in tsv.splitlines()],
            }
    for d in (3, 4, 5):
        for group in groups:
            for fmt in ("plain", "tsv"):
                outputs["invariants"][f"{d}|{group}|{fmt}"] = run_cli(
                    "invariants", "--d", str(d), "--A", group, "--format", fmt
                )
            outputs["verify-lemmas"][f"{d}|{group}"] = run_cli(
                "verify-lemmas", "--d", str(d), "--A", group
            )
            head = run_cli("tail-bound", "--d", str(d), "--A", group,
                           "--m", "1", "--Y", "16").splitlines()
            outputs["presets"][f"{d}|{group}"] = {
                "beta": head[0].split(" ")[2],
                "attained": head[1],
            }
    return outputs


def record_curve(root: str) -> dict:
    dataset = ingest(cli.bundled_fixture_path())
    group = AbelianGroup.from_label("C2")
    curves = {key: {"exact": [], "flagged": []} for key in ("full", *map(str, Y_CUTOFFS))}
    for f_record, k_record in iter_census_pairs(dataset, 3, group):
        result = compose_disc(f_record, k_record)
        for key, curve in curves.items():
            if not result.exact:
                value, target = result.lower_bound, curve["flagged"]
            elif key == "full":
                value, target = result.magnitude, curve["exact"]
            else:
                value = truncated_magnitude(result, group.order, 3, int(key))
                target = curve["exact"]
            if value < X_MAX:
                target.append(value)
    for curve in curves.values():
        curve["exact"].sort()
        curve["flagged"].sort()
    full = curves["full"]
    for x, count, flagged in ANCHORS:
        got = (bisect.bisect_left(full["exact"], x), bisect.bisect_left(full["flagged"], x))
        if got != (count, flagged):
            raise SystemExit(f"census anchor X = {x}: {got} != {(count, flagged)}")
    return {
        "fixture_sha256": load_fixture(root).sha256,
        "x_max": X_MAX,
        "curves": curves,
    }


def main() -> None:
    root = os.getcwd()
    outputs = record_outputs()
    curve = record_curve(root)
    os.makedirs(REFS_DIR, exist_ok=True)
    for name, data in (("outputs.json", outputs), ("census_curve.json", curve)):
        with open(os.path.join(REFS_DIR, name), "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
