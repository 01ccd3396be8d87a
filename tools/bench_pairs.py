#!/usr/bin/env python3
"""Interleaved parent/change runs of the benchmark, written to one BENCH file.

    python3 tools/bench_pairs.py --parent PARENT --change CHANGE \\
        --pairs tables=3 --pairs census-count=2 --first-seed 801 \\
        --out BENCH_8.json

PARENT and CHANGE are two checkouts of the repository, best made with
``git clone`` so that each run record names its commit.  For pair i of a
workload both trees run ``perfbench/run.py --workload W --seed S --trace 0``
with the same seed S = first-seed + i; which tree goes first alternates from
one pair of a workload to the next, and the pairs of different workloads are
interleaved, so slow spells of a shared machine fall on both sides.  Every
number in the output is copied from the run records
``perfbench/out/run-W-seedS-trace0.json``: the commit and ``src`` hash of
each tree, and each run's end-to-end metrics and failure count.  Per workload
the output also gives each side's median and quartiles of every end-to-end
metric named in the change tree's ``BENCHMARK.json``, and the number of pairs
the change won.  After the pairs, each tree runs every workload twice more
with ``--trace 1``, at the first seed and at the next one, the side that goes
first alternating between the two; the output keeps both traced records of
each side, with their per-layer metrics and trace self-check, and each side's
median over the two of every per-layer metric named in the change tree's
``BENCHMARK.json``, since one traced run alone swings by up to a third on
unchanged code.  Before every run the
``__pycache__`` directories under the tree's ``src`` and ``perfbench`` are
removed, so neither side imports bytecode the other compiles afresh.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def clear_bytecode(tree: str) -> None:
    """Remove every ``__pycache__`` directory under ``tree``'s ``src`` and
    ``perfbench``."""
    for top in ("src", "perfbench"):
        for root, dirs, _ in os.walk(os.path.join(tree, top)):
            if "__pycache__" in dirs:
                dirs.remove("__pycache__")
                shutil.rmtree(os.path.join(root, "__pycache__"))


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run in ``tree``; the fields of its run record we keep."""
    clear_bytecode(tree)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    path = os.path.join(tree, "perfbench", "out",
                        f"run-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    env = record["environment"]
    return {
        "git_sha": env["git_sha"],
        "src_sha256": env["src_sha256"],
        "correct": not record["failures"] and not record["trace_self_check"]
        and record["error_rate"]["attempted"] > 0,
        "attempted": record["error_rate"]["attempted"],
        "failed": record["error_rate"]["failed"],
        "metrics": {k: m["value"] for k, m in record["metrics"].items()},
        "trace_self_check": record["trace_self_check"],
    }


def workload_pairs(text: str) -> tuple[str, int]:
    """``WORKLOAD=N`` as ``(WORKLOAD, N)`` with N >= 1, for ``--pairs``."""
    match = re.fullmatch(r"([^=]+)=([1-9][0-9]*)", text)
    if match is None:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=N with N >= 1, not {text!r}")
    return match[1], int(match[2])


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        entry = {"better": metric["better"], "bound": metric["bound"]}
        for side in SIDES:
            quartiles = (statistics.quantiles(values[side], n=4)
                         if len(values[side]) > 1 else values[side] * 3)
            entry[side] = {"median": statistics.median(values[side]),
                           "q1": quartiles[0], "q3": quartiles[2]}
        entry["change_wins"] = sum(
            (c > p) if higher else (c < p)
            for p, c in zip(values["parent"], values["change"])
        )
        entry["pairs"] = len(pairs)
        out[name] = entry
    return out


def per_layer_medians(runs: list[dict], per_layer: list[dict]) -> dict:
    """Each side's median, over the traced runs, of every per-layer metric
    that all of its runs report."""
    out = {}
    for side in SIDES:
        metrics = [run[side]["metrics"] for run in runs]
        out[side] = {
            metric["name"]: statistics.median(m[metric["name"]] for m in metrics)
            for metric in per_layer
            if all(metric["name"] in m for m in metrics)
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", action="append", required=True, type=workload_pairs,
                        metavar="WORKLOAD=N",
                        help="run N >= 1 pairs of WORKLOAD; each workload once")
    parser.add_argument("--first-seed", type=int, default=801)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", required=True, help="BENCH file to write")
    args = parser.parse_args(argv)
    counts: dict[str, int] = {}
    for workload, n in args.pairs:
        if workload in counts:
            parser.error(f"--pairs names {workload} twice")
        counts[workload] = n
    trees = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    end_to_end, per_layer = declared["end_to_end"], declared["per_layer"]

    runs: dict[str, list[dict]] = {w: [] for w in counts}
    for index in range(max(counts.values())):
        for workload, n in counts.items():
            if index >= n:
                continue
            seed = args.first_seed + index
            sides = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", flush=True)
            runs[workload].append(pair)
    traced: dict[str, list[dict]] = {w: [] for w in counts}
    for index in range(2):
        for workload in counts:
            seed = args.first_seed + index
            sides = SIDES if index % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": sides[0]}
            for side in sides:
                run[side] = run_once(trees[side], workload, seed, args.seconds, trace=1)
            traced[workload].append(run)

    first = {side: runs[next(iter(runs))][0][side] for side in SIDES}
    result = {
        "command": "python3 tools/bench_pairs.py " + " ".join(
            f"--pairs {w}={n}" for w, n in counts.items())
        + f" --first-seed {args.first_seed} --seconds {args.seconds:g}",
        "seconds": args.seconds,
        **{side: {"git_sha": first[side]["git_sha"],
                  "src_sha256": first[side]["src_sha256"]} for side in SIDES},
        "workloads": {
            workload: {"pairs": pairs, "summary": summarise(pairs, end_to_end),
                       "traced": traced[workload],
                       "traced_median": per_layer_medians(traced[workload], per_layer)}
            for workload, pairs in runs.items()
        },
    }
    for workload, pairs in runs.items():
        for side in SIDES:
            records = [p[side] for p in pairs + traced[workload]]
            shas = {(r["git_sha"], r["src_sha256"]) for r in records}
            if len(shas) != 1 or shas != {tuple(result[side].values())}:
                raise SystemExit(f"{side} tree changed during the runs: {shas}")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
