"""Session benchmark for the ``sdxa`` command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  It is a closed loop with one client:
one session at a time, each a fresh interpreter (``perfbench/session.py``)
that imports ``sdxa.cli`` from the checkout's ``src`` and runs a seeded list
of commands in-process.  Sessions start until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled by
the machine's speed at the time, read from a fixed reference loop that the
session times between commands (``_speed_scales``).  ``--trace 1`` runs every
session twice, untraced and then traced with the same commands, and reports
the per-layer metrics of the traced copies plus the tracing overhead.
Every command's output is checked (``checks.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines above it print each metric with its unit and
sample count.  A run record with the environment, the generated commands
and every failure goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from checks import Checker, load_refs
from fixture import load_fixture
from workloads import WORKLOADS, Command, Generator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Passes over the same sessions; a command's latency is the median of its runs.
PASSES = 3
# Empty sessions started at the head of each pass, for more set-up samples.
SETUP_PROBES = 4
# A session stops starting commands after this long; sessions end far sooner.
SESSION_SECONDS = 60.0
# Nominal time of the reference loop in session.py.  End-to-end times are
# scaled to a machine on which it takes this long (see _speed_scales).
REFERENCE_S = 1.2e-3

# Exact per-command call counts of one census --d 3 --A C2 command on the
# bundled fixture, and of one fixture ingest: the tracing self-check.
INGEST_CALLS = {"census.parse_record": 385}
CENSUS_CALLS = {
    **INGEST_CALLS,
    "census.compose_disc": 19_704,
    "census.linearly_disjoint": 19_764,
    "indexcalc.delta": 1_441,
}

# name -> (how it is computed, unit, spans summed).  Counts and times are
# per traced command; "per_call" is self time per call.
PER_LAYER = {
    "census.compose_disc.calls": ("calls", "calls/cmd", ["census.compose_disc"]),
    "census.compose_disc.self_ms": ("self", "ms/cmd", ["census.compose_disc"]),
    "census.compose_disc.us_per_call": ("per_call", "us/call", ["census.compose_disc"]),
    "census.linearly_disjoint.calls": ("calls", "calls/cmd", ["census.linearly_disjoint"]),
    "census.linearly_disjoint.self_ms": ("self", "ms/cmd", ["census.linearly_disjoint"]),
    "census.iter_census_pairs.self_ms": ("self", "ms/cmd", ["census.iter_census_pairs"]),
    "census.count.self_ms": ("self", "ms/cmd", ["census.count_N", "census.count_N_truncated"]),
    "census.count.total_ms": ("total", "ms/cmd", ["census.count_N", "census.count_N_truncated"]),
    "census.pair_yield": ("yield", "ratio", []),
    "groups.from_label.calls": ("calls", "calls/cmd", ["groups.from_label"]),
    "groups.from_label.self_ms": ("self", "ms/cmd", ["groups.from_label"]),
    "census.ingest.self_ms": ("self", "ms/cmd", ["census.ingest"]),
    "census.parse_record.calls": ("calls", "calls/cmd", ["census.parse_record"]),
    "census.parse_record.self_ms": ("self", "ms/cmd", ["census.parse_record"]),
    "census.measure_uniformity.self_ms": ("self", "ms/cmd", ["census.measure_uniformity"]),
    "cli.main.self_ms": ("self", "ms/cmd", ["cli.main"]),
    "indexcalc.delta.calls": ("calls", "calls/cmd", ["indexcalc.delta"]),
    "indexcalc.delta.self_ms": ("self", "ms/cmd", ["indexcalc.delta"]),
    "splitting.generate_table.self_ms": ("self", "ms/cmd", ["splitting.generate_table"]),
    "splitting.decomposition_patterns.calls": ("calls", "calls/cmd", ["splitting.decomposition_patterns"]),
    "splitting.decomposition_patterns.self_ms": ("self", "ms/cmd", ["splitting.decomposition_patterns"]),
    "perms.product_embed.calls": ("calls", "calls/cmd", ["perms.product_embed"]),
    "perms.all_permutations.calls": ("calls", "calls/cmd", ["perms.all_permutations"]),
    "indexcalc.tail_series.calls": ("calls", "calls/cmd", ["indexcalc.tail_series"]),
    "indexcalc.tail_series.self_ms": ("self", "ms/cmd", ["indexcalc.tail_series"]),
    "indexcalc.tail_series.terms": ("terms", "terms/cmd", []),
    "groups.conjugacy_classes_product.calls": ("calls", "calls/cmd", ["groups.conjugacy_classes_product"]),
    "groups.conjugacy_classes_product.self_ms": ("self", "ms/cmd", ["groups.conjugacy_classes_product"]),
    "groups.malle_invariants_product.self_ms": ("self", "ms/cmd", ["groups.malle_invariants_product"]),
    "indexcalc.beta.self_ms": ("self", "ms/cmd", ["indexcalc.beta"]),
    "indexcalc.theta.calls": ("calls", "calls/cmd", ["indexcalc.theta"]),
    "indexcalc.index_compare.calls": ("calls", "calls/cmd", ["indexcalc.index_compare"]),
    "trace.overhead_ratio": ("overhead", "ratio", []),
}


class SessionError(RuntimeError):
    pass


class SessionRunner:
    """Starts one session interpreter at a time and waits for it to end."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.argv = [sys.executable, os.path.join(HERE, "session.py")]

    def run(self, commands: list[list[str]], seconds: float, trace: bool = False,
            spans: str | None = None, session: int = 0) -> tuple[float, dict]:
        """Returns (set-up seconds: spawn until ``import sdxa.cli`` is done,
        the session's reply)."""
        start = perf_counter()
        proc = subprocess.Popen(
            self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=ROOT, env=self.env, text=True,
        )
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            if ready != "ready\n":
                raise SessionError("session did not start (is src/sdxa there?)")
            request = {"commands": commands, "seconds": seconds, "trace": trace,
                       "spans": spans, "session": session}
            out, _ = proc.communicate(json.dumps(request) + "\n", timeout=seconds + 150)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not out:
            raise SessionError(f"session exited with code {proc.returncode}")
        reply = json.loads(out.splitlines()[-1])
        if not os.path.abspath(reply["sdxa_file"]).startswith(os.path.join(ROOT, "src")):
            raise SessionError(f"session imported sdxa from {reply['sdxa_file']}")
        return setup, reply


def _environment() -> dict:
    git_sha = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def _prepared(commands: list[Command]) -> list[Command]:
    """Write the input files the commands name (once; they are immutable)."""
    for command in commands:
        for path, text in command.files.items():
            full = os.path.join(ROOT, path)
            if not os.path.exists(full):
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w", encoding="utf-8") as handle:
                    handle.write(text)
    return commands


def _speed_scales(reply: dict) -> tuple[float, list[float]]:
    """Scales for a session's set-up and for each of its commands:
    REFERENCE_S over the median time of the reference probes next to it.
    For the set-up those are the three before the first command.  For a
    command they are the probes just before and just after it and, on each
    side, those between the neighbouring commands up to as long again as
    the command took: a 1 s command is timed against probes from about 1 s
    either side, not from the 20 ms just around it.

    The shared machine runs everything up to 2x slower for seconds and
    10-50% slower for minutes at a time, with CPU time moving with wall time,
    so no estimator over a run's own samples can remove it.  The reference
    loop slows with the program: timed in turn over a minute, one
    ``delta-table`` pair took 84-170 ms while its ratio to the loop stayed
    within 15.3-19.7.  A time times its scale is that time on a machine
    where the loop takes REFERENCE_S."""
    groups = reply["probes_s"]  # groups[i] ran just before command i
    times = [result["s"] for result in reply["results"]]
    commands = []
    for i, own in enumerate(times):
        first, last, before, after = i, i + 1, 0.0, 0.0
        while first > 0 and before < own:
            first -= 1
            before += times[first]
        while last < len(times) and after < own:
            after += times[last]
            last += 1
        probes = [p for group in groups[first:last + 1] for p in group]
        commands.append(REFERENCE_S / statistics.median(probes))
    return REFERENCE_S / statistics.median(groups[0]), commands


def _run_pass(runner: SessionRunner, plans, until: float, probes: int,
              number: int = 1) -> tuple[list[float], list[dict]]:
    """Empty probe sessions, then one whole session per plan while more than
    half of the next one, at this pass's mean session time, fits before
    ``until``.  The first session always starts.  Set-up times are scaled
    by the machine's speed (_speed_scales)."""
    setups = []
    for _ in range(probes):
        setup, reply = runner.run([], 0)
        setups.append(setup * _speed_scales(reply)[0])
    sessions: list[dict] = []
    busy = 0.0
    for index, commands in plans:
        now = perf_counter()
        if sessions and now + busy / len(sessions) / 2 >= until:
            break
        setup, reply = runner.run([c.argv for c in commands], SESSION_SECONDS)
        busy += perf_counter() - now
        sessions.append({"index": index, "pass": number, "commands": commands,
                         "reply": reply, "executed": len(reply["results"]),
                         "setup_s": setup, "scales": _speed_scales(reply)})
    return setups, sessions


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _shared_work(sessions: list[dict]) -> dict:
    """Share of executed commands whose key (and, for tables, whose degree)
    an earlier command of the same session already had."""
    seen_key = seen_d = total = with_d = 0
    for session in sessions:
        keys, degrees = set(), set()
        for command in session["commands"][: session["executed"]]:
            total += 1
            seen_key += command.key in keys
            keys.add(command.key)
            if command.shared_d is not None:
                with_d += 1
                seen_d += command.shared_d in degrees
                degrees.add(command.shared_d)
    out = {"key_seen_share": seen_key / total if total else 0.0, "commands": total}
    if with_d:
        out["trivial_side_cached_share"] = seen_d / with_d
    return out


def _states(commands: list[Command]):
    """Each command's argv and whether an earlier command of its session had
    its key, and its degree: commands in equal states do the same work."""
    keys, degrees = set(), set()
    for command in commands:
        yield (tuple(command.argv), command.key in keys,
               command.shared_d is not None and command.shared_d in degrees)
        keys.add(command.key)
        degrees.add(command.shared_d)


def _end_to_end(passes: list[tuple[list[float], list[dict]]]) -> dict:
    """Every command runs once in each pass, the passes some seconds apart,
    each run scaled by the machine's speed next to it.  A command's latency
    is the median of all runs in its state (its own three, and those of the
    same command in the same state in other sessions), and a set-up the
    median of its three.  A neighbour on the shared machine that slows one pass
    then moves no sample, and on ``tables``, whose median falls between its
    six cheaper and six dearer tables, no single slow run sets the median."""
    median = statistics.median
    setups = [median(runs) for runs in zip(*(probes for probes, _ in passes))]
    for runs in zip(*(sessions for _, sessions in passes)):
        setups.append(median(s["setup_s"] * s["scales"][0] for s in runs))
    runs_of: dict[tuple, list[float]] = {}
    timed = []
    for number, (_, sessions) in enumerate(passes):
        for s in sessions:
            for state, result, scale in zip(_states(s["commands"]), s["reply"]["results"],
                                            s["scales"][1]):
                runs_of.setdefault(state, []).append(result["s"] * scale)
                if number == 0:
                    timed.append(state)
    latencies = [median(runs_of[state]) for state in timed]
    rss = [s["reply"]["maxrss_kb"] / 1024 for s in passes[0][1]]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "throughput_cmd_s": (len(latencies) / sum(latencies), "1/s", len(latencies)),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "latency_p90_ms": (_p90(latencies) * 1e3, "ms", len(latencies)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }


def _per_layer(traced: list[dict], overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced sessions, and self-check failures."""
    commands = 0
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    outcomes = census_pairs = terms = 0
    problems = []
    for session in traced:
        trace = session["reply"]["trace"]
        for index, command in enumerate(session["commands"][: session["executed"]]):
            per_name = trace["per_command"].get(str(index), {})
            counters = trace["counters"].get(str(index), {})
            commands += 1
            for name, (n, own, inclusive) in per_name.items():
                calls[name] = calls.get(name, 0) + n
                self_ns[name] = self_ns.get(name, 0) + own
                total_ns[name] = total_ns.get(name, 0) + inclusive
            terms += counters.get("indexcalc.tail_series.terms", 0)
            kind = command.params["kind"]
            expected = {"census": CENSUS_CALLS, "compose": INGEST_CALLS,
                        "uniformity": INGEST_CALLS}.get(kind, {})
            if kind == "census":
                outcomes += counters.get("census.count.outcomes", 0)
                census_pairs += per_name.get("census.compose_disc", [0])[0]
            for name, count in expected.items():
                got = per_name.get(name, [0])[0]
                if got != count:
                    problems.append(f"{' '.join(command.argv)}: {got} {name} calls, expected {count}")
    n = max(commands, 1)
    metrics = {}
    for name, (kind, unit, spans) in PER_LAYER.items():
        span_calls = sum(calls.get(s, 0) for s in spans)
        span_self = sum(self_ns.get(s, 0) for s in spans)
        value = {
            "calls": lambda: span_calls / n,
            "self": lambda: span_self / 1e6 / n,
            "total": lambda: sum(total_ns.get(s, 0) for s in spans) / 1e6 / n,
            "per_call": lambda: span_self / 1e3 / span_calls if span_calls else 0.0,
            "yield": lambda: outcomes / census_pairs if census_pairs else 0.0,
            "terms": lambda: terms / n,
            "overhead": lambda: overhead,
        }[kind]()
        metrics[name] = (value, unit, commands)
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sdxa", "cli.py")):
        print(f"error: no sdxa sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    fixture = load_fixture(ROOT)
    outputs, curve = load_refs()
    checker = Checker(ROOT, fixture, outputs, curve)
    generator = Generator(args.workload, args.seed, fixture, outputs)
    runner = SessionRunner()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz")
    if args.trace and os.path.exists(spans_path):
        os.remove(spans_path)

    runner.run([], 0)  # warm-up: bytecode compilation, not measured
    start = perf_counter()
    plans = ((i, _prepared(generator.session(i))) for i in itertools.count())
    traced: list[dict] = []
    replayed: list[dict] = []
    if args.trace:
        # each session, then the same commands again, traced, in one window
        setups, sessions = [], []
        for index, commands in plans:
            if sessions and perf_counter() >= start + args.seconds:
                break
            _, first = _run_pass(runner, [(index, commands)], start + args.seconds, 0)
            sessions += first
            done = commands[: first[0]["executed"]]
            _, reply = runner.run([c.argv for c in done], 3600.0, trace=True,
                                  spans=spans_path, session=index)
            traced.append({"index": index, "pass": "traced", "commands": done,
                           "reply": reply, "executed": len(reply["results"]), "setup_s": None})
    else:
        # pass 1 runs new sessions in its share of the window; each later
        # pass replays them all, so every pass times the same whole sessions
        passes = [_run_pass(runner, plans, start + args.seconds / PASSES, SETUP_PROBES)]
        for number in range(2, PASSES + 1):
            replays = ((s["index"], s["commands"][: s["executed"]]) for s in passes[0][1])
            passes.append(_run_pass(runner, replays, math.inf, SETUP_PROBES, number))
        sessions = passes[0][1]
        replayed = [s for _, later in passes[1:] for s in later]

    failures = []
    attempted = 0
    for session in sessions + replayed + traced:
        for command, result in zip(session["commands"], session["reply"]["results"]):
            attempted += 1
            reason = checker.check(command.params, result)
            if reason is not None:
                failures.append({"session": session["index"], "pass": session["pass"],
                                 "argv": command.argv, "reason": reason})
    problems: list[str] = []
    if args.trace:
        untraced_time, traced_time = (
            sum(r["s"] for s in group for r in s["reply"]["results"])
            for group in (sessions, traced))
        metrics, problems = _per_layer(traced, traced_time / untraced_time)
    else:
        metrics = _end_to_end(passes)
    error_rate = len(failures) / attempted if attempted else 1.0
    correct = attempted > 0 and not failures and not problems

    workload = WORKLOADS[args.workload]
    record = {
        "workload": {"name": workload.name, "why": workload.why,
                     "layers": workload.layers, "moves": workload.moves},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "error_rate": {"value": error_rate, "failed": len(failures), "attempted": attempted},
        "shared_work": _shared_work(sessions),
        "sessions": [
            {"index": s["index"], "pass": s["pass"], "commands": [c.argv for c in s["commands"]],
             "executed": s["executed"], "setup_s": s["setup_s"],
             "latencies_s": [r["s"] for r in s["reply"]["results"]],
             "probes_s": s["reply"]["probes_s"], "scales": s.get("scales"),
             "maxrss_kb": s["reply"]["maxrss_kb"],
             # traced copies: per command, span name -> [calls, self ns, inclusive ns]
             "trace": s["reply"].get("trace")}
            for s in sessions + replayed + traced
        ],
        "failures": failures,
        "trace_self_check": problems,
    }
    if args.trace:
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    record_path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    again = "traced" if args.trace else "later passes"
    print(f"workload {workload.name} seed {args.seed}: {len(sessions)} sessions, "
          f"{sum(s['executed'] for s in sessions)} commands; {again}: "
          f"{sum(s['executed'] for s in replayed + traced)} commands")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:10s} n={samples}")
    print(f"  {'error_rate':44s} {error_rate:14.6g} {'ratio':10s} n={attempted}")
    shared = record["shared_work"]
    print("  shared work: " + ", ".join(f"{k}={v:.3g}" for k, v in shared.items()))
    for failure in failures[:10]:
        print(f"  FAIL {' '.join(failure['argv'])}: {failure['reason'][:300]}")
    for problem in problems[:10]:
        print(f"  TRACE SELF-CHECK {problem}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SessionError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
