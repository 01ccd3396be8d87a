"""Unit tests of the summary that ``tools/bench_pairs.py`` writes into a
BENCH file (per side the median and quartiles, and the pairs the change won),
of the per-layer medians over its traced runs, and of the bytecode clearing
it does before every run, and of its ``--pairs`` parsing."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "throughput_cmd_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]


def pair(parent: tuple[float, float], change: tuple[float, float]) -> dict:
    names = [m["name"] for m in METRICS]
    return {"parent": {"metrics": dict(zip(names, parent))},
            "change": {"metrics": dict(zip(names, change))}}


def test_ties_count_for_neither_side():
    summary = bench_pairs.summarise([pair((5, 100), (5, 100))] * 3, METRICS)
    assert [summary[m["name"]]["change_wins"] for m in METRICS] == [0, 0]


def test_lower_metrics_win_when_lower():
    pairs = [pair((5, 100), (6, 90)), pair((5, 100), (4, 110)),
             pair((5, 100), (7, 80))]
    summary = bench_pairs.summarise(pairs, METRICS)
    assert summary["throughput_cmd_s"]["change_wins"] == 2
    assert summary["latency_p50_ms"]["change_wins"] == 2
    assert summary["latency_p50_ms"]["change"]["median"] == 90
    assert summary["latency_p50_ms"]["pairs"] == 3


def test_single_pair_gives_degenerate_quartiles():
    summary = bench_pairs.summarise([pair((5, 100), (6, 90))], METRICS)
    entry = summary["latency_p50_ms"]
    assert entry["parent"] == {"median": 100, "q1": 100, "q3": 100}
    assert entry["change"] == {"median": 90, "q1": 90, "q3": 90}
    assert (entry["better"], entry["bound"], entry["change_wins"]) == (
        "lower", 0.25, 1
    )


def test_per_layer_medians_over_the_traced_runs():
    per_layer = [{"name": "indexcalc.delta.calls"}, {"name": "census.count.self_ms"},
                 {"name": "splitting.generate_table.self_ms"}]

    def traced(parent: dict, change: dict) -> dict:
        return {"parent": {"metrics": parent}, "change": {"metrics": change}}

    runs = [
        traced({"indexcalc.delta.calls": 4, "census.count.self_ms": 6.0,
                "latency_p50_ms": 1.0},
               {"indexcalc.delta.calls": 4, "census.count.self_ms": 9.0,
                "splitting.generate_table.self_ms": 2.0}),
        traced({"indexcalc.delta.calls": 4, "census.count.self_ms": 8.0,
                "latency_p50_ms": 3.0},
               {"indexcalc.delta.calls": 6, "census.count.self_ms": 7.0,
                "splitting.generate_table.self_ms": 3.0}),
    ]
    medians = bench_pairs.per_layer_medians(runs, per_layer)
    # two runs: the median is their mean; end-to-end metrics are left out, and
    # so is a metric one side does not report
    assert medians == {
        "parent": {"indexcalc.delta.calls": 4, "census.count.self_ms": 7.0},
        "change": {"indexcalc.delta.calls": 5, "census.count.self_ms": 8.0,
                   "splitting.generate_table.self_ms": 2.5},
    }
    three = runs + [traced({"indexcalc.delta.calls": 10, "census.count.self_ms": 1.0},
                           {"indexcalc.delta.calls": 0, "census.count.self_ms": 0.5})]
    assert bench_pairs.per_layer_medians(three, per_layer) == {
        "parent": {"indexcalc.delta.calls": 4, "census.count.self_ms": 6.0},
        "change": {"indexcalc.delta.calls": 4, "census.count.self_ms": 7.0},
    }


def test_clear_bytecode_removes_caches_under_src_and_perfbench(tmp_path):
    caches = [tmp_path / "src" / "sdxa" / "__pycache__",
              tmp_path / "src" / "sdxa" / "data" / "__pycache__",
              tmp_path / "perfbench" / "__pycache__"]
    kept = [tmp_path / "tests" / "__pycache__", tmp_path / "__pycache__"]
    for directory in caches + kept:
        (directory / "inner" / "__pycache__").mkdir(parents=True)
        (directory / "m.cpython-312.pyc").write_bytes(b"")
    (tmp_path / "src" / "sdxa" / "splitting.py").write_text("")
    bench_pairs.clear_bytecode(str(tmp_path))
    assert not any(directory.exists() for directory in caches)
    assert all(directory.exists() for directory in kept)
    assert (tmp_path / "src" / "sdxa" / "splitting.py").exists()
    bench_pairs.clear_bytecode(str(tmp_path / "no-such-tree"))


@pytest.mark.parametrize(
    "pairs,message",
    [
        (["tables"], "expected WORKLOAD=N with N >= 1, not 'tables'"),
        (["tables=0"], "expected WORKLOAD=N with N >= 1, not 'tables=0'"),
        (["tables=-1"], "expected WORKLOAD=N with N >= 1, not 'tables=-1'"),
        (["tables=2.5"], "expected WORKLOAD=N with N >= 1, not 'tables=2.5'"),
        (["=3"], "expected WORKLOAD=N with N >= 1, not '=3'"),
        (["tables=3", "census-count=2", "tables=1"], "--pairs names tables twice"),
    ],
    ids=["no-count", "zero", "negative", "fraction", "no-workload", "repeated"],
)
def test_a_bad_pairs_value_is_a_usage_error_before_any_run(monkeypatch, tmp_path, capsys,
                                                          pairs, message):
    def refuse(*args, **kwargs):
        raise AssertionError("run_once was called")

    monkeypatch.setattr(bench_pairs, "run_once", refuse)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path),
            "--out", str(tmp_path / "BENCH.json")]
    for item in pairs:
        argv += ["--pairs", item]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()


def test_each_workload_runs_its_count_of_pairs(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": METRICS, "per_layer": []}))
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=0):
        calls.append((workload, seed, trace))
        return {"git_sha": "a", "src_sha256": "b",
                "metrics": {"throughput_cmd_s": 5.0, "latency_p50_ms": 100.0}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                             "--pairs", "tables=2", "--pairs", "exponents=1",
                             "--first-seed", "5", "--out", str(out)]) == 0
    untraced = [call for call in calls if call[2] == 0]
    assert untraced == [("tables", 5, 0)] * 2 + [("exponents", 5, 0)] * 2 + [
        ("tables", 6, 0)] * 2
    assert len(calls) - len(untraced) == 2 * 2 * 2  # two traced runs per side and workload
    written = json.loads(out.read_text())
    assert written["command"].startswith(
        "python3 tools/bench_pairs.py --pairs tables=2 --pairs exponents=1 --first-seed 5")
    assert [written["workloads"][w]["summary"]["latency_p50_ms"]["pairs"]
            for w in ("tables", "exponents")] == [2, 1]
