"""Command-line interface tests: argument handling, exit codes, output
formats, and determinism.  All invocations but the ``python -m sdxa`` check
go through ``main(argv)``."""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdxa import census, cli, groups, indexcalc, perms, splitting
from sdxa.census import ingest
from sdxa.errors import INT_MAX_STR_DIGITS
from sdxa.groups import AbelianGroup
from sdxa.splitting import generate_table

FIXTURE = cli.bundled_fixture_path()


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_plain(capsys):
    code, out, err = run(capsys, "invariants", "--d", "3", "--A", "C2")
    assert code == 0
    assert "a (minimal index)   = 2" in out
    assert "exponent            = 1/2" in out
    assert "b (minimal orbits)  = 1" in out
    assert "a_A = 1, b_A = 0" in out


def test_invariants_tsv_columns(capsys):
    code, out, _ = run(capsys, "invariants", "--d", "4", "--A", "C2xC2",
                       "--format", "tsv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split("\t") == [
        "d", "A", "group_order", "a", "exponent", "b", "a_A", "b_A"
    ]
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert cells["a"] == "4"
    assert cells["exponent"] == "1/4"
    assert cells["b"] == "1"
    assert cells["group_order"] == "96"
    assert cells["b_A"] == "2"  # three involution orbits, minus one


def test_invariants_rejects_unknown_group(capsys):
    code, _, err = run(capsys, "invariants", "--d", "3", "--A", "Q8")
    assert code == 1
    assert "error:" in err


def test_invariants_rejects_small_degree(capsys):
    code, _, err = run(capsys, "invariants", "--d", "2", "--A", "C2")
    assert code == 1
    assert "error:" in err


def test_invariants_never_enumerate_the_group(capsys, monkeypatch):
    # The invariants are closed forms in |A|, its smallest prime p and the
    # number of invariant factors p divides: no element or class is listed.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated the group")

    monkeypatch.setattr(groups.AbelianGroup, "elements", refuse)
    monkeypatch.setattr(groups, "conjugacy_classes_product", refuse)
    c2_18 = "x".join(["C2"] * 18)
    cases = [
        ("3", "C99991", 599946, 99991, "1/99991", "1/99990", 0),
        ("3", c2_18, 1572864, 262144, "1/262144", "1/131072", 262142),
        ("40", "C2", 2 * math.factorial(40), 2, "1/2", 1, 0),
    ]
    for d, label, order, a, exponent, a_abelian, b_abelian in cases:
        code, out, err = run(capsys, "invariants", "--d", d, "--A", label)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"product group: S{d} x {label} (order {order})",
            "count of fields below X grows like a(K) * X^exponent * "
            "(log X)^(b-1) with:",
            f"  a (minimal index)   = {a}",
            f"  exponent            = {exponent}",
            "  b (minimal orbits)  = 1",
            f"abelian comparison point ({label} alone): "
            f"a_A = {a_abelian}, b_A = {b_abelian}",
        ]


@settings(deadline=None)
@example(d=1559, factors=[2])
@given(
    d=st.integers(min_value=3, max_value=3000),
    factors=st.lists(st.integers(min_value=1, max_value=10**4), min_size=1,
                     max_size=3),
)
def test_invariants_exits_0_or_1_for_every_bounded_input(d, factors):
    # Contract: a result (exit 0) or one error line (exit 1), never a
    # traceback, for d in 3..3000 and A a product of at most three cyclic
    # groups of order <= 10^4 (C1 factors included).  From d = 1559 on for
    # C2, |A| * d! has more digits than Python prints.
    label = "x".join(f"C{n}" for n in factors)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["invariants", "--d", str(d), "--A", label])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


def test_python_m_sdxa_runs_main(capsys):
    _, expected, _ = run(capsys, "invariants", "--d", "3", "--A", "C2")
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def python_m(module, *argv):
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env)

    ok = python_m("sdxa", "invariants", "--d", "3", "--A", "C2")
    assert (ok.returncode, ok.stdout) == (0, expected)
    assert python_m("sdxa", "invariants", "--d").returncode == 2
    # python -m sdxa.cli runs the same main as python -m sdxa
    tsv = ["invariants", "--d", "3", "--A", "C2", "--format", "tsv"]
    via_package, via_cli = python_m("sdxa", *tsv), python_m("sdxa.cli", *tsv)
    assert via_cli.returncode == via_package.returncode == 0
    assert via_cli.stdout == via_package.stdout != ""


# ---------------------------------------------------------------------------
# delta-table
# ---------------------------------------------------------------------------


def test_delta_table_tsv_matches_library(capsys):
    code, out, _ = run(capsys, "delta-table", "--d", "4", "--A", "C2",
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    table = generate_table(4, AbelianGroup.from_label("C2"))
    assert len(lines) == 1 + len(table.rows)
    assert lines[0].split("\t")[0] == "generator"
    generators = [line.split("\t")[0] for line in lines[1:]]
    assert generators == ["2.1.1", "2.2", "3.1", "4"]
    deltas = [line.split("\t")[5] for line in lines[1:]]
    assert deltas == ["2", "4", "2", "4"]


def test_delta_table_is_deterministic(capsys):
    first = run(capsys, "delta-table", "--d", "5", "--A", "C5", "--format", "tsv")
    second = run(capsys, "delta-table", "--d", "5", "--A", "C5", "--format", "tsv")
    assert first == second


def test_delta_table_rejects_composite_group(capsys):
    # 1000000016000000063 = 1000000007 * 1000000009 is proven composite by
    # Miller-Rabin, with no trial division up to 10^9
    for label in ("C4", "C1000000016000000063"):
        code, out, err = run(capsys, "delta-table", "--d", "3", "--A", label)
        assert (code, out) == (1, "")
        assert err == ("error: tables require a prime-cyclic group (column "
                       "conventions depend on it)\n")


# ---------------------------------------------------------------------------
# verify-lemmas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,label", [(3, "C2"), (4, "C2xC2"), (5, "C6")])
def test_verify_lemmas_passes(capsys, d, label):
    code, out, err = run(capsys, "verify-lemmas", "--d", str(d), "--A", label)
    assert code == 0
    assert "all verified" in out
    assert err == ""


def test_verify_lemmas_takes_no_format(capsys):
    # its output is the same lines in every format, so it has no --format
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-lemmas", "--d", "3", "--A", "C2", "--format", "tsv"])
    assert exc.value.code == 2


def test_verify_lemmas_reports_equality_classes(capsys):
    # equality needs an abelian element whose order divides every cycle
    # length: for d = 3 that means order 3, so C2 has none and C3 has two
    _, out, _ = run(capsys, "verify-lemmas", "--d", "3", "--A", "C2")
    assert "equality classes: (none)" in out
    _, out, _ = run(capsys, "verify-lemmas", "--d", "3", "--A", "C3")
    assert "equality classes: ((3), (1)), ((3), (2))" in out


def test_delta_keeps_at_most_its_bound_across_commands(capsys):
    # S5 x C211 has 7 * 211 - 1 = 1,476 classes; a process that goes on
    # calling main keeps no more of them than delta's bound
    indexcalc.delta.cache_clear()
    assert run(capsys, "verify-lemmas", "--d", "5", "--A", "C211")[0] == 0
    info = indexcalc.delta.cache_info()
    assert info.misses == 1476 and info.maxsize is not None
    assert info.currsize <= info.maxsize < info.misses


# The classes of S3 x C2 with nontrivial abelian part and all its nontrivial
# classes, each in enumeration order.
C2_CLASSES = ["((3), (1))", "((2,1), (1))", "((1,1,1), (1))"]
C2_ALL_CLASSES = ["((3), (0))", "((3), (1))", "((2,1), (0))", "((2,1), (1))",
                  "((1,1,1), (1))"]


def _drops_an_equality(g, h):
    """``index_compare`` with its equality flag lost on ((3), (2)) of S3 x C3."""
    comparison = _INDEX_COMPARE(g, h)
    if (str(g), str(h)) == ("(3)", "(2)"):
        return comparison._replace(equality=False)
    return comparison


_INDEX_COMPARE = indexcalc.index_compare


@pytest.mark.parametrize("label,patches,expected", [
    ("C2", {"theta": lambda *cls: Fraction(1)},
     [f"theta positive on {c}" for c in C2_ALL_CLASSES]),
    # lhs > rhs is also a deficit below one unit
    ("C2", {"index_compare": lambda g, h: indexcalc.IndexComparison(2, 1, False, False)},
     [line for c in C2_CLASSES
      for line in (f"lower bound fails on {c}", f"sub-unit deficit on {c}")]),
    ("C2", {"index_compare": lambda g, h: indexcalc.IndexComparison(1, 2, False, True)},
     [f"equality/divisibility mismatch on {c}" for c in C2_CLASSES]),
    ("C2", {"index_compare": lambda g, h: indexcalc.IndexComparison(1, 1, False, False)},
     [f"sub-unit deficit on {c}" for c in C2_CLASSES]),
    # S3 x C3 has two equality classes, which an empty catalogue misses
    ("C3", {"equality_cases": lambda d, group: []},
     ["equality catalogue disagrees with direct scan"]),
    # a wrong index_compare everywhere, as a source mutant would be: the
    # catalogue, read from the lemma's torsion form, still lists the class
    ("C3", {"index_compare": _drops_an_equality},
     ["equality/divisibility mismatch on ((3), (2))", "sub-unit deficit on ((3), (2))",
      "equality catalogue disagrees with direct scan"]),
], ids=["theta", "lower-bound", "mismatch", "deficit", "catalogue", "index-compare-mutant"])
def test_verify_lemmas_failure_lines(capsys, monkeypatch, label, patches, expected):
    # each stub replaces the name in every module that defines it
    for name, stub in patches.items():
        for module in (cli, indexcalc):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stub)
    code, out, err = run(capsys, "verify-lemmas", "--d", "3", "--A", label)
    assert code == 1
    assert err.splitlines() == [f"FAIL: {line}" for line in expected]
    assert "all verified" not in out


# ---------------------------------------------------------------------------
# tail-bound
# ---------------------------------------------------------------------------


def test_tail_bound_from_presets(capsys):
    code, out, _ = run(capsys, "tail-bound", "--d", "3", "--A", "C2",
                       "--m", "2", "--Y", "16", "65536")
    assert code == 0
    assert "beta = -499/1000 (preset)" in out
    assert "attained on: ((2,1), (1))" in out
    lines = out.strip().split("\n")
    assert lines[-2].split()[0] == "16"
    assert lines[-1].split()[0] == "65536"


def test_tail_bound_explicit_beta_tsv(capsys):
    code, out, _ = run(capsys, "tail-bound", "--d", "3", "--A", "C2",
                       "--m", "2", "--Y", "16", "--beta", "-1",
                       "--epsilon", "0", "--format", "tsv")
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split("\t"), row.split("\t")))
    # geometric closed form: sum_{r>=2} (r+1) 2^-r = 2
    assert float(cells["value"]) == pytest.approx(2.0, rel=1e-9)
    assert cells["r_start"] == "2"


def test_tail_bound_divergent_series_is_an_error(capsys):
    code, _, err = run(capsys, "tail-bound", "--d", "3", "--A", "C2",
                       "--m", "2", "--Y", "16", "--beta", "1/2")
    assert code == 1
    assert "diverges" in err


def test_tail_bound_over_the_trivial_group_is_an_error(capsys):
    code, out, err = run(capsys, "tail-bound", "--d", "3", "--A", "C1",
                         "--m", "2", "--Y", "16")
    assert (code, out) == (1, "")
    assert err == "error: no classes with both components nontrivial (is the group trivial?)\n"


def test_tail_bound_epsilon_must_be_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tail-bound", "--d", "3", "--A", "C2", "--m", "2",
                  "--Y", "16", "--epsilon", "tiny"])
    assert exc.value.code == 2


TAIL = ["tail-bound", "--d", "3", "--A", "C2", "--m", "2", "--Y", "16"]
STRICT_FLAGS = {
    "tail-Y-arabic": (TAIL[:-1] + ["١٦"], "--Y", "invalid float value: '١٦'"),
    "tail-Y-underscore": (TAIL + ["1_6"], "--Y", "invalid float value: '1_6'"),
    "tail-Y-space": (TAIL[:-1] + [" 16"], "--Y", "invalid float value: ' 16'"),
    "d-arabic": (["invariants", "--A", "C2", "--d", "٣"], "--d", "invalid int value: '٣'"),
    "d-plus": (["invariants", "--A", "C2", "--d=+3"], "--d", "invalid int value: '+3'"),
    "d-space": (["invariants", "--A", "C2", "--d", " 3"], "--d", "invalid int value: ' 3'"),
    "m-underscore": (["tail-bound", "--d", "3", "--A", "C2", "--Y", "16", "--m", "1_0"],
                     "--m", "invalid int value: '1_0'"),
    "census-X-underscore": (["census", "--d", "3", "--A", "C2", "--X", "1_000"],
                            "--X", "invalid int value: '1_000'"),
    "census-Y-arabic": (["census", "--d", "3", "--A", "C2", "--X", "100", "--Y", "١٠٠"],
                        "--Y", "invalid int value: '١٠٠'"),
    "uniformity-X-space": (["uniformity", "--d", "3", "--uniformity-spec", "s.json", "--X",
                            "100 "], "--X", "invalid int value: '100 '"),
    "beta-arabic": (TAIL + ["--beta", "١/٢"], "--beta", "not a rational number: '١/٢'"),
    "beta-plus": (TAIL + ["--beta=+1/2"], "--beta", "not a rational number: '+1/2'"),
    "beta-underscore": (TAIL + ["--beta", "-1_0/3"], "--beta",
                        "not a rational number: '-1_0/3'"),
    "epsilon-space": (TAIL + ["--epsilon", "1/1000 "], "--epsilon",
                      "not a rational number: '1/1000 '"),
    "epsilon-zero-denominator": (TAIL + ["--epsilon", "1/0"], "--epsilon",
                                 "not a rational number: '1/0'"),
}


@pytest.mark.parametrize("argv,flag,message", STRICT_FLAGS.values(), ids=STRICT_FLAGS.keys())
def test_a_numeric_flag_reads_ascii_digits_or_is_a_usage_error(capsys, argv, flag, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: {message}\n")


@pytest.mark.parametrize("y", ["inf", "nan", "1e400"])
def test_a_cutoff_the_float_reader_takes_must_still_be_finite(capsys, y):
    code, out, err = run(capsys, *TAIL[:-1], y)
    assert (code, out) == (1, "")
    assert err == f"error: cutoff y must be finite, got {float(y)}\n"


def test_a_cutoff_in_exponent_form_prints_a_row(capsys):
    code, out, _ = run(capsys, *TAIL, "4.57556e+11", "--format", "tsv")
    assert code == 0
    assert [row.split("\t")[0] for row in out.splitlines()] == ["y", "16", "4.57556e+11"]


@pytest.mark.parametrize("beta,epsilon,exponent", [
    ("-1/2", "1/1000", "-499/1000"), ("-0.5", "0.001", "-499/1000"), ("-1", "0", "-1"),
    ("-.25", "-1/4", "-1/2")])
def test_a_rational_flag_reads_a_fraction_or_a_decimal(capsys, beta, epsilon, exponent):
    code, out, _ = run(capsys, *TAIL, "--beta", beta, "--epsilon", epsilon)
    assert code == 0
    assert out.splitlines()[0].endswith(f"series exponent beta + epsilon = {exponent}")


def test_tail_bound_comparator_underflow_is_an_error(capsys):
    # (log y)^(m-1) * y^(beta+epsilon) is below the smallest float here
    code, out, err = run(capsys, "tail-bound", "--d", "3", "--A", "C2",
                         "--m", "2", "--Y", "1e300", "--beta=-5")
    assert code == 1
    assert out == ""
    assert err == "error: the comparator underflows to 0 at y = 1e+300\n"


def test_tail_bound_comparator_overflow_sums_no_terms(capsys, monkeypatch):
    # The comparator is formed before the m terms, so an overflowing
    # comparator is reported without a million lgamma-based terms.
    calls = []
    lgamma = indexcalc.math.lgamma

    def counting_lgamma(x):
        calls.append(x)
        return lgamma(x)

    monkeypatch.setattr(indexcalc.math, "lgamma", counting_lgamma)
    code, out, err = run(capsys, "tail-bound", "--d", "3", "--A", "C2",
                         "--m", "1000000", "--Y", "16", "--beta=-1")
    assert (code, out) == (1, "")
    assert err == "error: the comparator overflows at y = 16\n"
    assert calls == []


@pytest.mark.parametrize(
    "option,value,name",
    [("--beta", "-1/500", "--beta"), ("--epsilon", "-1/500", "--epsilon"),
     ("--bet", "-1/500", "--beta"), ("--eps", "-1/10", "--epsilon")],
    ids=["--beta", "--epsilon", "--bet", "--eps"],
)
def test_tail_bound_negative_rational_as_separate_value(capsys, option, value,
                                                        name):
    # argparse resolves an abbreviation such as --bet to --beta, so the value
    # is joined to it as to the full name.
    base = ["tail-bound", "--d", "3", "--A", "C2", "--m", "2", "--Y", "16",
            "--format", "tsv"]
    if name == "--epsilon":
        base += ["--beta", "-1/2"]
    spaced = run(capsys, *base, option, value)
    joined = run(capsys, *base, f"{name}={value}")
    assert spaced[0] == 0
    assert spaced == joined


def test_negative_value_after_another_subcommand_is_not_joined(capsys):
    # Only tail-bound has --beta and --epsilon, so the usage error of another
    # subcommand names the tokens as typed.
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--d", "3", "--A", "C2", "--X", "1000",
                  "--beta", "-1"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --beta -1" in err
    assert "--beta=-1" not in err


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_on_bundled_fixture(capsys):
    code, out, err = run(capsys, "census", "--d", "3", "--A", "C2",
                         "--X", "20000")
    assert code == 0
    assert "count below X = 20000 (exact):" in out
    assert "flagged wild-overlap pairs:" in out
    assert err == ""  # within coverage: no warnings


def test_census_tsv_columns(capsys):
    code, out, _ = run(capsys, "census", "--d", "3", "--A", "C2",
                       "--X", "20000", "--format", "tsv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split("\t") == ["x", "y", "count", "flagged_wild_pairs",
                                  "fit_constant"]
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert int(cells["count"]) > 0
    assert cells["y"] == ""


def test_census_truncated(capsys):
    code, out, _ = run(capsys, "census", "--d", "3", "--A", "C2",
                       "--X", "20000", "--Y", "1000")
    assert code == 0
    assert "truncated at y = 1000" in out


def test_census_rejects_low_truncation_cutoff(capsys):
    code, _, err = run(capsys, "census", "--d", "3", "--A", "C2",
                       "--X", "20000", "--Y", "12")
    assert code == 1
    assert "wild modulus" in err


def test_census_warns_beyond_coverage(capsys):
    code, _, err = run(capsys, "census", "--d", "3", "--A", "C2",
                       "--X", str(10**7))
    assert code == 0
    assert "warning:" in err


def test_a_census_command_reads_the_coverage_headers_once_after_the_load(capsys, monkeypatch):
    # the load checks each of the fixture's 9 headers, and the first read of
    # Dataset.coverage parses them again; its three later reads parse none
    calls: list[str] = []

    def counted(header, *args, _original=census._coverage_entry):
        calls.append(header)
        return _original(header, *args)

    monkeypatch.setattr(census, "_coverage_entry", counted)
    code, _, err = run(capsys, "census", "--d", "3", "--A", "C2", "--X", str(10**6))
    assert (code, err) == (0, "")
    assert len(calls) == 18 and calls[:9] == calls[9:]
    assert sum(header.startswith("#coverage") for header in calls) == 4


def test_census_huge_abelian_order_is_answered(capsys):
    # the S3 coverage check compares 2000 ** |A| with X; it must not build it,
    # and the group label must not be factored (|A| is a prime near 10^18)
    for label in ("C999983", "C1000000000000000003"):
        code, out, err = run(capsys, "census", "--d", "3", "--A", label,
                             "--X", "10")
        assert code == 0
        assert "count below X = 10 (exact): 0" in out
        assert err == f"warning: no coverage assertion for group {label}\n"


def test_census_loads_a_quadratic_record_at_a_prime_near_10_to_the_18(
        capsys, tmp_path):
    # its quadratic subfield is checked against its own primes, not factored
    p = 1000000000000000003
    dataset = tmp_path / "big.txt"
    dataset.write_text(f"2.big;2;C2;-{p};{p}:t(2);-{p}\n")
    code, out, err = run(capsys, "census", "--dataset", str(dataset), "--d", "3",
                         "--A", "C2", "--X", "10")
    assert code == 0
    assert "count below X = 10 (exact): 0" in out
    assert err == ("warning: no coverage assertion for group S3\n"
                   "warning: no coverage assertion for group C2\n")


def test_census_missing_dataset_is_error_not_traceback(capsys):
    code, _, err = run(capsys, "census", "--d", "3", "--A", "C2",
                       "--X", "100", "--dataset", "/nonexistent/file.txt")
    assert code == 1
    assert "error:" in err


def test_census_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--d", "3", "--A", "C2"])  # missing --X
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def test_compose_pair_from_fixture(capsys):
    code, out, _ = run(capsys, "compose", "--F", "3.-23.1", "--K", "2.-4.1")
    assert code == 0
    assert "linearly disjoint: yes" in out
    assert "# magnitude = 33856 (exact)" in out


def test_compose_tsv_breakdown(capsys):
    code, out, _ = run(capsys, "compose", "--F", "3.-23.1", "--K", "2.-4.1",
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["prime", "v_f", "v_k", "delta_p", "v_fk"]
    assert lines[1].split("\t") == ["2", "0", "2", "0", "6"]
    assert lines[2].split("\t") == ["23", "1", "0", "0", "2"]


def test_compose_wild_overlap_reports_bracket(capsys):
    code, out, _ = run(capsys, "compose", "--F", "3.-104.1", "--K", "2.8.1")
    assert code == 0
    assert "unresolved wild overlap at: 2" in out
    assert "magnitude in [" in out


def test_compose_with_override_file(capsys, tmp_path):
    overrides = tmp_path / "wild.json"
    overrides.write_text(json.dumps(
        {"overrides": [{"p": 2, "f_val": 3, "k_val": 3, "delta": 4}]}
    ))
    code, out, _ = run(capsys, "compose", "--F", "3.-104.1", "--K", "2.8.1",
                       "--wild-overrides", str(overrides))
    assert code == 0
    assert "(exact)" in out


def test_compose_unknown_label(capsys):
    code, _, err = run(capsys, "compose", "--F", "no-such", "--K", "2.-4.1")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# uniformity
# ---------------------------------------------------------------------------


def test_uniformity_with_spec_file(capsys, tmp_path):
    spec = tmp_path / "bins.json"
    spec.write_text(json.dumps({
        "bins": [{"classes": ["3"], "q": 1}],
    }))
    code, out, _ = run(capsys, "uniformity", "--d", "3",
                       "--uniformity-spec", str(spec), "--X", "2000")
    assert code == 0
    lines = out.strip().split("\n")
    count = int(lines[-1].split()[1])
    expected = sum(
        1 for r in ingest(FIXTURE).by_group("S3") if abs(r.disc) < 2000
    )
    assert count == expected


def test_uniformity_tsv_multiple_cutoffs(capsys, tmp_path):
    spec = tmp_path / "bins.json"
    spec.write_text(json.dumps({
        "bins": [{"classes": ["3"], "q": 7, "exponent": "-1/2"}],
    }))
    code, out, _ = run(capsys, "uniformity", "--d", "3",
                       "--uniformity-spec", str(spec),
                       "--X", "500", "--X", "2000", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["x", "count", "ratio"]
    assert len(lines) == 3
    first, second = lines[1].split("\t"), lines[2].split("\t")
    assert int(first[1]) <= int(second[1])
    assert first[2] and second[2]  # exponent given: ratio populated


def test_uniformity_warns_when_no_coverage_header_names_the_group(capsys,
                                                                tmp_path):
    # The fixture asserts coverage for S3 only: d = 4 counts nothing and says so.
    spec = tmp_path / "bins.json"
    spec.write_text(json.dumps({"bins": [{"classes": ["2.2"], "q": 1}]}))
    code, out, err = run(capsys, "uniformity", "--d", "4",
                         "--uniformity-spec", str(spec), "--X", "1000")
    assert code == 0
    assert out.strip().split("\n")[-1].split() == ["1000", "0"]
    assert err == "warning: no coverage assertion for group S4\n"
    spec.write_text(json.dumps({"bins": [{"classes": ["3"], "q": 1}]}))
    code, _, err = run(capsys, "uniformity", "--d", "3",
                       "--uniformity-spec", str(spec), "--X", "1000")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("bins", [[], [{"classes": ["3"], "q": 1}]],
                         ids=["no-bins", "one-bin"])
@pytest.mark.parametrize("d", ["-1", "0", "2"])
def test_uniformity_rejects_a_degree_below_3_with_one_error(capsys, tmp_path, d,
                                                            bins):
    # the error comes alone: no coverage warning for a measurement never made
    spec = tmp_path / "bins.json"
    spec.write_text(json.dumps({"bins": bins}))
    code, out, err = run(capsys, "uniformity", "--d", d,
                         "--uniformity-spec", str(spec), "--X", "10")
    assert (code, out) == (1, "")
    assert err == "error: the product model requires d >= 3\n"


def test_uniformity_overlapping_spec_is_error(capsys, tmp_path):
    spec = tmp_path / "bins.json"
    spec.write_text(json.dumps({
        "bins": [
            {"classes": ["3"], "q": 1},
            {"classes": ["3"], "q": 7},
        ],
    }))
    code, _, err = run(capsys, "uniformity", "--d", "3",
                       "--uniformity-spec", str(spec), "--X", "100")
    assert code == 1
    assert "disjoint" in err


@pytest.mark.parametrize(
    "argv,file_text",
    [
        (["compose", "--F", "3.-104.1", "--K", "2.8.1", "--wild-overrides"],
         "{not json"),
        (["census", "--d", "3", "--A", "C2", "--X", "100", "--wild-overrides"],
         json.dumps({"overrides": [{"p": 2, "k_val": 3, "delta": 4}]})),
        (["uniformity", "--d", "3", "--X", "100", "--uniformity-spec"],
         json.dumps({"bins": [{"classes": ["x"], "q": 1}]})),
        (["uniformity", "--d", "3", "--X", "100", "--uniformity-spec"],
         json.dumps({"bins": [{"classes": ["3"]}]})),
        (["uniformity", "--d", "3", "--X", "100", "--uniformity-spec"],
         json.dumps({"bins": [{"classes": ["3"], "q": 1, "exponent": "abc"}]})),
        (["tail-bound", "--d", "3", "--A", "C2", "--m", "2", "--Y", "inf"], None),
        (["tail-bound", "--d", "3", "--A", "C2", "--m", "2", "--Y", "nan"], None),
        (["tail-bound", "--d", "3", "--A", "C2", "--m", "200", "--Y", "1e300",
          "--beta=-1/2"], None),
        (["census", "--d", "3", "--A", "C2", "--X", "100", "--dataset"],
         b"\xff\xfe not text"),
        (["census", "--d", "3", "--A", "C2", "--X", "100", "--wild-overrides"],
         b"\xff\xfe not text"),
        (["uniformity", "--d", "3", "--X", "100", "--uniformity-spec"],
         b"\xff\xfe not text"),
        (["tail-bound", "--d", "3", "--A", "C2", "--m", "2", "--Y", "16",
          "--beta=-1" + "0" * 400], None),
        (["census", "--d", "3", "--A", "C2", "--X", "1" + "0" * 400], None),
        (["uniformity", "--d", "3", "--X", "0", "--uniformity-spec"],
         json.dumps({"bins": [{"classes": ["3"], "q": 7, "exponent": "-1/2"}]})),
        (["uniformity", "--d", "3", "--X", "-5", "--uniformity-spec"],
         json.dumps({"bins": [{"classes": ["3"], "q": 7, "exponent": "-1/2"}]})),
        (["uniformity", "--d", "3", "--X", "1" + "0" * 400, "--uniformity-spec"],
         json.dumps({"bins": [{"classes": ["3"], "q": 7, "exponent": "-1/2"}]})),
        (["uniformity", "--d", "3", "--X", "2000", "--uniformity-spec"],
         json.dumps({"bins": [{"classes": ["3"], "q": 7, "exponent": "-100000"}]})),
        (["uniformity", "--d", "3", "--X", "2000", "--uniformity-spec"],
         json.dumps({"bins": [{"classes": ["3"], "q": 7, "exponent": "100000"}]})),
        (["census", "--d", "2", "--A", "C2", "--X", "100"], None),
        (["census", "--d", "1600", "--A", "C2", "--X", "100", "--Y", "13"], None),
        (["census", "--d", "1000000", "--A", "C2", "--X", "100", "--Y", "13"],
         None),
        (["invariants", "--d", "1600", "--A", "C2"], None),
        (["invariants", "--d", "1000000", "--A", "C2"], None),
        (["compose", "--F", "3.175", "--K", "2.28", "--dataset"],
         "3.175;3;S3;175;175:t(2.1);\n2.28;2;C2;28;2:w(2),7:t(2);28\n"),
        (["census", "--d", "3", "--A", "C2", "--X", "10", "--dataset"],
         f"2.m89;2;C2;{2**89 - 1};{2**89 - 1}:t(2);\n"),
        (["census", "--d", "3", "--A", "C2", "--X", "10", "--dataset"],
         "#coverage group=S3 maxdisc=2000\n#coverage group=S3 maxdisc=100\n"),
    ],
    ids=["overrides-json", "overrides-no-f_val", "spec-class-x", "spec-no-q",
         "spec-exponent-abc", "tail-Y-inf", "tail-Y-nan",
         "tail-comparator-overflow", "dataset-not-utf8",
         "overrides-not-utf8", "spec-not-utf8", "tail-exponent-past-float",
         "census-X-past-float", "spec-X-0", "spec-X-negative",
         "spec-X-past-float", "spec-comparator-underflow",
         "spec-comparator-overflow", "census-d-2", "census-modulus-past-digits",
         "census-modulus-huge-d", "invariants-order-past-digits",
         "invariants-order-huge-d", "dataset-composite-prime",
         "dataset-unproven-prime", "dataset-duplicate-coverage"],
)
def test_malformed_input_is_an_error_not_a_traceback(capsys, tmp_path, argv,
                                                     file_text):
    if file_text is not None:
        path = tmp_path / "input.json"
        if isinstance(file_text, bytes):
            path.write_bytes(file_text)
        else:
            path.write_text(file_text)
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@settings(deadline=None)
@example(m=200, y=1e300, beta=Fraction(-1, 2))
@given(
    m=st.integers(min_value=1, max_value=300),
    y=st.floats(min_value=1, max_value=1e308, exclude_min=True),
    beta=st.fractions(min_value=-10, max_value=Fraction(-1, 10**6),
                      max_denominator=10**6),
)
def test_tail_bound_exits_0_or_1_for_every_bounded_input(m, y, beta):
    # Contract: a result (exit 0) or one error line (exit 1), never a
    # traceback, for m in 1..300, y in (1, 1e308] and beta in [-10, -1e-6].
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["tail-bound", "--d", "3", "--A", "C2", "--m", str(m),
                         "--Y", repr(y), f"--beta={beta}"])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


# Bounded contract inputs for the other five subcommands: d <= 6, groups of
# order <= 12 or malformed labels, X <= 10^7, and record, override and spec
# files that are random bytes, built from the format's fields with arbitrary
# values, or a valid file with a few short spans replaced.
DEGREES = st.one_of(st.integers(min_value=3, max_value=5),
                    st.integers(min_value=-1, max_value=6)).map(str)
GROUP_LABELS = (st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3)
                .filter(lambda factors: math.prod(factors) <= 12)
                .map(lambda factors: "x".join(f"C{n}" for n in factors)))
LABELS = st.one_of(
    GROUP_LABELS, GROUP_LABELS,
    st.sampled_from(["", "C", "C0", "Q8", "C2x", "xC2", "c2", "C-2", "C2xC0",
                     "C 2", "C2C3", "C\u0663", "C2\n"]),
    st.text(alphabet="Cxc0- ", max_size=5),
)
CUTOFFS = st.integers(min_value=-10, max_value=10**7).map(str)
FORMATS = st.sampled_from([[], [], ["--format", "plain"], ["--format", "tsv"],
                           ["--format", "json"]])
RECORD_LINES = [
    "#coverage group=S3 maxdisc=2000", "3.-23.1;3;S3;-23;23:t(2.1);",
    "3.-175.1;3;S3;-175;5:t(3),7:t(2.1);",
    "3.-204.1;3;S3;-204;2:w(2),3:w(1),17:t(2.1);",
    "2.-3.1;2;C2;-3;3:t(2);-3", "2.-4.1;2;C2;-4;2:w(2);-4", "2.5.1;2;C2;5;5:t(2);5",
]
VALID_FILES = {
    "dataset": "\n".join(RECORD_LINES) + "\n",
    "overrides": json.dumps({"overrides": [{"p": 2, "f_val": 2, "k_val": 2,
                                            "delta": 4}]}),
    "spec": json.dumps({"bins": [{"classes": ["3", "2.1"], "q": 7,
                                  "exponent": "-1/2"}]}),
}
JSON_VALUES = st.one_of(st.integers(min_value=-3, max_value=12), st.none(),
                        st.booleans(), st.floats(), st.text(max_size=4),
                        st.lists(st.integers(min_value=-3, max_value=12), max_size=2))
INTS = st.integers(min_value=-100, max_value=3000).map(str)
DATUM = st.builds("{}:{}".format, st.integers(min_value=-1, max_value=60), st.one_of(
    st.builds("t({})".format, st.lists(st.integers(min_value=0, max_value=4).map(str),
                                       max_size=4).map(".".join)),
    st.builds("w({})".format, st.integers(min_value=-1, max_value=9))))
RECORD = st.builds(
    ";".join,
    st.tuples(st.sampled_from(["a", "b", "3.-23.1", ""]),
              st.integers(min_value=-1, max_value=6).map(str),
              st.sampled_from(["S3", "S4", "C2", "C3", "C2xC2", "C1", "X"]), INTS,
              st.lists(DATUM, max_size=3).map(",".join),
              st.lists(INTS, max_size=2).map(",".join)))
GENERATED_FILES = {
    "dataset": st.lists(st.one_of(RECORD, st.sampled_from(RECORD_LINES)), max_size=4)
    .map(lambda lines: "\n".join(lines) + "\n"),
    "overrides": st.builds(lambda entries: json.dumps({"overrides": entries}), st.lists(
        st.fixed_dictionaries({key: JSON_VALUES for key in ("p", "f_val", "k_val",
                                                            "delta")}), max_size=2)),
    "spec": st.builds(lambda bins: json.dumps({"bins": bins}), st.lists(
        st.fixed_dictionaries({
            "classes": st.one_of(JSON_VALUES, st.lists(st.sampled_from(
                ["3", "2.1", "1.1.1", "2.2", "4", "0", "3.x", "-3", ""]), max_size=3)),
            "q": JSON_VALUES,
            "exponent": st.one_of(JSON_VALUES, st.sampled_from(["-1/2", "1/3", "0"])),
        }), max_size=3)),
}


@st.composite
def contract_file(draw, kind: str) -> bytes:
    """A file of one kind: random bytes, one generated from the format's
    fields with arbitrary values, or a valid file with up to three short
    spans replaced."""
    choice = draw(st.integers(min_value=0, max_value=9))
    if choice == 0:
        return draw(st.binary(max_size=12))
    if choice < 5:
        return draw(GENERATED_FILES[kind]).encode()
    text = VALID_FILES[kind]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=len(text)))
        stop = draw(st.integers(min_value=start, max_value=min(len(text), start + 4)))
        patch = draw(st.text(alphabet='0123456789-+;:,./()twxCS#"[]{}e \n',
                             max_size=4))
        text = text[:start] + patch + text[stop:]
    return text.encode()


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def file_option(directory: Path, option: str, content: bytes | None) -> list[str]:
    """No option (the default) when ``content`` is None, else ``option``
    naming a file that holds it."""
    if content is None:
        return []
    path = directory / f"{option.strip('-')}.txt"
    path.write_bytes(content)
    return [option, str(path)]


def assert_contract(argv: list[str]) -> None:
    """A result (exit 0), one error line (exit 1) or a usage error (exit 2),
    never an uncaught exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().splitlines()[-1].startswith("error:"), argv
        assert err.getvalue().count("error:") == 1, argv


CONTRACT = settings(max_examples=40, deadline=None, derandomize=True)
DATASETS = st.none() | contract_file("dataset")
OVERRIDES = st.none() | contract_file("overrides")


@CONTRACT
@example(d="3", label="C2", fmt=[])
@example(d="5", label="C7", fmt=["--format", "tsv"])
@given(d=DEGREES, label=LABELS, fmt=FORMATS)
def test_delta_table_exits_0_1_or_2_for_every_bounded_input(d, label, fmt):
    assert_contract(["delta-table", "--d", d, "--A", label, *fmt])


@CONTRACT
@example(d="4", label="C2xC2")
@given(d=DEGREES, label=LABELS)
def test_verify_lemmas_exits_0_1_or_2_for_every_bounded_input(d, label):
    assert_contract(["verify-lemmas", "--d", d, "--A", label])


@settings(max_examples=20, deadline=None, derandomize=True)
@example(d="3", label="C2", x="1000000", y=["--Y", "100"], fmt=[], dataset=None,
         overrides=VALID_FILES["overrides"].encode())
@example(d="3", label="C2", x="100000", y=[], fmt=["--format", "tsv"],
         dataset=VALID_FILES["dataset"].encode(), overrides=None)
@given(d=DEGREES, label=LABELS, x=CUTOFFS, fmt=FORMATS,
       y=st.one_of(st.just([]), CUTOFFS.map(lambda y: ["--Y", y])),
       dataset=DATASETS, overrides=OVERRIDES)
def test_census_exits_0_1_or_2_for_every_bounded_input(contract_dir, d, label, x,
                                                      fmt, y, dataset, overrides):
    assert_contract(["census", "--d", d, "--A", label, "--X", x, *y, *fmt,
                     *file_option(contract_dir, "--dataset", dataset),
                     *file_option(contract_dir, "--wild-overrides", overrides)])


@CONTRACT
@example(labels=["3.-204.1", "2.-4.1"], fmt=[], dataset=None,
         overrides=VALID_FILES["overrides"].encode())
@example(labels=["3.-23.1", "2.-3.1"], fmt=["--format", "tsv"],
         dataset=VALID_FILES["dataset"].encode(), overrides=None)
@given(fmt=FORMATS, dataset=DATASETS, overrides=OVERRIDES,
       labels=st.lists(st.sampled_from(["3.-23.1", "3.-204.1", "2.-4.1", "2.5.1",
                                        "2.-3.1", "", "nope", "3.-23"]),
                       min_size=2, max_size=2))
def test_compose_exits_0_1_or_2_for_every_bounded_input(contract_dir, labels, fmt,
                                                       dataset, overrides):
    assert_contract(["compose", "--F", labels[0], "--K", labels[1], *fmt,
                     *file_option(contract_dir, "--dataset", dataset),
                     *file_option(contract_dir, "--wild-overrides", overrides)])


@CONTRACT
@example(d="3", xs=["500", "2000"], fmt=[], spec=VALID_FILES["spec"].encode(), dataset=None)
@example(d="3", xs=["100"], fmt=["--format", "tsv"], spec=VALID_FILES["spec"].encode(),
         dataset=VALID_FILES["dataset"].encode())
@given(d=DEGREES, fmt=FORMATS, xs=st.lists(CUTOFFS, min_size=1, max_size=3),
       spec=contract_file("spec"), dataset=DATASETS)
def test_uniformity_exits_0_1_or_2_for_every_bounded_input(contract_dir, d, xs, fmt,
                                                          spec, dataset):
    assert_contract(["uniformity", "--d", d,
                     *file_option(contract_dir, "--uniformity-spec", spec), *fmt,
                     *(arg for x in xs for arg in ("--X", x)),
                     *file_option(contract_dir, "--dataset", dataset)])


# ---------------------------------------------------------------------------
# exact layouts: one command per subcommand and format
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
FROM_README = None  # the plain case is the README's example for these argv
README_SPEC = {"bins": [{"classes": ["3"], "q": 8, "exponent": "-1/2"}]}


def readme_examples() -> dict[str, str]:
    """The `Command line` examples of the README: argv text -> stdout."""
    section = README.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```text\n\$ sdxa (.*?)\n(.*?)```", section, re.S)
    return {
        argv: stdout.replace(".../sdxa/data/cubic_quadratic_fields.txt", FIXTURE)
        for argv, stdout in blocks
    }


LAYOUTS = {
    "invariants-plain": ("invariants --d 4 --A C2xC2", FROM_README),
    "invariants-tsv": (
        "invariants --d 4 --A C2xC2 --format tsv",
        "d\tA\tgroup_order\ta\texponent\tb\ta_A\tb_A\n"
        "4\tC2xC2\t96\t4\t1/4\t1\t1/2\t2\n",
    ),
    "delta-table-plain": ("delta-table --d 3 --A C3", FROM_README),
    "delta-table-tsv": (
        "delta-table --d 3 --A C3 --format tsv",
        "generator\tf_patterns\tfk_patterns\tv_disc_f\tv_disc_fk\tdelta\n"
        "2.1\t(1^2 1)\t(1^6 1^3)\t1\t7\t2\n"
        "3\t(1^3)\t(1^3 1^3 1^3), (3^3)\t2\t6\t6\n",
    ),
    "verify-lemmas-plain": ("verify-lemmas --d 4 --A C2", FROM_README),
    "tail-bound-plain": ("tail-bound --d 3 --A C2 --m 2 --Y 65536", FROM_README),
    "tail-bound-tsv": (
        "tail-bound --d 3 --A C2 --m 2 --Y 16 65536 --format tsv",
        "y\tr_start\tterms\tvalue\tcomparator\tratio\n"
        "16\t2\t2\t9.319154e+00\t6.970015e-01\t13.3703\n"
        "65536\t14\t2\t4.755064e-01\t4.429334e-02\t10.7354\n",
    ),
    "census-plain": ("census --d 3 --A C2 --X 1000000", FROM_README),
    "census-tsv": (
        "census --d 3 --A C2 --X 1000000 --format tsv",
        "x\ty\tcount\tflagged_wild_pairs\tfit_constant\n"
        "1000000\t\t59\t113\t0.059\n",
    ),
    "compose-plain": ("compose --F 3.-23.1 --K 2.-4.1", FROM_README),
    "compose-tsv": (
        "compose --F 3.-104.1 --K 2.8.1 --format tsv",
        "prime\tv_f\tv_k\tdelta_p\tv_fk\n"
        "2\t3\t3\t?\t15\n"
        "13\t1\t0\t0\t2\n"
        "# unresolved wild overlap at: 2\n"
        "# magnitude in [86528, 5537792]\n",
    ),
    "uniformity-plain": (
        "uniformity --d 3 --uniformity-spec {spec} --X 500 --X 2000",
        "bins: {(3)} q=8 exponent=-1/2\n"
        "x     count  ratio\n"
        "500   1      0.00565685\n"
        "2000  5      0.00707107\n",
    ),
    "uniformity-tsv": (
        "uniformity --d 3 --uniformity-spec {spec} --X 500 --X 2000 --format tsv",
        "x\tcount\tratio\n"
        "500\t1\t0.00565685\n"
        "2000\t5\t0.00707107\n",
    ),
}


@pytest.mark.parametrize("argv,expected", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_exact_layout(capsys, tmp_path, argv, expected):
    if expected is FROM_README:
        expected = readme_examples()[argv]
    spec = tmp_path / "bins.json"
    spec.write_text(json.dumps(README_SPEC))
    code, out, err = run(capsys, *argv.replace("{spec}", str(spec)).split())
    assert (code, err) == (0, "")
    assert out == expected


def test_readme_class_function_signatures_are_the_functions_own():
    # The README lists the functions of one class, which take (g, h), and the
    # functions over all classes, which take (d, group[, r]).  Every
    # `name(params)` written there takes exactly those parameters.
    paragraph = next(" ".join(p.split()) for p in README.read_text().split("\n\n")
                     if p.startswith("A function of one class of"))
    one_class, all_classes = paragraph.split("A function over all classes")
    modules = [vars(m) for m in (perms, groups, indexcalc, splitting, census)]
    forms = ((one_class, {("g", "h")}),
             (all_classes, {("d", "group"), ("d", "group", "r")}))
    names = []
    for text, allowed in forms:
        for name, params in re.findall(r"`(\w+)\(([^`]*)\)`", text):
            written = tuple(param.strip() for param in params.split(","))
            assert written in allowed, f"{name}{written}"
            function = next(module[name] for module in modules if name in module)
            assert tuple(inspect.signature(function).parameters) == written, name
            names.append(name)
    assert {"delta", "theta", "beta", "generate_table"} <= set(names)
    assert len(names) == len(set(names)) >= 12


# ---------------------------------------------------------------------------
# top-level behavior
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,file_text,message",
    [
        (["census", "--d", "3", "--A", "C2", "--X", "10", "--wild-overrides"],
         '{"overrides": [{"p": 2, "f_val": 2, "k_val": 2, "delta": 1e400}]}',
         "malformed wild overrides"),
        (["compose", "--F", "3.-104.1", "--K", "2.8.1", "--wild-overrides"],
         '{"overrides": [{"p": 1e400, "f_val": 2, "k_val": 2, "delta": 1}]}',
         "malformed wild overrides"),
        (["uniformity", "--d", "3", "--X", "100", "--uniformity-spec"],
         '{"bins": [{"classes": ["3"], "q": 1e400}]}',
         "malformed uniformity spec"),
    ],
    ids=["overrides-delta", "overrides-p", "spec-q"],
)
def test_json_infinity_is_a_malformed_file(capsys, tmp_path, argv, file_text,
                                           message):
    # JSON reads 1e400 as float('inf'), which int() refuses with OverflowError.
    path = tmp_path / "input.json"
    path.write_text(file_text)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}: ") and err.count("\n") == 1


LONG_LABEL = "C" + "9" * 5000  # a factor past Python's 4,300-digit int() limit


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--d", "3"],
        ["delta-table", "--d", "3"],
        ["verify-lemmas", "--d", "3"],
        ["tail-bound", "--d", "3", "--m", "2", "--Y", "16"],
        ["census", "--d", "3", "--X", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_group_label_past_the_int_digit_limit_is_one_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--A", LONG_LABEL)
    assert (code, out) == (1, "")
    assert err == f"error: bad abelian group label: {LONG_LABEL!r}\n"


@pytest.mark.parametrize("name", ["census", "compose"])
def test_a_record_group_label_past_the_int_digit_limit_is_one_error(capsys, tmp_path,
                                                                    name):
    dataset = tmp_path / "records.txt"
    dataset.write_text(f"3.-23.1;3;S3;-23;23:t(2.1);\n2.5.1;2;{LONG_LABEL};5;5:t(2);5\n")
    argv = {"census": ["--d", "3", "--A", "C2", "--X", "100"],
            "compose": ["--F", "3.-23.1", "--K", "2.5.1"]}[name]
    code, out, err = run(capsys, name, *argv, "--dataset", str(dataset))
    assert (code, out) == (1, "")
    assert err == f"error: line 2: unknown group label {LONG_LABEL!r}\n"


@pytest.mark.parametrize(
    "argv,file_text,message",
    [
        (["census", "--d", "3", "--A", "C2", "--X", "10", "--wild-overrides"],
         '{"overrides": [{"p": 2.9, "f_val": 3, "k_val": 2, "delta": 4.7}]}',
         "malformed wild overrides: 2.9 is not an integer"),
        (["compose", "--F", "3.-104.1", "--K", "2.8.1", "--wild-overrides"],
         '{"overrides": [{"p": 2, "f_val": 3, "k_val": 3, "delta": 4.7}]}',
         "malformed wild overrides: 4.7 is not an integer"),
        (["compose", "--F", "3.-104.1", "--K", "2.8.1", "--wild-overrides"],
         '{"overrides": [{"p": 2, "f_val": 3, "k_val": true, "delta": 4}]}',
         "malformed wild overrides: true is not an integer"),
        (["uniformity", "--d", "3", "--X", "100", "--uniformity-spec"],
         '{"bins": [{"classes": ["3"], "q": 8.9}]}',
         "malformed uniformity spec: 8.9 is not an integer"),
        (["uniformity", "--d", "3", "--X", "100", "--uniformity-spec"],
         '{"bins": [{"classes": ["3"], "q": false}]}',
         "malformed uniformity spec: false is not an integer"),
    ],
    ids=["overrides-p", "overrides-delta", "overrides-bool", "spec-q", "spec-bool"],
)
def test_a_json_number_that_must_be_an_integer_is_not_truncated(capsys, tmp_path, argv,
                                                                file_text, message):
    path = tmp_path / "input.json"
    path.write_text(file_text)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


N = INT_MAX_STR_DIGITS
PAST = "9" * (N + 1)  # one digit past what int() reads
ON_RECORDS = ["census", "--d", "3", "--A", "C2", "--X", "100", "--dataset"]
WITH_OVERRIDES = ["compose", "--F", "3.-104.1", "--K", "2.8.1", "--wild-overrides"]
WITH_SPEC = ["uniformity", "--d", "3", "--X", "100", "--uniformity-spec"]


def _override(**values):
    return json.dumps({"overrides": [{"p": 2, "f_val": 3, "k_val": 3, "delta": 4, **values}]})


def _spec(**values):
    return json.dumps({"bins": [{"classes": ["3"], "q": 8, **values}]})


# One integer field per case: a value one digit past the limit, and a value
# that \d and int() took but is not ASCII digits after an optional "-".
INTEGER_FIELDS = {
    "coverage-past-limit": (ON_RECORDS, f"#coverage group=S3 maxdisc={PAST}\n",
                            f"line 1: maxdisc has more than {N} digits"),
    "coverage-arabic": (ON_RECORDS, "# fields\n#coverage group=S3 maxdisc=٢٠٠٠\n",
                        "line 2: malformed coverage header: '#coverage group=S3 maxdisc=٢٠٠٠'"),
    "degree-past-limit": (ON_RECORDS, f"a;{PAST};S3;-23;23:t(2.1);\n",
                          f"line 1: degree has more than {N} digits"),
    "degree-plus": (ON_RECORDS, "a;+3;S3; -23 ;٢٣:t(٢.١);\n",
                    "line 1: degree/disc must be integers: '+3', ' -23 '"),
    "disc-past-limit": (ON_RECORDS, f"a;3;S3;-{PAST};23:t(2.1);\n",
                        f"line 1: disc has more than {N} digits"),
    "disc-underscore": (ON_RECORDS, "a;3;S3;-2_3;23:t(2.1);\n",
                        "line 1: degree/disc must be integers: '3', '-2_3'"),
    "prime-past-limit": (ON_RECORDS, f"a;3;S3;-23;{PAST}:t(2.1);\n",
                         f"line 1: bad prime in local datum '{PAST}:t(2.1)'"),
    "prime-arabic": (ON_RECORDS, "a;3;S3;-23;٢٣:t(2.1);\n",
                     "line 1: bad prime in local datum '٢٣:t(2.1)'"),
    "cycle-past-limit": (ON_RECORDS, f"a;3;S3;-23;23:t(2.{PAST});\n",
                         f"line 1: bad cycle lengths in '23:t(2.{PAST})'"),
    "cycle-arabic": (ON_RECORDS, "a;3;S3;-23;23:t(٢.١);\n",
                     "line 1: local datum '23:t(٢.١)' is neither t(...) nor w(...)"),
    "cycle-empty-part": (ON_RECORDS, "a;3;S3;-23;23:t(2..1);\n",
                         "line 1: bad cycle lengths in '23:t(2..1)'"),
    "wild-past-limit": (ON_RECORDS, f"a;3;S3;-104;2:w({PAST}),13:t(2.1);\n",
                        f"line 1: bad wild valuation in '2:w({PAST})'"),
    "wild-underscore": (ON_RECORDS, "a;3;S3;-104;2:w(3_0),13:t(2.1);\n",
                        "line 1: local datum '2:w(3_0)' is neither t(...) nor w(...)"),
    "quad-past-limit": (ON_RECORDS, f"2.5.1;2;C2;5;5:t(2);{PAST}\n",
                        f"line 1: quadratic-subfield discriminants must be integers: '{PAST}'"),
    "quad-plus": (ON_RECORDS, "2.5.1;2;C2;5;5:t(2);+5\n",
                  "line 1: quadratic-subfield discriminants must be integers: '+5'"),
    "record-label-arabic": (ON_RECORDS, "2.5.1;2;C٥;5;5:t(2);5\n",
                            "line 1: unknown group label 'C٥'"),
    "label-arabic": (["invariants", "--d", "3", "--A", "C٢"], None,
                     "bad abelian group label: 'C٢'"),
    "override-underscore": (WITH_OVERRIDES, _override(k_val="2_0"),
                            "malformed wild overrides: invalid literal for int() with base 10: "
                            "'2_0'"),
    "override-arabic": (WITH_OVERRIDES, _override(delta="٣"),
                        "malformed wild overrides: invalid literal for int() with base 10: '٣'"),
    "override-past-limit": (WITH_OVERRIDES, _override(p=PAST),
                            f"malformed wild overrides: p has more than {N} digits"),
    "override-number-past-limit": (WITH_OVERRIDES, '{"overrides": [{"p": %s}]}' % PAST,
                                   f"malformed wild overrides: an integer has more than {N} "
                                   "digits"),
    "spec-class-spaces": (WITH_SPEC, _spec(classes=[" 2.1"]),
                          "malformed uniformity spec: invalid literal for int() with base 10: "
                          "' 2'"),
    "spec-class-past-limit": (WITH_SPEC, _spec(classes=["2." + PAST]),
                              f"malformed uniformity spec: a class has more than {N} digits"),
    "spec-q-plus": (WITH_SPEC, _spec(q="+8"),
                    "malformed uniformity spec: invalid literal for int() with base 10: '+8'"),
    "spec-q-past-limit": (WITH_SPEC, _spec(q=PAST),
                          f"malformed uniformity spec: q has more than {N} digits"),
}


@pytest.mark.parametrize("argv,file_text,message", INTEGER_FIELDS.values(),
                         ids=INTEGER_FIELDS.keys())
def test_an_integer_field_reads_ascii_digits_up_to_the_limit(capsys, tmp_path, argv,
                                                             file_text, message):
    if file_text is not None:
        path = tmp_path / "input"
        path.write_text(file_text, encoding="utf-8")
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


class _FullTreeOnly(dict):
    """The subcommand table, with no name that ``main`` takes as one alone,
    so every argv goes through ``build_parser().parse_args``."""

    def __contains__(self, name):
        return False


def test_one_subcommand_parser_acts_like_the_full_tree(capsys, tmp_path,
                                                       monkeypatch):
    spec = tmp_path / "bins.json"
    spec.write_text(json.dumps(README_SPEC))
    uniformity = ["uniformity", "--d", "3", "--uniformity-spec", str(spec)]
    tail = ["tail-bound", "--d", "3", "--A", "C2", "--m", "2"]
    census = ["census", "--d", "3", "--A", "C2", "--X", "1000"]
    invariants = ["invariants", "--d", "3", "--A", "C2"]
    sequence = [
        invariants,
        ["delta-table", "--d", "3", "--A", "C3", "--format", "tsv"],
        ["census", "--d", "3", "--A", "C2"],  # usage error: no --X
        ["verify-lemmas", "--d", "3", "--A", "C2"],
        [*uniformity, "--X", "500", "--X", "2000"],
        [*uniformity, "--X", "500"],
        [*tail, "--Y", "16", "65536"],
        [*tail, "--Y", "16", "--beta", "-1/1000", "--epsilon", "1/10000"],
        [*tail, "--Y", "16"],
        ["compose", "--F", "no-such-label", "--K", "2.-4.1"],  # error: line
        ["compose", "--F", "3.-23.1", "--K", "2.-4.1", "--format", "tsv"],
        census,
        [*uniformity, "--X", "2000", "--format", "tsv"],
        # usage and help texts that name the other subcommands
        [], ["--help"], ["-h", "census"], ["bogus"], ["--", *census],
        ["-x", *census], [*census, "extra"], ["census", "-h"],
        ["tail-bound", "--help"],
        # edge cases of abbreviation, syntax and placement
        ["census", "--he"], ["--form", "tsv"], [*invariants, "--form", "tsv"],
        ["census", "--d=3", "--A=C2", "--X=1000"], ["census", "--", "--d", "3"],
        ["invariants", "--d", "3", "--d", "4", "--A", "C2"],
        [*invariants, "-h"], ["invariants", "--d", "three", "--A", "C2"],
        [*invariants, "--format", "xml"],
        ["verify-lemmas", "--d", "3", "--A", "C2", "--format", "tsv"],
        ["invariants"], [*invariants, "--bogus"],
        ["invariants", "stray", "--d", "3", "--A", "C2"],
        ["Census", "--d", "3", "--A", "C2", "--X", "1000"],
        ["cens", "--d", "3", "--A", "C2", "--X", "1000"], ["--version"],
        [*tail, "--Y", "16", "--bet", "-1/500"],
        [*tail, "--Y", "16", "--beta", "-1/2", "--eps", "-1/10"],
        [*tail, "--Y"], [*census, "--Y"], ["compose", "-h"],
        ["delta-table", "--d", "3", "--A", "C3", "--format=tsv"],
        ["-h", "bogus"],
    ]
    namespaces = []

    def recorded(func):
        return lambda args: namespaces.append(vars(args)) or func(args)

    def outcomes(commands):
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        namespaces.clear()
        found = []
        for argv in sequence:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            found.append((code, captured.out, captured.err))
        return found, namespaces[:]

    table = {name: (recorded(func), text)
             for name, (func, text) in cli._COMMANDS.items()}
    one, one_namespaces = outcomes(table)
    assert (one, one_namespaces) == outcomes(_FullTreeOnly(table))
    codes = [code for code, _, _ in one]
    assert codes == [
        0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 2, 2, 2, 2, 0, 0,
        0, 2, 0, 0, 2, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 2, 2, 0, 0, 0]
    help_lines = 8
    assert len(one_namespaces) == codes.count(0) + codes.count(1) - help_lines
    assert one_namespaces[0]["command"] == "invariants"
    assert one[4][1].count("\n") == 4 and one[5][1].count("\n") == 3
    assert "beta = -1/1000 (explicit), epsilon = 1/10000" in one[7][1]
    assert one[6][1].count("\n") == 5 and one[8][1].count("\n") == 4
    assert "(preset), epsilon = 1/1000" in one[8][1]
    assert "compose" in one[14][1] and "--wild-overrides" in one[20][1]
    assert "beta = -1/500 (explicit)" in one[38][1]
    assert "epsilon = -1/10" in one[39][1]


def test_a_command_builds_only_the_subparser_it_selects(capsys, monkeypatch,
                                                        tmp_path):
    spec = tmp_path / "bins.json"
    spec.write_text(json.dumps(README_SPEC))
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, **kwargs: built.append(kwargs.get("prog"))
                        or init(self, **kwargs))
    lines = {
        "invariants": ["--d", "3", "--A", "C2"],
        "delta-table": ["--d", "3", "--A", "C3"],
        "verify-lemmas": ["--d", "3", "--A", "C2"],
        "tail-bound": ["--d", "3", "--A", "C2", "--m", "2", "--Y", "16"],
        "census": ["--d", "3", "--A", "C2", "--X", "1000"],
        "compose": ["--F", "3.-23.1", "--K", "2.-4.1"],
        "uniformity": ["--d", "3", "--uniformity-spec", str(spec), "--X", "500"],
    }
    fixture_calls = []
    monkeypatch.setattr(cli, "bundled_fixture_path",
                        lambda: fixture_calls.append(1) or FIXTURE)
    for name, argv in lines.items():
        built.clear()
        fixture_calls.clear()
        assert run(capsys, name, *argv)[0] == 0
        assert built == [f"sdxa {name}"]
        assert len(fixture_calls) == (name in ("census", "compose", "uniformity"))
    full_tree = ["sdxa", *(f"sdxa {name}" for name in lines)]
    for argv in (["-h"], ["bogus"]):
        built.clear()
        with pytest.raises(SystemExit):
            cli.main(argv)
        capsys.readouterr()
        assert built == full_tree

    def no_fixture():
        raise AssertionError("the bundled fixture path was looked up")

    monkeypatch.setattr(cli, "bundled_fixture_path", no_fixture)
    for name in ("invariants", "delta-table", "verify-lemmas", "tail-bound"):
        assert run(capsys, name, *lines[name])[0] == 0
    # a named record file needs no default: the bundled path is looked up
    # only when --dataset is absent, and an empty name is still the user's
    for name in ("census", "compose", "uniformity"):
        assert run(capsys, name, *lines[name], "--dataset", FIXTURE)[0] == 0
    assert run(capsys, "census", *lines["census"], "--dataset", "") == (
        1, "", "error: [Errno 2] No such file or directory: ''\n")


def test_census_heading_names_the_bundled_fixture_by_default(capsys):
    code, out, _ = run(capsys, "census", "--d", "3", "--A", "C2", "--X", "1000")
    assert code == 0
    assert out.splitlines()[0] == f"dataset: {FIXTURE} (C2=61, S3=324)"
