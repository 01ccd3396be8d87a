"""Command-line interface tests: argument handling, exit codes, output
formats, and determinism.  All invocations go through ``main(argv)``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from sdxa import cli
from sdxa.census import ingest
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
    code, _, err = run(capsys, "delta-table", "--d", "3", "--A", "C4")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify-lemmas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,label", [(3, "C2"), (4, "C2xC2"), (5, "C6")])
def test_verify_lemmas_passes(capsys, d, label):
    code, out, err = run(capsys, "verify-lemmas", "--d", str(d), "--A", label)
    assert code == 0
    assert "all verified" in out
    assert err == ""


def test_verify_lemmas_reports_equality_classes(capsys):
    # equality needs an abelian element whose order divides every cycle
    # length: for d = 3 that means order 3, so C2 has none and C3 has two
    _, out, _ = run(capsys, "verify-lemmas", "--d", "3", "--A", "C2")
    assert "equality classes: (none)" in out
    _, out, _ = run(capsys, "verify-lemmas", "--d", "3", "--A", "C3")
    assert "equality classes: ((3), (1)), ((3), (2))" in out


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


def test_tail_bound_epsilon_must_be_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tail-bound", "--d", "3", "--A", "C2", "--m", "2",
                  "--Y", "16", "--epsilon", "tiny"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option", ["--beta", "--epsilon"])
def test_tail_bound_negative_rational_as_separate_value(capsys, option):
    base = ["tail-bound", "--d", "3", "--A", "C2", "--m", "2", "--Y", "16",
            "--format", "tsv"]
    if option == "--epsilon":
        base += ["--beta", "-1/2"]
    spaced = run(capsys, *base, option, "-1/500")
    joined = run(capsys, *base, f"{option}=-1/500")
    assert spaced[0] == 0
    assert spaced == joined


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
    ],
    ids=["overrides-json", "overrides-no-f_val", "spec-class-x", "spec-no-q",
         "spec-exponent-abc", "tail-Y-inf", "tail-Y-nan"],
)
def test_malformed_input_is_an_error_not_a_traceback(capsys, tmp_path, argv,
                                                     file_text):
    if file_text is not None:
        path = tmp_path / "input.json"
        path.write_text(file_text)
        argv = argv + [str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


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
