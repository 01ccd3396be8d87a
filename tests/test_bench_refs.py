"""Replay of the benchmark's recorded reference outputs through ``cli.main``.

``perfbench/refs/outputs.json`` holds what the benchmark's checker compares
each command's output with: every ``invariants`` and ``verify-lemmas``
output byte for byte, the caption and cells of every ``delta-table``, and
the preset ``beta`` and ``attained`` lines of ``tail-bound``.  Running the
same argv here catches an output change in tier-1, before the benchmark
does.  The file is only read.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from sdxa import cli

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs" / "outputs.json"
OUTPUTS = json.loads(REFS.read_text(encoding="utf-8"))


def stdout_of(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def test_the_references_cover_every_group_and_command():
    groups = OUTPUTS["groups"]
    assert len(groups) == 16
    assert {name: len(OUTPUTS[name]) for name in
            ("invariants", "verify-lemmas", "tables", "presets")} == {
        "invariants": 96, "verify-lemmas": 48, "tables": 12, "presets": 48,
    }


@pytest.mark.parametrize("name", ["invariants", "verify-lemmas"])
def test_outputs_are_byte_identical(name):
    for key, expected in OUTPUTS[name].items():
        d, group, *fmt = key.split("|")
        argv = [name, "--d", d, "--A", group]
        if fmt:
            argv += ["--format", fmt[0]]
        assert stdout_of(*argv) == expected, key


def test_delta_table_captions_and_cells():
    for key, ref in OUTPUTS["tables"].items():
        d, p = key.split("|")
        argv = ["delta-table", "--d", d, "--A", f"C{p}"]
        plain = stdout_of(*argv).splitlines()
        assert plain[0] == ref["caption"], key
        assert [re.split(r" {2,}", line) for line in plain[1:]] == ref["rows"], key
        tsv = stdout_of(*argv, "--format", "tsv").splitlines()
        assert [line.split("\t") for line in tsv] == ref["rows"], key


def test_tail_bound_preset_lines():
    for key, ref in OUTPUTS["presets"].items():
        d, group = key.split("|")
        head = stdout_of("tail-bound", "--d", d, "--A", group,
                         "--m", "1", "--Y", "16").splitlines()
        assert head[0].split(" ")[2] == ref["beta"], key
        assert head[1] == ref["attained"], key
