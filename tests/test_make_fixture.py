"""The bundled fixture is rebuilt in-process by ``tools/make_fixture.py``,
with every module outside the standard library and ``sdxa`` unimportable, and
must equal the committed file byte for byte.
The tool's proof steps (the p-overorder step, the GL2(Z) certificate, the
separating prime, and the error on a pair with neither certificate) are
checked on small cubic fields."""

from __future__ import annotations

import contextlib
import importlib.abc
import importlib.util
import sys
from pathlib import Path

import pytest

from sdxa.census import dump_dataset

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "make_fixture.py"
FIXTURE = ROOT / "src" / "sdxa" / "data" / "cubic_quadratic_fields.txt"

# x^3 - x - 1 (disc -23), and the minimal polynomials of 2*theta, 3*theta and
# 2*theta + 1 for its root theta: the same field, of index 8, 27 and 8.
THETA = (1, 0, -1, -1)
MULTIPLES = ((1, 0, -4, -8), (1, 0, -9, -27), (1, -3, -1, -5))


class StdlibAndSdxaOnly(importlib.abc.MetaPathFinder):
    """Refuses to find any module outside the standard library and sdxa."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in {*sys.stdlib_module_names, "sdxa"}:
            raise ImportError(f"the fixture build imports {name}")
        return None


@contextlib.contextmanager
def stdlib_and_sdxa_only():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "meta_path", [StdlibAndSdxaOnly(), *sys.meta_path])
        yield


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("make_fixture", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    with stdlib_and_sdxa_only():
        spec.loader.exec_module(module)
    return module


def test_only_the_standard_library_and_sdxa_can_be_imported():
    finder = StdlibAndSdxaOnly()
    assert finder.find_spec("fractions") is None
    assert finder.find_spec("sdxa.census") is None
    for name in ("hypothesis", "pytest", "numpy.linalg"):
        with pytest.raises(ImportError, match=name):
            finder.find_spec(name)


def test_fixture_rebuilds_byte_for_byte_from_the_standard_library(tool):
    with stdlib_and_sdxa_only():
        text = dump_dataset(tool.build_dataset())
    assert text == FIXTURE.read_text(encoding="utf-8")


@pytest.mark.parametrize("form", MULTIPLES)
def test_overorder_steps_reach_the_maximal_order(tool, form):
    disc, f = tool.form_disc(form), form
    assert disc % 23 == 0 and disc != -23
    for p in (2, 3):
        while (larger := tool.overorder(f, p)) is not None:
            assert tool.form_disc(larger) in (tool.form_disc(f) // p**2,
                                              tool.form_disc(f) // p**4)
            f = larger
    assert tool.form_disc(f) == -23
    maximal = tool.maximal_form(form)
    assert tool.form_disc(maximal) == -23
    m = tool.equivalence(THETA, maximal)
    assert m is not None and tool.act(THETA, m) == maximal


def test_multiple_of_p_is_divided_out(tool):
    assert tool.overorder(tuple(2 * c for c in THETA), 2) == THETA
    assert tool.maximal_form(THETA) == THETA
    assert all(tool.overorder(THETA, p) is None for p in (2, 3, 5, 23))


def pure_cubic_forms(tool):
    # Q(cbrt 6) and Q(cbrt 12) = Q(cbrt 18): two fields of discriminant -972
    return [tool.maximal_form((1, 0, 0, -m)) for m in (6, 12, 18)]


def test_same_discriminant_fields_get_certificates(tool):
    six, twelve, eighteen = pure_cubic_forms(tool)
    assert {tool.form_disc(f) for f in (six, twelve, eighteen)} == {-972}
    m = tool.equivalence(twelve, eighteen)
    assert m is not None and tool.act(twelve, m) == eighteen
    assert any(tool.root_count(six, p) != tool.root_count(twelve, p)
               for p in tool.SEPARATING_PRIMES if 972 % p)
    fields = tool.distinct_fields(-972, {six, twelve, eighteen})
    assert len(fields) == 2 and six in fields


def test_a_pair_without_a_certificate_raises(tool, monkeypatch):
    monkeypatch.setattr(tool, "FIRST_ROWS", [])
    _, twelve, eighteen = pure_cubic_forms(tool)
    with pytest.raises(ValueError, match="no certificate"):
        tool.distinct_fields(-972, {twelve, eighteen})
