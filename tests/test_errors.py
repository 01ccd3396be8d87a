"""The one reader of integer text, ``errors.parse_int``, the rational reader
``errors.parse_fraction`` built on it, the float reader ``errors.parse_float``,
and the guard that keeps them the only ones: no other function in
``src/sdxa`` calls ``int()``, hands text to ``Fraction`` or hands ``float`` on,
as an argparse ``type=float`` does.  A second guard keeps float rounding out
of the integers the package computes."""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdxa.errors import INT_MAX_STR_DIGITS, DomainError, parse_float, parse_fraction, parse_int

SRC = Path(__file__).resolve().parent.parent / "src" / "sdxa"
N = INT_MAX_STR_DIGITS


@pytest.mark.parametrize("text", ["0", "-0", "7", "-23", "0023", "9" * N, "-" + "9" * N])
def test_ascii_digits_after_an_optional_minus_are_read(text):
    assert parse_int(text) == int(text)


@pytest.mark.parametrize(
    "text",
    ["+3", " 3", "3 ", "3\n", "3_0", "-2_3", "٣", "２", "²", "--3", "- 3", "", "-", "3.0", "0x3"],
)
def test_any_other_spelling_is_refused_with_int_s_message(text):
    with pytest.raises(ValueError) as err:
        parse_int(text)
    assert str(err.value) == f"invalid literal for int() with base 10: {text!r}"


@given(st.text(max_size=12))
def test_a_text_int_refuses_is_refused_with_the_same_message(text):
    try:
        expected = int(text)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            parse_int(text)
    else:
        digits = text[1:] if text[:1] == "-" else text
        if digits.isascii() and digits.isdigit():
            assert parse_int(text) == expected
        else:
            with pytest.raises(ValueError):
                parse_int(text)


def test_a_long_malformed_text_is_cut_as_int_cuts_it():
    text = "x" * 500
    with pytest.raises(ValueError) as ours:
        parse_int(text)
    with pytest.raises(ValueError) as python:
        int(text)
    assert str(ours.value) == str(python.value)


def test_the_caller_names_the_error_and_the_message():
    with pytest.raises(DomainError, match="^bad width: '3_0'$"):
        parse_int("3_0", DomainError, "bad width: '3_0'")


def test_one_digit_past_the_limit_names_the_field_if_given():
    past = "9" * (N + 1)
    with pytest.raises(DomainError, match=f"^width has more than {N} digits$"):
        parse_int(past, DomainError, "bad width", "width")
    with pytest.raises(DomainError, match=f"^width has more than {N} digits$"):
        parse_int("-" + past, DomainError, field="width")
    with pytest.raises(DomainError, match="^bad width$"):
        parse_int(past, DomainError, "bad width")
    with pytest.raises(DomainError, match="^bad width$"):  # malformed beats long
        parse_int("+" + past, DomainError, "bad width", "width")


@pytest.mark.parametrize("text", ["0", "-3", "7/2", "-1/1000", "007/014", "0.5", "-2.25",
                                  ".5", "-.5", "3.", "9" * N + "/" + "9" * N])
def test_a_rational_is_read_as_fraction_reads_it(text):
    value = parse_fraction(text)
    assert type(value) is Fraction and value == Fraction(text)


@pytest.mark.parametrize(
    "text",
    ["+1/2", " 1/2", "1/2 ", "1_0/3", "1/2_0", "٣", "١/٢", "1e3", "1.5e-3", "1/-2", "1.-5",
     ".-5", "1.5/2", "1/2/3", "", ".", "-", "/", "1/", "/2", "-/2", "inf", "nan", "0x1"],
)
def test_any_other_rational_spelling_is_refused_with_fraction_s_message(text):
    with pytest.raises(ValueError) as err:
        parse_fraction(text)
    assert str(err.value) == f"Invalid literal for Fraction: {text!r}"


@pytest.mark.parametrize("text", ["1/0", "-3/000"])
def test_a_zero_denominator_is_refused_with_the_same_message(text):
    with pytest.raises(ValueError) as err:
        parse_fraction(text)
    assert str(err.value) == f"Invalid literal for Fraction: {text!r}"


@given(st.text(alphabet="0123456789-./+_ e٣", max_size=8))
def test_a_rational_reads_what_fraction_reads_in_ascii_digits_only(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_fraction(text)
    else:
        if re.fullmatch(r"-?[0-9]*(/[0-9]+|\.[0-9]*)?", text):
            assert parse_fraction(text) == expected
        else:
            with pytest.raises(ValueError):
                parse_fraction(text)


def test_a_rational_names_the_caller_s_error_and_message_even_past_the_limit():
    for text in ("1/" + "9" * (N + 1), "9" * (N + 1), "0." + "9" * N, "+1"):
        with pytest.raises(DomainError, match="^bad rate$"):
            parse_fraction(text, DomainError, "bad rate")


@pytest.mark.parametrize("text", ["16", "-0.5", ".5", "3.", "4.57556e+11", "1E3", "inf",
                                  "-Infinity", "nan", "1e400"])
def test_ascii_float_text_is_read_as_float_reads_it(text):
    value = parse_float(text)
    assert type(value) is float
    assert value == float(text) or value != value and text == "nan"


@pytest.mark.parametrize("text", ["١٦", "１６", "1_6", "1_000.5", " 16", "16 ", "16\n", "\t16",
                                  "", "abc", "0x10", "1e", "--1"])
def test_any_other_float_spelling_is_refused_with_float_s_message(text):
    with pytest.raises(ValueError) as err:
        parse_float(text)
    assert str(err.value) == f"could not convert string to float: {text!r}"
    with pytest.raises(DomainError, match="^bad cutoff$"):
        parse_float(text, DomainError, "bad cutoff")


@given(st.text(alphabet="0123456789-+.eE_ ١infa", max_size=8))
def test_a_float_reads_what_float_reads_in_ascii_without_underscores_or_spaces(text):
    try:
        expected = float(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_float(text)
    else:
        if text.isascii() and "_" not in text and " " not in text:
            assert parse_float(text) == expected or expected != expected
        else:
            with pytest.raises(ValueError):
                parse_float(text)


# Where ``int()`` may be called in the package: inside the reader, and where the
# census takes a JSON number (not text) as an integer.
INT_CALLERS = {("errors.py", "parse_int"), ("census.py", "_integer")}
# Where ``Fraction`` may take one argument: where it takes a number, and where
# the census reads a JSON number as the decimal Python prints for it.  Two
# arguments (numerator, denominator) are integers, not text.
FRACTION_CALLERS = {("census.py", "_rational"), ("indexcalc.py", "exponent_presets"),
                    ("indexcalc.py", "tail_series")}


def bare_int_calls(source: str, filename: str, name: str = "int") -> list[str]:
    """``file:line`` of each call of ``name`` (or ``name`` handed to another
    call, as in ``map(int, parts)``, ``key=int`` or an argparse ``type=int``)
    outside the functions allowed one: :data:`INT_CALLERS` for ``int``,
    :data:`FRACTION_CALLERS` for ``Fraction``, which is not flagged with two
    arguments.  ``float`` is flagged only where it is handed on, as in an
    argparse ``type=float``: a call ``float(x)`` converts a number.  The
    ``getattr(sys, ..., int)`` fallback that reads the digit limit, and a type
    handed to ``isinstance``, are no such call."""
    allowed = {"int": INT_CALLERS, "Fraction": FRACTION_CALLERS}.get(name, set())
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (filename, function) not in allowed:
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            handed = [] if callee in ("getattr", "isinstance") else [*node.args,
                                                     *(k.value for k in node.keywords)]
            called = ([] if name == "float" or name == "Fraction" and len(handed) == 2
                      else [node.func])
            for target in [*called, *handed]:
                if isinstance(target, ast.Name) and target.id == name:
                    found.append(f"{filename}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_function_but_the_reader_calls_int():
    modules = sorted(SRC.glob("*.py"))
    assert {path.name for path in modules} >= {"census.py", "cli.py", "errors.py", "groups.py",
                                               "splitting.py"}
    found = [hit for path in modules for hit in bare_int_calls(path.read_text(), path.name)]
    assert found == []


def test_no_function_but_the_rational_reader_hands_fraction_text():
    modules = sorted(SRC.glob("*.py"))
    found = [hit for path in modules
             for hit in bare_int_calls(path.read_text(), path.name, "Fraction")]
    assert found == []


def test_no_option_hands_float_text_past_the_float_reader():
    modules = sorted(SRC.glob("*.py"))
    found = [hit for path in modules
             for hit in bare_int_calls(path.read_text(), path.name, "float")]
    assert found == []


def test_the_guard_sees_float_handed_on_but_not_called():
    source = (
        "parser.add_argument('--Y', type=float, nargs='+')\n"
        "def ratio(x):\n"
        "    return float(x) / 2\n"
        "CUTOFFS = list(map(float, ['16', '32']))\n"
        "IS_REAL = isinstance(CUTOFFS[0], float)\n"
    )
    assert bare_int_calls(source, "cli.py", "float") == ["cli.py:1", "cli.py:4"]


def test_the_guard_sees_each_way_of_calling_int():
    source = (
        "def f(text):\n"
        "    return int(text)\n"
        "def g(text):\n"
        "    return tuple(map(int, text.split('.')))\n"
        "LIMIT = getattr(sys, 'get_int_max_str_digits', int)()\n"
        "def _integer(value):\n"
        "    return int(value)\n"
        "ORDER = sorted(['10', '9'], key=int)\n"
        "parser.add_argument('--d', type=int)\n"
    )
    assert bare_int_calls(source, "groups.py") == ["groups.py:2", "groups.py:4",
                                                   "groups.py:7", "groups.py:8",
                                                   "groups.py:9"]
    assert bare_int_calls(source, "census.py") == ["census.py:2", "census.py:4",
                                                   "census.py:8", "census.py:9"]


def test_the_guard_sees_each_way_of_handing_fraction_text():
    source = (
        "def _fraction(text):\n"
        "    return Fraction(text)\n"
        "EPSILON = Fraction(1, 1000)\n"
        "def _rational(value):\n"
        "    return Fraction(str(value))\n"
        "def spec(entry):\n"
        "    return Fraction(str(entry['exponent']))\n"
        "RATES = list(map(Fraction, ['1/2', '1/3']))\n"
        "parser.add_argument('--beta', type=Fraction)\n"
        "HALF = Fraction(numerator=1, denominator=2)\n"
    )
    hits = ["cli.py:2", "cli.py:5", "cli.py:7", "cli.py:8", "cli.py:9"]
    assert bare_int_calls(source, "cli.py", "Fraction") == hits
    assert bare_int_calls(source, "census.py", "Fraction") == [
        hit.replace("cli", "census") for hit in hits if hit != "cli.py:5"]


# Where a power may take a quotient as its exponent: the census fit constant's
# float scale ``x ** (1 / |A|)``, which only ever feeds a ratio.
FLOAT_ROOT_CALLERS = {("census.py", "_count")}


def float_rounding_sites(source: str, filename: str) -> list[str]:
    """``file:line`` of each call of ``ceil``, ``floor`` or ``round`` (as a
    name or an attribute, so ``math.ceil`` too), and of each ``**`` whose
    exponent is a division outside :data:`FLOAT_ROOT_CALLERS`.  A docstring
    is a string, so the code of a doctest is not seen."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee in ("ceil", "floor", "round"):
                found.append(f"{filename}:{node.lineno}")
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)
                and (filename, function) not in FLOAT_ROOT_CALLERS):
            found.append(f"{filename}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_integer_comes_from_float_rounding():
    modules = sorted(SRC.glob("*.py"))
    assert {path.name for path in modules} >= {"census.py", "indexcalc.py"}
    found = [hit for path in modules for hit in float_rounding_sites(path.read_text(), path.name)]
    assert found == []


def test_the_guard_sees_each_float_rounding():
    source = (
        "def tail(y, m):\n"
        "    \"\"\">>> round(tail(16.0, 2), 12)\"\"\"\n"
        "    return max(0, math.ceil(math.log2(y) - m))\n"
        "def root(x, power):\n"
        "    return ceil(x ** (1 / power)), x ** 0.5, x ** (power - 1)\n"
        "def _count(x, order):\n"
        "    return x ** (1 / order), math.floor(x), round(x / order)\n"
        "SCALE = 10 ** (3 / 2)\n"
    )
    assert float_rounding_sites(source, "census.py") == [
        "census.py:3", "census.py:5", "census.py:5", "census.py:7", "census.py:7",
        "census.py:8"]
    assert float_rounding_sites(source, "indexcalc.py") == [
        "indexcalc.py:3", "indexcalc.py:5", "indexcalc.py:5", "indexcalc.py:7",
        "indexcalc.py:7", "indexcalc.py:7", "indexcalc.py:8"]
