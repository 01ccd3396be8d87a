"""The one reader of integer text, ``errors.parse_int``, and the guard that
keeps it the only one: no other function in ``src/sdxa`` calls ``int()``."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdxa.errors import INT_MAX_STR_DIGITS, DomainError, parse_int

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


# Where ``int()`` may be called in the package: inside the reader, and where the
# census takes a JSON number (not text) as an integer.
INT_CALLERS = {("errors.py", "parse_int"), ("census.py", "_integer")}


def bare_int_calls(source: str, filename: str) -> list[str]:
    """``file:line`` of each call of ``int`` (or ``int`` handed to another
    call, as in ``map(int, parts)`` or ``key=int``) outside the functions
    allowed one.  Two uses are no such call: the ``getattr(sys, ..., int)``
    fallback that reads the digit limit, and an argparse ``type=int`` flag,
    whose bad values argparse answers with a usage error (exit 2)."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (filename, function) not in INT_CALLERS:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            handed = [] if name == "getattr" else [*node.args, *(
                k.value for k in node.keywords if (name, k.arg) != ("add_argument", "type"))]
            for target in [node.func, *handed]:
                if isinstance(target, ast.Name) and target.id == "int":
                    found.append(f"{filename}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_function_but_the_reader_calls_int():
    modules = sorted(SRC.glob("*.py"))
    assert {path.name for path in modules} >= {"census.py", "errors.py", "groups.py",
                                               "splitting.py"}
    found = [hit for path in modules for hit in bare_int_calls(path.read_text(), path.name)]
    assert found == []


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
                                                   "groups.py:7", "groups.py:8"]
    assert bare_int_calls(source, "census.py") == ["census.py:2", "census.py:4",
                                                   "census.py:8"]
