"""The contract of every value type in ``sdxa``, table-driven over all of them.

A value cannot have a field assigned or deleted; it equals, and hashes like,
only a value of its own type with the same fields, never a plain tuple; only
``SplittingPattern`` is ordered, and only against its own type; its ``repr``
is pinned; and every check or normalisation of the constructor also applies to
a copy made with the replace API, ``_replace`` or ``_make``.  Every type is a
:class:`sdxa.errors.Frozen` ahead of a ``namedtuple`` of its fields, which
either its ``__new__`` (when it checks them) or its class body annotates, in
the same order.
"""

from __future__ import annotations

import ast
import copy
import inspect
import json
import operator
import os
import pickle
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

from sdxa.census import (
    CensusResult,
    ComposeResult,
    Dataset,
    FieldRecord,
    LocalDatum,
    PrimeBreakdown,
    UniformityBin,
    UniformityRow,
    compose_disc,
)
from sdxa.errors import (
    DegreeMismatchError,
    DomainError,
    Frozen,
    FrozenInstanceError,
    cached_property,
)
from sdxa.groups import AbelianElement, AbelianGroup, MalleInvariants
from sdxa.indexcalc import BetaResult, IndexComparison, TailEstimate
from sdxa.perms import CycleType
from sdxa.splitting import SplittingPattern, TableRow, ValuationTable


ROOT = Path(__file__).resolve().parent.parent


def fields(value) -> dict:
    """The fields of ``value`` by name, in their order."""
    return value._asdict()


def replace(value, **changes):
    """A copy of ``value`` with ``changes``, through the type's replace API."""
    return value._replace(**changes)


def remake(value, **changes):
    """A copy of ``value`` with ``changes``, through ``_make``."""
    return type(value)._make({**fields(value), **changes}.values())


def c2() -> AbelianGroup:
    return AbelianGroup((2,))


def cubic() -> FieldRecord:
    return FieldRecord("3.-23.1", 3, "S3", -23, (LocalDatum(23, CycleType((2, 1))),))


def quadratic() -> FieldRecord:
    return FieldRecord("2.-23.1", 2, "C2", -23, (LocalDatum(23, CycleType((2,))),), (-23,))


def pattern(*factors: tuple[int, int]) -> SplittingPattern:
    return SplittingPattern(factors)


def table_row() -> TableRow:
    return TableRow(CycleType((3,)), (pattern((3, 1)),), (pattern((3, 2)),), 2, 4, 2)


# Each sample is built afresh on every call, so two calls give equal copies.
SAMPLES = {
    "CycleType": lambda: CycleType((2, 1)),
    "AbelianGroup": c2,
    "AbelianElement": lambda: c2().element((1,)),
    "MalleInvariants": lambda: MalleInvariants(2, Fraction(1, 2), 1),
    "IndexComparison": lambda: IndexComparison(1, 2, True, False),
    "BetaResult": lambda: BetaResult(
        Fraction(-1, 2), ((CycleType((3,)), c2().element((1,))),),
        (((CycleType((3,)), c2().element((1,))), Fraction(-1, 2)),)),
    "TailEstimate": lambda: TailEstimate(1, 2, True, False),
    "SplittingPattern": lambda: pattern((2, 1), (1, 1)),
    "TableRow": table_row,
    "ValuationTable": lambda: ValuationTable(3, c2(), (table_row(),), 3),
    "LocalDatum": lambda: LocalDatum(2, wild_valuation=3),
    "FieldRecord": cubic,
    "Dataset": lambda: Dataset((cubic(),), ("#coverage group=S3 maxdisc=30",)),
    "PrimeBreakdown": lambda: PrimeBreakdown(23, 1, 1, 3, 2),
    "ComposeResult": lambda: compose_disc(cubic(), quadratic()),
    "CensusResult": lambda: CensusResult(100, 1, 0, 0.1, ("w",)),
    "UniformityBin": lambda: UniformityBin(frozenset({CycleType((3,))}), 7, Fraction(-1, 2)),
    "UniformityRow": lambda: UniformityRow(2, Fraction(1, 2), 1),
}
TYPES = (CycleType, AbelianGroup, AbelianElement, MalleInvariants, IndexComparison,
         BetaResult, TailEstimate, SplittingPattern, TableRow, ValuationTable, LocalDatum,
         FieldRecord, Dataset, PrimeBreakdown, ComposeResult, CensusResult, UniformityBin,
         UniformityRow)

CUBIC_REPR = ("FieldRecord(label='3.-23.1', degree=3, group='S3', disc=-23, local=("
              "LocalDatum(prime=23, tame_class=CycleType(parts=(2, 1)), wild_valuation=None),"
              "), quad_subfield_discs=())")
QUADRATIC_REPR = ("FieldRecord(label='2.-23.1', degree=2, group='C2', disc=-23, local=("
                  "LocalDatum(prime=23, tame_class=CycleType(parts=(2,)), wild_valuation=None),"
                  "), quad_subfield_discs=(-23,))")
C2_REPR = "AbelianGroup(invariant_factors=(2,))"
ROW_REPR = ("TableRow(generator=CycleType(parts=(3,)), f_splitting=(SplittingPattern("
            "factors=((3, 1),)),), fk_splitting=(SplittingPattern(factors=((3, 2),)),), "
            "v_disc_f=2, v_disc_fk=4, delta=2)")
REPRS = {
    "CycleType": "CycleType(parts=(2, 1))",
    "AbelianGroup": C2_REPR,
    "AbelianElement": f"AbelianElement(group={C2_REPR}, residues=(1,))",
    "MalleInvariants": "MalleInvariants(a=2, exponent=Fraction(1, 2), b=1)",
    "IndexComparison": ("IndexComparison(lhs=1, rhs=2, equality=True, "
                        "divisibility_criterion=False)"),
    "BetaResult": ("BetaResult(value=Fraction(-1, 2), attained=((CycleType(parts=(3,)), "
                   f"AbelianElement(group={C2_REPR}, residues=(1,))),))"),
    "TailEstimate": "TailEstimate(value=1, comparator=2, r_start=True, terms=False)",
    "SplittingPattern": "SplittingPattern(factors=((2, 1), (1, 1)))",
    "TableRow": ROW_REPR,
    "ValuationTable": f"ValuationTable(d=3, group={C2_REPR}, rows=({ROW_REPR},), delta_cap=3)",
    "LocalDatum": "LocalDatum(prime=2, tame_class=None, wild_valuation=3)",
    "FieldRecord": CUBIC_REPR,
    "Dataset": f"Dataset(records=({CUBIC_REPR},), headers=('#coverage group=S3 maxdisc=30',))",
    "PrimeBreakdown": "PrimeBreakdown(prime=23, v_f=1, v_k=1, delta_p=3, v_fk=2)",
    "ComposeResult": ("ComposeResult(magnitude=12167, naive_magnitude=6436343, "
                      "lower_bound=12167, unresolved_primes=(), shared=((23, 2),), "
                      f"f_record={CUBIC_REPR}, k_record={QUADRATIC_REPR})"),
    "CensusResult": ("CensusResult(x=100, count=1, flagged_wild_pairs=0, fit_constant=0.1, "
                     "warnings=('w',), y=None)"),
    "UniformityBin": ("UniformityBin(classes=frozenset({CycleType(parts=(3,))}), q=7, "
                      "exponent=Fraction(-1, 2))"),
    "UniformityRow": "UniformityRow(x=2, count=Fraction(1, 2), ratio=1)",
}

# (sample, field changes, error, message): each is refused when built and when replaced.
CHECKS = [
    ("CycleType", {"parts": (2, 0)}, DomainError, r"parts must be positive: \(2, 0\)"),
    ("AbelianGroup", {"invariant_factors": (2, 0)}, DomainError, "cyclic factor must be >= 1"),
    ("AbelianElement", {"residues": (1, 0)}, DegreeMismatchError,
     "residue vector length 2 does not match group rank 1"),
    ("MalleInvariants", {"a": 0}, DomainError, "a >= 1 and b >= 1"),
    ("MalleInvariants", {"b": 0}, DomainError, "a >= 1 and b >= 1"),
    ("SplittingPattern", {"factors": ()}, DomainError, "needs at least one factor"),
    ("SplittingPattern", {"factors": ((2, 1), (0, 1))}, DomainError,
     r"factor \(0,1\) must have positive entries"),
    ("LocalDatum", {"prime": 1}, DomainError, "prime 1 is below 2"),
    ("LocalDatum", {"wild_valuation": None}, DomainError, "exactly one of"),
    ("LocalDatum", {"tame_class": CycleType((2, 1))}, DomainError, "exactly one of"),
    ("LocalDatum", {"wild_valuation": 0}, DomainError, "a positive valuation"),
    ("UniformityBin", {"q": 0}, DomainError, "dyadic base must be >= 1"),
    ("UniformityBin", {"classes": frozenset()}, DomainError, "at least one inertia class"),
]

# (sample, field changes, the fields they become): normalised when built and when replaced.
NORMALISED = [
    ("CycleType", {"parts": (1, 3, 1)}, {"parts": (3, 1, 1)}),
    ("AbelianGroup", {"invariant_factors": (2, 3, 4)}, {"invariant_factors": (2, 12)}),
    ("AbelianElement", {"residues": (-3,)}, {"residues": (1,)}),
    ("SplittingPattern", {"factors": ((1, 1), (2, 1), (1, 2))},
     {"factors": ((2, 1), (1, 2), (1, 1))}),
]

COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


def test_the_table_covers_every_value_type():
    assert [type(sample()) for sample in SAMPLES.values()] == list(TYPES)
    assert [cls.__name__ for cls in TYPES] == list(SAMPLES) == list(REPRS)


@pytest.mark.parametrize("cls", TYPES, ids=[cls.__name__ for cls in TYPES])
def test_each_type_annotates_the_fields_of_its_namedtuple_once(cls):
    assert cls.__mro__[1] is Frozen and cls.__mro__[2]._fields == cls._fields
    annotated = vars(cls).get("__annotations__", {})
    if "__new__" in vars(cls):
        parameters = inspect.signature(cls.__new__).parameters.values()
        assert tuple(p.name for p in parameters)[1:] == cls._fields
        assert all(p.annotation is not p.empty for p in parameters if p.name != "cls")
        assert not annotated
    else:
        assert tuple(annotated) == cls._fields
    value = SAMPLES[cls.__name__]()
    # no class attribute, such as a default written in the body, hides a field
    assert all(getattr(value, name) is value[i] for i, name in enumerate(cls._fields))


@pytest.mark.parametrize("name", SAMPLES)
def test_a_value_equals_and_hashes_like_an_equal_value_of_its_own_type(name):
    first, second = SAMPLES[name](), SAMPLES[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    for duplicate in (copy.copy(first), copy.deepcopy(first),
                      pickle.loads(pickle.dumps(first)), replace(first), remake(first)):
        assert type(duplicate) is type(first)
        assert duplicate == first and hash(duplicate) == hash(first)


@pytest.mark.parametrize("name", SAMPLES)
def test_a_value_never_equals_a_tuple_or_another_type(name):
    value = SAMPLES[name]()
    plain = tuple(fields(value).values())
    assert value != plain and plain != value
    assert not value == plain and not plain == value
    twin = type("Twin", (type(value),), {})(**fields(value))
    assert fields(twin) == fields(value)
    assert value != twin and twin != value
    assert not value == twin and not twin == value
    # Python asks the subclass first; ask the type's own method too
    assert type(value).__eq__(value, twin) is False
    others = [sample() for other, sample in SAMPLES.items() if other != name]
    assert all(value != other and other != value for other in others)


@pytest.mark.parametrize("first, second", [("MalleInvariants", "UniformityRow"),
                                           ("IndexComparison", "TailEstimate")])
def test_two_types_with_the_same_fields_are_not_equal(first, second):
    one, two = SAMPLES[first](), SAMPLES[second]()
    assert list(fields(one).values()) == list(fields(two).values())
    assert one != two and two != one
    assert not one == two and not two == one


@pytest.mark.parametrize("name", [name for name in SAMPLES if name != "SplittingPattern"])
def test_no_value_type_but_splitting_patterns_is_ordered(name):
    first, second = SAMPLES[name](), SAMPLES[name]()
    plain = tuple(fields(first).values())
    for compare in COMPARISONS:
        for left, right in ((first, second), (first, plain), (plain, first)):
            with pytest.raises(TypeError):
                compare(left, right)


def test_splitting_patterns_are_ordered_by_their_factors_among_themselves_only():
    small, large = pattern((2, 1)), pattern((2, 1), (1, 1))
    assert small < large and small <= large and large > small and large >= small
    assert not large < small and small <= pattern((2, 1)) and small >= pattern((2, 1))
    assert sorted([large, small, pattern((1, 3))]) == [pattern((1, 3)), small, large]
    for compare in COMPARISONS:
        for other in (tuple(fields(small).values()), small.factors, CycleType((3,))):
            with pytest.raises(TypeError):
                compare(small, other)
            with pytest.raises(TypeError):
                compare(other, small)


@pytest.mark.parametrize("name", SAMPLES)
def test_the_repr_is_pinned(name):
    assert repr(SAMPLES[name]()) == REPRS[name]


def test_a_beta_result_leaves_its_per_class_breakdown_out_of_its_repr():
    result = SAMPLES["BetaResult"]()
    assert result.per_class and "per_class" not in repr(result)
    assert result != replace(result, per_class=())


@pytest.mark.parametrize("name", SAMPLES)
def test_no_field_can_be_assigned_or_deleted(name):
    value = SAMPLES[name]()
    before = fields(value)
    for field in [*before, "not_a_field"]:
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, field)
    assert fields(value) == before


@pytest.mark.parametrize("name, changes, error, message", CHECKS,
                         ids=[f"{name}-{'-'.join(changes)}" for name, changes, *_ in CHECKS])
def test_each_check_fires_on_construction_and_on_replace(name, changes, error, message):
    value = SAMPLES[name]()
    with pytest.raises(error, match=message):
        type(value)(**{**fields(value), **changes})
    with pytest.raises(error, match=message):
        replace(value, **changes)
    with pytest.raises(error, match=message):
        remake(value, **changes)


@pytest.mark.parametrize("name, changes, expected", NORMALISED,
                         ids=[name for name, *_ in NORMALISED])
def test_each_normalisation_applies_on_construction_and_on_replace(name, changes, expected):
    value = SAMPLES[name]()
    for built in (type(value)(**{**fields(value), **changes}), replace(value, **changes),
                  remake(value, **changes)):
        assert type(built) is type(value)
        assert {key: fields(built)[key] for key in expected} == expected
        assert built == type(value)(**{**fields(value), **expected})


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no module that site imports can hide one the package pulls in
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    script = ("import json, sys; before = set(sys.modules); import sdxa.cli; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-S", "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "sdxa.cli" in loaded and "sdxa.census" in loaded
    assert not {"dataclasses", "inspect", "importlib.resources"} & set(loaded)


def test_a_cached_property_computes_once_into_the_instance_dict():
    calls = []

    class Point(Frozen, namedtuple("Point", "x")):
        @cached_property
        def double(self) -> int:
            """Twice x."""
            calls.append(self.x)
            return 2 * self.x

    point = Point(3)
    assert vars(point) == {} and calls == []
    assert point.double == 6 and point.double == 6 and calls == [3]
    assert vars(point) == {"double": 6}
    assert point == Point(3) and hash(point) == hash(Point(3))
    assert Point.double is vars(Point)["double"] and Point.double.__doc__ == "Twice x."
    with pytest.raises(FrozenInstanceError):
        point.double = 7


def test_no_module_uses_functools_cached_property():
    # its lock costs each first access; sdxa.errors.cached_property takes none
    for path in sorted((ROOT / "src" / "sdxa").glob("*.py")):
        uses = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                and any(alias.name == "cached_property" for alias in node.names)
                or isinstance(node, ast.Attribute) and node.attr == "cached_property"
                and getattr(node.value, "id", None) == "functools"]
        assert uses == [], path.name


def _memo_sites(tree: ast.Module) -> dict[str, int | None]:
    """The function each ``lru_cache``/``functools.cache`` use decorates, or
    ``line N`` for any other use, mapped to its ``maxsize`` if that is a
    literal int, else None: ``functools.cache`` and ``maxsize=None`` keep every
    entry, and a bare ``lru_cache`` keeps 128."""
    names = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in ("lru_cache", "cache")}

    def kind(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            return node.attr if node.attr in ("lru_cache", "cache") else None
        return None

    decorated = {}
    for fn in ast.walk(tree):
        for decorator in getattr(fn, "decorator_list", []):
            # a bare decorator reads as a call without arguments
            call = decorator if isinstance(decorator, ast.Call) else ast.Call(decorator, [], [])
            sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args
            size = sizes[0] if sizes else ast.Constant(128)
            literal = isinstance(size, ast.Constant) and type(size.value) is int
            decorated[id(call.func)] = fn.name, (
                size.value if literal and kind(call.func) == "lru_cache" else None)
    return dict(decorated.get(id(node), (f"line {node.lineno}", None))
                for node in ast.walk(tree) if kind(node))


def test_only_work_that_is_reused_is_memoised():
    # one policy: a memo is a process-wide lru_cache of 1,024 entries, only
    # where a command or a session reuses the work; no module empties one, and
    # none but errors.cached_property's lazy facts is kept in an instance
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "sdxa").glob("*.py"))}
    sites = {name: _memo_sites(tree) for name, tree in trees.items()}
    assert {name: found for name, found in sites.items() if found} == {
        "census.py": dict.fromkeys(
            ["_datum_problem", "_group_of_label", "_parse_datum", "_parse_inertia"], 1024),
        "groups.py": {"element_of_order": 1024},
        "indexcalc.py": {"delta": 1024},
        "splitting.py": {"decomposition_patterns": 1024},
    }
    lazy = next(node for node in ast.walk(trees["errors.py"])
                if isinstance(node, ast.ClassDef) and node.name == "cached_property")
    allowed = {id(node) for node in ast.walk(lazy)}
    misplaced = [(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in ("cache_clear", "__dict__")
                 or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars"
                 and id(node) not in allowed]
    assert misplaced == []


def test_no_module_formats_text_with_percent():
    # a value is a tuple, so "%s" % value would spread its fields over the format
    for path in sorted((ROOT / "src" / "sdxa").glob("*.py")):
        formats = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                   and isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)]
        assert formats == [], path.name
