"""Span tracing of the sdxa layers, installed from outside the package.

Each traced function is wrapped at every binding site where callers look it
up: in its own module and in every sdxa module that imported it with
``from ... import``.  ``AbelianGroup.from_label`` is wrapped on the class.
Spans go into typed arrays during a session and are reduced and written out
only after the session's last command.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter_ns

MODULES = ("perms", "groups", "indexcalc", "splitting", "census", "cli")

# Layer boundaries: the public functions the per-layer metrics are read from.
TRACED = {
    "perms": ("product_embed", "all_permutations"),
    "groups": (
        "conjugacy_classes_product",
        "malle_invariants_product",
        "abelian_counting_constants",
    ),
    "indexcalc": (
        "delta",
        "index_compare",
        "equality_cases",
        "theta",
        "beta",
        "exponent_presets",
        "tail_series",
    ),
    "splitting": ("decomposition_patterns", "generate_table"),
    "census": (
        "ingest",
        "parse_record",
        "linearly_disjoint",
        "compose_disc",
        "iter_census_pairs",
        "count_N",
        "count_N_truncated",
        "measure_uniformity",
    ),
    "cli": ("main",),
}


def _tail_terms(result) -> tuple[str, int]:
    return "indexcalc.tail_series.terms", result.terms


def _census_outcomes(result) -> tuple[str, int]:
    return "census.count.outcomes", result.count + result.flagged_wild_pairs


# Exact counts read off return values, next to the span counts.
RESULT_COUNTERS = {
    "indexcalc.tail_series": _tail_terms,
    "census.count_N": _census_outcomes,
    "census.count_N_truncated": _census_outcomes,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.command = array("H")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_command = 0
        self.counters: dict[int, dict[str, int]] = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = RESULT_COUNTERS.get(name)
        name_of, parent, command = self.name_of, self.parent, self.command
        start, end, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            command.append(self.current_command)
            end.append(0)
            stack.append(index)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                key, value = counter(result)
                totals = self.counters.setdefault(self.current_command, {})
                totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"sdxa.{m}") for m in MODULES}
        for home, functions in TRACED.items():
            for function in functions:
                original = getattr(modules[home], function)
                wrapper = self._wrap(f"{home}.{function}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        group_cls = modules["groups"].AbelianGroup
        original = group_cls.__dict__["from_label"].__func__
        group_cls.from_label = staticmethod(self._wrap("groups.from_label", original))

    def summarize(self) -> dict[int, dict[str, list[int]]]:
        """Per command and span name: [calls, self ns, inclusive ns].  Self
        time is a span's duration minus the durations of its child spans."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[int, dict[str, list[int]]] = {}
        names, name_of, command = self.names, self.name_of, self.command
        for i in range(n):
            duration = end[i] - start[i]
            per_command = out.setdefault(command[i], {})
            entry = per_command.setdefault(names[name_of[i]], [0, 0, 0])
            entry[0] += 1
            entry[1] += duration - child[i]
            entry[2] += duration
        return out

    def write(self, path: str, session: int, origin_ns: int) -> None:
        """Append this session's spans as one gzip member of tab-separated
        lines: session, command, span, parent, name, start ns, end ns (both
        relative to the session's ready time)."""
        names, name_of = self.names, self.name_of
        lines = [
            f"{session}\t{self.command[i]}\t{i}\t{self.parent[i]}\t"
            f"{names[name_of[i]]}\t{self.start[i] - origin_ns}\t"
            f"{self.end[i] - origin_ns}\n"
            for i in range(len(self.start))
        ]
        with gzip.open(path, "at", compresslevel=1, encoding="utf-8") as handle:
            handle.writelines(lines)
