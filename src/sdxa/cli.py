"""Command-line interface.

Subcommands:

* ``invariants``    counting constants for the product group and its abelian
                    comparison point
* ``delta-table``   reference valuation/discrepancy table for a prime-order
                    cyclic abelian part
* ``verify-lemmas`` re-run the index-comparison invariants for one (d, A)
* ``tail-bound``    combined exponent from the stock presets plus the dyadic
                    tail series against its closed-form comparator
* ``census``        count composed pairs below a discriminant cutoff
* ``compose``       per-prime composition breakdown for one pair of records
* ``uniformity``    dyadic-range configuration counts over a dataset

Each ``cmd_*`` computes its result and hands :func:`_render` heading lines,
table rows (header first) and trailer lines.  All but ``verify-lemmas`` take
``--format {plain,tsv}``: plain prints the heading and then the rows as a
space-aligned table (``invariants`` and ``census`` print their heading as
prose and no table), tsv prints only the tab-separated rows.  Trailer lines,
the ``#`` magnitude lines of ``compose``, are printed in both formats.

Exit codes: 0 on success, 1 on any library error (bad data, domain errors),
2 on command-line usage errors.  :func:`main` may be called any number of times
in one process.  A well-formed subcommand line builds one parser, that
subcommand's own; the full tree of :func:`build_parser` is built only for help
and for usage errors outside one subcommand.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from fractions import Fraction

from .census import (
    compose_disc,
    count_N,
    count_N_truncated,
    ingest,
    linearly_disjoint,
    measure_uniformity,
    missing_coverage,
    parse_uniformity_spec,
    parse_wild_overrides,
    product_order,
    read_text,
)
from .errors import SdxaError, parse_float, parse_fraction, parse_int
from .groups import (
    AbelianGroup,
    abelian_counting_constants,
    conjugacy_classes_product,
    malle_invariants_product,
)
from .indexcalc import (
    beta,
    equality_cases,
    exponent_presets,
    index_compare,
    tail_series,
    theta,
)
from .splitting import generate_table


def bundled_fixture_path() -> str:
    """Location of the field-census fixture shipped inside the package; its
    import, with all it loads, waits for a command run without ``--dataset``."""
    from importlib.resources import files
    return str(files("sdxa").joinpath("data/cubic_quadratic_fields.txt"))


def _int(text: str) -> int:
    return parse_int(text, argparse.ArgumentTypeError, f"invalid int value: {text!r}")


def _float(text: str) -> float:
    return parse_float(text, argparse.ArgumentTypeError, f"invalid float value: {text!r}")


def _fraction(text: str) -> Fraction:
    return parse_fraction(text, argparse.ArgumentTypeError, f"not a rational number: {text!r}")


def _render(fmt: str, rows: list[list], heading: Sequence[str] = (),
            trailer: Sequence[str] = (), plain_table: bool = True) -> int:
    """Print one command's output to stdout and return exit code 0.

    ``rows`` is the table, header first; each cell is printed as ``str``.
    Plain: the heading lines, then the table space-aligned (unless
    ``plain_table`` is false).  Tsv: the table tab-separated, no heading.
    Both: the trailer lines."""
    table = [[str(cell) for cell in row] for row in rows]
    if fmt == "tsv":
        lines = ["\t".join(row) for row in table]
    else:
        lines = list(heading)
        if plain_table:
            widths = [max(map(len, column)) for column in zip(*table)]
            lines += [
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                for row in table
            ]
    for line in [*lines, *trailer]:
        print(line)
    return 0


def cmd_invariants(args) -> int:
    group = AbelianGroup.from_label(args.A)
    inv = malle_invariants_product(args.d, group)
    a_abelian, b_abelian = abelian_counting_constants(group)
    order = product_order(args.d, group)
    return _render(
        args.format,
        [["d", "A", "group_order", "a", "exponent", "b", "a_A", "b_A"],
         [args.d, group.label(), order, inv.a, inv.exponent, inv.b, a_abelian,
          b_abelian]],
        heading=[
            f"product group: S{args.d} x {group.label()} (order {order})",
            "count of fields below X grows like a(K) * X^exponent * "
            "(log X)^(b-1) with:",
            f"  a (minimal index)   = {inv.a}",
            f"  exponent            = {inv.exponent}",
            f"  b (minimal orbits)  = {inv.b}",
            f"abelian comparison point ({group.label()} alone): "
            f"a_A = {a_abelian}, b_A = {b_abelian}",
        ],
        plain_table=False,
    )


def cmd_delta_table(args) -> int:
    group = AbelianGroup.from_label(args.A)
    table = generate_table(args.d, group)
    rows = [["generator", "f_patterns", "fk_patterns", "v_disc_f", "v_disc_fk",
             "delta"]]
    for row in table.rows:
        rows.append([".".join(map(str, row.generator.parts)),
                     ", ".join(map(str, row.f_splitting)),
                     ", ".join(map(str, row.fk_splitting)),
                     row.v_disc_f, row.v_disc_fk, row.delta])
    return _render(args.format, rows, heading=[
        f"reference valuation table: d={table.d}, A={args.A}, "
        f"delta_cap={table.delta_cap}"
    ])


def cmd_verify_lemmas(args) -> int:
    group = AbelianGroup.from_label(args.A)
    checked = 0
    failures: list[str] = []
    equalities: list[str] = []
    for g, h in conjugacy_classes_product(args.d, group):
        if theta(g, h) > 0:
            failures.append(f"theta positive on ({g}, {h})")
        if h.is_identity:
            continue
        comparison = index_compare(g, h)
        checked += 1
        if comparison.lhs > comparison.rhs:
            failures.append(f"lower bound fails on ({g}, {h})")
        if comparison.equality != comparison.divisibility_criterion:
            failures.append(f"equality/divisibility mismatch on ({g}, {h})")
        if not comparison.equality and comparison.rhs - comparison.lhs < 1:
            failures.append(f"sub-unit deficit on ({g}, {h})")
        if comparison.equality:
            equalities.append(f"({g}, {h})")
    catalogue = {f"({g}, {h})" for g, h in equality_cases(args.d, group)}
    if set(equalities) != catalogue:
        failures.append("equality catalogue disagrees with direct scan")
    lines = [
        f"d={args.d} A={group.label()}: checked {checked} classes with "
        f"nontrivial abelian part",
        "equality classes: " + (", ".join(sorted(equalities)) or "(none)"),
    ]
    if not failures:
        lines.append("index lower bound, divisibility criterion, unit deficit, "
                     "theta <= 0: all verified")
    _render("plain", [], heading=lines)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_tail_bound(args) -> int:
    group = AbelianGroup.from_label(args.A)
    attained: list[str] = []
    if args.beta is None:
        presets = exponent_presets(args.d, args.epsilon)
        result = beta(args.d, group, presets)
        beta_value, origin = result.value, "preset"
        attained.append("attained on: "
                        + ", ".join(f"({g}, {h})" for g, h in result.attained))
    else:
        beta_value, origin = args.beta, "explicit"
    rows = [["y", "r_start", "terms", "value", "comparator", "ratio"]]
    for y in args.Y:
        est = tail_series(beta_value, args.epsilon, args.m, y)
        rows.append([f"{y:g}", est.r_start, est.terms, f"{est.value:.6e}",
                     f"{est.comparator:.6e}", f"{est.value / est.comparator:.4f}"])
    return _render(args.format, rows, heading=[
        f"beta = {beta_value} ({origin}), epsilon = {args.epsilon}, "
        f"m = {args.m}, series exponent beta + epsilon = "
        f"{beta_value + args.epsilon}",
        *attained,
    ])


def cmd_census(args) -> int:
    dataset = ingest(args.dataset)
    group = AbelianGroup.from_label(args.A)
    overrides = (parse_wild_overrides(read_text(args.wild_overrides))
                 if args.wild_overrides else None)
    if args.Y is not None:
        result = count_N_truncated(dataset, args.d, group, args.X, args.Y, overrides)
    else:
        result = count_N(dataset, args.d, group, args.X, overrides)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    counts = ", ".join(f"{g}={n}" for g, n in sorted(dataset.group_counts().items()))
    scope = f"truncated at y = {result.y}" if result.y is not None else "exact"
    fit = f"{result.fit_constant:.6g}"
    return _render(
        args.format,
        [["x", "y", "count", "flagged_wild_pairs", "fit_constant"],
         [result.x, "" if result.y is None else result.y, result.count,
          result.flagged_wild_pairs, fit]],
        heading=[
            f"dataset: {args.dataset} ({counts})",
            f"count below X = {result.x} ({scope}): {result.count}",
            f"flagged wild-overlap pairs: {result.flagged_wild_pairs}",
            f"fit constant count / X^(1/{group.order}) = {fit}",
        ],
        plain_table=False,
    )


def cmd_compose(args) -> int:
    dataset = ingest(args.dataset)
    f_record = dataset.get(args.F)
    k_record = dataset.get(args.K)
    overrides = (parse_wild_overrides(read_text(args.wild_overrides))
                 if args.wild_overrides else None)
    result = compose_disc(f_record, k_record, overrides)
    disjoint = linearly_disjoint(f_record, k_record)
    rows = [["prime", "v_f", "v_k", "delta_p", "v_fk"]] + [
        [e.prime, e.v_f, e.v_k, "?" if e.delta_p is None else e.delta_p, e.v_fk]
        for e in result.breakdown
    ]
    if result.exact:
        trailer = [f"# magnitude = {result.magnitude} (exact)"]
    else:
        unresolved = ", ".join(map(str, result.unresolved_primes))
        trailer = [
            f"# unresolved wild overlap at: {unresolved}",
            f"# magnitude in [{result.lower_bound}, {result.naive_magnitude}]",
        ]
    return _render(args.format, rows, trailer=trailer, heading=[
        f"F = {f_record.label} ({f_record.group}, disc {f_record.disc})",
        f"K = {k_record.label} ({k_record.group}, disc {k_record.disc})",
        f"linearly disjoint: {'yes' if disjoint else 'no'}",
    ])


def cmd_uniformity(args) -> int:
    dataset = ingest(args.dataset)
    bins = parse_uniformity_spec(read_text(args.uniformity_spec))
    rows = [["x", "count", "ratio"]] + [
        [row.x, row.count, "" if row.ratio is None else f"{row.ratio:.6g}"]
        for row in measure_uniformity(dataset, args.d, bins, args.X)
    ]
    for warning in missing_coverage(dataset, f"S{args.d}"):
        print(f"warning: {warning}", file=sys.stderr)
    described = "; ".join(
        "{" + ", ".join(sorted(str(ct) for ct in b.classes)) + "}"
        f" q={b.q}" + (f" exponent={b.exponent}" if b.exponent is not None else "")
        for b in bins
    )
    return _render(args.format, rows, heading=[f"bins: {described}"])


_COMMANDS = {
    "invariants": (cmd_invariants, "counting constants for S_d x A"),
    "delta-table": (cmd_delta_table, "valuation/discrepancy table (prime-order A)"),
    "verify-lemmas": (cmd_verify_lemmas, "re-verify index comparison invariants"),
    "tail-bound": (cmd_tail_bound, "combined exponent and dyadic tail series"),
    "census": (cmd_census, "count composed pairs below a cutoff"),
    "compose": (cmd_compose, "per-prime composition breakdown for one pair"),
    "uniformity": (cmd_uniformity, "dyadic-range configuration counts"),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """Give ``p`` the arguments of subcommand ``name``: the one definition
    behind both its own parser and the subparser of :func:`build_parser`."""
    p.set_defaults(func=_COMMANDS[name][0])
    if name != "compose":
        p.add_argument("--d", type=_int, required=True,
                       help="degree of the symmetric-group side")
    if name not in ("compose", "uniformity"):
        p.add_argument("--A", required=True,
                       help="abelian group label, e.g. C2 or C2xC4")
    if name in ("census", "compose", "uniformity"):
        p.add_argument("--dataset", help="record file (default: bundled fixture)")
    if name != "verify-lemmas":
        p.add_argument("--format", choices=("plain", "tsv"), default="plain")
    if name == "tail-bound":
        p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 1000),
                       help="slack exponent, an exact rational like 1/1000")
        p.add_argument("--m", type=_int, required=True,
                       help="number of dyadic ranges")
        p.add_argument("--Y", type=_float, required=True, nargs="+",
                       help="series cutoff(s)")
        p.add_argument("--beta", type=_fraction, default=None,
                       help="explicit combined exponent (skips the preset)")
    elif name == "census":
        p.add_argument("--X", type=_int, required=True, help="discriminant cutoff")
        p.add_argument("--Y", type=_int, default=None,
                       help="prime cutoff for the truncated count")
    elif name == "compose":
        p.add_argument("--F", required=True, help="label of the degree-d record")
        p.add_argument("--K", required=True, help="label of the abelian record")
    elif name == "uniformity":
        p.add_argument("--uniformity-spec", required=True,
                       help="JSON file describing the dyadic bins")
        p.add_argument("--X", type=_int, required=True, action="append",
                       help="cutoff (repeatable)")
    if name in ("census", "compose"):
        p.add_argument("--wild-overrides", default=None,
                       help="JSON file of wild-overlap discrepancies")


def build_parser() -> argparse.ArgumentParser:
    """The full parser tree, with every subcommand's parser built."""
    parser = argparse.ArgumentParser(
        prog="sdxa",
        description="Counting invariants, discriminant composition tables, "
                    "and census tooling for products of a full symmetric "
                    "group with an abelian group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _attach_negative_rationals(argv: list[str]) -> list[str]:
    """Rewrite ``tail-bound ... --beta -1/1000`` as ``--beta=-1/1000``:
    argparse takes a separate ``-1/1000`` for an option, not for the value of
    ``--beta`` or ``--epsilon``.  Abbreviations such as ``--bet`` and ``--e``
    are joined too, as no other tail-bound option starts with ``--b`` or
    ``--e``; argv of the other subcommands, which lack both, is left as is."""
    if argv[:1] != ["tail-bound"]:
        return argv
    out: list[str] = []
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdigit()
        option = out[-1] if out else ""
        if negative and len(option) > 2 and any(
                n.startswith(option) for n in ("--beta", "--epsilon")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _attach_negative_rationals(sys.argv[1:] if argv is None else argv)
    name = argv[0] if argv else None
    if name in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"sdxa {name}")
        _add_arguments(parser, name)
        args, rest = parser.parse_known_args(argv[1:])
        args.command = name
    if name not in _COMMANDS or rest:
        # No subcommand named first, or tokens its parser left over: the full
        # tree prints the help or the usage error.
        args = build_parser().parse_args(argv)
    if getattr(args, "dataset", "") is None:  # no --dataset: the bundled fixture
        args.dataset = bundled_fixture_path()
    try:
        return args.func(args)
    except (SdxaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
