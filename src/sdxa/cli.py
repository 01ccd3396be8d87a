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

Exit codes: 0 on success, 1 on any library error (bad data, domain errors),
2 on command-line usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from importlib.resources import files

from .census import (
    UniformityBin,
    WildOverrides,
    compose_disc,
    count_N,
    count_N_truncated,
    ingest,
    linearly_disjoint,
    measure_uniformity,
)
from .errors import DomainError, SdxaError
from .groups import (
    AbelianGroup,
    abelian_counting_constants,
    conjugacy_classes_product,
    malle_invariants_product,
)
from .indexcalc import (
    TailParams,
    beta,
    equality_cases,
    exponent_presets,
    index_compare,
    tail_series,
    theta,
)
from .perms import CycleType
from .splitting import generate_table


def bundled_fixture_path() -> str:
    """Location of the field-census fixture shipped inside the package."""
    return str(files("sdxa").joinpath("data/cubic_quadratic_fields.txt"))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _emit(rows: list[list[str]], fmt: str, out) -> None:
    if fmt == "tsv":
        for row in rows:
            print("\t".join(row), file=out)
    else:
        widths = [
            max(len(row[i]) for row in rows) for i in range(len(rows[0]))
        ]
        for row in rows:
            print(
                "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
                .rstrip(),
                file=out,
            )


def cmd_invariants(args, out) -> int:
    group = AbelianGroup.from_label(args.A)
    inv = malle_invariants_product(args.d, group)
    a_abelian, b_abelian = abelian_counting_constants(group)
    product_order = group.order * math.factorial(args.d)
    rows = [
        ["d", "A", "group_order", "a", "exponent", "b", "a_A", "b_A"],
        [
            str(args.d),
            group.label(),
            str(product_order),
            str(inv.a),
            str(inv.exponent),
            str(inv.b),
            str(a_abelian),
            str(b_abelian),
        ],
    ]
    if args.format == "tsv":
        _emit(rows, "tsv", out)
    else:
        print(f"product group: S{args.d} x {group.label()} "
              f"(order {product_order})", file=out)
        print(f"count of fields below X grows like a(K) * X^exponent * "
              f"(log X)^(b-1) with:", file=out)
        print(f"  a (minimal index)   = {inv.a}", file=out)
        print(f"  exponent            = {inv.exponent}", file=out)
        print(f"  b (minimal orbits)  = {inv.b}", file=out)
        print(f"abelian comparison point ({group.label()} alone): "
              f"a_A = {a_abelian}, b_A = {b_abelian}", file=out)
    return 0


def cmd_delta_table(args, out) -> int:
    group = AbelianGroup.from_label(args.A)
    table = generate_table(args.d, group)
    rows = [
        ["generator", "f_patterns", "fk_patterns", "v_disc_f", "v_disc_fk", "delta"]
    ]
    for row in table.rows:
        rows.append(
            [
                ".".join(str(p) for p in row.generator.parts),
                ", ".join(str(p) for p in row.f_splitting),
                ", ".join(str(p) for p in row.fk_splitting),
                str(row.v_disc_f),
                str(row.v_disc_fk),
                str(row.delta),
            ]
        )
    if args.format == "plain":
        print(
            f"reference valuation table: d={table.d}, A={args.A}, "
            f"delta_cap={table.delta_cap}",
            file=out,
        )
    _emit(rows, args.format, out)
    return 0


def cmd_verify_lemmas(args, out) -> int:
    group = AbelianGroup.from_label(args.A)
    checked = 0
    failures: list[str] = []
    equalities: list[str] = []
    for cls in conjugacy_classes_product(args.d, group, nontrivial_only=True):
        if theta(cls, args.d, group) > 0:
            failures.append(f"theta positive on {cls}")
        if cls.a_part.is_identity:
            continue
        comparison = index_compare(cls.sd_part, cls.a_part)
        checked += 1
        if comparison.lhs > comparison.rhs:
            failures.append(f"lower bound fails on {cls}")
        if comparison.equality != comparison.divisibility_criterion:
            failures.append(f"equality/divisibility mismatch on {cls}")
        if not comparison.equality and comparison.rhs - comparison.lhs < 1:
            failures.append(f"sub-unit deficit on {cls}")
        if comparison.equality:
            equalities.append(str(cls))
    catalogue = {str(cls) for cls in equality_cases(args.d, group)}
    if set(equalities) != catalogue:
        failures.append("equality catalogue disagrees with direct scan")
    print(
        f"d={args.d} A={group.label()}: checked {checked} classes with "
        f"nontrivial abelian part",
        file=out,
    )
    print(
        "equality classes: " + (", ".join(sorted(equalities)) or "(none)"),
        file=out,
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("index lower bound, divisibility criterion, unit deficit, "
          "theta <= 0: all verified", file=out)
    return 0


def cmd_tail_bound(args, out) -> int:
    group = AbelianGroup.from_label(args.A)
    result = None
    if args.beta is None:
        presets = exponent_presets(args.d, args.epsilon)
        params = TailParams(args.d, group, presets, epsilon=args.epsilon)
        result = beta(params)
    beta_value = args.beta if args.beta is not None else result.value
    rows = [["y", "r_start", "terms", "value", "comparator", "ratio"]]
    for y in args.Y:
        estimate = tail_series(beta_value, args.epsilon, args.m, y)
        rows.append(
            [
                f"{y:g}",
                str(estimate.r_start),
                str(estimate.terms),
                f"{estimate.value:.6e}",
                f"{estimate.comparator:.6e}",
                f"{estimate.value / estimate.comparator:.4f}",
            ]
        )
    if args.format == "plain":
        origin = "explicit" if args.beta is not None else "preset"
        print(
            f"beta = {beta_value} ({origin}), epsilon = {args.epsilon}, "
            f"m = {args.m}, series exponent beta + epsilon = "
            f"{Fraction(beta_value) + args.epsilon}",
            file=out,
        )
        if result is not None:
            attained = ", ".join(str(cls) for cls in result.attained)
            print(f"attained on: {attained}", file=out)
    _emit(rows, args.format, out)
    return 0


def _load_overrides(path: str | None) -> WildOverrides | None:
    return WildOverrides.load(path) if path else None


def cmd_census(args, out) -> int:
    dataset = ingest(args.dataset)
    group = AbelianGroup.from_label(args.A)
    overrides = _load_overrides(args.wild_overrides)
    if args.Y is not None:
        result = count_N_truncated(dataset, args.d, group, args.X, args.Y, overrides)
    else:
        result = count_N(dataset, args.d, group, args.X, overrides)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.format == "tsv":
        rows = [
            ["x", "y", "count", "flagged_wild_pairs", "fit_constant"],
            [
                str(result.x),
                "" if result.y is None else str(result.y),
                str(result.count),
                str(result.flagged_wild_pairs),
                f"{result.fit_constant:.6g}",
            ],
        ]
        _emit(rows, "tsv", out)
    else:
        counts = dataset.group_counts()
        summary = ", ".join(f"{g}={n}" for g, n in sorted(counts.items()))
        print(f"dataset: {args.dataset} ({summary})", file=out)
        scope = f"truncated at y = {result.y}" if result.y is not None else "exact"
        print(f"count below X = {result.x} ({scope}): {result.count}", file=out)
        print(f"flagged wild-overlap pairs: {result.flagged_wild_pairs}", file=out)
        print(
            f"fit constant count / X^(1/{group.order}) = "
            f"{result.fit_constant:.6g}",
            file=out,
        )
    return 0


def cmd_compose(args, out) -> int:
    dataset = ingest(args.dataset)
    f_record = dataset.get(args.F)
    k_record = dataset.get(args.K)
    overrides = _load_overrides(args.wild_overrides)
    result = compose_disc(f_record, k_record, overrides)
    disjoint = linearly_disjoint(f_record, k_record)
    rows = [["prime", "v_f", "v_k", "delta_p", "v_fk"]]
    for entry in result.breakdown:
        rows.append(
            [
                str(entry.prime),
                str(entry.v_f),
                str(entry.v_k),
                "?" if entry.delta_p is None else str(entry.delta_p),
                str(entry.v_fk),
            ]
        )
    if args.format == "plain":
        print(f"F = {f_record.label} ({f_record.group}, disc {f_record.disc})",
              file=out)
        print(f"K = {k_record.label} ({k_record.group}, disc {k_record.disc})",
              file=out)
        print(f"linearly disjoint: {'yes' if disjoint else 'no'}", file=out)
    _emit(rows, args.format, out)
    if result.exact:
        print(f"# magnitude = {result.magnitude} (exact)", file=out)
    else:
        unresolved = ", ".join(str(p) for p in result.unresolved_primes)
        print(f"# unresolved wild overlap at: {unresolved}", file=out)
        print(
            f"# magnitude in [{result.lower_bound}, {result.naive_magnitude}]",
            file=out,
        )
    return 0


def _parse_uniformity_spec(path: str) -> list[UniformityBin]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        entries = [
            (
                [tuple(int(p) for p in cls.split(".")) for cls in entry["classes"]],
                int(entry["q"]),
                None if entry.get("exponent") is None
                else Fraction(str(entry["exponent"])),
            )
            for entry in json.loads(text)["bins"]
        ]
    except KeyError as exc:
        raise DomainError(f"uniformity spec lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed uniformity spec: {exc}") from None
    return [
        UniformityBin(
            classes=frozenset(CycleType(parts) for parts in classes),
            q=q,
            exponent=exponent,
        )
        for classes, q, exponent in entries
    ]


def cmd_uniformity(args, out) -> int:
    dataset = ingest(args.dataset)
    bins = _parse_uniformity_spec(args.uniformity_spec)
    rows_out = measure_uniformity(dataset, args.d, bins, args.X)
    if args.format == "plain":
        described = "; ".join(
            "{" + ", ".join(sorted(str(ct) for ct in b.classes)) + "}"
            f" q={b.q}" + (f" exponent={b.exponent}" if b.exponent is not None else "")
            for b in bins
        )
        print(f"bins: {described}", file=out)
    rows = [["x", "count", "ratio"]]
    for row in rows_out:
        rows.append(
            [
                str(row.x),
                str(row.count),
                "" if row.ratio is None else f"{row.ratio:.6g}",
            ]
        )
    _emit(rows, args.format, out)
    return 0


def _add_common(parser: argparse.ArgumentParser, *, d: bool = False,
                a: bool = False, dataset: bool = False) -> None:
    if d:
        parser.add_argument("--d", type=int, required=True,
                            help="degree of the symmetric-group side")
    if a:
        parser.add_argument("--A", required=True,
                            help="abelian group label, e.g. C2 or C2xC4")
    if dataset:
        parser.add_argument("--dataset", default=bundled_fixture_path(),
                            help="record file (default: bundled fixture)")
    parser.add_argument("--format", choices=("plain", "tsv"), default="plain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdxa",
        description="Counting invariants, discriminant composition tables, "
                    "and census tooling for products of a full symmetric "
                    "group with an abelian group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="counting constants for S_d x A")
    _add_common(p, d=True, a=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("delta-table",
                       help="valuation/discrepancy table (prime-order A)")
    _add_common(p, d=True, a=True)
    p.set_defaults(func=cmd_delta_table)

    p = sub.add_parser("verify-lemmas",
                       help="re-verify index comparison invariants")
    _add_common(p, d=True, a=True)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("tail-bound",
                       help="combined exponent and dyadic tail series")
    _add_common(p, d=True, a=True)
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 1000),
                   help="slack exponent, an exact rational like 1/1000")
    p.add_argument("--m", type=int, required=True,
                   help="number of dyadic ranges")
    p.add_argument("--Y", type=float, required=True, nargs="+",
                   help="series cutoff(s)")
    p.add_argument("--beta", type=_fraction, default=None,
                   help="explicit combined exponent (skips the preset)")
    p.set_defaults(func=cmd_tail_bound)

    p = sub.add_parser("census", help="count composed pairs below a cutoff")
    _add_common(p, d=True, a=True, dataset=True)
    p.add_argument("--X", type=int, required=True, help="discriminant cutoff")
    p.add_argument("--Y", type=int, default=None,
                   help="prime cutoff for the truncated count")
    p.add_argument("--wild-overrides", default=None,
                   help="JSON file of wild-overlap discrepancies")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("compose",
                       help="per-prime composition breakdown for one pair")
    _add_common(p, dataset=True)
    p.add_argument("--F", required=True, help="label of the degree-d record")
    p.add_argument("--K", required=True, help="label of the abelian record")
    p.add_argument("--wild-overrides", default=None,
                   help="JSON file of wild-overlap discrepancies")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("uniformity",
                       help="dyadic-range configuration counts")
    _add_common(p, d=True, dataset=True)
    p.add_argument("--uniformity-spec", required=True,
                   help="JSON file describing the dyadic bins")
    p.add_argument("--X", type=int, required=True, action="append",
                   help="cutoff (repeatable)")
    p.set_defaults(func=cmd_uniformity)

    return parser


def _attach_negative_rationals(argv: list[str]) -> list[str]:
    """Rewrite ``--beta -1/1000`` as ``--beta=-1/1000``: argparse takes a
    separate ``-1/1000`` for an option, not for the value of ``--beta`` or
    ``--epsilon``."""
    out: list[str] = []
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdigit()
        if negative and out and out[-1] in ("--beta", "--epsilon"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_rationals(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.func(args, sys.stdout)
    except SdxaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
