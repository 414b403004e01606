"""Command-line surface: counting, verification, bijections, tables.

Exit codes: 0 success, 2 unsupported pair/method (including a formula row
that is not proved here under --method formula) or a refused option (a
size option out of range, such as --n -1 or --m 0, is refused by argparse
with its usage and a one-line error), 3 outside a formula's validity
domain, 4 enumeration budget exceeded, 5 verification failure (a failed or
faulting verify check, or an --method all cross-check mismatch).
Output is a human table by default; --csv, --records (JSON lines), and
--bfile (sequence lines "n value" at fixed m) serve scripts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

from . import bijections as bij
from .cache import CountCache
from .classify import classify_all_length3, empirical_wilf_classes
from .core import MultisetPermutation, PatternSet, as_pattern
from .enumeration import count_avoiders
from .errors import (
    BudgetExceeded,
    MsetPermError,
    OutOfDomain,
    Unsupported,
)
from .formulas import (
    REGISTRY,
    catalog,
    proved_count,
    recurrence_count,
    recurrence_terms,
)
from .gentree import RULE_PATTERN_PAIRS, builtin_rule, count_at_height, levels, rule_for
from .growth import growth_table
from .verify import SUITES, CheckResult, imported_agreement_report, run_suite


@functools.lru_cache(maxsize=256)
def _parse_pair(text: str) -> tuple[str, str]:
    """The two pattern texts of --pair, as given; Unsupported unless they are
    two distinct patterns once normalized (233 reads as 122).  Memoized, so
    that a process serving many requests parses each --pair text once."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise Unsupported(f"--pair wants two patterns, got {text!r}")
    if as_pattern(parts[0]) == as_pattern(parts[1]):
        raise Unsupported(f"--pair wants two distinct patterns, got {text!r}")
    return parts[0], parts[1]


def _emit(records: list[dict], columns: list[str], args) -> None:
    if getattr(args, "records", False):
        for rec in records:
            print(json.dumps(rec))
    elif getattr(args, "csv", False):
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([rec.get(c, "") for c in columns])
    else:
        widths = {c: max([len(c)] + [len(str(r.get(c, ""))) for r in records])
                  for c in columns}
        print("  ".join(c.ljust(widths[c]) for c in columns))
        for rec in records:
            print("  ".join(str(rec.get(c, "")).ljust(widths[c]) for c in columns))


# -- count ---------------------------------------------------------------------

#: The count methods, in the order --method all runs them.
METHODS = ("oracle", "formula", "recurrence", "gentree")


def _count_one(pair: tuple[str, str], n: int, m: int, method: str,
               cache: CountCache | None) -> int:
    if method == "oracle":
        def compute() -> int:
            return count_avoiders(n, m, PatternSet.of(*pair))
        return compute() if cache is None else cache.count(pair, n, m, compute)
    if method == "formula":
        return proved_count(pair, n, m)
    if method == "recurrence":
        # s_0 = s_1 = 1 (the empty permutation, and 1...1), so n = 0 reads s_1
        # and is refused for the same pairs and m as every other n
        return recurrence_count(pair, max(n, 1), m)
    return count_at_height(rule_for(pair, m), n)


def cmd_count(args) -> int:
    pair = _parse_pair(args.pair)
    cache = None if args.no_cache else CountCache(
        Path(args.cache) if args.cache else None)
    if args.bfile:
        if args.nmax is None:
            raise Unsupported("--bfile needs --nmax")
        if args.method == "all":
            raise Unsupported("--bfile needs one method, not --method all")
        if args.method == "gentree":
            # one pass down the tree serves every line
            for n, profile in enumerate(levels(rule_for(pair, args.m), args.nmax)):
                if n:
                    print(f"{n} {sum(profile.values())}")
            return 0
        if args.method == "recurrence":
            # one pass of the recurrence serves every line
            for n, value in enumerate(recurrence_terms(pair, args.nmax, args.m), 1):
                print(f"{n} {value}")
            return 0
        for n in range(1, args.nmax + 1):
            print(f"{n} {_count_one(pair, n, args.m, args.method, cache)}")
        return 0
    if args.n is None:
        raise Unsupported("--n is required (or use --bfile with --nmax)")
    methods = METHODS if args.method == "all" else [args.method]
    records = []
    values = {}
    for method in methods:
        try:
            value = _count_one(pair, args.n, args.m, method, cache)
        except (Unsupported, OutOfDomain) as exc:
            if args.method == "all":
                records.append({"pair": args.pair, "n": args.n, "m": args.m,
                                "method": method, "count": "-",
                                "note": str(exc)})
                continue
            raise
        values[method] = value
        records.append({"pair": args.pair, "n": args.n, "m": args.m,
                        "method": method, "count": value, "note": ""})
    if args.method != "all":
        if args.records or args.csv:
            _emit(records, ["pair", "n", "m", "method", "count"], args)
        else:
            print(values[args.method])
        return 0
    _emit(records, ["pair", "n", "m", "method", "count", "note"], args)
    distinct = {v for v in values.values()}
    if len(distinct) > 1:
        print("cross-check: MISMATCH", file=sys.stderr)
        return 5
    if len(values) == 1:
        print(f"cross-check: only {next(iter(values))} answered; nothing to compare")
    else:
        print(f"cross-check: OK ({len(values)} methods agree)")
    return 0


# -- verify ---------------------------------------------------------------------

def cmd_verify(args) -> int:
    # only the options given: each suite keeps its own default scope
    kwargs = {key: value for key, value in (("n_max", args.nmax), ("m_max", args.mmax))
              if value is not None}
    if kwargs and args.suite not in ("table1", "gentree"):
        raise Unsupported(f"--nmax/--mmax do not apply to --suite {args.suite}")
    if args.report and args.suite != "table1":
        raise Unsupported("--report applies only to --suite table1")
    results = run_suite(args.suite, **kwargs)
    if args.report:
        report = imported_agreement_report(**kwargs)
        disagreements = sum(1 for row in report if row.applicable and not row.agree)
        results.append(CheckResult(
            "table1", "imported-rows", True,
            f"{len(report)} cells reported, {disagreements} disagreements "
            f"(never asserted)", hard=False))
    for res in results:
        if args.records:
            print(json.dumps({"suite": res.suite, "name": res.name,
                              "ok": res.ok, "hard": res.hard,
                              "detail": res.detail}))
        else:
            print(res.line())
    if args.report:
        for row in report:
            if args.records:
                print(json.dumps({"table_pair": list(row.table_pair),
                                  "n": row.n, "m": row.m, "trust": row.trust,
                                  "formula": row.formula, "oracle": row.oracle,
                                  "agree": row.agree if row.applicable else None}))
                continue
            if not row.applicable:
                mark, formula = "n/a", "-"
            else:
                mark, formula = ("ok" if row.agree else "DISAGREES"), row.formula
            print(f"  report ({','.join(row.table_pair)}) "
                  f"n={row.n} m={row.m}: table {formula}, oracle {row.oracle} "
                  f"[{mark}]")
    hard_failures = [r for r in results if r.hard and not r.ok]
    return 5 if hard_failures else 0


# -- bijection -------------------------------------------------------------------

def cmd_bijection(args) -> int:
    kind, direction, text = args.kind, args.direction, args.input
    if kind == "dyck":
        if direction == "fwd":
            print(bij.dyck_to_perm(bij.DyckWord(text)))
        else:
            print(bij.perm_to_dyck(MultisetPermutation.parse(text)))
    elif kind == "labels":
        if direction == "fwd":
            print(bij.perm_to_labels(MultisetPermutation.parse(text)))
        else:
            if args.m is None:
                raise Unsupported("--kind labels --direction inv needs --m")
            print(bij.labels_to_perm(bij.LabelSequence.parse(text, args.m)))
    elif kind == "path":
        if args.m is None:
            raise Unsupported("--kind path needs --m")
        if direction == "fwd":
            print(bij.path_to_labels(bij.LatticePath(text, args.m)))
        else:
            print(bij.labels_to_path(bij.LabelSequence.parse(text, args.m)))
    elif kind == "simion":
        sigma = MultisetPermutation.parse(text)
        if direction == "fwd":
            print(bij.simion_schmidt_f(sigma))
        else:
            print(bij.simion_schmidt_g(sigma))
    return 0


# -- classify / table / growth ----------------------------------------------------

def cmd_classify(args) -> int:
    # a refused grid prints nothing
    groups = empirical_wilf_classes(args.nmax, args.mmax) if args.empirical else ()
    classes = classify_all_length3()
    records = []
    for cls in classes:
        a, b = cls.representative
        entry = REGISTRY.get(cls.representative)
        records.append({
            "representative": f"{a},{b}",
            "orbit_size": len(cls.members),
            "formula": "-" if entry is None else
                       f"{','.join(entry.table_pair)} [{entry.trust}]",
            "members": " ".join(f"{x},{y}" for x, y in cls.members),
        })
    _emit(records, ["representative", "orbit_size", "formula", "members"], args)
    total = sum(len(cls.members) for cls in classes)
    print(f"{total} pairs in {len(classes)} classes")
    if args.empirical:
        print(f"empirical grouping on the grid: {len(groups)} groups")
        for group in groups:
            names = " ".join("({},{})".format(*c.representative) for c in group)
            print(f"  {names}")
    return 0


def cmd_table(args) -> int:
    if args.catalog:
        records = catalog()
        if not args.records:
            # a pair reads 111,112 here, as in classify; JSON keeps the lists
            for rec in records:
                rec["pair"] = ",".join(rec["pair"])
                rec["table_pair"] = ",".join(rec["table_pair"])
        _emit(records, ["pair", "table_pair", "trust", "validity",
                        "servable", "provenance", "note"], args)
        return 0
    cells = [(n, m) for m in range(2, args.mmax + 1) for n in range(1, args.nmax + 1)]
    records = []
    for entry in sorted(REGISTRY.values(), key=lambda e: e.pair):
        row = {"pair": ",".join(entry.table_pair), "trust": entry.trust}
        for n, m in cells:
            row[f"n{n}m{m}"] = entry.evaluator(n, m) if entry.validity(n, m) else "-"
        records.append(row)
    _emit(records, ["pair", "trust"] + [f"n{n}m{m}" for n, m in cells], args)
    return 0


def cmd_rule(args) -> int:
    rule = builtin_rule(args.name, args.m)
    print(rule.grammar)
    if args.heights:
        counts = [sum(profile.values()) for profile in levels(rule, args.heights)]
        print("counts by height:", " ".join(str(c) for c in counts))
    return 0


def cmd_growth(args) -> int:
    patterns = PatternSet.of(*[p.strip() for p in args.pattern.split(",") if p.strip()])
    grid = [(n, args.m) for n in range(1, args.nmax + 1)]
    records = [{"n": r.n, "m": r.m, "count": r.count, "ratio": f"{r.ratio:.6f}"}
               for r in growth_table(patterns, grid)]
    _emit(records, ["n", "m", "count", "ratio"], args)
    return 0


# -- wiring -------------------------------------------------------------------------

def _at_least(least: int):
    """An argparse type for a size option: an int no smaller than least."""
    def size(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return size


_nonnegative, _positive = _at_least(0), _at_least(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after:
    parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="msetperm",
        description="Exact counting of pattern-avoiding permutations on "
                    "regular multisets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def output_flags(p):
        p.add_argument("--csv", action="store_true", help="CSV output")
        p.add_argument("--records", action="store_true", help="JSON-lines output")

    p = sub.add_parser("count", help="count avoiders of a pattern pair")
    p.add_argument("--pair", required=True, help="two patterns, e.g. 122,312")
    p.add_argument("--n", type=_nonnegative, help="alphabet size")
    p.add_argument("--m", type=_positive, required=True, help="common multiplicity")
    p.add_argument("--method", default="formula",
                   choices=METHODS + ("all",))
    p.add_argument("--bfile", action="store_true",
                   help="emit 'n value' sequence lines for n = 1..nmax")
    p.add_argument("--nmax", type=_nonnegative, help="largest n for --bfile")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--cache", help="oracle count cache file (default: $MSETPERM_CACHE)")
    output_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run a cross-checking suite")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--nmax", type=_nonnegative,
                   help="largest n of the n*m <= 12 oracle grid: every table1 "
                        "check and --report, and gentree's -vs-oracle and -labels "
                        "checks; gentree's -vs-formula and explicit-vs-recurrence "
                        "keep fixed scopes (default: the suite's own)")
    p.add_argument("--mmax", type=_nonnegative,
                   help="largest m of the same grid and checks "
                        "(default: the suite's own)")
    p.add_argument("--report", action="store_true",
                   help="also print the per-cell imported-row report")
    p.add_argument("--records", action="store_true", help="JSON-lines output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bijection", help="apply one of the correspondences")
    p.add_argument("--kind", required=True,
                   choices=["dyck", "labels", "path", "simion"])
    p.add_argument("--direction", required=True, choices=["fwd", "inv"])
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=_positive)
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("classify", help="print the symmetry classes")
    p.add_argument("--empirical", action="store_true",
                   help="also group classes by counting vectors")
    p.add_argument("--nmax", type=_nonnegative, default=4)
    p.add_argument("--mmax", type=_nonnegative, default=3)
    output_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table", help="evaluate the formula catalog on a grid")
    p.add_argument("--nmax", type=_nonnegative, default=4)
    p.add_argument("--mmax", type=_nonnegative, default=3)
    p.add_argument("--catalog", action="store_true",
                   help="print catalog metadata instead of values")
    output_flags(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("rule", help="print a succession rule's grammar")
    p.add_argument("--name", required=True, choices=sorted(RULE_PATTERN_PAIRS))
    p.add_argument("--m", type=_positive, default=2)
    p.add_argument("--heights", type=_nonnegative,
                   help="also print node counts up to this height")
    p.set_defaults(func=cmd_rule)

    p = sub.add_parser("growth", help="growth-ratio table for a pattern set")
    p.add_argument("--pattern", required=True,
                   help="comma-separated patterns, e.g. 212 or 122,123")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--nmax", type=_nonnegative, default=5)
    output_flags(p)
    p.set_defaults(func=cmd_growth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Unsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except OutOfDomain as exc:
        print(f"out of domain: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except MsetPermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
