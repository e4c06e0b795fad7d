"""Batch command line front end.

Subcommands: enumerate, convert, stats, distribution, verify, checks.
Streams are JSON lines (one object per line), distribution tables are CSV,
everything else is JSON.  Exit codes: 0 success, 1 verification failure, 2
usage or validation error.  Output is byte-identical across runs for
identical arguments; nothing is randomized and timing is opt-in.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice

from . import jsonio
from .bijections import (
    crossfree_matching_to_table,
    matching_to_matrix,
    matching_to_table,
    matrix_to_matching_no_neighbor_crossing,
    matrix_to_matching_no_neighbor_nesting,
    permutation_to_table,
    poset_to_table,
    table_to_crossfree_matching,
    table_to_matching,
    table_to_permutation,
    table_to_poset,
    zero_one_matrix_to_matching,
)
from .enumeration import GENERATORS, counter, generate, prunes, tally
from .errors import FishburnError
from .statistics import VOCABULARY, stats_for

_MATRIX_PREIMAGES = {
    "no_neighbor_nesting": matrix_to_matching_no_neighbor_nesting,
    "no_neighbor_crossing": matrix_to_matching_no_neighbor_crossing,
    "lne0_and_rcr0": zero_one_matrix_to_matching,
}

# class, or --via for a matching -> (its map to inversion tables, the inverse)
_TABLE_MAPS = {
    "inversion_table": (tuple, tuple),          # a table is its own table
    "permutation": (permutation_to_table, table_to_permutation),
    "poset": (poset_to_table, table_to_poset),
    "no_left_nesting": (matching_to_table, table_to_matching),
    "no_left_crossing": (crossfree_matching_to_table, table_to_crossfree_matching),
}

# (class, the route ``counter`` gives its tally, whether ``generate`` prunes its
# search by a filter given) -> the largest n at which ``distribution`` and
# ``enumerate --count-only`` tally it.  Each was measured on a 2-CPU host, Python 3.11.
#
# Enumeration takes flat memory, but each counter's memo or levels grow with n:
# - the matchings, by the merged counter: with all six of its names it peaks at
#   241 MB at n = 14 for the costliest filtered class (no_2_left_nesting; 565 MB
#   at n = 15), and at 509 MB at n = 12 for all matchings, which no rule prunes
#   (1.35 GB at n = 13).  Past either bound a tally by enumeration, of more than
#   10^12 matchings, would not finish;
# - the permutations by asc, des, inv, lmin and lmax, by the inversion-table
#   walk: all five names peak at 45 MB in ≈1.8 s at n = 16 (51 MB and 3.1 s at
#   n = 17);
# - the factorial posets by comp, min, pre_n, lev, ip and rne_poset, by the same
#   walk, which grows most with ip and pre_n: all six names peak at 132 MB in
#   ≈8 s at n = 13 (277 MB and 15 s at n = 14);
# - the permutations by p or comp, by the prefix walk: all seven of its names
#   peak at 387 MB in ≈7.6 s at n = 11 (1.15 GB and 49 s at n = 12).
#
# A tally by enumeration (route None: a class with no counter, or names that no
# counter has) builds and scores each object; at each bound the costliest filter
# and names ran in at most 8.3 s, and one more took 12-30 s or did not finish in
# 45 s.  A pruned search builds only its class: the matchings with no
# right-nesting (n!), by all eleven names, took 8.3 s at n = 9, and the 2+2-free
# natural posets were counted in 4.9 s at n = 8.
MAX_TALLIED_N = {("matchings", "merged", True): 14, ("matchings", "merged", False): 12,
                 ("permutations", "table", False): 16,
                 ("factorial_posets", "table", False): 13,
                 ("permutations", "prefix", False): 11,
                 ("matchings", None, False): 7, ("matchings", None, True): 9,
                 ("permutations", None, False): 9, ("inversion_tables", None, False): 10,
                 ("factorial_posets", None, False): 9, ("natural_posets", None, False): 7,
                 ("natural_posets", None, True): 8, ("matrices", None, False): 10,
                 ("ascent_sequences", None, False): 11}

# class -> the largest n that ``enumerate`` streams (2-CPU host, Python 3.11):
# past it, a stack frame per arc or entry (RecursionError at n = 990), 2^(n-1)
# down sets (232 MB at n = 23), n(n+1)/2 ints, or a 512-line block of ≈6n bytes
MAX_STREAMED_N = {"matchings": 900, "ascent_sequences": 900, "natural_posets": 22,
                  "inversion_tables": 3000, "factorial_posets": 3000, "permutations": 10000}

# singular CLI class -> statistics class
_STAT_CLASS_SINGULAR = {
    "matching": "matchings",
    "permutation": "permutations",
    "poset": "factorial_posets",
    "inversion_table": "inversion_tables",
}


def _die(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _object_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _die(f"object is not valid JSON: {exc}")


def _stat_names(spec: str, stat_class: str) -> list[str]:
    """The comma separated names of ``--stats``, each a statistic of the class."""
    names = spec.split(",")
    if not all(names):
        _die("--stats takes comma separated statistic names, none of them empty")
    vocabulary = VOCABULARY[stat_class]
    for name in names:
        if name not in vocabulary:
            _die(f"{name!r} is not a {stat_class} statistic "
                 f"(available: {', '.join(vocabulary)})")
    return names


def _tally(args, names: tuple[str, ...]):
    """``tally`` of the class, n and filters given; past the size bound of its
    route it exits 2 before anything is counted, and after a foreign filter."""
    class_name, n = args.object_class, args.n
    generate(class_name, n, args.filter)        # refuses the filters
    what = (f"a tally of the {class_name} by {','.join(names)}" if names
            else f"a count of the {class_name}")
    route = counter(class_name, names, args.filter)[0]
    if n > (bound := MAX_TALLIED_N[class_name, route, prunes(class_name, args.filter)]):
        _die(f"{what} builds every object, so it takes n <= {bound}" if route is None
             else f"{what} takes n <= {bound}, as its memory grows with n")
    return tally(class_name, n, args.filter, names)


def _cmd_enumerate(args) -> int:
    if args.object_class not in GENERATORS:
        _die(f"unknown class {args.object_class!r} "
             f"(choose from {', '.join(sorted(GENERATORS))})")
    if args.n < 0:
        _die("n must be nonnegative")
    if args.count_only:
        print(_tally(args, ()).total)
        return 0
    if args.n > (bound := MAX_STREAMED_N.get(args.object_class, args.n)):
        _die(f"a stream of the {args.object_class} takes n <= {bound}")
    singular = jsonio.SINGULAR[args.object_class]
    lines = (json.dumps(jsonio.encode(singular, obj)) + "\n"
             for obj in generate(args.object_class, args.n, args.filter))
    # the first line at once, then one write per 512 lines, even unbuffered
    for block in chain(islice(lines, 1), iter(lambda: "".join(islice(lines, 512)), "")):
        sys.stdout.write(block)
        sys.stdout.flush()
    return 0


def _table_maps(class_name: str, via: str):
    """(to table, from table) of a class; a matrix reaches tables through its
    matching, and matchings take the bijection named by --via."""
    return _TABLE_MAPS[via if class_name in ("matching", "matrix") else class_name]


def _cmd_convert(args) -> int:
    known = {"matching", "inversion_table", "permutation", "poset", "matrix"}
    if args.src not in known or args.dst not in known:
        _die(f"classes must be among {', '.join(sorted(known))}")
    obj = jsonio.decode(args.src, _object_json(args.object))
    if args.src == "matrix" and args.dst != "matrix":
        obj = _MATRIX_PREIMAGES[args.preimage](obj)     # a matching from here on
    if args.src == args.dst or (args.src, args.dst) == ("matrix", "matching"):
        result = obj
    elif args.src == "matching" and args.dst == "matrix":
        result = matching_to_matrix(obj)
    else:
        result = _table_maps(args.dst, args.via)[1](_table_maps(args.src, args.via)[0](obj))
        if args.dst == "matrix":
            result = matching_to_matrix(result)
    print(json.dumps(jsonio.encode(args.dst, result)))
    return 0


def _cmd_stats(args) -> int:
    if args.object_class not in _STAT_CLASS_SINGULAR:
        _die(f"classes with statistics: {', '.join(sorted(_STAT_CLASS_SINGULAR))}")
    stat_class = _STAT_CLASS_SINGULAR[args.object_class]
    obj = jsonio.decode(args.object_class, _object_json(args.object))
    names = None if args.stats is None else _stat_names(args.stats, stat_class)
    print(json.dumps(stats_for(stat_class, obj, names)))
    return 0


def _cmd_distribution(args) -> int:
    if args.object_class not in VOCABULARY:
        _die(f"classes with statistics: {', '.join(sorted(VOCABULARY))}")
    if args.object_class == "natural_posets" and "factorial" not in args.filter:
        _die("the statistics of natural_posets are those of factorial posets; "
             "add --filter factorial")
    if args.n < 0:
        _die("n must be nonnegative")
    names = _stat_names(args.stats, args.object_class)
    sys.stdout.write(_tally(args, names).to_csv())
    return 0


def _cmd_verify(args) -> int:
    from .verify import REGISTRY, run_all, run_check      # the registry loads here
    if args.all and args.checks:
        _die("give check names or --all, not both")
    if not args.all and not args.checks:
        _die("give at least one check name, or --all")
    if args.n_max is not None and args.n_max < 0:
        _die("--n-max must be nonnegative")
    for name in args.checks:
        if name not in REGISTRY:
            _die(f"unknown check {name!r} (see `fishburn checks`)")
    if args.all:
        reports = run_all(args.n_max)
    else:
        reports = [run_check(name, args.n_max) for name in args.checks]
    if args.json:
        for report in reports:
            print(json.dumps(report.to_json(timing=args.timing)))
    else:
        width = max(len(r.check) for r in reports)
        for r in reports:
            line = (f"{r.check:<{width}}  {r.kind:<11}  n<={r.n_max}  "
                    f"{r.verdict.upper():<4}  {r.elapsed * 1000:8.1f} ms")
            if r.detail:
                line += f"  [{r.detail}]"
            print(line)
            if r.witness is not None:
                print(f"{'':<{width}}  witness: {json.dumps(r.witness)}")
        failed = sum(r.verdict == "fail" for r in reports)
        print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 1 if any(r.verdict == "fail" for r in reports) else 0


def _cmd_verify_list(_args) -> int:
    from .verify import REGISTRY
    width = max(len(name) for name in REGISTRY)
    for name, (kind, default_n, _) in REGISTRY.items():
        print(f"{name:<{width}}  {kind:<11}  default n<={default_n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishburn",
        description="Matchings, factorial posets, inversion tables, triangular "
                    "matrices: enumeration, bijections, statistics and "
                    "exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream a class as JSON lines")
    p.add_argument("object_class", metavar="class")
    p.add_argument("n", type=int)
    p.add_argument("--filter", action="append", default=[],
                   metavar="PREDICATE", help="may be repeated")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("convert", help="map one object to another class")
    p.add_argument("src", metavar="from")
    p.add_argument("dst", metavar="to")
    p.add_argument("object", help="JSON encoding of the source object")
    p.add_argument("--via", choices=["no_left_nesting", "no_left_crossing"],
                   default="no_left_nesting",
                   help="which insertion bijection links tables and matchings")
    p.add_argument("--preimage", choices=sorted(_MATRIX_PREIMAGES),
                   default="no_neighbor_nesting",
                   help="which restricted preimage to take from a matrix")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("stats", help="named statistics of one object")
    p.add_argument("object_class", metavar="class")
    p.add_argument("object", help="JSON encoding of the object")
    p.add_argument("--stats", default=None, metavar="NAMES",
                   help="comma separated; defaults to all")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("distribution", help="tally statistic tuples over a class")
    p.add_argument("object_class", metavar="class")
    p.add_argument("n", type=int)
    p.add_argument("--stats", required=True, metavar="NAMES", help="comma separated")
    p.add_argument("--filter", action="append", default=[], metavar="PREDICATE")
    p.set_defaults(fn=_cmd_distribution)

    p = sub.add_parser("verify", help="run registered checks")
    p.add_argument("checks", nargs="*", metavar="CHECK")
    p.add_argument("--all", action="store_true", help="run the whole registry")
    p.add_argument("--n-max", type=int, default=None,
                   help="override each check's default size limit")
    p.add_argument("--json", action="store_true", help="one JSON report per line")
    p.add_argument("--timing", action="store_true",
                   help="include elapsed_ms in JSON reports (nondeterministic)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("checks", help="list registered checks")
    p.set_defaults(fn=_cmd_verify_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FishburnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
