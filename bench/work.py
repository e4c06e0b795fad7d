"""Child-process side of the fishburn benchmark: every call into the library.

``bench/run.py`` starts this file in a fresh interpreter with ``PYTHONPATH``
pointing at the checkout's ``src/``, so each measured process pays its own
imports and fills its own caches.  Three modes:

  python3 bench/work.py [--trace] verify NAME:N ...   one JSON report per line
  python3 bench/work.py [--trace] roundtrip < in.json one line per table group
  python3 bench/work.py layers < in.json              one line of layer metrics

Results go to stdout.  With ``--trace`` a final JSON line of spans, each
``[name, parent index, start ns, end ns]``, goes to stderr.  Spans are taken
here, around the calls into the library; nothing inside ``src/`` is traced.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

import fishburn
from fishburn import jsonio
from fishburn import (
    Matching,
    Poset,
    arc_statistics,
    canonical_labeling,
    condition_one,
    count_gap_nestings,
    crossfree_matching_to_table,
    distribution,
    filter_class,
    gen_ascent_sequences,
    gen_factorial_posets,
    gen_inversion_tables,
    gen_matchings,
    gen_matrices,
    gen_natural_posets,
    gen_permutations,
    is_factorial,
    is_two_plus_two_free,
    matching_stats,
    matching_to_matrix,
    matching_to_poset,
    matching_to_table,
    matrix_to_matching_no_neighbor_nesting,
    perm_stats,
    poset_stats,
    poset_to_matching,
    relabel_poset,
    table_to_crossfree_matching,
    table_to_matching,
    table_to_poset,
)
from fishburn.objects import (
    has_left_crossing,
    has_left_nesting,
    has_right_crossing,
    has_right_nesting,
)


class Tracer:
    """In-memory spans; written out once, when the process ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, parent, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self._open.pop()

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    def flush(self) -> None:
        if self.enabled:
            print(json.dumps({"spans": self.spans}), file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Oracles written from the definitions, independent of the library
# ---------------------------------------------------------------------------

def _is_perfect(arcs, n: int) -> bool:
    return sorted(x for arc in arcs for x in arc) == list(range(1, 2 * n + 1))


def _neighbour_nestings(arcs) -> tuple[bool, bool]:
    """(has a left-nesting, has a right-nesting), by scanning every arc pair."""
    left = right = False
    for a, d in arcs:
        for b, c in arcs:
            if a < b < c < d:
                left = left or b == a + 1
                right = right or d == c + 1
    return left, right


def _table_poset_relation(w) -> frozenset:
    """Factorial poset of table w: i below k exactly when i <= a_k."""
    return frozenset((i, k) for k, a in enumerate(w, start=1) for i in range(1, a + 1))


def _is_factorial_relation(n: int, less) -> bool:
    below = [set() for _ in range(n + 1)]
    for i, j in less:
        below[j].add(i)
    return all(below[k] == set(range(1, len(below[k]) + 1)) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# verify: the public run_check, one registered check per argument
# ---------------------------------------------------------------------------

def run_verify(specs: list[str], tracer: Tracer) -> None:
    for spec in specs:
        name, n = spec.rsplit(":", 1)
        try:
            with tracer.span(f"verify.{name}.n{n}"):
                line = fishburn.run_check(name, int(n)).to_json()
        except Exception as exc:  # one broken check must not hide the others
            line = {"check": name, "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(line), flush=True)


# ---------------------------------------------------------------------------
# roundtrip: large tables through every bijection, JSON and relabeling
# ---------------------------------------------------------------------------

def _round_trip(w: tuple, sigma: list, tracer: Tracer) -> list[str]:
    """Push one inversion table through every map and back; return the
    names of the invariants that failed."""
    n = len(w)
    bad = []
    with tracer.span("bijections"):
        m = table_to_matching(w)
        w_back = matching_to_table(m)
    if not _is_perfect(m.arcs, n) or _neighbour_nestings(m.arcs)[0] or w_back != w:
        bad.append("table_to_matching")
    with tracer.span("bijections"):
        c = table_to_crossfree_matching(w)
        c_back = crossfree_matching_to_table(c)
    if not _is_perfect(c.arcs, n) or c_back != w:
        bad.append("table_to_crossfree_matching")
    with tracer.span("bijections"):
        p = table_to_poset(w)
        pm = poset_to_matching(p)
        mp = matching_to_poset(m)
    if p.less != _table_poset_relation(w) or pm != m or mp != p:
        bad.append("poset_matching")
    with tracer.span("bijections"):
        t = matching_to_matrix(m)
        pre = matrix_to_matching_no_neighbor_nesting(t)
        t_back = matching_to_matrix(pre)
    if any(_neighbour_nestings(pre.arcs)) or t_back != t or sum(map(sum, t.rows)) != n:
        bad.append("matrix")
    with tracer.span("jsonio"):
        m_json = jsonio.decode("matching", json.loads(json.dumps(jsonio.encode("matching", m))))
        p_json = jsonio.decode("poset", json.loads(json.dumps(jsonio.encode("poset", p))))
    if m_json != m or p_json != p:
        bad.append("jsonio")
    with tracer.span("canonical_labeling"):
        q = relabel_poset(p, sigma)
        canon_q = canonical_labeling(q)
        canon_p = canonical_labeling(p)
    if canon_q != canon_p or not _is_factorial_relation(n, canon_p.less):
        bad.append("canonical_labeling")
    return bad


def run_roundtrip(groups: list, tracer: Tracer) -> None:
    for group in groups:
        failed, errors = 0, []
        for table, sigma in group:
            try:
                bad = _round_trip(tuple(table), sigma, tracer)
            except Exception as exc:  # an exception fails this table only
                bad = [f"{type(exc).__name__}: {exc}"]
            if bad:
                failed += 1
                errors.append({"n": len(table), "failed": bad})
        print(json.dumps({"tables": len(group), "failed": failed, "errors": errors}),
              flush=True)


# ---------------------------------------------------------------------------
# layers: throughput and per-object cost of each module's public functions
# ---------------------------------------------------------------------------

def _fresh_matchings(objs) -> list:
    """Copies with empty cached properties, in the same order."""
    return [Matching(m.arcs) for m in objs]


def _fresh_posets(objs) -> list:
    return [Poset(p.n, p.less) for p in objs]


class LayerRun:
    """Collects layer metrics and the correctness of every output they saw."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(what)

    def per_object(self, name: str, fn, objs) -> list:
        """Mean microseconds of fn over objs, recorded as ``name``."""
        start = time.perf_counter()
        out = [fn(obj) for obj in objs]
        self.metrics[name] = (time.perf_counter() - start) * 1e6 / len(objs)
        return out

    def throughput(self, name: str, gen, expected: int) -> list:
        """Objects per second of one full pass over a generator."""
        start = time.perf_counter()
        objs = list(gen)
        self.metrics[f"{name}.objects_per_s"] = len(objs) / (time.perf_counter() - start)
        self.check(len(objs) == expected, f"{name}: {len(objs)} objects, expected {expected}")
        return objs


def _enumeration(run: LayerRun) -> dict:
    m = run.metrics
    matrices6 = run.throughput("enumeration.gen_matrices.n6", gen_matrices(6), 217)

    start = time.perf_counter()
    matchings7 = []
    for obj in gen_matchings(7):
        if not matchings7:
            m["enumeration.gen_matchings.n7.first_object_s"] = time.perf_counter() - start
        matchings7.append(obj)
    m["enumeration.gen_matchings.n7.objects_per_s"] = len(matchings7) / (time.perf_counter() - start)
    run.check(len(matchings7) == 135135, f"gen_matchings(7): {len(matchings7)} objects")

    tracemalloc.start()
    for _ in gen_matchings(7):
        pass
    m["enumeration.gen_matchings.n7.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    classes = {
        "gen_natural_posets.n6": (gen_natural_posets, 6, 4824),
        "gen_factorial_posets.n7": (gen_factorial_posets, 7, 5040),
        "gen_permutations.n8": (gen_permutations, 8, 40320),
        "gen_inversion_tables.n7": (gen_inversion_tables, 7, 5040),
        "gen_ascent_sequences.n7": (gen_ascent_sequences, 7, 1014),
    }
    kept = {}
    for key, (gen, n, expected) in classes.items():
        name = f"enumeration.{key}"
        kept[key] = run.throughput(name, gen(n), expected)
        m[f"{name}.count"] = len(kept[key])

    start = time.perf_counter()
    table = distribution(filter_class(gen_matchings(7), "no_left_nesting"),
                         "matchings", ["rne", "comp", "min"])
    m["enumeration.distribution.matchings_n7.s"] = time.perf_counter() - start
    run.check(table.total == math.factorial(7), f"distribution total {table.total}")
    return {"matrices6": matrices6, "matchings7": matchings7,
            "natural_posets6": kept["gen_natural_posets.n6"],
            "tables7": kept["gen_inversion_tables.n7"],
            "permutations7": list(gen_permutations(7))}


def _objects(run: LayerRun, base: dict, posets40: list) -> None:
    matchings7 = base["matchings7"]
    lne = run.per_object("objects.has_left_nesting.n7.us", has_left_nesting,
                         _fresh_matchings(matchings7))
    run.check(lne.count(False) == 5040, "has_left_nesting(7) keeps 7! matchings")
    records = run.per_object("objects.arc_statistics.n7.us", arc_statistics,
                             _fresh_matchings(matchings7))
    run.check(sum(r.lne == 0 for r in records) == 5040, "arc_statistics lne = 0 on 7! matchings")
    gaps = run.per_object("objects.count_gap_nestings.n7.us",
                          lambda x: count_gap_nestings(x, 2), _fresh_matchings(matchings7))
    run.check(len(gaps) == len(matchings7) and min(gaps) == 0, "count_gap_nestings(7)")

    matchings6 = list(gen_matchings(6))
    for name, fn in (("has_right_nesting", has_right_nesting),
                     ("has_left_crossing", has_left_crossing),
                     ("has_right_crossing", has_right_crossing)):
        hits = run.per_object(f"objects.{name}.n6.us", fn, _fresh_matchings(matchings6))
        run.check(hits.count(False) == 720, f"not {name} keeps 6! matchings")

    posets6 = base["natural_posets6"]
    fac = run.per_object("objects.is_factorial.n6.us", is_factorial, _fresh_posets(posets6))
    run.check(fac.count(True) == 720, "is_factorial keeps 6! natural posets")
    cond = run.per_object("objects.condition_one.n6.us", condition_one, _fresh_posets(posets6))
    run.check(sum(a and b for a, b in zip(fac, cond)) == 217,
              "factorial and condition_one keep 217 posets")
    free = run.per_object("objects.is_two_plus_two_free.n40.us", is_two_plus_two_free,
                          _fresh_posets(posets40))
    run.check(all(free), "factorial posets at n = 40 are two-plus-two-free")


def _bijections(run: LayerRun, tables: list, size: str) -> tuple[list, list]:
    """Every table map and its inverse over ``tables``, on fresh objects."""
    def name(fn):
        return f"bijections.{fn.__name__}.{size}.us"

    n = len(tables[0])
    images = run.per_object(name(table_to_matching), table_to_matching, tables)
    back = run.per_object(name(matching_to_table), matching_to_table, _fresh_matchings(images))
    run.check(back == tables and not any(_neighbour_nestings(m.arcs)[0] for m in images),
              f"table_to_matching round trip at {size}")
    cross = run.per_object(name(table_to_crossfree_matching), table_to_crossfree_matching, tables)
    back = run.per_object(name(crossfree_matching_to_table), crossfree_matching_to_table,
                          _fresh_matchings(cross))
    run.check(back == tables, f"table_to_crossfree_matching round trip at {size}")
    posets = run.per_object(name(table_to_poset), table_to_poset, tables)
    run.check(all(p.less == _table_poset_relation(w) for p, w in zip(posets, tables)),
              f"table_to_poset at {size}")
    run.check(run.per_object(name(poset_to_matching), poset_to_matching,
                             _fresh_posets(posets)) == images, f"poset_to_matching at {size}")
    run.check(run.per_object(name(matching_to_poset), matching_to_poset,
                             _fresh_matchings(images)) == posets, f"matching_to_poset at {size}")
    matrices = run.per_object(name(matching_to_matrix), matching_to_matrix,
                              _fresh_matchings(images))
    run.check(all(sum(map(sum, t.rows)) == n for t in matrices), f"matching_to_matrix at {size}")
    return images, posets


def run_layers(inputs: dict) -> None:
    run = LayerRun()
    try:
        base = _enumeration(run)
        images7, posets7 = _bijections(run, base["tables7"], "n7")
        tables40 = [tuple(w) for w in inputs["tables40"]]
        images40, posets40 = _bijections(run, tables40, "n40")
        _objects(run, base, posets40)
        preimages = run.per_object("bijections.matrix_to_matching_no_neighbor_nesting.n6.us",
                                   matrix_to_matching_no_neighbor_nesting, base["matrices6"])
        run.check([matching_to_matrix(x) for x in preimages] == base["matrices6"]
                  and not any(any(_neighbour_nestings(x.arcs)) for x in preimages),
                  "matrix_to_matching_no_neighbor_nesting(6)")
        relabeled = [relabel_poset(p, s) for p, s in zip(posets40, inputs["sigmas40"])]
        canonical = run.per_object("bijections.canonical_labeling.n40.us", canonical_labeling,
                                   relabeled)
        run.check(canonical == [canonical_labeling(p) for p in posets40],
                  "canonical_labeling is invariant under relabeling at n40")

        records = run.per_object("statistics.matching_stats.n7.us", matching_stats,
                                 _fresh_matchings(images7))
        run.check(all(r["lne"] == 0 for r in records), "matching_stats lne = 0 on 7! matchings")
        records = run.per_object("statistics.perm_stats.n7.us", perm_stats,
                                 base["permutations7"])
        run.check(sum(r["des"] for r in records) == 5040 * 3, "perm_stats descents sum")
        records = run.per_object("statistics.poset_stats.n7.us", poset_stats,
                                 _fresh_posets(posets7))
        run.check(sum(r["ip"] for r in records) == 5040 * 21 // 2, "poset_stats ip sum")

        encoded = run.per_object("jsonio.encode.matching.n7.us",
                                 lambda x: jsonio.encode("matching", x), _fresh_matchings(images7))
        run.check(encoded == [{"n": 7, "arcs": [list(a) for a in x.arcs]} for x in images7],
                  "jsonio.encode matching n7")
        for cls, objs in (("matching", images40), ("poset", posets40)):
            data = [json.loads(json.dumps(jsonio.encode(cls, x))) for x in objs]
            decoded = run.per_object(f"jsonio.decode.{cls}.n40.us",
                                     lambda d, c=cls: jsonio.decode(c, d), data)
            run.check(decoded == objs, f"jsonio.decode {cls} n40")
    except Exception as exc:  # report what was measured, and the failure
        run.attempted += 1
        run.errors.append(f"{type(exc).__name__}: {exc}")
    print(json.dumps({"metrics": run.metrics, "attempted": run.attempted,
                      "failed": len(run.errors), "errors": run.errors}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["verify", "roundtrip", "layers"])
    parser.add_argument("specs", nargs="*", metavar="NAME:N")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    tracer = Tracer(args.trace)
    if args.mode == "verify":
        run_verify(args.specs, tracer)
    elif args.mode == "roundtrip":
        run_roundtrip(json.load(sys.stdin)["groups"], tracer)
    else:
        run_layers(json.load(sys.stdin))
    tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
