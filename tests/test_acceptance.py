"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is an exact integer equality; the time limits assume an
ordinary laptop.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines as they complete.

Criterion 8 checks the conjectured equidistributions for n <= 7.
"""

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from functools import lru_cache

import fishburn
from fishburn import (
    canonical_labels,
    catalan,
    count_gap_nestings,
    count_pattern_p,
    crossfree_matching_to_table,
    double_factorial,
    eulerian_triangle_row,
    fishburn_numbers,
    gen_ascent_sequences,
    gen_factorial_posets,
    gen_inversion_tables,
    gen_matchings,
    gen_matrices,
    gen_natural_posets,
    gen_permutations,
    matching_stats,
    matching_to_matrix,
    matching_to_poset,
    matching_to_table,
    matrix_is_noncrossing_image,
    matrix_is_nonnesting_image,
    matrix_to_matching_no_neighbor_crossing,
    matrix_to_matching_no_neighbor_nesting,
    perm_stats,
    permutation_to_table,
    poset_stats,
    poset_to_matching,
    run_check,
    second_order_eulerian,
    table_to_crossfree_matching,
    table_to_matching,
    table_to_permutation,
    table_to_poset,
    zero_one_matrix_to_matching,
    Poset,
    TriangularMatrix,
)
from fishburn.objects import (
    condition_one,
    has_crossing,
    has_left_crossing,
    has_left_nesting,
    has_nesting,
    has_right_crossing,
    has_right_nesting,
    is_dually_factorial,
    is_factorial,
    is_zero_one,
)

from helpers import naive_counts

FISHBURN_SEQUENCE = (1, 1, 2, 5, 15, 53, 217)
CATALAN_SEQUENCE = (1, 1, 2, 5, 14, 42, 132)


@lru_cache(maxsize=None)
def matchings(n):
    return tuple(gen_matchings(n))


@lru_cache(maxsize=None)
def tables(n):
    return tuple(gen_inversion_tables(n))


@lru_cache(maxsize=None)
def matrices(n):
    return tuple(gen_matrices(n))


@lru_cache(maxsize=None)
def natural_posets(n):
    return tuple(gen_natural_posets(n))


def report(number, description, ok, elapsed, budget):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:>2} {verdict}: {description} "
          f"({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_factorial_counts():
    start = time.perf_counter()
    ok = True
    for n in range(7):
        expected = math.factorial(n)
        ok &= sum(1 for m in matchings(n) if not has_left_nesting(m)) == expected
        ok &= sum(1 for m in matchings(n) if not has_left_crossing(m)) == expected
        ok &= sum(1 for p in natural_posets(n) if is_factorial(p)) == expected
    report(1, "no-left-nesting = no-left-crossing = factorial posets = n!, n <= 6",
           ok, time.perf_counter() - start, 10)


def test_criterion_02_fishburn_agreement():
    start = time.perf_counter()
    series = fishburn_numbers(6)
    ok = tuple(series) == FISHBURN_SEQUENCE
    for n in range(7):
        f = series[n]
        ok &= sum(1 for m in matchings(n)
                  if not (has_left_nesting(m) or has_right_nesting(m))) == f
        ok &= sum(1 for m in matchings(n)
                  if not (has_left_crossing(m) or has_right_crossing(m))) == f
        ok &= len(matrices(n)) == f
        ok &= sum(1 for _ in gen_ascent_sequences(n)) == f
        ok &= sum(1 for p in natural_posets(n)
                  if is_factorial(p) and condition_one(p)) == f
        from fishburn import is_ascent_correcting, is_descent_correcting
        ok &= sum(1 for w in tables(n) if is_descent_correcting(w)) == f
        ok &= sum(1 for w in tables(n) if is_ascent_correcting(w)) == f
    report(2, "seven Fishburn classes all count 1,1,2,5,15,53,217 for n <= 6",
           ok, time.perf_counter() - start, 30)


def test_criterion_03_catalan_agreement():
    start = time.perf_counter()
    ok = tuple(catalan(n) for n in range(7)) == CATALAN_SEQUENCE
    for n in range(7):
        c = catalan(n)
        ok &= sum(1 for m in matchings(n) if not has_nesting(m)) == c
        ok &= sum(1 for p in natural_posets(n)
                  if is_factorial(p) and is_dually_factorial(p)) == c
        ok &= sum(1 for t in matrices(n) if matrix_is_nonnesting_image(t)) == c
        ok &= sum(1 for t in matrices(n) if matrix_is_noncrossing_image(t)) == c
    report(3, "four Catalan classes all count 1,1,2,5,14,42,132 for n <= 6",
           ok, time.perf_counter() - start, 10)


def test_criterion_04_bijection_round_trips():
    start = time.perf_counter()
    ok = True
    for n in range(7):
        for w in tables(n):
            ok &= matching_to_table(table_to_matching(w)) == w
            ok &= crossfree_matching_to_table(table_to_crossfree_matching(w)) == w
            p = table_to_poset(w)
            ok &= poset_stats(p) is not None  # factorial by construction
            ok &= matching_to_poset(poset_to_matching(p)) == p
            pi = table_to_permutation(w)
            ok &= permutation_to_table(pi) == w
        for m in matchings(n):
            rec = naive_counts(m.arcs)
            if rec["lne"] == 0:
                ok &= table_to_matching(matching_to_table(m)) == m
                ok &= poset_to_matching(matching_to_poset(m)) == m
            if rec["lcr"] == 0:
                ok &= table_to_crossfree_matching(crossfree_matching_to_table(m)) == m
            # class-side identities for the three restricted matrix preimages
            if rec["lne"] == 0 and rec["rne"] == 0:
                ok &= matrix_to_matching_no_neighbor_nesting(matching_to_matrix(m)) == m
            if rec["lcr"] == 0 and rec["rcr"] == 0:
                ok &= matrix_to_matching_no_neighbor_crossing(matching_to_matrix(m)) == m
            if rec["lne"] == 0 and rec["rcr"] == 0:
                ok &= zero_one_matrix_to_matching(matching_to_matrix(m)) == m
    for n in range(6):  # matrix-side identities over every triangular matrix
        for t in matrices(n):
            ok &= matching_to_matrix(matrix_to_matching_no_neighbor_nesting(t)) == t
            ok &= matching_to_matrix(matrix_to_matching_no_neighbor_crossing(t)) == t
            if is_zero_one(t):
                ok &= matching_to_matrix(zero_one_matrix_to_matching(t)) == t
    report(4, "all bijections are identities both ways (n <= 6; matrices n <= 5)",
           ok, time.perf_counter() - start, 60)


def test_criterion_05_worked_examples():
    start = time.perf_counter()
    ok = table_to_matching((0, 1, 0, 1)).arcs == ((1, 3), (4, 6), (2, 7), (5, 8))

    target = TriangularMatrix.from_rows([[1, 1], [0, 1]])
    family = [m for m in matchings(3) if matching_to_matrix(m) == target]
    ok &= len(family) == 4
    records = [naive_counts(m.arcs) for m in family]
    ok &= sum(1 for r in records if r["lne"] == 0 and r["rne"] == 0) == 1
    ok &= sum(1 for r in records if r["lcr"] == 0 and r["rcr"] == 0) == 1

    six = Poset.from_relations(6, [(1, 3), (2, 3), (3, 4), (5, 4)])
    ok &= canonical_labels(six) == (1, 2, 4, 6, 3, 5)

    ok &= count_pattern_p((3, 5, 1, 4, 2, 6)) == 1
    report(5, "worked examples reproduced bit-exactly",
           ok, time.perf_counter() - start, 10)


def test_criterion_06_triple_statistics():
    start = time.perf_counter()
    ok = True
    for n in range(7):
        for w in tables(n):
            ps = poset_stats(table_to_poset(w))
            pes = perm_stats(table_to_permutation(w))
            ms = matching_stats(table_to_matching(w))
            ok &= (ps["comp"], ps["min"], ps["pre_n"], ps["lev"], ps["ip"]) == \
                  (pes["comp"], pes["lmin"], pes["last"], pes["dent"], pes["inv"]) == \
                  (ms["comp"], ms["min"], ms["last"], ms["inter"], ms["emb"])
    report(6, "statistic quintuples equal object-by-object along w, n <= 6",
           ok, time.perf_counter() - start, 20)


def test_criterion_07_mahonian_eulerian():
    start = time.perf_counter()
    ok = True
    for n in range(8):
        ip = Counter(poset_stats(p)["ip"] for p in gen_factorial_posets(n))
        inv = Counter(perm_stats(pi)["inv"] for pi in gen_permutations(n))
        ok &= ip == inv

        lev = Counter(poset_stats(p)["lev"] for p in gen_factorial_posets(n))
        inter = Counter(
            matching_stats(table_to_matching(w))["inter"] for w in tables(n))
        ok &= lev == inter
        if n >= 1:
            des = Counter(perm_stats(pi)["des"] for pi in gen_permutations(n))
            ok &= lev == Counter({d + 1: c for d, c in des.items()})
            dent = Counter(len(set(w)) for w in tables(n))
            row = eulerian_triangle_row(n)
            ok &= dent == Counter({k: row[k - 1] for k in range(1, n + 1) if row[k - 1]})
    report(7, "Mahonian and Eulerian distributions plus the distinct-entry "
              "recurrence, n <= 7", ok, time.perf_counter() - start, 60)


def test_criterion_08_conjectured_equidistributions():
    start = time.perf_counter()
    r1 = run_check("conj1_equidistribution", 7)
    r2 = run_check("conj2_equidistribution", 7)
    ok = r1.verdict == "pass" and r2.verdict == "pass"
    report(8, "conjectured triple equidistributions hold for n <= 7",
           ok, time.perf_counter() - start, 600)


def test_criterion_09_no_2_left_nestings():
    start = time.perf_counter()
    series = fishburn_numbers(6)
    ok = True
    for n in range(7):
        count = sum(1 for m in matchings(n) if count_gap_nestings(m, 2) == 0)
        ok &= count == series[n]
    report(9, "matchings with no 2-left-nesting are counted by Fishburn, n <= 6",
           ok, time.perf_counter() - start, 30)


def test_criterion_10_second_order_eulerian():
    start = time.perf_counter()
    ok = True
    for n in range(7):
        row = second_order_eulerian(n)
        ok &= sum(row) == double_factorial(2 * n - 1)
        dist = Counter(naive_counts(m.arcs)["lne"] for m in matchings(n))
        counts = [dist.get(k, 0) for k in range(max(n, 1))]
        ok &= sorted(counts) == sorted(row)
    report(10, "left-nesting distribution is the second-order Eulerian row "
               "as a multiset, n <= 6", ok, time.perf_counter() - start, 30)


def test_criterion_11_determinism():
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "fishburn.cli",
           "verify", "--all", "--n-max", "5", "--json"]
    # the children import the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(fishburn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    ok = first.returncode == 0 and second.returncode == 0
    ok &= first.stdout == second.stdout and len(first.stdout) > 0
    for line in first.stdout.splitlines():
        ok &= json.loads(line)["verdict"] == "pass"

    suite_start = time.perf_counter()
    suite = subprocess.run(
        [sys.executable, "-m", "fishburn.cli", "verify", "--all"],
        capture_output=True, text=True, env=env)
    suite_elapsed = time.perf_counter() - suite_start
    ok &= suite.returncode == 0 and suite_elapsed < 120
    report(11, "verify --all --n-max 5 is byte-identical twice; default "
               "suite under two minutes", ok, time.perf_counter() - start, 300)
