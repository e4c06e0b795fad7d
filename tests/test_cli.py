import itertools
import json
import math
import os
import resource
import select
import subprocess
import sys
import types

import pytest

import fishburn
from fishburn import (
    REGISTRY, DistributionTable, catalan, cli, distribution, double_factorial, enumeration,
    generate,
)
from fishburn.cli import MAX_TALLIED_N, main
from fishburn.enumeration import GENERATORS, PREDICATES
from fishburn.statistics import VOCABULARY

from helpers import (
    COUNTED_NAMES,
    COUNTED_PERMUTATION_NAMES,
    ENUMERATED_NAMES,
    ENUMERATED_PERMUTATION_NAMES,
    PREFIX_PERMUTATION_NAMES,
    ROUTE_FILTERS,
)


# the bound of each counted route
FILTERED_MATCHING_N = MAX_TALLIED_N["matchings", "merged", True]
MATCHING_N = MAX_TALLIED_N["matchings", "merged", False]
PERMUTATION_N = MAX_TALLIED_N["permutations", "table", False]
PREFIX_N = MAX_TALLIED_N["permutations", "prefix", False]
FACTORIAL_POSET_N = MAX_TALLIED_N["factorial_posets", "table", False]


def package_env() -> dict:
    """The environment of a child interpreter that imports this package."""
    package_root = os.path.dirname(os.path.dirname(fishburn.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_filtered_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "matchings", "3",
            "--filter", "no_left_nesting", "--count-only")
        assert code == 0
        assert out.strip() == "6"

    def test_matrix_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "matrices", "3", "--count-only")
        assert code == 0
        assert out.strip() == "5"

    def test_empty_table_stream(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "inversion_tables", "0")
        assert code == 0
        assert out == "[]\n"

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "matchings", "2", "--filter", "no_left_nesting")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 2
        assert all(set(obj) == {"n", "arcs"} for obj in lines)

    def test_repeated_filters(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "factorial_posets", "3",
            "--filter", "condition_one", "--filter", "dually_factorial",
            "--count-only")
        assert code == 0
        assert out.strip() == "5"

    def test_unknown_class(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "widgets", "3")
        assert code == 2
        assert "unknown class" in err

    def test_incompatible_predicate(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "matchings", "2", "--filter", "factorial")
        assert code == 2
        assert "applies to" in err

    def test_streams_first_line_at_once(self):
        # there are 13.7 billion matchings of [22]; the first line must come
        # out while the rest are still ungenerated.  The child's address
        # space is capped, so a generator that builds the whole class first
        # dies of MemoryError instead of taking the host's memory.
        cap = 1 << 30
        child = subprocess.Popen(
            [sys.executable, "-m", "fishburn.cli", "enumerate", "matchings", "11"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=package_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        try:
            ready, _, _ = select.select([child.stdout], [], [], 60)
            line = child.stdout.readline().decode() if ready else ""
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        arcs = [[2 * i + 1, 2 * i + 2] for i in range(11)]
        assert line == json.dumps({"n": 11, "arcs": arcs}) + "\n"

    def test_byte_identical_runs(self, capsys):
        first = run_cli(capsys, "enumerate", "matchings", "3")
        second = run_cli(capsys, "enumerate", "matchings", "3")
        assert first == second


# Run in a fresh interpreter: which of the heavy modules each step loaded,
# then every export of the package read, the lazy ones included.
_STARTUP = """
import json, sys
heavy = lambda: sorted({"fishburn.verify", "dataclasses"} & set(sys.modules))
import fishburn.cli
after_import = heavy()
fishburn.cli.main(["enumerate", "matchings", "3"])
after_enumerate = heavy()
from fishburn import REGISTRY
report = fishburn.run_check("thm_no_left_nesting_count", 3)
unresolved = [name for name in fishburn.__all__ if not hasattr(fishburn, name)]
print(json.dumps([after_import, after_enumerate, report.verdict, len(REGISTRY), unresolved]))
"""


class TestStartup:
    def run_child(self, script: str):
        child = subprocess.run([sys.executable, "-c", script], env=package_env(),
                               capture_output=True, text=True, check=True)
        return json.loads(child.stdout.splitlines()[-1])

    def test_cli_loads_no_registry_and_no_dataclasses(self):
        # the standard library of some Python version may load dataclasses
        # itself; the CLI must load nothing beyond that
        bare = self.run_child("import argparse, json, sys\n"
                              "print(json.dumps('dataclasses' in sys.modules))")
        stdlib = ["dataclasses"] if bare else []
        after_import, after_enumerate, verdict, checks, unresolved = \
            self.run_child(_STARTUP)
        assert after_import == after_enumerate == stdlib
        assert (verdict, checks, unresolved) == ("pass", len(REGISTRY), [])

    def test_all_lists_every_export(self):
        public = {name for name, value in vars(fishburn).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert len(set(fishburn.__all__)) == len(fishburn.__all__)
        assert set(fishburn.__all__) == public | {"CheckReport", "REGISTRY",
                                                  "run_all", "run_check"}
        namespace = {}
        exec("from fishburn import *", namespace)
        assert set(fishburn.__all__) <= set(namespace)


# One object of each class, the table (0, 1, 0, 2) of n = 4 and a matrix of
# total 3, and what `convert src dst OBJECT --via V --preimage P` gives for
# it: the stripped stdout, or the exit code 2 with nothing on stdout.  A key
# with None for an option stands for either value of it.
CONVERT_OBJECTS = {
    "inversion_table": "[0, 1, 0, 2]",
    "permutation": "[3, 1, 4, 2]",
    "poset": '{"n": 4, "less": [[1, 2], [1, 4], [2, 4]]}',
    "matching": '{"n": 4, "arcs": [[1, 3], [4, 5], [2, 7], [6, 8]]}',
    "matrix": '{"k": 2, "rows": [[1, 1], [0, 1]]}',
}
CONVERT_RESULTS = {
    ('inversion_table', 'inversion_table', None, None): '[0, 1, 0, 2]',
    ('inversion_table', 'permutation', None, None): '[3, 1, 4, 2]',
    ('inversion_table', 'poset', None, None): '{"n": 4, "less": [[1, 2], [1, 4], [2, 4]]}',
    ('inversion_table', 'matching', 'no_left_nesting', None): '{"n": 4, "arcs": [[1, 3], [4, 5], [2, 7], [6, 8]]}',
    ('inversion_table', 'matching', 'no_left_crossing', None): '{"n": 4, "arcs": [[2, 3], [4, 5], [1, 7], [6, 8]]}',
    ('inversion_table', 'matrix', None, None): '{"k": 3, "rows": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}',
    ('permutation', 'inversion_table', None, None): '[0, 1, 0, 2]',
    ('permutation', 'permutation', None, None): '[3, 1, 4, 2]',
    ('permutation', 'poset', None, None): '{"n": 4, "less": [[1, 2], [1, 4], [2, 4]]}',
    ('permutation', 'matching', 'no_left_nesting', None): '{"n": 4, "arcs": [[1, 3], [4, 5], [2, 7], [6, 8]]}',
    ('permutation', 'matching', 'no_left_crossing', None): '{"n": 4, "arcs": [[2, 3], [4, 5], [1, 7], [6, 8]]}',
    ('permutation', 'matrix', None, None): '{"k": 3, "rows": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}',
    ('poset', 'inversion_table', None, None): '[0, 1, 0, 2]',
    ('poset', 'permutation', None, None): '[3, 1, 4, 2]',
    ('poset', 'poset', None, None): '{"n": 4, "less": [[1, 2], [1, 4], [2, 4]]}',
    ('poset', 'matching', 'no_left_nesting', None): '{"n": 4, "arcs": [[1, 3], [4, 5], [2, 7], [6, 8]]}',
    ('poset', 'matching', 'no_left_crossing', None): '{"n": 4, "arcs": [[2, 3], [4, 5], [1, 7], [6, 8]]}',
    ('poset', 'matrix', None, None): '{"k": 3, "rows": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}',
    ('matching', 'inversion_table', 'no_left_nesting', None): '[0, 1, 0, 2]',
    ('matching', 'inversion_table', 'no_left_crossing', None): 2,
    ('matching', 'permutation', 'no_left_nesting', None): '[3, 1, 4, 2]',
    ('matching', 'permutation', 'no_left_crossing', None): 2,
    ('matching', 'poset', 'no_left_nesting', None): '{"n": 4, "less": [[1, 2], [1, 4], [2, 4]]}',
    ('matching', 'poset', 'no_left_crossing', None): 2,
    ('matching', 'matching', None, None): '{"n": 4, "arcs": [[1, 3], [4, 5], [2, 7], [6, 8]]}',
    ('matching', 'matrix', None, None): '{"k": 3, "rows": [[1, 0, 1], [0, 1, 0], [0, 0, 1]]}',
    ('matrix', 'inversion_table', 'no_left_nesting', 'no_neighbor_nesting'): '[0, 0, 1]',
    ('matrix', 'inversion_table', 'no_left_nesting', 'no_neighbor_crossing'): 2,
    ('matrix', 'inversion_table', 'no_left_nesting', 'lne0_and_rcr0'): '[0, 1, 0]',
    ('matrix', 'inversion_table', 'no_left_crossing', 'no_neighbor_nesting'): 2,
    ('matrix', 'inversion_table', 'no_left_crossing', 'no_neighbor_crossing'): '[0, 1, 0]',
    ('matrix', 'inversion_table', 'no_left_crossing', 'lne0_and_rcr0'): 2,
    ('matrix', 'permutation', 'no_left_nesting', 'no_neighbor_nesting'): '[2, 3, 1]',
    ('matrix', 'permutation', 'no_left_nesting', 'no_neighbor_crossing'): 2,
    ('matrix', 'permutation', 'no_left_nesting', 'lne0_and_rcr0'): '[3, 1, 2]',
    ('matrix', 'permutation', 'no_left_crossing', 'no_neighbor_nesting'): 2,
    ('matrix', 'permutation', 'no_left_crossing', 'no_neighbor_crossing'): '[3, 1, 2]',
    ('matrix', 'permutation', 'no_left_crossing', 'lne0_and_rcr0'): 2,
    ('matrix', 'poset', 'no_left_nesting', 'no_neighbor_nesting'): '{"n": 3, "less": [[1, 3]]}',
    ('matrix', 'poset', 'no_left_nesting', 'no_neighbor_crossing'): 2,
    ('matrix', 'poset', 'no_left_nesting', 'lne0_and_rcr0'): '{"n": 3, "less": [[1, 2]]}',
    ('matrix', 'poset', 'no_left_crossing', 'no_neighbor_nesting'): 2,
    ('matrix', 'poset', 'no_left_crossing', 'no_neighbor_crossing'): '{"n": 3, "less": [[1, 2]]}',
    ('matrix', 'poset', 'no_left_crossing', 'lne0_and_rcr0'): 2,
    ('matrix', 'matching', None, 'no_neighbor_nesting'): '{"n": 3, "arcs": [[1, 3], [2, 5], [4, 6]]}',
    ('matrix', 'matching', None, 'no_neighbor_crossing'): '{"n": 3, "arcs": [[2, 3], [4, 5], [1, 6]]}',
    ('matrix', 'matching', None, 'lne0_and_rcr0'): '{"n": 3, "arcs": [[1, 3], [4, 5], [2, 6]]}',
    ('matrix', 'matrix', None, None): '{"k": 2, "rows": [[1, 1], [0, 1]]}',
}
CONVERT_ROUTES = list(itertools.product(
    CONVERT_OBJECTS, CONVERT_OBJECTS, ("no_left_nesting", "no_left_crossing"),
    ("no_neighbor_nesting", "no_neighbor_crossing", "lne0_and_rcr0")))


class TestConvert:
    def test_table_to_matching(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "inversion_table", "matching", "[0,1,0,1]")
        assert code == 0
        assert json.loads(out) == {"n": 4, "arcs": [[1, 3], [4, 6], [2, 7], [5, 8]]}

    def test_permutation_to_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "permutation", "inversion_table", "[2,3,1]")
        assert code == 0
        assert json.loads(out) == [0, 0, 1]

    def test_matching_to_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "matching", "matrix",
            '{"arcs": [[1,3],[2,5],[4,6]]}')
        assert code == 0
        assert json.loads(out) == {"k": 2, "rows": [[1, 1], [0, 1]]}

    def test_matrix_preimages(self, capsys):
        matrix = '{"k": 2, "rows": [[1,1],[0,1]]}'
        code, out, _ = run_cli(capsys, "convert", "matrix", "matching", matrix)
        assert code == 0
        assert json.loads(out)["arcs"] == [[1, 3], [2, 5], [4, 6]]
        code, out, _ = run_cli(
            capsys, "convert", "matrix", "matching", matrix,
            "--preimage", "lne0_and_rcr0")
        assert json.loads(out)["arcs"] == [[1, 3], [4, 5], [2, 6]]
        code, out, _ = run_cli(
            capsys, "convert", "matrix", "matching", matrix,
            "--preimage", "no_neighbor_crossing")
        assert json.loads(out)["arcs"] == [[2, 3], [4, 5], [1, 6]]

    def test_table_to_poset(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "inversion_table", "poset", "[0,1,0,1]")
        assert code == 0
        assert json.loads(out) == {"n": 4, "less": [[1, 2], [1, 4]]}

    def test_crossfree_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "inversion_table", "matching", "[0,0,0]",
            "--via", "no_left_crossing")
        assert code == 0
        assert json.loads(out)["arcs"] == [[3, 4], [2, 5], [1, 6]]

    def test_left_nesting_reported_with_arcs(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "matching", "inversion_table",
            '{"arcs": [[2,3],[1,4]]}')
        assert code == 2
        assert "HasLeftNesting" in err
        assert "(1, 4)" in err and "(2, 3)" in err

    def test_invalid_object(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "inversion_table", "matching", "[0,7]")
        assert code == 2
        assert "EntryOutOfRange" in err

    def test_bad_json(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "inversion_table", "matching", "[0,")
        assert code == 2

    def test_unknown_classes(self, capsys):
        code, _, err = run_cli(capsys, "convert", "widget", "matching", "[]")
        assert code == 2

    def test_boolean_table_entries_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "inversion_table", "matching", "[false, true]")
        assert code == 2
        assert "EntryOutOfRange" in err

    def test_boolean_matrix_entry_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "matrix", "matching", '{"k": 1, "rows": [[true]]}')
        assert code == 2
        assert "InvalidMatrix" in err

    def test_boolean_permutation_entry_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "convert", "permutation", "inversion_table", "[2, true, 3]")
        assert code == 2
        assert out == ""
        assert "NotAPermutation" in err

    def test_float_permutation_entry_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "convert", "permutation", "matching", "[1.0, 2]")
        assert code == 2
        assert out == ""
        assert "NotAPermutation" in err and "Traceback" not in err

    def test_matrix_size_field_must_match_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "convert", "matrix", "matching", '{"k": 5, "rows": [[1]]}')
        assert code == 2
        assert out == ""
        assert "InvalidObject" in err


    def test_matrix_source_follows_via(self, capsys):
        matrix = '{"k": 1, "rows": [[2]]}'
        options = ("--via", "no_left_crossing", "--preimage", "no_neighbor_crossing")
        code, out, _ = run_cli(capsys, "convert", "matrix", "inversion_table", matrix, *options)
        assert code == 0
        assert json.loads(out) == [0, 0]
        code, out, _ = run_cli(
            capsys, "convert", "inversion_table", "matrix", "[0,0]", "--via", "no_left_crossing")
        assert code == 0
        assert json.loads(out) == {"k": 1, "rows": [[2]]}

    @pytest.mark.parametrize("dst", ["permutation", "poset"])
    def test_matrix_source_equals_two_step_route(self, capsys, dst):
        matrix = '{"k": 1, "rows": [[2]]}'
        code, matching, _ = run_cli(
            capsys, "convert", "matrix", "matching", matrix,
            "--preimage", "no_neighbor_crossing")
        assert code == 0
        code, two_step, _ = run_cli(
            capsys, "convert", "matching", dst, matching.strip(), "--via", "no_left_crossing")
        assert code == 0
        code, out, _ = run_cli(
            capsys, "convert", "matrix", dst, matrix,
            "--via", "no_left_crossing", "--preimage", "no_neighbor_crossing")
        assert code == 0
        assert out == two_step

    def test_oversized_matrix_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "convert", "matrix", "matching", '{"k": 1, "rows": [[1001]]}')
        assert code == 2
        assert out == ""
        assert "InvalidObject" in err

    @pytest.mark.parametrize("src, dst, via, preimage", CONVERT_ROUTES)
    def test_every_route_pinned(self, capsys, src, dst, via, preimage):
        expected = next(CONVERT_RESULTS[key] for key in (
            (src, dst, via, preimage), (src, dst, via, None),
            (src, dst, None, preimage), (src, dst, None, None)) if key in CONVERT_RESULTS)
        code, out, err = run_cli(capsys, "convert", src, dst, CONVERT_OBJECTS[src],
                                 "--via", via, "--preimage", preimage)
        if expected == 2:
            assert (code, out) == (2, "") and err.startswith("error: ")
        else:
            assert (code, out) == (0, expected + "\n")

    def test_same_class_returns_the_object(self, capsys):
        # a left-nesting beside a left-crossing, and a non-factorial poset:
        # neither has an inversion table under either --via
        matching = '{"n": 3, "arcs": [[2, 4], [1, 5], [3, 6]]}'
        poset = '{"n": 3, "less": [[2, 3]]}'
        for cls, obj in (("matching", matching), ("poset", poset)):
            for via in ("no_left_nesting", "no_left_crossing"):
                code, out, _ = run_cli(capsys, "convert", cls, cls, obj, "--via", via)
                assert (code, out) == (0, obj + "\n"), (cls, via)


class TestStats:
    def test_pattern_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "permutation", "[3,5,1,4,2,6]", "--stats", "p")
        assert code == 0
        assert json.loads(out) == {"p": 1}

    def test_matching_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "matching", '{"arcs": [[1,3],[2,7],[4,6],[5,8]]}')
        assert code == 0
        record = json.loads(out)
        assert record["lne"] == 0 and record["rne"] == 1

    def test_poset_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "poset", '{"n": 3, "less": [[1,2],[1,3],[2,3]]}')
        assert code == 0
        record = json.loads(out)
        assert record["ip"] == 0 and record["lev"] == 3

    def test_unknown_statistic(self, capsys):
        code, _, err = run_cli(
            capsys, "stats", "permutation", "[1,2]", "--stats", "lne")
        assert code == 2

    def test_permutation_record(self, capsys):
        # the key order of the record is the permutation vocabulary's
        code, out, _ = run_cli(capsys, "stats", "permutation", "[3,1,4,2]")
        assert code == 0
        assert out == ('{"comp": 1, "asc": 1, "des": 2, "inv": 3, "lmin": 2, "lmax": 2, '
                       '"rmin": 2, "rmax": 2, "dent": 3, "last": 2, "p": 0}\n')

    def test_boolean_endpoint_rejected(self, capsys):
        code, _, err = run_cli(capsys, "stats", "matching", '{"arcs": [[true, 2]]}')
        assert code == 2
        assert "NotAPerfectMatching" in err

    def test_boolean_poset_size_rejected(self, capsys):
        code, _, err = run_cli(capsys, "stats", "poset", '{"n": true, "less": []}')
        assert code == 2
        assert "InvalidObject" in err

    def test_negative_poset_size_rejected(self, capsys):
        code, _, err = run_cli(capsys, "stats", "poset", '{"n": -3, "less": []}')
        assert code == 2
        assert "InvalidObject" in err and "Traceback" not in err

    def test_boolean_permutation_rejected(self, capsys):
        code, out, err = run_cli(capsys, "stats", "permutation", "[true]")
        assert code == 2
        assert out == ""
        assert "NotAPermutation" in err

    def test_matching_size_field_must_match_arcs(self, capsys):
        code, out, err = run_cli(
            capsys, "stats", "matching", '{"n": 3, "arcs": [[1, 2]]}')
        assert code == 2
        assert out == ""
        assert "InvalidObject" in err

    def test_boolean_matching_size_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "stats", "matching", '{"n": true, "arcs": [[1, 2]]}')
        assert code == 2
        assert out == ""
        assert "InvalidObject" in err

    def test_matching_size_field_accepted_when_it_counts_arcs(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "matching", '{"n": 1, "arcs": [[1, 2]]}')
        assert code == 0
        assert json.loads(out)["comp"] == 1

    def test_non_integer_poset_element_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "stats", "poset", '{"n": 3, "less": [[1.5, 2]]}')
        assert code == 2
        assert "InvalidObject" in err


    def test_oversized_poset_rejected(self, capsys):
        code, out, err = run_cli(capsys, "stats", "poset", '{"n": 1001, "less": []}')
        assert code == 2
        assert out == ""
        assert "InvalidObject" in err


class TestStatNames:
    # stats and distribution read --stats with one parser
    MATCHING = '{"n": 2, "arcs": [[1, 2], [3, 4]]}'
    EMPTY_NAME = "--stats takes comma separated statistic names, none of them empty"

    @pytest.mark.parametrize("argv", [
        ("stats", "matching", MATCHING, "--stats", "comp,,min"),
        ("distribution", "matchings", "2", "--stats", "comp,,min"),
        ("stats", "matching", MATCHING, "--stats", ""),
        ("distribution", "matchings", "2", "--stats", ""),
    ])
    def test_empty_name_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {self.EMPTY_NAME}\n"

    def test_unknown_name_refused_alike(self, capsys):
        _, _, stats_err = run_cli(
            capsys, "stats", "matching", self.MATCHING, "--stats", "comp,inv")
        _, _, distribution_err = run_cli(
            capsys, "distribution", "matchings", "2", "--stats", "comp,inv")
        assert stats_err == distribution_err
        assert stats_err.startswith("error: 'inv' is not a matchings statistic")


class TestDistribution:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", "permutations", "3", "--stats", "inv")
        assert code == 0
        assert out == "inv,count\n0,1\n1,2\n2,2\n3,1\n"

    def test_filtered(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", "matchings", "3", "--stats", "rne",
            "--filter", "no_left_nesting")
        assert code == 0
        assert out.splitlines()[0] == "rne,count"
        total = sum(int(line.split(",")[1]) for line in out.splitlines()[1:])
        assert total == 6

    def test_unknown_stat(self, capsys):
        code, _, err = run_cli(
            capsys, "distribution", "matchings", "2", "--stats", "inv")
        assert code == 2

    def test_natural_posets_need_the_factorial_filter(self, capsys):
        # refused before anything is generated, not with NotFactorial midway
        for filters in ([], ["--filter", "condition_one"]):
            code, out, err = run_cli(
                capsys, "distribution", "natural_posets", "5",
                "--stats", "rne_poset,comp", *filters)
            assert (code, out) == (2, "")
            assert err == ("error: the statistics of natural_posets are those of "
                           "factorial posets; add --filter factorial\n")

    def test_filtered_natural_posets_tally_like_factorial_posets(self, capsys):
        code, filtered, _ = run_cli(
            capsys, "distribution", "natural_posets", "5", "--stats", "rne_poset,comp",
            "--filter", "factorial")
        assert code == 0
        code, factorial, _ = run_cli(
            capsys, "distribution", "factorial_posets", "5", "--stats", "rne_poset,comp")
        assert code == 0
        assert filtered == factorial and filtered.startswith("rne_poset,comp,count\n")


def filter_args(predicates):
    return [arg for name in predicates for arg in ("--filter", name)]


class TestMatchingTallies:
    """``distribution`` and ``enumerate --count-only`` of the matchings read
    ``tally``: the enumerated CSV and the stream's length, within a size bound."""

    @pytest.mark.parametrize("predicates", ROUTE_FILTERS)
    def test_csv_equals_the_enumerated_distribution(self, capsys, predicates):
        for names in COUNTED_NAMES + ENUMERATED_NAMES:
            for n in range(7):
                code, out, _ = run_cli(capsys, "distribution", "matchings", str(n),
                                       "--stats", ",".join(names), *filter_args(predicates))
                expected = distribution(generate("matchings", n, predicates), "matchings", names)
                assert (code, out) == (0, expected.to_csv()), (names, n)

    @pytest.mark.parametrize("predicates", ROUTE_FILTERS)
    def test_count_is_the_stream_length(self, capsys, predicates):
        for n in range(7):
            _, count, _ = run_cli(capsys, "enumerate", "matchings", str(n), "--count-only",
                                  *filter_args(predicates))
            _, stream, _ = run_cli(capsys, "enumerate", "matchings", str(n),
                                   *filter_args(predicates))
            assert count == f"{len(stream.splitlines())}\n", n

    @pytest.mark.parametrize("n", ["3", str(FILTERED_MATCHING_N + 1)])
    @pytest.mark.parametrize("argv", [("distribution", "matchings", "{n}", "--stats", "emb"),
                                      ("enumerate", "matchings", "{n}", "--count-only")])
    def test_foreign_predicate_refused(self, capsys, argv, n):
        # past the size bound too, the filter is the fault named
        argv = [arg.format(n=n) for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--filter", "factorial")
        assert (code, out) == (2, "")
        assert err == ("error: UnknownPredicate: predicate 'factorial' applies to "
                       "factorial_posets and natural_posets, not matchings\n")

    @pytest.mark.parametrize("argv", [
        ("distribution", "matchings", str(FILTERED_MATCHING_N + 1), "--stats", "rne",
         "--filter", "no_left_nesting"),
        ("enumerate", "matchings", str(FILTERED_MATCHING_N + 1), "--count-only",
         "--filter", "no_nesting"),
        ("distribution", "matchings", str(MATCHING_N + 1), "--stats", "lne"),
        ("enumerate", "matchings", str(MATCHING_N + 1), "--count-only"),
    ])
    def test_refused_past_the_bound(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("counted past the bound")
        monkeypatch.setattr(cli, "tally", refuse)
        code, out, err = run_cli(capsys, *argv)
        what = (f"a tally of the matchings by {argv[4]}" if argv[0] == "distribution"
                else "a count of the matchings")
        bound = 14 if "--filter" in argv else 12
        assert (code, out, err) == (
            2, "", f"error: {what} takes n <= {bound}, as its memory grows with n\n")

    def test_counted_at_the_bound(self, capsys):
        _, filtered, _ = run_cli(capsys, "enumerate", "matchings", str(FILTERED_MATCHING_N),
                                 "--count-only", "--filter", "no_nesting")
        _, unfiltered, _ = run_cli(capsys, "enumerate", "matchings", str(MATCHING_N),
                                   "--count-only")
        assert filtered == f"{catalan(FILTERED_MATCHING_N)}\n"
        assert unfiltered == f"{double_factorial(2 * MATCHING_N - 1)}\n"


def refuse_to_count(monkeypatch):
    def refuse(*args):
        raise AssertionError("counted past the bound")
    monkeypatch.setattr(cli, "tally", refuse)


class TestPermutationTallies:
    """``distribution`` and ``enumerate --count-only`` of the permutations: the
    inversion-table walk's names, or a count, up to its bound, the prefix
    walk's other names up to its own, and other names by enumeration; each
    CSV is the enumerated one."""

    @pytest.mark.parametrize("names", COUNTED_PERMUTATION_NAMES + PREFIX_PERMUTATION_NAMES
                             + ENUMERATED_PERMUTATION_NAMES)
    def test_csv_equals_the_enumerated_distribution(self, capsys, names):
        for n in range(7):
            code, out, _ = run_cli(capsys, "distribution", "permutations", str(n),
                                   "--stats", ",".join(names))
            expected = distribution(generate("permutations", n), "permutations", names)
            assert (code, out) == (0, expected.to_csv()), n

    def test_count_is_n_factorial_up_to_the_bound(self, capsys):
        for n in range(PERMUTATION_N + 1):
            assert run_cli(capsys, "enumerate", "permutations", str(n), "--count-only") == (
                0, f"{math.factorial(n)}\n", ""), n

    @pytest.mark.parametrize("argv, what", [
        (("distribution", "permutations", "{n}", "--stats", "des,inv"),
         "a tally of the permutations by des,inv"),
        (("distribution", "permutations", "{n}", "--stats", "asc,des,inv,lmin,lmax"),
         "a tally of the permutations by asc,des,inv,lmin,lmax"),
        (("enumerate", "permutations", "{n}", "--count-only"), "a count of the permutations"),
    ])
    def test_refused_past_the_bound(self, capsys, monkeypatch, argv, what):
        refuse_to_count(monkeypatch)
        code, out, err = run_cli(capsys, *(a.format(n=PERMUTATION_N + 1) for a in argv))
        assert (code, out) == (2, "")
        assert err == f"error: {what} takes n <= 16, as its memory grows with n\n"

    @pytest.mark.parametrize("names", ["p", "comp,des", "p,comp,lmin,lmax,des,asc,inv"])
    def test_prefix_walk_refused_past_its_bound(self, capsys, monkeypatch, names):
        refuse_to_count(monkeypatch)
        code, out, err = run_cli(capsys, "distribution", "permutations", str(PREFIX_N + 1),
                                 "--stats", names)
        assert (code, out) == (2, "")
        assert err == (f"error: a tally of the permutations by {names} takes n <= 11, "
                       "as its memory grows with n\n")

    def test_prefix_walk_counted_at_its_bound(self, capsys, monkeypatch):
        calls = []

        def counted(class_name, n, predicates, names):
            calls.append((class_name, n, list(predicates), tuple(names)))
            return DistributionTable(tuple(names), {tuple(0 for _ in names): 1})
        monkeypatch.setattr(cli, "tally", counted)
        code, _, _ = run_cli(capsys, "distribution", "permutations", str(PREFIX_N),
                             "--stats", "p,comp,lmin")
        assert code == 0
        assert calls == [("permutations", PREFIX_N, [], ("p", "comp", "lmin"))]


POSET_NAMES = "comp,min,pre_n,lev,ip,rne_poset"


class TestFactorialPosetTallies:
    """``distribution`` and ``enumerate --count-only`` of the factorial posets
    with no filter read the inversion-table walk up to its bound; each CSV is
    the enumerated one."""

    @pytest.mark.parametrize("names", [POSET_NAMES, "rne_poset,comp,min", "ip", "lev,lev"])
    def test_csv_equals_the_enumerated_distribution(self, capsys, names):
        for n in range(7):
            code, out, _ = run_cli(capsys, "distribution", "factorial_posets", str(n),
                                   "--stats", names)
            expected = distribution(generate("factorial_posets", n), "factorial_posets",
                                    names.split(","))
            assert (code, out) == (0, expected.to_csv()), n

    def test_count_is_n_factorial_up_to_the_bound(self, capsys):
        for n in range(FACTORIAL_POSET_N + 1):
            assert run_cli(capsys, "enumerate", "factorial_posets", str(n), "--count-only") == (
                0, f"{math.factorial(n)}\n", ""), n

    @pytest.mark.parametrize("argv, what", [
        (("distribution", "factorial_posets", "{n}", "--stats", POSET_NAMES),
         f"a tally of the factorial_posets by {POSET_NAMES}"),
        (("distribution", "factorial_posets", "{n}", "--stats", "ip"),
         "a tally of the factorial_posets by ip"),
        (("enumerate", "factorial_posets", "{n}", "--count-only"),
         "a count of the factorial_posets"),
    ])
    def test_refused_past_the_bound(self, capsys, monkeypatch, argv, what):
        refuse_to_count(monkeypatch)
        code, out, err = run_cli(capsys, *(a.format(n=FACTORIAL_POSET_N + 1) for a in argv))
        assert (code, out) == (2, "")
        assert err == f"error: {what} takes n <= 13, as its memory grows with n\n"

    def test_counted_at_the_bound(self, capsys, monkeypatch):
        calls = []

        def counted(class_name, n, predicates, names):
            calls.append((class_name, n, list(predicates), tuple(names)))
            return DistributionTable(tuple(names), {tuple(0 for _ in names): 1})
        monkeypatch.setattr(cli, "tally", counted)
        code, _, _ = run_cli(capsys, "distribution", "factorial_posets",
                             str(FACTORIAL_POSET_N), "--stats", POSET_NAMES)
        assert code == 0
        assert calls == [("factorial_posets", FACTORIAL_POSET_N, [],
                          tuple(POSET_NAMES.split(",")))]


# (class, route None, whether its search is pruned) -> the arguments of a tally
# that enumerates it: names no counter has, a filter, or for a class with no
# counter, a count.  A filter prunes the matchings if it has rules, and the
# natural posets if it is a hereditary cut.
ENUMERATED_TALLIES = [
    (("matchings", None, False), ("--stats", "last")),
    (("matchings", None, True), ("--stats", "rne,ne", "--filter", "no_left_nesting")),
    (("matchings", None, True), ("--stats", "last", "--filter", "no_nesting")),
    (("permutations", None, False), ("--stats", "last")),
    (("permutations", None, False), ("--stats", "dent,p")),
    (("inversion_tables", None, False), ("--stats", "dent")),
    (("inversion_tables", None, False), ("--count-only", "--filter", "descent_correcting")),
    (("factorial_posets", None, False), ("--stats", "lev,rne_poset", "--filter",
                                         "condition_one")),
    (("factorial_posets", None, False), ("--count-only", "--filter", "condition_one")),
    (("natural_posets", None, False), ("--count-only",)),
    (("natural_posets", None, False), ("--count-only", "--filter", "condition_one")),
    (("natural_posets", None, True), ("--stats", "comp", "--filter", "factorial")),
    (("natural_posets", None, True), ("--stats", "lev", "--filter", "factorial",
                                      "--filter", "condition_one")),
    (("natural_posets", None, True), ("--count-only", "--filter", "two_plus_two_free")),
    (("matrices", None, False), ("--count-only", "--filter", "zero_one")),
    (("ascent_sequences", None, False), ("--count-only",)),
]


def enumerated_argv(class_name, args, n):
    command = "enumerate" if "--count-only" in args else "distribution"
    return (command, class_name, str(n), *args)


class TestEnumerationBounds:
    """A tally that builds every object exits 2 past the bound of its class
    and pruning, before anything is counted, and is counted at the bound."""

    @staticmethod
    def reachable_keys():
        # the bound's key of each tally, with no filter or one of the class's
        # own, and with no name or one of the class's statistics
        return {(class_name, enumeration.counter(class_name, names, predicates)[0],
                 enumeration.prunes(class_name, predicates))
                for class_name in GENERATORS
                for predicates in [(), *((name,) for name, (classes, _) in PREDICATES.items()
                                        if class_name in classes)]
                for names in [(), *((name,) for name in VOCABULARY.get(class_name, ()))]}

    def test_every_tally_key_has_a_bound(self):
        assert self.reachable_keys() == set(MAX_TALLIED_N)

    def test_every_enumerated_key_has_a_refusal_case(self):
        enumerated = {key for key in self.reachable_keys() if key[1] is None}
        assert enumerated == {key for key, _ in ENUMERATED_TALLIES}

    @pytest.mark.parametrize("class_name", sorted(GENERATORS))
    @pytest.mark.parametrize("filtered", [False, True])
    def test_the_route_names_the_counters_walk(self, class_name, filtered):
        # every single name, or none, with no filter or with each of the class's
        # own: the route of a tally names the walk of the count it comes with
        filters = [(name,) for name, (classes, _) in PREDICATES.items() if class_name in classes]
        for predicates in filters if filtered else [()]:
            for names in [(), *((name,) for name in VOCABULARY.get(class_name, ()))]:
                route, count = enumeration.counter(class_name, names, predicates)
                walk = count and count.__wrapped__.__qualname__.split(".")[0]
                assert route == {
                    None: None, "merged_tallies": "merged", "table_tallies": "table",
                    "prefix_tallies": "prefix"}[walk]

    @pytest.mark.parametrize("key, args", ENUMERATED_TALLIES)
    def test_refused_past_the_bound(self, capsys, monkeypatch, key, args):
        refuse_to_count(monkeypatch)
        class_name, bound = key[0], MAX_TALLIED_N[key]
        code, out, err = run_cli(capsys, *enumerated_argv(class_name, args, bound + 1))
        names = args[1] if args[0] == "--stats" else ""
        what = f"tally of the {class_name} by {names}" if names else f"count of the {class_name}"
        assert (code, out) == (2, "")
        assert err == f"error: a {what} builds every object, so it takes n <= {bound}\n"

    @pytest.mark.parametrize("key, args", ENUMERATED_TALLIES)
    def test_counted_at_the_bound(self, capsys, monkeypatch, key, args):
        calls = []

        def counted(class_name, n, predicates, names):
            calls.append((class_name, n, list(predicates), tuple(names)))
            return DistributionTable(tuple(names), {tuple(0 for _ in names): 1})
        monkeypatch.setattr(cli, "tally", counted)
        class_name, bound = key[0], MAX_TALLIED_N[key]
        code, out, _ = run_cli(capsys, *enumerated_argv(class_name, args, bound))
        filters = [args[i + 1] for i, arg in enumerate(args) if arg == "--filter"]
        names = tuple(args[1].split(",")) if args[0] == "--stats" else ()
        assert calls == [(class_name, bound, filters, names)]
        assert (code, out) == (0, "1\n" if not names else DistributionTable(
            names, {(0,) * len(names): 1}).to_csv())

    @pytest.mark.parametrize("argv, total", [
        (("distribution", "matchings", "8", "--stats", "last", "--filter", "no_nesting"),
         catalan(8)),
        (("distribution", "natural_posets", "8", "--stats", "lev", "--filter", "factorial"),
         math.factorial(8)),
    ])
    def test_a_small_pruned_class_is_tallied_past_the_unpruned_bound(self, capsys, argv, total):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sum(int(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]) == total


class TestVerify:
    def test_single_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "conj1_equidistribution", "--n-max", "3")
        assert code == 0
        assert "PASS" in out

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nonexistent_check")
        assert code == 2
        assert "`fishburn checks`" in err
        # the command the hint names lists the registry
        code, out, _ = run_cli(capsys, "checks")
        assert code == 0
        assert len(out.splitlines()) == len(fishburn.REGISTRY) == 27

    def test_json_reports_deterministic(self, capsys):
        first = run_cli(capsys, "verify", "--all", "--n-max", "2", "--json")
        second = run_cli(capsys, "verify", "--all", "--n-max", "2", "--json")
        assert first[0] == 0
        assert first == second
        for line in first[1].splitlines():
            report = json.loads(line)
            assert report["verdict"] == "pass"
            assert "elapsed_ms" not in report

    def test_json_with_timing(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm_no_left_nesting_count", "--n-max", "2",
            "--json", "--timing")
        assert code == 0
        assert "elapsed_ms" in json.loads(out)

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        from fishburn import verify as verify_module

        def always_fails(n_max):
            return False, {"n": 0, "reason": "intentional"}, None

        broken = dict(verify_module.REGISTRY)
        broken["thm_intentionally_broken"] = ("theorem", 2, always_fails)
        monkeypatch.setattr(verify_module, "REGISTRY", broken)
        code, out, _ = run_cli(capsys, "verify", "thm_intentionally_broken")
        assert code == 1
        assert "FAIL" in out and "witness" in out

    def test_checks_listing(self, capsys):
        code, out, _ = run_cli(capsys, "checks")
        assert code == 0
        assert "conj4_lne_second_order_eulerian" in out

    def test_negative_n_max_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "thm_no_left_nesting_count", "--n-max", "-2")
        assert code == 2
        assert out == ""
        assert "--n-max" in err

    def test_requires_selection(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
