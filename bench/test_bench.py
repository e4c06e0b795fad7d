"""The benchmark's output checks: a corrupted output must count as a failed
operation, so that ``failed`` (ops_failed) in the result rises above 0."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "fishburn_bench_run", Path(__file__).with_name("run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _load_harness()
GOLDEN = bench.load_golden()


def test_verify_lines_match_golden_and_corruption_is_counted():
    lines = GOLDEN["verify_default"]
    assert bench.verify_failures("\n".join(lines) + "\n", lines) == 0
    corrupted = list(lines)
    corrupted[11] = corrupted[11].replace('"pass"', '"fail"')
    assert bench.verify_failures("\n".join(corrupted), lines) == 1
    assert bench.verify_failures("\n".join(lines[:-2]), lines) == 2


@pytest.fixture(scope="module")
def posets_output():
    argv = bench.CLI_COMMANDS["enumerate_natural_posets_n6"]
    child = bench.Bench(seed=0).spawn(["-m", "fishburn.cli", *argv])
    assert child.returncode == 0
    return child.stdout


def test_cli_stream_output_checks(posets_output):
    name = "enumerate_natural_posets_n6"
    assert bench.cli_output_ok(name, posets_output, GOLDEN)
    assert not bench.cli_output_ok(name, posets_output.replace(b"[1, 2]", b"[2, 1]", 1), GOLDEN)
    dropped = b"".join(posets_output.splitlines(keepends=True)[1:])
    assert not bench.CLI_FACTS[name](dropped.decode())


def test_csv_facts_need_the_full_count():
    assert bench.CLI_FACTS["distribution_permutations_n8"]("des,inv,count\n0,0,40320\n")
    assert not bench.CLI_FACTS["distribution_permutations_n8"]("des,inv,count\n0,0,40319\n")


def test_roundtrip_failures_count_reported_and_missing_tables():
    groups = bench.roundtrip_groups(seed=3)
    ok = [json.dumps({"tables": len(g), "failed": 0, "errors": []}) for g in groups]
    assert bench.roundtrip_failures("\n".join(ok), groups) == 0
    bad = list(ok)
    bad[0] = json.dumps({"tables": 2, "failed": 1, "errors": [{"n": 30, "failed": ["jsonio"]}]})
    assert bench.roundtrip_failures("\n".join(bad), groups) == 1
    assert bench.roundtrip_failures("\n".join(ok[:-1]), groups) == len(groups[-1])


def test_a_wrong_report_raises_failed_in_a_repetition():
    runner = bench.Bench(seed=0)
    checks = (("prop_zero_one_matrices", 5),)
    golden = next(line for line in GOLDEN["verify_default"] if "prop_zero_one_matrices" in line)
    runner.golden = {"one": [golden]}
    assert bench._verify(runner, checks, "one", trace=False).failed == 0
    runner.golden = {"one": [golden.replace('"n_max": 5', '"n_max": 4')]}
    rep = bench._verify(runner, checks, "one", trace=True)
    assert (rep.attempted, rep.failed) == (1, 1)
    assert list(rep.spans) == ["verify.prop_zero_one_matrices.n5.s"]


def test_inputs_depend_only_on_the_seed():
    assert bench.roundtrip_groups(7) == bench.roundtrip_groups(7)
    assert bench.roundtrip_groups(7) != bench.roundtrip_groups(8)
    for group in bench.roundtrip_groups(7):
        (w, _), (complement, _) = group
        assert all(0 <= a <= k and a + b == k for k, (a, b) in enumerate(zip(w, complement)))
