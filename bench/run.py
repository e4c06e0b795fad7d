"""Benchmark of the fishburn library: four fixed workloads, end to end and
per layer.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: it imports the library from the
checkout's ``src/`` and needs nothing installed.  Every measured process is a
fresh interpreter started from here, and its peak RSS and CPU time come from
its own ``os.wait4`` rusage.

``--trace 0`` repeats the workload, untraced, until ``--seconds`` have passed
(at least three times) and reports the end-to-end metrics of BENCHMARK.json
as medians over the repetitions, with every time scaled to a fixed host
speed by a probe run before and after each repetition (see PROBE_REF_S).  ``--trace 1`` makes one untraced and one
traced pass over the named workload, one traced pass over the others and one
pass of the layer suite (``bench/work.py layers``), and reports the per-layer
metrics.  Every output is checked against golden outputs (``golden.json``)
and against facts computed here; an operation (a check, a CLI command, a
round-tripped table, a layer-suite count) that gives a wrong output, a
nonzero exit or an exception counts as failed.

The last line of stdout is the result, {"correct", "attempted", "failed",
"metrics"}.  The lines before it record the machine, seed, commit and every
repetition.  ``bench/README.md`` explains the workloads and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work.py"

MIN_REPS = 3
SETUP_SPAWNS = 10           # in a traced run

# The host's CPU speed drifts by 20% and more over minutes, and every kind of
# code slows with it.  So each repetition is bracketed by runs of a fixed
# probe (``probe_s``), and its times are scaled by PROBE_REF_S over the mean
# of the two probe times; its first line, which comes soon after the first
# probe, is scaled by that probe alone.  So every end-to-end time is reported
# at the host speed at which the probe takes PROBE_REF_S seconds.  The probe
# is the harness's own code, so no change to the library can move it.
PROBE_REF_S = 0.2

# The 27 checks in registry order, each at its default size when this
# benchmark was defined; pinned so that raising a default later does not
# silently change the workload.
VERIFY_DEFAULT = (
    ("thm_no_left_nesting_count", 6),
    ("thm_no_left_crossing_count", 6),
    ("thm_factorial_poset_count", 6),
    ("prop_factorial_posets_two_plus_two_free", 6),
    ("prop_condition_one_fishburn", 6),
    ("prop_condition_one_variant", 6),
    ("prop_unique_labeling", 6),
    ("thm_matrix_map_no_neighbor_nesting", 5),
    ("thm_matrix_map_no_neighbor_crossing", 5),
    ("thm_matrix_map_surjective", 5),
    ("prop_zero_one_matrices", 5),
    ("cor_catalan_matrix_images", 6),
    ("prop_descent_correcting_fishburn", 6),
    ("prop_ascent_correcting_fishburn", 6),
    ("prop_factorial_dually_factorial_catalan", 6),
    ("prop_three_plus_one_free_equivalence", 6),
    ("thm_poset_matching_round_trip", 6),
    ("prop_nesting_criterion", 6),
    ("prop_triple_statistics", 6),
    ("cor_mahonian", 7),
    ("cor_eulerian", 7),
    ("conj1_equidistribution", 6),
    ("conj2_equidistribution", 6),
    ("conj3_no_2_left_nestings", 6),
    ("conj4_lne_second_order_eulerian", 6),
    ("cor_fishburn_class_agreement", 6),
    ("cor_catalan_class_agreement", 6),
)

# The checks dominated by the 135,135 matchings at n = 7; no matrices.
VERIFY_MATCHINGS_N7 = tuple((name, 7) for name in (
    "conj1_equidistribution",
    "conj2_equidistribution",
    "conj3_no_2_left_nestings",
    "conj4_lne_second_order_eulerian",
    "thm_no_left_nesting_count",
    "thm_poset_matching_round_trip",
))

# span name -> arguments of `python -m fishburn.cli`
CLI_COMMANDS = {
    "enumerate_matchings_n7":
        ("enumerate", "matchings", "7", "--filter", "no_left_nesting"),
    "distribution_matchings_n7":
        ("distribution", "matchings", "7", "--stats", "rne,comp,min",
         "--filter", "no_left_nesting"),
    "distribution_permutations_n8":
        ("distribution", "permutations", "8", "--stats", "des,inv"),
    "enumerate_natural_posets_n6":
        ("enumerate", "natural_posets", "6", "--filter", "factorial",
         "--filter", "condition_one"),
}

# One table of each length, plus its complement a'_k = k - 1 - a_k.  The
# pair's relations number n(n-1)/2 in total, so the cost of the brute-force
# two-plus-two test, which grows with the square of the relation count,
# varies little from seed to seed.
ROUNDTRIP_LENGTHS = range(50, 29, -2)
LAYER_N40_PAIRS = 8


# ---------------------------------------------------------------------------
# Inputs, drawn from the seed
# ---------------------------------------------------------------------------

def _table_pair(rng: random.Random, n: int) -> list[list]:
    w = [rng.randrange(k) for k in range(1, n + 1)]
    complement = [k - a for k, a in enumerate(w)]
    return [[table, rng.sample(range(1, n + 1), n)] for table in (w, complement)]


def roundtrip_groups(seed: int) -> list:
    """Groups of [table, relabeling] pairs, one group per length."""
    rng = random.Random(f"roundtrip:{seed}")
    return [_table_pair(rng, n) for n in ROUNDTRIP_LENGTHS]


def layer_inputs(seed: int) -> dict:
    rng = random.Random(f"layers:{seed}")
    items = [item for _ in range(LAYER_N40_PAIRS) for item in _table_pair(rng, 40)]
    return {"tables40": [t for t, _ in items], "sigmas40": [s for _, s in items]}


# ---------------------------------------------------------------------------
# Output checks: golden outputs, and facts computed here
# ---------------------------------------------------------------------------

def load_golden() -> dict:
    return json.loads((BENCH / "golden.json").read_text())


def verify_failures(stdout: str, expected: list[str]) -> int:
    """Checks whose report line differs from the golden one, or is missing."""
    got = stdout.splitlines()
    wrong = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
    return min(wrong, len(expected))


def _jsonl_facts(text: str, count: int, n: int) -> bool:
    lines = text.splitlines()
    return (len(lines) == count == len(set(lines))
            and all(json.loads(line)["n"] == n for line in lines))


def _csv_facts(text: str, header: str, total: int) -> bool:
    rows = text.splitlines()
    return rows[0] == header and sum(int(r.rsplit(",", 1)[1]) for r in rows[1:]) == total


# Independent of the golden digests: 7! = 5,040 matchings with no
# left-nesting, CSV counts summing to 7! and 8!, and the 217 factorial posets
# meeting the neighbour rule (the sixth Fishburn number).
CLI_FACTS = {
    "enumerate_matchings_n7": lambda text: _jsonl_facts(text, 5040, 7),
    "distribution_matchings_n7": lambda text: _csv_facts(text, "rne,comp,min,count", 5040),
    "distribution_permutations_n8": lambda text: _csv_facts(text, "des,inv,count", 40320),
    "enumerate_natural_posets_n6": lambda text: _jsonl_facts(text, 217, 6),
}


def cli_output_ok(name: str, stdout: bytes, golden: dict) -> bool:
    if hashlib.sha256(stdout).hexdigest() != golden["cli_sha256"][name]:
        return False
    try:
        return CLI_FACTS[name](stdout.decode())
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def roundtrip_failures(stdout: str, groups: list) -> int:
    """Tables reported as failed, or not reported at all."""
    lines = stdout.splitlines()
    failed = 0
    for i, group in enumerate(groups):
        try:
            record = json.loads(lines[i])
            ok = record["tables"] == len(group) and 0 <= record["failed"] <= len(group)
            failed += record["failed"] if ok else len(group)
        except (IndexError, ValueError, KeyError, TypeError):
            failed += len(group)
    return failed


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def _probe_matchings(points: tuple):
    if not points:
        yield ()
        return
    a, rest = points[0], points[1:]
    for i, b in enumerate(rest):
        for arcs in _probe_matchings(rest[:i] + rest[i + 1:]):
            yield ((a, b),) + arcs


def probe_s() -> float:
    """Seconds for a fixed piece of pure-Python work of the library's kind:
    an arithmetic loop, then the 10,395 matchings on 12 points built as
    tuples, with their nestings counted and tallied in a dict."""
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    counts: dict[tuple, int] = {}
    for arcs in _probe_matchings(tuple(range(1, 13))):
        nestings = sum(1 for a, d in arcs for b, c in arcs if a < b < c < d)
        long_arcs = frozenset(arc for arc in arcs if arc[1] - arc[0] > 2)
        key = (nestings, len(long_arcs))
        counts[key] = counts.get(key, 0) + 1
    assert sum(counts.values()) == 10395
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    """One finished child process and its own resource usage."""

    stdout: bytes
    stderr: bytes
    returncode: int
    wall_s: float
    first_line_s: float     # spawn to the first stdout line
    peak_rss_mb: float
    cpu_s: float

    def spans(self) -> list:
        """[name, parent, start ns, end ns] records written by a traced child."""
        lines = self.stderr.decode(errors="replace").splitlines()
        try:
            return json.loads(lines[-1])["spans"]
        except (IndexError, ValueError, KeyError, TypeError):
            return []


def spawn(args: list, env: dict, stdin: bytes | None = None) -> Child:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *map(str, args)], env=env, cwd=ROOT,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        errors: list[bytes] = []
        reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
        reader.start()
        if stdin is not None:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass
        first = proc.stdout.readline()
        first_line_s = time.perf_counter() - start
        out = first + proc.stdout.read()
        reader.join()
        # wait4 reports this child's own peak RSS; RUSAGE_CHILDREN would keep
        # the high-water mark of every child reaped so far.
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
    return Child(out, errors[0] if errors else b"", proc.returncode, wall_s, first_line_s,
                 usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float
    first_line_s: float
    peak_rss_mb: float
    cpu_s: float
    attempted: int
    failed: int
    spans: dict             # per-layer metric -> seconds, from a traced repetition


class Bench:
    """Inputs and environment shared by every repetition of one run."""

    def __init__(self, seed: int):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.golden = load_golden()
        self.groups = roundtrip_groups(seed)
        self.layers = layer_inputs(seed)

    def spawn(self, args: list, stdin: bytes | None = None) -> Child:
        return spawn(args, self.env, stdin)


# ---------------------------------------------------------------------------
# Workloads: each returns one repetition
# ---------------------------------------------------------------------------

def _verify(bench: Bench, checks: tuple, golden_key: str, trace: bool) -> Rep:
    args = [WORK, *(["--trace"] if trace else []), "verify",
            *(f"{name}:{n}" for name, n in checks)]
    child = bench.spawn(args)
    failed = len(checks) if child.returncode else verify_failures(
        child.stdout.decode(errors="replace"), bench.golden[golden_key])
    spans = {f"{name}.s": (end - start) / 1e9 for name, _, start, end in child.spans()}
    return Rep(child.wall_s, child.first_line_s, child.peak_rss_mb, child.cpu_s,
               len(checks), failed, spans)


def verify_default(bench: Bench, trace: bool) -> Rep:
    return _verify(bench, VERIFY_DEFAULT, "verify_default", trace)


def verify_matchings_n7(bench: Bench, trace: bool) -> Rep:
    return _verify(bench, VERIFY_MATCHINGS_N7, "verify_matchings_n7", trace)


def cli_stream(bench: Bench, trace: bool) -> Rep:
    """Four CLI processes in turn.  The spans are the harness's own timings
    of each process, so tracing changes nothing here."""
    children = {}
    failed = 0
    for name, argv in CLI_COMMANDS.items():
        child = children[name] = bench.spawn(["-m", "fishburn.cli", *argv])
        failed += child.returncode != 0 or not cli_output_ok(name, child.stdout, bench.golden)
    done = children.values()
    return Rep(sum(c.wall_s for c in done), children["enumerate_matchings_n7"].first_line_s,
               max(c.peak_rss_mb for c in done), sum(c.cpu_s for c in done),
               len(children), failed, {f"cli.{k}.s": c.wall_s for k, c in children.items()})


def roundtrip_large(bench: Bench, trace: bool) -> Rep:
    tables = sum(len(group) for group in bench.groups)
    child = bench.spawn([WORK, *(["--trace"] if trace else []), "roundtrip"],
                        stdin=json.dumps({"groups": bench.groups}).encode())
    failed = tables if child.returncode else roundtrip_failures(
        child.stdout.decode(errors="replace"), bench.groups)
    spans: dict[str, float] = {}
    for name, parent, start, end in child.spans():
        if parent == -1:
            key = f"roundtrip_large.{name}.s"
            spans[key] = spans.get(key, 0.0) + (end - start) / 1e9
    return Rep(child.wall_s, child.first_line_s, child.peak_rss_mb, child.cpu_s,
               tables, failed, spans)


WORKLOADS = {
    "verify_default": verify_default,
    "verify_matchings_n7": verify_matchings_n7,
    "cli_stream": cli_stream,
    "roundtrip_large": roundtrip_large,
}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def import_times(bench: Bench, count: int) -> tuple[list[float], int]:
    """Seconds for a fresh interpreter to import fishburn.cli, ``count``
    times, and how many of those imports failed."""
    children = [bench.spawn(["-c", "import fishburn.cli"]) for _ in range(count)]
    return [c.wall_s for c in children], sum(c.returncode != 0 for c in children)


def end_to_end(bench: Bench, workload: str, seconds: float) -> tuple[dict, list, int, int]:
    # The first import writes the bytecode caches, as any earlier use of the
    # library would have; it is not measured.  After each repetition come as
    # many measured imports as the repetition took seconds, so that the
    # samples are spread over the whole run, and their median sees the same
    # host speed as the repetitions do.
    _, failed = import_times(bench, 1)
    attempted = 1
    run = WORKLOADS[workload]
    reps: list[Rep] = []
    scales: list[float] = []    # PROBE_REF_S over the probe times around each repetition
    first_scales: list[float] = []  # PROBE_REF_S over the probe time before it
    setup: list[float] = []     # raw seconds, with the scale of their repetition
    probes = [probe_s()]
    start = time.perf_counter()
    longest = 0.0               # one repetition with its set-up samples and probe
    while len(reps) < MIN_REPS or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        reps.append(run(bench, trace=False))
        samples, bad = import_times(bench, max(1, round(reps[-1].wall_s)))
        failed += bad
        probes.append(probe_s())
        scales.append(PROBE_REF_S / statistics.fmean(probes[-2:]))
        first_scales.append(PROBE_REF_S / probes[-2])
        setup += [(sample, scales[-1]) for sample in samples]
        longest = max(longest, time.perf_counter() - began)
    attempted += len(setup) + sum(r.attempted for r in reps)
    failed += sum(r.failed for r in reps)
    metrics = {
        "wall_s": statistics.median(r.wall_s * k for r, k in zip(reps, scales)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        "first_line_s": statistics.median(r.first_line_s * k
                                          for r, k in zip(reps, first_scales)),
        "setup_s": statistics.median(sample * k for sample, k in setup),
    }
    detail = [{"repetition": i, "scale": k, "wall_s": r.wall_s, "first_line_s": r.first_line_s,
               "peak_rss_mb": r.peak_rss_mb, "cpu_s": r.cpu_s, "failed": r.failed}
              for i, (r, k) in enumerate(zip(reps, scales))]
    detail.append({"probe_s": probes, "setup_s_samples": [sample for sample, _ in setup]})
    return metrics, detail, attempted, failed


def per_layer(bench: Bench, workload: str) -> tuple[dict, list, int, int]:
    setup, failed = import_times(bench, 1 + SETUP_SPAWNS)
    setup = setup[1:]
    attempted = len(setup) + 1
    plain = WORKLOADS[workload](bench, trace=False)
    traced = {workload: WORKLOADS[workload](bench, trace=True)}
    for name, run in WORKLOADS.items():
        if name != workload:
            traced[name] = run(bench, trace=True)
    layers = bench.spawn([WORK, "layers"], stdin=json.dumps(bench.layers).encode())
    try:
        suite = json.loads(layers.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        suite = {"metrics": {}, "attempted": 1, "failed": 1, "errors": [layers.stderr.decode()]}
    reps = [plain, *traced.values()]
    attempted += sum(r.attempted for r in reps) + suite["attempted"]
    failed += sum(r.failed for r in reps) + suite["failed"] + (layers.returncode != 0)

    metrics = dict(suite["metrics"])
    for rep in traced.values():
        metrics.update(rep.spans)
    metrics["cli.import_s"] = statistics.median(setup)
    metrics["process.cpu_s"] = plain.cpu_s
    metrics["bench.trace_overhead_s"] = traced[workload].wall_s - plain.wall_s
    detail = [{"untraced_wall_s": plain.wall_s, "traced_wall_s": {k: r.wall_s for k, r in traced.items()},
               "layer_suite_wall_s": layers.wall_s, "layer_suite_errors": suite["errors"]}]
    return metrics, detail, attempted, failed


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fishburn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the fishburn library.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fishburn" / "__init__.py").is_file():
        print(f"error: no fishburn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "machine": machine(), "commit": git_commit(),
                      "source_sha256": source_sha256()}), flush=True)
    bench = Bench(args.seed)
    if args.trace:
        metrics, detail, attempted, failed = per_layer(bench, args.workload)
    else:
        metrics, detail, attempted, failed = end_to_end(bench, args.workload, args.seconds)
    for line in detail:
        print(json.dumps(line))
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(metrics))
    if missing:     # only a failed child leaves a metric unmeasured
        print(json.dumps({"unmeasured": missing}))
        failed += len(missing)
        attempted += len(missing)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
