"""Reach smoke runs of the command line, one table row each.

A row runs one ``python -m fishburn.cli`` child on this checkout's ``src``,
prints its wall seconds and checks what the row pins: the SHA-256 of the
child's stdout, and where the row says so, that the counts of its
distribution CSV sum to N! and that its peak RSS stays under a limit.  pytest
does not collect this file; run it as

    python tests/reach.py ROW [ROW ...]     # exit 1 if any row fails
    python tests/reach.py --list
"""

import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MATCHING_CHECKS = ["conj1_equidistribution", "conj2_equidistribution",
                   "conj3_no_2_left_nestings", "conj4_lne_second_order_eulerian",
                   "thm_no_left_nesting_count", "thm_poset_matching_round_trip"]
CONJ12 = ["verify", "conj1_equidistribution", "conj2_equidistribution"]
MATRIX_CHECKS = ["thm_matrix_map_no_neighbor_nesting", "thm_matrix_map_no_neighbor_crossing",
                 "thm_matrix_map_surjective", "prop_zero_one_matrices"]
POSET_COUNT_CHECKS = ["thm_factorial_poset_count", "prop_condition_one_fishburn",
                      "prop_factorial_dually_factorial_catalan",
                      "cor_fishburn_class_agreement", "cor_catalan_class_agreement"]

# row -> (CLI arguments, SHA-256 of stdout, N whose N! the CSV counts sum to or
# None, the child's peak RSS limit in MB or None)
REACH = {
    "registry_default": (
        ["verify", "--all", "--json"],
        "98d8d66c26074a3dff436e5dd887175273091b53cda15f1a4bd5bf7417777a95", None, None),
    "conj4_n15": (
        ["verify", "conj4_lne_second_order_eulerian", "--n-max", "15", "--json"],
        "2ce341d7974df85da3728b33f5b15a86cfab01ed766ffdb273afc57a97799e7e", None, None),
    "conj3_n15": (
        ["verify", "conj3_no_2_left_nestings", "--n-max", "15", "--json"],
        "e0727a1edb69ebf1a3fccbde84aea438e4cd6b67619ef09c5f68d9ca754f8b38", None, None),
    "matchings_n14": (
        ["distribution", "matchings", "14", "--stats", "rne,comp,min",
         "--filter", "no_left_nesting"],
        "ceaa760f1459f4ff194d691cd3e6d75edb8b970530d0e9de2515c1516e9f4a0a", 14, None),
    "permutations_n14": (
        ["distribution", "permutations", "14", "--stats", "des,inv"],
        "8332e6ed53035bbd1582cae057775c43f4c05057665b0a49a67b37376e838f82", 14, None),
    "permutations_prefix_n11": (
        ["distribution", "permutations", "11", "--stats", "p,comp,lmin"],
        "687edbdf4b96484a3171533b40cc1b091264058d7dbeb33240e154d8dc846ef2", 11, 60),
    "permutations_n16": (
        ["distribution", "permutations", "16", "--stats", "asc,des,inv,lmin,lmax"],
        "56eec0c56277cc7daa0bcd11e6185ea5568c16a2f37795c73c17856a732f2bb7", 16, 100),
    "factorial_posets_n13": (
        ["distribution", "factorial_posets", "13", "--stats", "comp,min,pre_n,lev,ip,rne_poset"],
        "57c90b85b8fac50035e4c77293a626b157ca98b4abc94ae591afa5f2443ce254", 13, 200),
    "matching_checks_n8": (
        ["verify", *MATCHING_CHECKS, "--n-max", "8", "--json"],
        "e39fc93e73168e8fd80fbc160115425c8b06156610e9746bf35ae8cf1fd3b284", None, 70),
    "corollaries_n8": (
        ["verify", "cor_mahonian", "cor_eulerian", "--n-max", "8", "--json"],
        "52fa4744a972bdcf33d6277036a678749a0cc9259037acc456c80efb8f0f6f02", None, None),
    "matrix_checks_n8": (
        ["verify", *MATRIX_CHECKS, "--n-max", "8", "--json"],
        "ae945d825d1b59cec1f2b6c3f749e6ddea48eb12ccbcae52caf3407f368de641", None, 60),
    "conj12_n9": (
        [*CONJ12, "--n-max", "9", "--json"],
        "38ec91cc9677aa287a40813985879603a3e9ee8f37159bc34eb95e79c700281b", None, 60),
    "conj12_n10": (
        [*CONJ12, "--n-max", "10", "--json"],
        "e09bef4d9a71640062211102bc941de131cd73d4df46575c113b0d95bbd71408", None, 60),
    "conj12_n12": (
        [*CONJ12, "--n-max", "12", "--json"],
        "d0235bc488528d2b1a81b8e51a2b79e94c2d21ccf4b20db006ce75b806fc0413", None, 100),
    "poset_counts_n8": (
        ["verify", *POSET_COUNT_CHECKS, "--n-max", "8", "--json"],
        "c95aff3c61784c2dd5888b19ec8c2cd12c1b42dd535f250618c01b5304938ce4", None, 80),
    "unique_labeling_n9": (
        ["verify", "prop_unique_labeling", "--n-max", "9", "--json"],
        "cb21d4ba52a7a91b0a637dab374dd11d8e93982fba67b27b11bd2cfe7db0892f", None, 100),
    "round_trip_n9": (
        ["verify", "thm_poset_matching_round_trip", "--n-max", "9", "--json"],
        "d8b07f1cec50a8ed51f50d4db9d5613c5b6f7b84bb9ad3da10aa5168678fa741", None, 250),
    "registry_n7": (
        ["verify", "--all", "--n-max", "7", "--json"],
        "8f8c5fe29cf86b74c009d01066e58f14542471289692b308bd1064cef6ae50ab", None, 40),
    "registry_n8": (
        ["verify", "--all", "--n-max", "8", "--json"],
        "620d3d17a2cc81fa6907eaf2fa7c8fd96c024542d0f4d9ff8d909a5d245413e9", None, 100),
}


def run(row: str) -> list[str]:
    """Run one row's child; the checks it fails, each as a line."""
    argv, digest, n, limit_mb = REACH[row]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "fishburn.cli", *argv],
                             stdout=subprocess.PIPE, env=env)
    # read line by line, so that this process stays small: a child forked
    # from it starts its peak RSS at this process's own peak
    sha, total = hashlib.sha256(), 0
    for i, line in enumerate(child.stdout):
        sha.update(line)
        if n is not None and i:                   # a CSV row after the header
            total += int(line.rsplit(b",", 1)[1])
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall_s = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    got = sha.hexdigest()
    print(f"{row}: exit {child.returncode} in {wall_s:.2f} s, sha256 of stdout {got}")
    failed = [f"exit code {child.returncode}"] if child.returncode else []
    if got != digest:
        failed.append(f"sha256 {got}, expected {digest}")
    if n is not None:
        print(f"{row}: counts sum to {total}")
        if total != math.factorial(n):
            failed.append(f"counts sum to {total}, not {n}! = {math.factorial(n)}")
    if limit_mb is not None:
        peak_mb = usage.ru_maxrss / 1024
        print(f"{row}: peak RSS of the child {peak_mb:.0f} MB (limit {limit_mb} MB)")
        if peak_mb > limit_mb:
            failed.append(f"peak RSS {peak_mb:.0f} MB over {limit_mb} MB")
    return failed


def main(rows: list[str]) -> int:
    if rows == ["--list"]:
        print("\n".join(REACH))
        return 0
    unknown = [row for row in rows if row not in REACH]
    if unknown or not rows:
        print(f"rows: {', '.join(REACH)}; unknown: {', '.join(unknown) or 'none given'}",
              file=sys.stderr)
        return 2
    failures = {row: run(row) for row in rows}
    for row, failed in failures.items():
        for line in failed:
            print(f"FAIL {row}: {line}", file=sys.stderr)
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
