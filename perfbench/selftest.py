"""Self-test of the benchmark itself, not of the library.

    python3 perfbench/selftest.py

1. The frozen input generators still produce the pinned inputs for seed 0.
2. Two traced runs of each workload with one seed give exactly the same
   counts (calls per set, iterations, residual evaluations, failures,
   approximation factors), report ``correct``, and pass the span self-test
   that run.py applies (every layer's span fires where it runs and stays
   silent elsewhere).

Exits 0 when every check passes.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, digest  # noqa: E402

# sha256 of the first `n` sets at seed 0; a change here changes a workload.
PINNED = {
    "hist-pairs": (8, "dde0dbb661732f465829ad729d187825b7c7f242a4c5070c76a30045edd9e64b"),
    "hist-wide": (2, "5cf6f17eb5db35f88f508e71d3d2ca9d970ede1983494561a15721968ca2d09c"),
    "mvn": (10, "f7f66c595e850861516962bfeb754a1d9d34beac1004fff8e0dc3eff296b7a92"),
}
COUNT_SUFFIXES = ("calls_per_set", "iterations", "nfev_per_call", "boundary_ratio", "info_eps_mean")


def traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run not correct:\n{out.stdout}")
    return {
        k: v["value"] for k, v in result["metrics"].items()
        if k.endswith(COUNT_SUFFIXES) or k.startswith("failures.")
    }


def main() -> int:
    failures = []
    for name, (n, want) in PINNED.items():
        got = digest([WORKLOADS[name].inputs(0, k) for k in range(n)])
        if got != want:
            failures.append(f"{name}: input digest {got} != pinned {want}")
    for name in WORKLOADS:
        first, second = traced_counts(name), traced_counts(name)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        if diff:
            failures.append(f"{name}: counts differ between two traced runs: {diff}")
        else:
            print(f"{name}: {len(first)} counts repeat exactly")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
