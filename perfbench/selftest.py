"""Self-test of the benchmark itself (not part of the library's test suite).

    python3 perfbench/selftest.py

Checks that:
- the exact per-layer counts repeat identically over two traced passes and
  equal the values recorded at the commit that introduced the benchmark;
- BENCHMARK.json names exactly the metrics run.py reports, with the same units;
- a traced name that the library no longer has is reported absent, not fatal;
- run.py fails, printing no result, where the library source is missing.

Exits 0 when every check passes.  Takes about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import run
from spans import Tracer

# Per-pass counts at commit d936c32 (seed state of the benchmark).
EXPECTED_COUNTS = {
    "many-small": {
        "steck.tables_built": 360,
        "models.cdf_calls": 11196,
        "thresholds.calls": 360,
        "procedures.u_operator_calls": 180,
        "bounds.u_calls_per_bound": 4.0,
    },
    "few-large": {
        "steck.tables_built": 10,
        "models.cdf_calls": 1792,
        "thresholds.calls": 10,
        "procedures.u_operator_calls": 0,
        "bounds.u_calls_per_bound": 0.0,
    },
}


def traced_counts(name: str) -> list:
    import workloads

    wl = workloads.build(name, seed=1)
    tracer = Tracer()
    counts = []

    def collect(p):
        layers = run.layer_metrics(tracer, wl, p)
        counts.append({c: layers[c] for c in run.COUNTS})
        tracer.clear()

    run.install_tracer(tracer)
    try:
        for _ in range(2):
            run.run_passes(wl, budget=0.0, after_pass=collect)
    finally:
        tracer.restore()
    return counts


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    results = []
    for name, expected in EXPECTED_COUNTS.items():
        first, second = traced_counts(name)
        results.append((f"{name}: counts repeat across passes", first == second))
        results.append((f"{name}: counts match the recorded values {expected}", first == expected))

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results.append(("BENCHMARK.json end_to_end matches run.py",
                    {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END))
    results.append(("BENCHMARK.json per_layer matches run.py",
                    {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER))
    results.append(("BENCHMARK.json workloads match run.py",
                    tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES))

    tracer = Tracer()
    owner = types.ModuleType("gone")
    tracer.wrap(owner, "removed_name", "gone.removed_name")
    results.append(("a missing traced name is reported absent", tracer.absent == ["gone.removed_name"]))

    bare = run.ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "many-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        results.append(("run.py fails without the library source",
                        out.returncode != 0 and not out.stdout.strip()))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
