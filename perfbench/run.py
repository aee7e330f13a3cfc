"""sudfdr benchmark: one workload per run, single process, single thread.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --repeat 10 [--out FILE]

The library is imported from src/sudfdr of the checkout, never from an
installed copy; without it the run exits with status 2 and prints no result.
A run is a closed loop: whole passes over the workload's requests, each
request issued when the previous one returned, until the next pass would
take the time spent in passes past --seconds.  Outputs are checked after
the timed passes.  End-to-end times are wall times scaled to the reference
host's quiet speed by the machine-speed probe of probe.py, which runs
between requests.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
spends half the time untraced and half with the library's public names
rebound to span recorders, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced solve_s).  The next-to-last line
of stdout is the run's full record (provenance, workload parameters,
per-pass times, failed checks); the last line is the result:
{"correct", "attempted", "failed", "metrics"}.

--workload all runs every workload --repeat times untraced (seeds seed,
seed+1, ...) and once traced, in child processes, and prints the median and
quartile spread of every metric; --out writes that summary as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from probe import probe, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("many-small", "few-large")
SETUP_REPEATS = 9
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "check_pass_frac": "fraction",
}
PER_LAYER = {
    "steck.tables_built": "count",
    "steck.fill_s": "s",
    "steck.max_negativity": "prob",
    "exact.assembly_self_s": "s",
    "exact.functional_self_s": "s",
    "exact.mass_defect_max": "prob",
    "models.cdf_calls": "count",
    "models.cdf_self_s": "s",
    "thresholds.calls": "count",
    "thresholds.self_s": "s",
    "montecarlo.base_s": "s",
    "montecarlo.per_order_ms": "ms",
    "montecarlo.pvalues_per_s": "1/s",
    "procedures.u_operator_calls": "count",
    "procedures.u_operator_s": "s",
    "bounds.u_calls_per_bound": "count",
    "bounds.self_s": "s",
    "trace.overhead_s": "s",
}
COUNTS = ("steck.tables_built", "models.cdf_calls", "thresholds.calls",
          "procedures.u_operator_calls", "bounds.u_calls_per_bound")

# Span names grouped by layer.  Functionals and bounds are the requests
# themselves, so their self time excludes the layers they call.
STECK = ("steck.PsiTable", "steck.psi_prefix")
ASSEMBLY = ("exact.sud_joint_masses",)
FUNCTIONALS = ("exact.fdr_sud", "exact.fdp_pmf_histogram", "exact.fdp_cdf")
CDF = ("models.AlternativeCdf.__call__",)
THRESHOLDS = ("thresholds.su_part", "thresholds.sd_part")
U_OPERATOR = ("procedures.u_operator",)
BOUNDS = ("bounds.gap_bound_fm", "bounds.gap_bound_rm")
OPTIMIZE = ("bounds.optimize_delta",)

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


@dataclass
class Pass:
    seconds: float = 0.0
    latency: dict = field(default_factory=dict)  # label -> wall seconds
    scaled: dict = field(default_factory=dict)  # label -> reference-host seconds
    probe_s: list = field(default_factory=list)
    results: dict = field(default_factory=dict)  # label -> return value
    failed: int = 0
    layers: dict | None = None  # per-layer metrics of a traced pass


def install_tracer(tracer):
    from sudfdr import bounds, exact, models

    for owner, attr, name, keep in (
        (exact, "fdr_sud", "exact.fdr_sud", False),
        (exact, "fdp_pmf_histogram", "exact.fdp_pmf_histogram", False),
        (exact, "fdp_cdf", "exact.fdp_cdf", False),
        (exact, "sud_joint_masses", "exact.sud_joint_masses", True),
        (exact, "PsiTable", "steck.PsiTable", True),
        (exact, "psi_prefix", "steck.psi_prefix", False),
        (exact, "su_part", "thresholds.su_part", False),
        (exact, "sd_part", "thresholds.sd_part", False),
        (models.AlternativeCdf, "__call__", "models.AlternativeCdf.__call__", False),
        (bounds, "u_operator", "procedures.u_operator", False),
        (bounds, "gap_bound_fm", "bounds.gap_bound_fm", False),
        (bounds, "gap_bound_rm", "bounds.gap_bound_rm", False),
        (bounds, "optimize_delta", "bounds.optimize_delta", False),
    ):
        tracer.wrap(owner, attr, name, keep)


def layer_metrics(tracer, wl, p: Pass) -> dict:
    """Per-layer metrics of one traced pass, from its spans and kept values."""
    totals = tracer.totals()

    def agg(names, key):
        return sum(totals[n][key] for n in names if n in totals)

    n_bounds = agg(BOUNDS, "count")
    u_calls = agg(U_OPERATOR, "count")
    out = {
        "steck.tables_built": agg(STECK, "count"),
        "steck.fill_s": agg(STECK, "self_s"),
        "steck.max_negativity": max(
            (getattr(tab, "max_negativity", 0.0) for tab in tracer.kept["steck.PsiTable"]), default=0.0
        ) + 0.0,  # no negativity reads as -0.0
        "exact.assembly_self_s": agg(ASSEMBLY, "self_s"),
        "exact.functional_self_s": agg(FUNCTIONALS, "self_s"),
        "exact.mass_defect_max": max(
            (abs(1.0 - pmf.total()) for pmf in tracer.kept["exact.sud_joint_masses"]), default=0.0
        ),
        "models.cdf_calls": agg(CDF, "count"),
        "models.cdf_self_s": agg(CDF, "self_s"),
        "thresholds.calls": agg(THRESHOLDS, "count"),
        "thresholds.self_s": agg(THRESHOLDS, "self_s"),
        "montecarlo.base_s": 0.0,
        "montecarlo.per_order_ms": 0.0,
        "montecarlo.pvalues_per_s": 0.0,
        "procedures.u_operator_calls": u_calls,
        "procedures.u_operator_s": agg(U_OPERATOR, "total_s"),
        "bounds.u_calls_per_bound": u_calls / n_bounds if n_bounds else 0.0,
        "bounds.self_s": agg(BOUNDS + OPTIMIZE, "self_s"),
    }
    if wl.mc:
        sweep, single, orders, pvalues = wl.mc
        base = p.latency[single]
        out["montecarlo.base_s"] = base
        out["montecarlo.per_order_ms"] = (p.latency[sweep] - base) / (orders - 1) * 1e3
        out["montecarlo.pvalues_per_s"] = pvalues / base
    return out


def run_passes(wl, budget: float, after_pass=None) -> list:
    """Whole passes, at least one, until the next would take the time spent
    in passes past `budget` seconds.  A machine-speed probe runs before
    every request and after the last; each request's time is also kept
    scaled by the probes on either side of it.  `after_pass(p)` runs
    between passes and its time is not counted."""
    passes = []
    spent = 0.0
    while True:
        p = Pass()
        pass_start = perf_counter()
        p.probe_s.append(probe())
        for req in wl.requests:
            t0 = perf_counter()
            try:
                out = req()
            except Exception:  # a failed request is counted and the loop goes on
                traceback.print_exc()
                out = None
                p.failed += 1
            p.latency[req.label] = perf_counter() - t0
            p.results[req.label] = out
            p.probe_s.append(probe())
            p.scaled[req.label] = scale(p.latency[req.label], p.probe_s[-2], p.probe_s[-1])
        p.seconds = perf_counter() - pass_start
        passes.append(p)
        if after_pass:
            after_pass(p)
        spent += p.seconds
        if spent + p.seconds > budget:
            return passes


def _same(a, b) -> bool:
    if hasattr(a, "shape"):
        import numpy as np

        return np.array_equal(a, b)
    return a == b


def run_checks(wl, passes: list) -> list:
    """(name, passed) pairs: the workload's output checks on the first pass,
    and that every later pass returned the same outputs."""
    first = passes[0]
    if first.failed:
        return [("every request returned", False)]
    try:
        checks = wl.check(first.results)
    except Exception:
        traceback.print_exc()
        checks = [("output checks ran", False)]
    for i, p in enumerate(passes[1:], 1):
        same = not p.failed and all(_same(p.results[k], v) for k, v in first.results.items())
        checks.append((f"pass {i} repeats pass 0", same))
    return checks


def request_latencies(wl, passes: list) -> dict:
    """Latency of each request of the workload, in reference-host seconds:
    the median of its scaled times over the run's passes."""
    return {req.label: statistics.median(p.scaled[req.label] for p in passes)
            for req in wl.requests}


def solve_seconds(passes: list) -> float:
    """Median over passes of the pass's scaled time, the sum of its
    requests' scaled times."""
    return statistics.median(sum(p.scaled.values()) for p in passes)


def tail_latency(samples: list) -> tuple:
    """(value, percentile): the highest sample with at least ten samples
    beyond it, or the maximum when there are ten samples or fewer.

    The samples are the per-request latencies of `request_latencies`, so
    the percentile does not move with the number of passes.
    """
    s = sorted(samples)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def setup_seconds(name: str, seed: int) -> tuple:
    """Import plus building the workload's inputs, in a fresh interpreter:
    (wall seconds, reference-host seconds scaled by probes in this process
    before and after)."""
    before = probe()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    wall = float(out.stdout.strip().splitlines()[-1])
    return wall, scale(wall, before, probe())


def _cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return info


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "sudfdr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = _cpuinfo()
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "llc": cpu.get("cache size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import sudfdr
    import workloads

    if Path(sudfdr.__file__).resolve().parent != (SRC / "sudfdr").resolve():
        print(f"perfbench: imported sudfdr from {sudfdr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    record = {
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "params": wl.params,
        "requests_per_pass": len(wl.requests),
    }
    if args.trace:
        from spans import Tracer

        untraced = run_passes(wl, args.seconds / 2)
        tracer = Tracer()

        def collect(p):
            p.layers = layer_metrics(tracer, wl, p)
            tracer.clear()

        install_tracer(tracer)
        try:
            passes = run_passes(wl, args.seconds / 2, after_pass=collect)
        finally:
            tracer.restore()
        checks = run_checks(wl, passes)
        layers = [p.layers for p in passes]
        checks.append(("traced counts repeat across passes",
                       all(lay[c] == layers[0][c] for lay in layers for c in COUNTS)))
        values = {name: statistics.median(lay[name] for lay in layers) for name in PER_LAYER
                  if name != "trace.overhead_s"}
        values.update({c: layers[0][c] for c in COUNTS})
        values["trace.overhead_s"] = solve_seconds(passes) - solve_seconds(untraced)
        units = PER_LAYER
        record.update(
            untraced_pass_s=[p.seconds for p in untraced],
            absent=tracer.absent,
        )
        all_passes = untraced + passes
    else:
        # Set-up probes run between passes, so they sample the same spread of
        # host load as the passes do.
        setup = []

        def probe(_):
            if len(setup) < SETUP_REPEATS:
                setup.append(setup_seconds(args.workload, args.seed))

        passes = run_passes(wl, args.seconds, after_pass=probe)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup) < SETUP_REPEATS:
            probe(None)
        checks = run_checks(wl, passes)
        per_request = request_latencies(wl, passes)
        latencies = list(per_request.values())
        tail, percentile = tail_latency(latencies)
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "solve_s": solve_seconds(passes),
            "call_ms_p50": statistics.median(latencies) * 1e3,
            "call_ms_tail": tail * 1e3,
            "peak_rss_mb": rss_mb,
            "check_pass_frac": sum(ok for _, ok in checks) / len(checks),
        }
        units = END_TO_END
        record.update(
            setup_wall_s=[wall for wall, _ in setup],
            setup_scaled_s=[scaled for _, scaled in setup],
            tail_percentile=percentile,
            latency_samples=len(latencies),
            group_solve_s={g: sum(per_request[label] for label in labels)
                           for g, labels in wl.groups.items()},
            request_ms={label: value * 1e3 for label, value in per_request.items()},
        )
        all_passes = passes
    failed_checks = [name for name, ok in checks if not ok]
    record.update(
        pass_s=[p.seconds for p in passes],
        pass_scaled_s=[sum(p.scaled.values()) for p in passes],
        probe_median_s=[statistics.median(p.probe_s) for p in passes],
        request_s=[[p.latency[req.label] for req in wl.requests] for p in passes],
        checks_attempted=len(checks),
        checks_failed=len(failed_checks),
        failed_checks=failed_checks[:20],
    )
    failed = sum(p.failed for p in all_passes)
    result = {
        "correct": not failed_checks and not failed,
        "attempted": sum(len(p.latency) for p in all_passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def _child(name: str, seed: int, seconds: float, trace: int) -> tuple:
    """Run one workload in a child process; returns (record, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode:
        sys.stderr.write(out.stderr)
        raise SystemExit(out.returncode)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def run_all(args) -> int:
    """Every workload: --repeat untraced runs on seeds seed, seed+1, ...,
    then one traced run, each in its own process.  Prints the median and
    quartile spread of every end-to-end metric and every per-layer metric."""
    summary = {"seconds": args.seconds, "seeds": [args.seed + i for i in range(args.repeat)],
               "workloads": {}}
    correct = True
    for name in WORKLOAD_NAMES:
        runs = [_child(name, seed, args.seconds, 0) for seed in summary["seeds"]]
        traced_record, traced = _child(name, args.seed, args.seconds, 1)
        correct = correct and traced["correct"] and all(res["correct"] for _, res in runs)
        record = runs[0][0]
        entry = {
            "params": record["params"],
            "tail_percentile": record["tail_percentile"],
            "latency_samples": record["latency_samples"],
            "end_to_end": {},
            "per_layer": traced["metrics"],
            "absent": traced_record["absent"],
        }
        summary.setdefault("provenance", record["provenance"])
        for metric, unit in END_TO_END.items():
            values = [res["metrics"][metric]["value"] for _, res in runs]
            entry["end_to_end"][metric] = {"unit": unit, **_quartiles(values), "values": values}
            stats = entry["end_to_end"][metric]
            print(f"{name:12s} {metric:28s} {stats['median']:.6g} {unit} "
                  f"(quartile spread {stats['spread']:.3f} over {len(values)} seeds)")
        print(f"{name:12s} {'tail percentile':28s} p{record['tail_percentile']:.1f} "
              f"of {record['latency_samples']} requests")
        for metric, value in traced["metrics"].items():
            print(f"{name:12s} {metric:28s} {value['value']:.6g} {value['unit']} (traced)")
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"correct": correct}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --workload all: untraced runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--out", help="with --workload all: write the summary here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeat < 1:
        parser.error("need --seed >= 0 and --repeat >= 1")
    if not (SRC / "sudfdr" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'sudfdr'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
