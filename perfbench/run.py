"""gmineq benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep-main --seed 1 --seconds 15 --trace 0

Untraced (`--trace 0`): time the start-up probe, run one untimed warm-up
pass, then timed passes until `--seconds` have gone by (at least
`MIN_PASSES`), then compare a fixed sample of points with the mpmath oracle.
Traced (`--trace 1`): alternate an untraced and a traced pass on the same
inputs; counts come from the first traced pass, times are medians over the
traced passes.  The last line of stdout is the result as one JSON object.

Every time is in reference seconds: wall time scaled by the speed of a fixed
reference loop (`refspeed.py`) timed right before and right after the timed
part of each pass, while no program code runs, so that neighbours loading
the shared machine move the figures less.  Only this file and
`setup_probe.py` are entry points; numpy is imported after
`checkout.prepare()` has pinned BLAS to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checkout

SETUP_REPS = 7
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

# The chain-term evaluators: one call evaluates one chain at one point.
TERMS_FUNCTIONS = ("main_chain_terms", "geo_z_terms", "t_chain_terms", "commuting_terms")


def median(values) -> float:
    return float(statistics.median(values))


def setup_times(workload: str, reps: int) -> list:
    """Start-up times of `reps` probes in reference seconds, after one
    untimed probe that fills the bytecode cache.  The probe times the
    reference loop itself right after it is ready; that time is taken off,
    and the rest is scaled by the speed it measured."""
    from refspeed import ITER_SECONDS

    times = []
    for i in range(reps + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(PROBE), workload], stdout=subprocess.PIPE,
                              text=True, cwd=checkout.ROOT) as proc:
            line = proc.stdout.readline().split()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or len(line) != 3 or line[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
        per_iter, ref_seconds = float(line[1]), float(line[2])
        if i:
            times.append((elapsed - ref_seconds) * ITER_SECONDS / per_iter)
    return times


def in_reference_seconds(totals, factor: float) -> Counter:
    """Tracer totals with every time (a key ending in `_s`) scaled."""
    return Counter({key: value * factor if key.endswith("_s") else value
                    for key, value in totals.items()})


def timed_passes(spec, seed, seconds, workdir, min_passes, traced_too=False):
    """Run passes k = 0, 1, ... until `seconds` of wall time have gone by,
    after one untimed warm-up pass.  Returns the pass results and, with
    `traced_too`, (traced pass result, tracer totals in reference seconds)
    of a traced pass on the same inputs after each."""
    import refspeed
    import tracer
    import workloads

    reference = refspeed.Reference(spec.workers if isinstance(spec, workloads.SweepSpec) else 1)
    workloads.run_pass(spec, workloads.warmup_seed(seed), workdir, reference)
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    while k < min_passes or time.perf_counter() - start < seconds:
        base = workloads.pass_seed(seed, k)
        plain.append(workloads.run_pass(spec, base, workdir, reference))
        if traced_too:
            with tracer.Tracer() as tr:
                result = workloads.run_pass(spec, base, workdir, reference)
            traced.append((result, in_reference_seconds(tr.totals(), result.factor)))
        k += 1
    return plain, traced


def _ok(passes):
    good = [p for p in passes if not p.raised]
    if not good:
        raise RuntimeError("every pass raised: " + "; ".join(passes[0].problems))
    return good


def end_to_end(spec, seed, seconds, workdir) -> tuple:
    """(metrics, attempted, failed, details) of an untraced run."""
    import oracle_sample
    import workloads

    setup = setup_times(spec.name, SETUP_REPS)
    passes, _ = timed_passes(spec, seed, seconds, workdir, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sampled, agreeing = oracle_sample.agreement(spec, seed)

    good = _ok(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "run_s": (median(p.run_s for p in good), "s"),
        "eval_points_per_s": (median(p.points / p.eval_s for p in good), "1/s"),
        "write_MBps": (median(p.bytes / p.write_s / 1e6 for p in good), "MB/s"),
        "read_MBps": (median(p.bytes / p.read_s / 1e6 for p in good), "MB/s"),
        "peak_rss_MB": (peak_rss_mb, "MB"),
        "setup_s": (median(setup), "s"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "oracle_agree_ratio": (agreeing / sampled if sampled else 0.0, "ratio"),
    }
    details = {
        "passes": len(passes),
        "speed_factor": median(p.factor for p in good),
        "fail_ratio": failed / attempted,
        "oracle_points": sampled,
        "oracle_miss_ratio": (sampled - agreeing) / sampled if sampled else None,
        "report_sha256": [p.sha256 for p in passes],
        "problems": sorted({msg for p in passes for msg in p.problems}),
    }
    return metrics, attempted, failed, details


def per_layer(spec, seed, seconds, workdir) -> tuple:
    """(metrics, attempted, failed, details) of a traced run."""
    import workloads

    plain, traced = timed_passes(spec, seed, seconds, workdir, MIN_TRACE_PAIRS, True)
    pairs = [(t, stats, p) for (t, stats), p in zip(traced, plain) if not t.raised and not p.raised]
    if not pairs:
        raise RuntimeError("every pass raised: " + "; ".join(traced[0][0].problems))
    first, counts = traced[0]

    def secs(key):
        return (median(stats[key] for _, stats, _ in pairs), "s")

    def per_call(key, fn):
        return (median(stats[key] / stats[fn] for _, stats, _ in pairs), "s")

    def calls(key):
        return (counts[key], "count")

    is_hunt = isinstance(spec, workloads.HuntSpec)
    samples = spec.config["samples"] if is_hunt else 0
    terms_calls = sum(counts[f"fn.chains.{name}"] for name in TERMS_FUNCTIONS)
    metrics = {
        "linalg.eigh_calls": calls("linalg.eigh_calls"),
        "linalg.eigh_matrices": calls("linalg.eigh_matrices"),
        "linalg.eigh_per_point": (counts["linalg.eigh_calls"] / max(1, first.points), "count"),
        "linalg.self_s": secs("linalg.self_s"),
        "linalg.validate_s": secs("linalg.validate_s"),
        "chains.terms_calls": (terms_calls, "count"),
        "chains.self_s": secs("chains.self_s"),
        "chains.condition_max_calls": calls("fn.chains.condition_max"),
        "chains.condition_max_s": secs("chains.condition_max_s"),
    }
    for layer in ("means", "blocks", "norms", "generate", "lemmas"):
        metrics[f"{layer}.calls"] = calls(f"{layer}.calls")
        metrics[f"{layer}.self_s"] = secs(f"{layer}.self_s")
    metrics.update({
        "reports.records": (first.records, "count"),
        "reports.bytes": (first.bytes, "B"),
        "reports.build_s": secs("reports.build_s"),
        "reports.write_s": per_call("reports.write_s", "fn.reports.write_reports"),
        "reports.read_s": per_call("reports.read_s", "fn.reports.read_reports"),
        "sweep.tasks": (0 if is_hunt else spec.config["instance_count"], "count"),
        "sweep.self_s": secs("sweep.self_s"),
        "sweep.gated_ratio": (0.0 if is_hunt else first.gated_ratio, "ratio"),
        "hunt.samples": (samples, "count"),
        "hunt.refine_steps": (first.points - samples if is_hunt else 0, "count"),
        "hunt.gated_ratio": (first.gated_ratio if is_hunt else 0.0, "ratio"),
        "hunt.self_s": secs("hunt.self_s"),
        "highprec.calls": calls("highprec.calls"),
        "highprec.self_s": secs("highprec.self_s"),
        "trace.overhead_ratio": (median(t.run_s / p.run_s for t, _, p in pairs), "ratio"),
    })
    attempted = sum(t.attempted for t, _ in traced)
    failed = sum(t.failed for t, _ in traced)
    details = {
        "pairs": len(traced),
        "problems": sorted({msg for t, _ in traced for msg in t.problems}),
    }
    return metrics, attempted, failed, details


def run_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg": loadavg,
    }


def parse_args(argv, workloads_names):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    checkout.prepare()
    import workloads

    args = parse_args(argv, list(workloads.SPECS))
    spec = workloads.SPECS[args.workload]
    measure = per_layer if args.trace else end_to_end
    info = run_info()
    metrics, attempted, failed, details = measure(spec, args.seed, args.seconds, checkout.WORKDIR)
    info["loadavg_after"] = run_info()["loadavg"]
    print(f"run-info: {json.dumps({**info, **details}, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {args.workload:<12} {name:<28} {value:>16.6g} {unit}")
    for msg in details["problems"]:
        print(f"  problem: {msg}")
    result = {
        "correct": failed == 0 and not details["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
