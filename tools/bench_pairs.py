"""Compare two checkouts on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py BASE CHANGE --label grid --seeds 31-40 \
        [--held-out 97] [--out-dir .]

BASE and CHANGE are the roots of two git checkouts (for instance a clone
at the parent commit, and the working tree); each is named in the output
by `git describe --always --dirty`.  For every workload of CHANGE's
`BENCHMARK.json` and every seed, one pair runs `perfbench/run.py --trace
0` of each checkout, from that checkout, for the benchmark's
`run_seconds`, one after the other and never at once; the side that runs
first alternates from pair to pair.  `--held-out` seeds are run the same
way and reported apart, so that a claim made on `--seeds` can be checked
on seeds not used while the change was written.

It writes `BENCH_<label>.json` in `--out-dir`: per workload, every
end-to-end metric of `BENCHMARK.json` with each side's runs, median and
quartiles, the change's wins, losses and ties over the pairs (by the
metric's better direction), the ratio of the medians, whether the
change's median is within the metric's regression bound, and whether a
gain would pass the claim rule (wins in at least nine tenths of the pairs
and a median gain larger than the base's interquartile range).  It also
counts the report SHA-256 digests that both sides wrote on the same pass
and how many of those are equal, and records each side's line count of
`src/**/*.py`, both as `wc -l` counts them (`src_lines`) and counting only
the lines that hold code (`src_code_lines`: not blank, not only a comment,
not part of a docstring), so that a refactor's change in size is recorded
with its measurement, and a deleted comment does not count as a reduction.
`src_code_lines_by_module` gives the latter count of each
`src/gmineq/*.py` file on both sides, so that a change in size can be
traced to its module.

Per workload it also runs `perfbench/run.py --trace 1` once per side at
the first seed, and writes under `per_layer` each side's per-layer counts:
the `per_layer` metrics of `BENCHMARK.json` whose unit is "count"
(`linalg.eigh_calls`, `linalg.eigh_matrices`, `linalg.eigh_per_point`,
...), which do not depend on timing.  Per-layer times are left out.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path


def parse_seeds(text: str) -> list:
    """'31-40' or '31,33,35' (or a mix) to a list of ints."""
    seeds = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run, untraced or traced: its result object and
    run-info record."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    info = next(json.loads(ln[len("run-info: "):]) for ln in lines if ln.startswith("run-info: "))
    return {"result": json.loads(lines[-1]), "info": info}


def revision(checkout: Path) -> str:
    """The checkout's git revision, or its directory name outside git."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def src_lines(checkout: Path) -> int:
    """Newline count of the checkout's `src/**/*.py` files."""
    return sum(p.read_bytes().count(b"\n") for p in checkout.glob("src/**/*.py"))


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Count of the lines of the Python file `path` that hold a token other
    than a comment, and are not part of a module, class or function
    docstring."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def src_code_lines(checkout: Path) -> int:
    """`code_lines` summed over the checkout's `src/**/*.py` files."""
    return sum(map(code_lines, checkout.glob("src/**/*.py")))


def src_code_lines_by_module(base: Path, change: Path) -> dict:
    """`code_lines` of each `src/gmineq/*.py` file of either checkout, by
    file name: {"base": count, "change": count}, 0 where a side has no
    such file."""
    counts = {side: {p.name: code_lines(p) for p in root.glob("src/gmineq/*.py")}
              for side, root in (("base", base), ("change", change))}
    return {name: {side: counts[side].get(name, 0) for side in counts}
            for name in sorted(set(counts["base"]) | set(counts["change"]))}


def quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list, spec: dict) -> dict:
    """One metric over the pairs [(base run, change run)]."""
    name, higher = spec["name"], spec["better"] == "higher"
    base = [b["result"]["metrics"][name]["value"] for b, _ in pairs]
    change = [c["result"]["metrics"][name]["value"] for _, c in pairs]
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    losses = sum((c < b) if higher else (c > b) for b, c in zip(base, change))
    b, c = quartiles(base), quartiles(change)
    gain = (c["median"] - b["median"]) if higher else (b["median"] - c["median"])
    worse_by = -gain / abs(b["median"]) if b["median"] else 0.0
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "base": {**b, "runs": base}, "change": {**c, "runs": change},
        "ratio": c["median"] / b["median"] if b["median"] else None,
        "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
        "within_bound": worse_by <= spec["bound"],
        "gain_rule": wins >= 0.9 * len(pairs) and gain > b["q3"] - b["q1"],
    }


def summarize(pairs: list, metrics: list) -> dict:
    compared = equal = 0
    for b, c in pairs:
        for x, y in zip(b["info"]["report_sha256"], c["info"]["report_sha256"]):
            compared += 1
            equal += x == y
    return {
        "pairs": len(pairs),
        "seeds": [b["seed"] for b, _ in pairs],
        "correct": all(b["result"]["correct"] and c["result"]["correct"] for b, c in pairs),
        "sha256_passes_compared": compared,
        "sha256_passes_equal": equal,
        "speed_factor": {"base": [b["info"]["speed_factor"] for b, _ in pairs],
                         "change": [c["info"]["speed_factor"] for _, c in pairs]},
        "metrics": {spec["name"]: compare(pairs, spec) for spec in metrics},
    }


def run_pairs(base: Path, change: Path, workload: str, seeds: list, seconds: float,
              first_index: int) -> list:
    pairs = []
    for k, seed in enumerate(seeds, start=first_index):
        order = [("base", base), ("change", change)]
        if k % 2:
            order.reverse()
        runs = {}
        for side, root in order:
            runs[side] = {**run_once(root, workload, seed, seconds), "seed": seed}
            value = runs[side]["result"]["metrics"]["eval_points_per_s"]["value"]
            print(f"{workload} seed {seed} {side}: eval_points_per_s {value:.1f}", file=sys.stderr)
        pairs.append((runs["base"], runs["change"]))
    return pairs


def per_layer_counts(base: Path, change: Path, workload: str, seed: int, seconds: float,
                     specs: list) -> dict:
    """Each side's per-layer counts (the metrics of `specs` whose unit is
    "count") from one traced run at `seed`."""
    names = [spec["name"] for spec in specs if spec["unit"] == "count"]
    out = {"seed": seed}
    for side, root in (("base", base), ("change", change)):
        metrics = run_once(root, workload, seed, seconds, trace=1)["result"]["metrics"]
        out[side] = {name: metrics[name]["value"] for name in names if name in metrics}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--held-out", type=parse_seeds, default=[])
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]

    path = args.out_dir / f"BENCH_{args.label}.json"
    out = {
        "label": args.label,
        "base": revision(base),
        "change": revision(change),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": seconds,
        "seeds": args.seeds,
        "held_out_seeds": args.held_out,
        "src_lines": {"base": src_lines(base), "change": src_lines(change)},
        "src_code_lines": {"base": src_code_lines(base), "change": src_code_lines(change)},
        "src_code_lines_by_module": src_code_lines_by_module(base, change),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = run_pairs(base, change, workload, args.seeds, seconds, 0)
        entry = summarize(pairs, metrics)
        if args.held_out:
            held = run_pairs(base, change, workload, args.held_out, seconds, len(pairs))
            entry["held_out"] = summarize(held, metrics)
        entry["per_layer"] = per_layer_counts(base, change, workload, args.seeds[0], seconds,
                                              bench["per_layer"])
        out["workloads"][workload] = entry
        out["machine"] = {key: pairs[0][1]["info"].get(key)
                          for key in ("nproc", "python", "numpy", "blas", "OPENBLAS_NUM_THREADS")}
        out["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        # written after each workload, so that a run cut short keeps what it measured
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
