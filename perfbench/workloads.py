"""The three workloads: what one pass runs, what it costs, and whether its
output is right.

A pass is one complete use of the program on fresh seeded inputs: evaluate,
write the report, read it back, then summarize it (sweeps) or re-evaluate
the arg-min (hunt).  Pass `k` of a run with seed `s` uses the base seed
`derive_seed(s, k)`, so a seed fixes every input of a run and no two passes
share an instance.  Every gmineq function is looked up through its module at
call time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import refspeed

# A hunt arg-min must re-evaluate to its recorded margin within this much,
# relative to max(1, |margin|) (acceptance criterion 9 uses the same rule).
ARGMIN_RTOL = 1e-9
# Reference chunks (about 6 ms each) timed between two I/O repeats.
IO_REF_CHUNKS = 1
WARMUP_TAG = 0x5741524D  # seed stream of the untimed warm-up pass


def gm(module: str):
    """The gmineq submodule `module` (the package re-exports a function named
    `hunt`, so attribute access on the package is ambiguous)."""
    return importlib.import_module(f"gmineq.{module}")


@dataclass(frozen=True)
class SweepSpec:
    name: str
    config: dict            # SweepConfig fields except base_seed
    workers: int
    # Writing or reading one report takes 30-200 ms; `write_MBps` and
    # `read_MBps` take the median of `io_reps` repeats of `io_calls` calls.
    io_reps: int = 5
    io_calls: int = 1

    def make_config(self, base_seed: int):
        return gm("sweep").SweepConfig.from_dict({**self.config, "base_seed": base_seed})


@dataclass(frozen=True)
class HuntSpec:
    name: str
    config: dict            # SearchConfig fields except base_seed
    # The result is one ~0.5 KB record, and one write of it takes a tenth of
    # a millisecond, much of it in the file system, so a repeat makes 20.
    io_reps: int = 5
    io_calls: int = 20

    def make_config(self, base_seed: int):
        return gm("hunt").SearchConfig(**self.config, base_seed=base_seed).validate()


NORMS_MIXED = ["kyfan:all", "schatten:1", "schatten:2", "schatten:inf"]

SPECS = {
    # Criterion 1's shapes: n 1..5 x m 1..4, one instance of each per pass,
    # the 28-point (s, r, p) grid and every Ky Fan norm, serial.
    "sweep-main": SweepSpec(
        name="sweep-main",
        config=dict(
            chains=["main"], n_values=[1, 2, 3, 4, 5], m_values=[1, 2, 3, 4],
            instance_count=20, s_values=[2.0, 2.5, 3.0, 4.0], r_values=[1.0, 1.5, 2.0],
            p_values=[0.5, 1.0, 2.0], norms=["kyfan:all"],
        ),
        workers=1,
    ),
    # All five chains, 1-12 parameter points per chain and instance, four
    # instances of each (n, m) per pass, through the two-thread pool.
    "sweep-mixed": SweepSpec(
        name="sweep-mixed",
        config=dict(
            chains=["main", "geo-z", "t-chain", "commuting", "lemmas"],
            n_values=[2, 3, 4], m_values=[2, 3], instance_count=24,
            s_values=[1.5, 2.0, 3.0], r_values=[1.0, 2.0], p_values=[1.0],
            t_values=[0.3, 0.5], norms=NORMS_MIXED,
        ),
        workers=2,
    ),
    # The CLI's open-region hunt (s in (1, 2), t = 1/2, n <= 4, m <= 3,
    # Ky Fan norms), scaled to a pass: random samples, then refinement.
    "hunt-open": HuntSpec(
        name="hunt-open",
        config=dict(samples=600, refine_steps=60, s_range=(1.0, 2.0), t_range=(0.5, 0.5),
                    n_max=4, m_max=3, norms=["kyfan:all"]),
    ),
}


def pass_seed(seed: int, k: int) -> int:
    return gm("generate").derive_seed(seed, k)


def warmup_seed(seed: int) -> int:
    return gm("generate").derive_seed(seed ^ WARMUP_TAG, 0)


# ---------------------------------------------------------------------------
# what a sweep config implies, worked out without the sweep code
# ---------------------------------------------------------------------------

def chain_points(cfg) -> dict:
    """Parameter points per chain, each a dict of the chain's arguments, in
    the order the config lists them; the filters are each chain's stated
    hypotheses."""
    s_, r_, p_, t_ = cfg.s_values, cfg.r_values, cfg.p_values, cfg.t_values
    return {
        "main": [dict(s=s, r=r, p=p) for s in s_ if s >= 2.0 for r in r_ if r >= 1.0
                 for p in p_ if p > 0.0 and r * p >= 1.0],
        "geo-z": [dict(s=s) for s in s_ if s >= 1.0],
        "t-chain": [dict(s=s, r=r, p=p, t=t) for s in s_ if s > 0.0 for r in r_ if r > 0.0
                    for p in p_ if p > 0.0 for t in t_ if 0.0 <= t <= 1.0],
        "commuting": [dict(variant=v) for v in ("product", "symmetrized")],
        "lemmas": [dict(lemma_id=lid) for lid in cfg.lemma_ids],
    }


# Lemmas whose terms live in the mn x mn block space; all others are n x n.
BLOCK_LEMMAS = ("BlockNormal", "BlockDiagStep")


def tasks(cfg) -> list:
    """(task index, n, m) in the order the sweep numbers its instances."""
    pairs = [(n, m) for n in cfg.n_values for m in cfg.m_values]
    return [(i, *pairs[i % len(pairs)]) for i in range(cfg.instance_count)]


def expected_counts(cfg) -> tuple:
    """(points, records) that a sweep config implies.  A point is one
    (instance, chain, parameter point); it writes one record per norm, and
    `kyfan:all` expands to the largest term's dimension."""
    grids = chain_points(cfg)
    extra_norms = sum(1 for tok in cfg.norms if tok.strip().lower() != "kyfan:all")
    all_k = len(cfg.norms) - extra_norms
    points = records = 0
    for _, n, m in tasks(cfg):
        for chain in cfg.chains:
            for point in grids[chain]:
                if chain in ("main", "geo-z") or point.get("lemma_id") in BLOCK_LEMMAS:
                    dim = m * n
                else:
                    dim = n
                points += 1
                records += all_k * dim + extra_norms
    return points, records


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    """Times of one pass, in reference seconds, and what its output checks
    found.  `run_s` counts the pass's one write and one read; `write_s` and
    `read_s` are one call each, medians over the I/O repeats after the pass.
    `factor` took the pass's wall times to reference seconds."""

    run_s: float
    eval_s: float
    write_s: float
    read_s: float
    points: int
    attempted: int
    failed: int
    bytes: int              # size of the report file
    sha256: str
    records: int = 0
    gated_ratio: float = 0.0
    problems: list = field(default_factory=list)
    raised: bool = False     # the pass raised, so its times mean nothing
    factor: float = 1.0


def _write_read(obj, folder):
    """Write `obj` to a report file and read it back: (path, object read
    back)."""
    reports = gm("reports")
    path = os.path.join(folder, "report")
    reports.write_reports(obj, path)
    return path, reports.read_reports(path)


def _io_times(spec, obj, path, reference) -> tuple:
    """Reference seconds of one write and of one read of `obj`: medians over
    the calls of `spec.io_reps` repeats of `spec.io_calls` calls, outside the
    pass's time.  Each repeat is scaled by the reference loop timed right
    before and right after it, because the machine's speed swings within a
    pass; one thread writes and reads, so one thread runs the loop.  Each
    write first removes `path`, untimed, so that it creates the file as the
    pass's own write did: overwriting a file was about 3x slower and far
    less steady on an ext4 disk of a shared virtual machine."""
    reports = gm("reports")
    calls = [(lambda: reports.write_reports(obj, path), True),
             (lambda: reports.read_reports(path), False)]
    medians = []
    for call, fresh in calls:
        times = []
        before = reference(IO_REF_CHUNKS, threads=1)
        for _ in range(spec.io_reps):
            walls = []
            for _ in range(spec.io_calls):
                if fresh:
                    os.remove(path)
                t0 = time.perf_counter()
                call()
                walls.append(time.perf_counter() - t0)
            after = reference(IO_REF_CHUNKS, threads=1)
            factor = refspeed.factor(before, after)
            times.extend(wall * factor for wall in walls)
            before = after
        medians.append(statistics.median(times))
    return tuple(medians)


def _digest(path) -> tuple:
    with open(path, "rb") as fh:
        data = fh.read()
    return len(data), hashlib.sha256(data).hexdigest()


def sweep_pass(spec: SweepSpec, base_seed: int, folder, reference) -> PassResult:
    cfg = spec.make_config(base_seed)
    points, expected = expected_counts(cfg)
    before = reference()
    t0 = time.perf_counter()
    rs = gm("sweep").run_sweep(cfg, workers=spec.workers)
    t1 = time.perf_counter()
    path, back = _write_read(rs, folder)
    summary = gm("reports").summarize(back.records)
    t2 = time.perf_counter()
    factor = refspeed.factor(before, reference())
    write_s, read_s = _io_times(spec, rs, path, reference)

    size, sha = _digest(path)
    written, read = rs.records, back.records
    problems = []
    mismatched = sum(a != b for a, b in zip(written, read)) + abs(len(written) - len(read))
    if mismatched:
        problems.append(f"{mismatched} records read back differ from those written")
    miscount = abs(len(written) - expected)
    if miscount:
        problems.append(f"{len(written)} records written, the config implies {expected}")
    proven_fail = sum(
        1 for rec in written
        if not rec["pass"] and not rec["gated"] and rec.get("status") == "proven"
    )
    if proven_fail:
        problems.append(f"{proven_fail} non-gated proven-regime records failed")
    bad_summary = int(not (summary == back.summary == rs.summary))
    if bad_summary:
        problems.append("summary read back or recomputed differs from the one written")
    gated = sum(1 for rec in written if rec.get("gated"))
    return PassResult(
        run_s=(t2 - t0) * factor, eval_s=(t1 - t0) * factor, write_s=write_s, read_s=read_s,
        points=points, factor=factor,
        attempted=expected, failed=min(expected, mismatched + miscount + proven_fail + bad_summary),
        bytes=size, sha256=sha, records=len(written),
        gated_ratio=gated / max(1, len(written)), problems=problems,
    )


def hunt_pass(spec: HuntSpec, base_seed: int, folder, reference) -> PassResult:
    cfg = spec.make_config(base_seed)
    hunt = gm("hunt")
    before = reference()
    t0 = time.perf_counter()
    res = hunt.hunt(cfg)
    t1 = time.perf_counter()
    path, back = _write_read(res, folder)
    reeval = hunt.evaluate_argmin(back, cfg.condition_cap)
    t2 = time.perf_counter()
    factor = refspeed.factor(before, reference())
    write_s, read_s = _io_times(spec, res, path, reference)

    size, sha = _digest(path)
    attempted = cfg.samples + cfg.refine_steps
    evaluated = res.samples_evaluated + res.gated_count
    problems = []
    missing = abs(attempted - evaluated)
    if missing:
        problems.append(f"{evaluated} samples evaluated, the config implies {attempted}")
    bad_io = int(back.to_record() != res.to_record())
    if bad_io:
        problems.append("search result read back differs from the one written")
    off = abs(reeval - res.min_margin)
    bad_argmin = int(not off <= ARGMIN_RTOL * max(1.0, abs(res.min_margin)))
    if bad_argmin:
        problems.append(f"arg-min re-evaluates {off:.3e} away from min_margin")
    proven_fail = int(res.candidate and res.argmin is not None and res.argmin["status"] == "proven")
    if proven_fail:
        problems.append("violation candidate in a proven regime")
    return PassResult(
        run_s=(t2 - t0) * factor, eval_s=(t1 - t0) * factor, write_s=write_s, read_s=read_s,
        points=evaluated, factor=factor,
        attempted=attempted, failed=min(attempted, missing + bad_io + bad_argmin + proven_fail),
        bytes=size, sha256=sha, records=1,
        gated_ratio=res.gated_count / max(1, evaluated), problems=problems,
    )


def run_pass(spec, base_seed: int, workdir, reference) -> PassResult:
    """One pass, writing into a new folder under `workdir` that is removed
    afterwards.  `reference` (a `refspeed.Reference`) is timed right before
    and right after the pass's timed window, while no program code runs,
    and the pass's wall times are scaled by the speed it measured.  An
    exception fails every operation the pass attempted."""
    run = hunt_pass if isinstance(spec, HuntSpec) else sweep_pass
    os.makedirs(workdir, exist_ok=True)
    folder = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=workdir)
    try:
        return run(spec, base_seed, folder, reference)
    except Exception as exc:  # the benchmark must report, not stop, on a program error
        cfg = spec.make_config(base_seed)
        attempted = (cfg.samples + cfg.refine_steps if isinstance(spec, HuntSpec)
                     else expected_counts(cfg)[1])
        return PassResult(run_s=0.0, eval_s=0.0, write_s=0.0, read_s=0.0, points=0,
                          attempted=attempted, failed=attempted, bytes=0, sha256="",
                          problems=[f"pass raised {type(exc).__name__}: {exc}"], raised=True)
    finally:
        shutil.rmtree(folder)


def scaled(spec, **config):
    """`spec` with some config fields replaced (the tests use tiny sizes)."""
    return dataclasses.replace(spec, config={**spec.config, **config})
