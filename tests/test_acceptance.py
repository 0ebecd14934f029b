"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every criterion evaluates randomized positive definite instances from the
seeded generator at the stated tolerances.  Normalized margins divide by
max(1, rhs), matching the reporting convention of the package.
"""

import numpy as np
import oracle
import pytest
from mpmath import mp

from gmineq.blocks import verify_equivalences
from gmineq.chains import (
    ChainParams,
    commuting_terms,
    geo_z_terms,
    main_chain_terms,
    t_chain_status,
    t_chain_terms,
)
from gmineq.generate import derive_seed, generate_instance
from gmineq.hunt import SearchConfig, evaluate_argmin, hunt
from gmineq.lemmas import LEMMA_IDS, lemma_report_from_terms, lemma_terms, random_case
from gmineq.linalg import matrix_power
from gmineq.means import t_geometric_mean
from gmineq.norms import NormSpec, norm_from_sv, singular_values
from gmineq.reports import dumps, write_reports
from gmineq.sweep import SweepConfig, run_sweep

BASE_SEED = 20260824
TOL = 1e-8
CONDITION_CAP = 1e8

SCHATTEN = [NormSpec.schatten(p) for p in (1.0, 1.5, 2.0, 3.0, np.inf)]

SIZE_PAIRS = [(n, m) for n in range(1, 6) for m in range(1, 5)]

MAIN_GRID = [
    ChainParams(s=s, r=r, p=p)
    for s in (2.0, 2.5, 3.0, 4.0)
    for r in (1.0, 1.5, 2.0)
    for p in (0.5, 1.0, 2.0)
    if r * p >= 1.0
]


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _worst_normalized_margin(terms):
    """Min over all Ky Fan k and the Schatten panel of margin / max(1, rhs).

    By Fan dominance the Ky Fan scan covers every unitarily invariant norm.
    """
    d = terms.max_dim

    def pad(sv):
        return np.pad(np.asarray(sv, dtype=np.float64), (0, d - sv.size))

    cl, cr = np.cumsum(pad(terms.lhs_sv)), np.cumsum(pad(terms.rhs_sv))
    scale = np.maximum(1.0, cr)
    if terms.mid_sv is not None:
        cm = np.cumsum(pad(terms.mid_sv))
        worst = float((np.minimum(cm - cl, cr - cm) / scale).min())
    else:
        worst = float(((cr - cl) / scale).min())
    for spec in SCHATTEN:
        lhs = norm_from_sv(terms.lhs_sv, spec, pad=True)
        rhs = norm_from_sv(terms.rhs_sv, spec, pad=True)
        vals = [rhs - lhs]
        if terms.mid_sv is not None:
            mid = norm_from_sv(terms.mid_sv, spec, pad=True)
            vals = [mid - lhs, rhs - mid]
        worst = min(worst, min(vals) / max(1.0, rhs))
    return worst


def test_criterion_1_main_theorem_suite():
    worst, gated = np.inf, 0
    for i in range(500):
        n, m = SIZE_PAIRS[i % len(SIZE_PAIRS)]
        inst = generate_instance("generic", n, m, derive_seed(BASE_SEED, i))
        for params in MAIN_GRID:
            terms = main_chain_terms(inst, params)
            if terms.condition_max > CONDITION_CAP:
                gated += 1
                continue
            worst = min(worst, _worst_normalized_margin(terms))
    _report(1, "main-theorem suite (500 instances)", worst >= -TOL,
            f"worst normalized margin {worst:+.3e}, gated {gated}")


def test_criterion_2_left_step_below_two():
    worst = np.inf
    for i in range(200):
        n, m = SIZE_PAIRS[i % len(SIZE_PAIRS)]
        inst = generate_instance("generic", n, m, derive_seed(BASE_SEED + 1, i))
        for s in (1.0, 1.25, 1.5, 1.75):
            terms = geo_z_terms(inst, s)
            if terms.condition_max > CONDITION_CAP:
                continue
            worst = min(worst, _worst_normalized_margin(terms))
    _report(2, "geometric-mean vs block step, s in [1,2)", worst >= -TOL,
            f"worst normalized margin {worst:+.3e}")


def test_criterion_3_proven_weighted_chain():
    worst = np.inf
    grid = [
        ChainParams(s=1.0, r=r, p=p, t=t)
        for t in (0.0, 0.3, 0.5, 0.7, 1.0)
        for r in (1.0, 2.0)
        for p in (0.5, 1.0, 2.0)
    ]
    assert all(t_chain_status(g) == "proven" for g in grid)
    for i in range(200):
        n, m = SIZE_PAIRS[i % len(SIZE_PAIRS)]
        inst = generate_instance("generic", n, m, derive_seed(BASE_SEED + 2, i))
        for params in grid:
            terms = t_chain_terms(inst, params)
            if terms.condition_max > CONDITION_CAP:
                continue
            worst = min(worst, _worst_normalized_margin(terms))
    _report(3, "weighted chain, proven regime s=1", worst >= -TOL,
            f"worst normalized margin {worst:+.3e}")


def test_criterion_4_commuting_chains():
    worst = np.inf
    for i in range(200):
        n, m = SIZE_PAIRS[i % len(SIZE_PAIRS)]
        inst = generate_instance("commuting", n, m, derive_seed(BASE_SEED + 3, i))
        for variant in ("product", "symmetrized"):
            terms = commuting_terms(inst, variant)
            if terms.condition_max > CONDITION_CAP:
                continue
            worst = min(worst, _worst_normalized_margin(terms))
    _report(4, "commuting-pair chains, both variants", worst >= -TOL,
            f"worst normalized margin {worst:+.3e}")


def test_criterion_5_lemma_suite():
    norms = [NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.schatten(np.inf)]
    worst_by_lemma = {}
    ok = True
    for li, lid in enumerate(LEMMA_IDS):
        worst = np.inf
        for i in range(200):
            case = random_case(lid, derive_seed(BASE_SEED + 4 + li, i), n=3, m=2)
            terms = lemma_terms(case)
            max_dim = max(terms.lhs_sv.size,
                          terms.rhs_sv.size if terms.rhs_sv is not None else 0)
            specs = [NormSpec.ky_fan(k) for k in range(1, max_dim + 1)] + norms
            for spec in specs:
                rep = lemma_report_from_terms(lid, terms, spec, tol_rel=TOL)
                ok = ok and rep.passed
                m = abs(rep.margin) if rep.equality else rep.margin
                worst = min(worst, m / max(1.0, rep.rhs))
        worst_by_lemma[lid] = worst
    detail = "; ".join(f"{k}={v:+.1e}" for k, v in worst_by_lemma.items())
    _report(5, "lemma suite (200 cases each)", ok, detail)


def test_criterion_6_structural_equivalences():
    ok, worst = True, 0.0
    for i in range(200):
        n, m = SIZE_PAIRS[i % len(SIZE_PAIRS)]
        kind = "commuting" if i % 5 == 0 else "generic"
        inst = generate_instance(kind, n, m, derive_seed(BASE_SEED + 20, i))
        rep = verify_equivalences(inst, tol=1e-10)
        ok = ok and rep.passed
        worst = max(worst, rep.factorization_defect, rep.spectrum_defect)
    _report(6, "block factorization and spectrum equivalences", ok,
            f"worst defect {worst:.3e} (tol 1e-10)")


def test_criterion_7_scalar_collapse():
    worst = 0.0
    for i in range(100):
        inst = generate_instance("generic", 1, 1, derive_seed(BASE_SEED + 21, i))
        for params in MAIN_GRID:
            terms = main_chain_terms(inst, params)
            lhs, mid, rhs = (float(terms.lhs_sv[0]), float(terms.mid_sv[0]),
                             float(terms.rhs_sv[0]))
            scale = max(1.0, rhs)
            worst = max(worst, abs(mid - lhs) / scale, abs(rhs - mid) / scale)
    _report(7, "scalar collapse is an equality chain", worst <= 1e-12,
            f"worst |margin|/scale {worst:.3e} (tol 1e-12)")


def test_criterion_8_oracle_equivalence():
    worst = 0.0
    t_values = (0.25, 0.5, 0.9)
    x_values = (0.5, 1.5, 2.0, -1.0)
    with mp.workdps(oracle.DPS):
        for i in range(50):
            inst = generate_instance("generic", 3, 1, derive_seed(BASE_SEED + 22, i))
            A, B = inst.A[0], inst.B[0]
            mpA, mpB = oracle.to_mp(A), oracle.to_mp(B)
            t = t_values[i % len(t_values)]
            got = t_geometric_mean(A, B, t)
            want = oracle.as_numpy(oracle.t_mean(mpA, mpB, t))
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
            x = x_values[i % len(x_values)]
            got = matrix_power(A, x)
            want = oracle.as_numpy(oracle.power(mpA, x))
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
            got_sv = singular_values(A @ B)
            want_sv = np.array([float(v) for v in oracle.singular_values(mpA * mpB)])
            worst = max(worst, np.abs(got_sv - want_sv).max() / want_sv[0])
    _report(8, "extended-precision oracle agreement (50 instances)", worst <= 1e-10,
            f"worst relative error {worst:.3e}")


def test_criterion_9_hunter_integrity():
    proven = hunt(SearchConfig(base_seed=BASE_SEED, samples=100,
                               s_range=(2.0, 2.0), t_range=(0.5, 0.5),
                               n_max=4, m_max=3))
    ok_proven = proven.min_margin >= -TOL and not proven.candidate

    open_cfg = SearchConfig(base_seed=BASE_SEED + 1, samples=10000,
                            s_range=(1.0, 2.0), t_range=(0.5, 0.5),
                            n_max=4, m_max=3)
    result = hunt(open_cfg)
    arg = result.argmin
    # the argmin must be reproducible: re-evaluating the stored matrices and
    # regenerating the instance from its recorded seed both give it back
    reeval = evaluate_argmin(result)
    regen = generate_instance(arg["kind"], arg["n"], arg["m"], arg["instance_seed"])
    stored = np.array(arg["A"][0])[:, :, 0] + 1j * np.array(arg["A"][0])[:, :, 1]
    reproducible = (
        abs(reeval - result.min_margin) <= 1e-9 * max(1.0, abs(result.min_margin))
        and np.abs(regen.A[0] - stored).max() <= 1e-12
    )
    _report(9, "hunter integrity (proven clean; open region reproducible)",
            ok_proven and reproducible,
            f"proven min_margin {proven.min_margin:+.3e}; "
            f"open min_margin {result.min_margin:+.3e} over "
            f"{result.samples_evaluated} samples, candidate={result.candidate}")


def test_criterion_10_byte_identical_determinism(tmp_path):
    cfg = SweepConfig(
        chains=["main", "geo-z", "t-chain", "commuting", "lemmas"],
        n_values=[2, 3], m_values=[2], instance_count=6, base_seed=BASE_SEED,
        s_values=[1.5, 2.0], r_values=[1.0, 2.0], p_values=[1.0],
        t_values=[0.3, 0.5], norms=["kyfan:all", "schatten:2"],
    )
    files = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        path = tmp_path / f"sweep_{tag}.jsonl"
        write_reports(run_sweep(cfg, workers=workers), path)
        files.append(path.read_bytes())
    sweep_ok = files[0] == files[1] == files[2]

    hcfg = dict(base_seed=BASE_SEED + 2, samples=150, s_range=(1.0, 2.0),
                t_range=(0.5, 0.5), n_max=3, m_max=2)
    h1 = dumps(hunt(SearchConfig(**hcfg)).to_record())
    h2 = dumps(hunt(SearchConfig(**hcfg)).to_record())
    _report(10, "byte-identical sweep and search outputs", sweep_ok and h1 == h2,
            f"sweep serial/serial/concurrent identical: {sweep_ok}; hunt identical: {h1 == h2}")
