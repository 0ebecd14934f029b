"""The hunt's bucketed sampling phase against sample-by-sample evaluation.

The sampling phase generates and evaluates each (n, m) group of samples as
one stack.  Every sample must come out bitwise as it does alone: the same
instance bytes as `generate_instance`, and the same gated flag, margin and
winning norm as a direct evaluation through `t_chain_terms` and
`reports.chain_records`.
"""

import numpy as np
import pytest

from gmineq.chains import expand_norm_tokens, t_chain_terms
from gmineq.generate import SpectrumLaw, generate_instance
from gmineq.hunt import SearchConfig, _point_margin, _sample_point, _sampling_phase, hunt
from gmineq.reports import chain_records

# n up to 9 takes Ky Fan sums past k = 8, where numpy's summation turns
# pairwise; the law's condition numbers reach 1e9, past the 1e8 cap.
WIDE = dict(samples=160, s_range=(1.0, 2.0), t_range=(0.2, 0.8), r_values=[1.0, 2.0],
            p_values=[0.5, 1.0], n_max=9, m_max=3,
            norms=["kyfan:all", "schatten:2", "schatten:inf"],
            spectrum_law=SpectrumLaw(3e-5, 3e4))


def _direct_margin(inst, params, norms, condition_cap):
    """(gated, margin, spec) of one sample, evaluated alone: the smallest
    record min margin over its scale, the first such norm winning a tie."""
    terms = t_chain_terms(inst, params)
    if terms.condition_max > condition_cap:
        return True, None, None
    best, best_spec = np.inf, None
    for spec in expand_norm_tokens(norms, terms.max_dim):
        rec, = chain_records(terms, inst, params, [spec])
        margin = min(rec["margins"]) / max(1.0, rec["rhs"])
        if margin < best:
            best, best_spec = margin, spec
    return False, float(best), best_spec


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bucketed_sampling_matches_sample_by_sample(seed):
    cfg = SearchConfig(base_seed=seed, **WIDE).validate()
    results = list(_sampling_phase(cfg))
    assert len(results) == cfg.samples
    gated_seen, dims_seen = 0, set()
    for k, (margin, (A, B, row, sample, spec)) in enumerate(results):
        assert sample == _sample_point(cfg, k)
        n, m, params, inst_seed = sample
        inst = generate_instance("generic", n, m, inst_seed, cfg.spectrum_law)
        assert np.array_equal(A[row], np.stack(inst.A)) and np.array_equal(B[row], np.stack(inst.B))
        # gated samples can be too ill-conditioned for their terms: check the cap first
        if inst.spectra.condition_max > cfg.condition_cap:
            gated_seen += 1
            assert margin is None and spec is None
            assert _point_margin(inst, params, cfg.norms, cfg.condition_cap) == (None, None)
            continue
        gated, want, want_spec = _direct_margin(inst, params, cfg.norms, cfg.condition_cap)
        assert not gated
        assert margin == want and spec == want_spec, k
        assert _point_margin(inst, params, cfg.norms, cfg.condition_cap) == (want, want_spec)
        dims_seen.add(n)
    assert gated_seen > 0
    assert 9 in dims_seen


def test_sampling_phase_lapack_calls_per_bucket(monkeypatch):
    """eigh, svd and qr calls of a hunt without refinement stay within 10
    per (n, m) bucket; evaluating sample by sample makes about 13 per
    sample."""
    cfg = SearchConfig(base_seed=4, samples=200, refine_steps=0, n_max=4, m_max=3)
    buckets = {_sample_point(cfg, k)[:2] for k in range(cfg.samples)}
    calls = []

    def counting(name, decompose):
        def counted(*args, **kwargs):
            calls.append(name)
            return decompose(*args, **kwargs)
        return counted

    for name in ("eigh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    result = hunt(cfg)
    assert result.samples_evaluated + result.gated_count == cfg.samples
    assert len(calls) <= 10 * len(buckets), (len(calls), len(buckets))
