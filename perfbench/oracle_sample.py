"""Accuracy of the chain terms against the independent mpmath oracle.

The sample is fixed by rules that ignore every result:

* sweeps: the inputs of the run's first `SWEEP_PASSES` passes, in task order
  and then in the config's chain and parameter order; of the chain points
  with n <= 3 (lemma points are not chain terms), every `STRIDE`-th.  The
  stride is prime, so it walks through the whole parameter grid.
* hunt: `HUNT_POINTS` points drawn from the hunt config's region with n <= 3
  from the run's seed.  The hunt's own samples are not exposed by its public
  interface, so the oracle draws its own from the same law.

A point misses when any term's spectrum differs from the oracle's by more
than the 1e-8 pass tolerance relative to the term's largest eigenvalue.  A
point whose inputs exceed the condition cap is gated by the program and
counts as agreeing.  The package's terms come from the public `*_terms`
functions; the oracle uses only `tests/oracle.py` and mpmath.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
import oracle

from workloads import HuntSpec, chain_points, gm, pass_seed, tasks

TOL = 1e-8
N_MAX = 3
SWEEP_PASSES = 3
STRIDE = 5
HUNT_POINTS = 120
HUNT_TAG = 0x4F52434C  # seed stream of the hunt's oracle points


class _Instance:
    """mpmath copies of one instance, with its matrix powers cached."""

    def __init__(self, inst):
        self.A = [oracle.to_mp(X) for X in inst.A]
        self.B = [oracle.to_mp(X) for X in inst.B]
        self.sA = oracle.herm(sum(self.A[1:], self.A[0]))
        self.sB = oracle.herm(sum(self.B[1:], self.B[0]))
        self.n, self.m = inst.n, inst.m
        self._cache = {}

    def cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def power(self, which, x):
        """`which` is ("A", i), ("B", i), "sA" or "sB"."""
        def make():
            name, *index = (which,) if isinstance(which, str) else which
            M = getattr(self, name)
            return oracle.power(M[index[0]] if index else M, x)
        return self.cached((which, x), make)

    def mean_power_sum(self, s, t, r):
        """eig of sum_i (A_i^s #_t B_i^s)^r."""
        acc = mp.zeros(self.n, self.n)
        for i in range(self.m):
            G = self.cached(("G", i, s, t), lambda: oracle.t_mean(
                self.power(("A", i), s), self.power(("B", i), s), t))
            acc += self.cached(("Gr", i, s, t, r), lambda: oracle.power(G, r))
        return _eig(acc)

    def z_power(self, x):
        """Z^x: Z's nonzero spectrum is that of (sum A)^{1/2} (sum B) (sum A)^{1/2}."""
        core = self.cached("core", lambda: _eig(
            self.power("sA", 0.5) * self.sB * self.power("sA", 0.5)))
        return [max(v, 0.0) ** x for v in core] + [0.0] * ((self.m - 1) * self.n)

    def sandwich(self, a, b, inv_p):
        """eig of ((sum A)^a (sum B)^b (sum A)^a)^{inv_p}."""
        left = self.power("sA", a)
        return [max(v, 0.0) ** inv_p for v in _eig(left * self.power("sB", b) * left)]


def _eig(H) -> list:
    return [float(v) for v in oracle.eig_desc(oracle.herm(H))[0]]


def oracle_terms(chain: str, inst, point: dict) -> list:
    """Oracle spectra of the chain's terms, in the package's term order."""
    if chain == "commuting":
        lhs = _eig(sum((A * B for A, B in zip(inst.A, inst.B)), mp.zeros(inst.n, inst.n)))
        root = sum((inst.power(("A", i), 0.5) * inst.power(("B", i), 0.5) for i in range(inst.m)),
                   mp.zeros(inst.n, inst.n))
        mid = [max(v, 0.0) ** 2 for v in _eig(root)]
        if point["variant"] == "product":
            rhs = [float(v) for v in oracle.singular_values(inst.sA * inst.sB)]
        else:
            rhs = inst.sandwich(0.5, 1.0, 1.0)
        return [lhs, mid, rhs]
    s = point["s"]
    r, p, t = point.get("r", 1.0), point.get("p", 1.0), point.get("t", 0.5)
    lhs = inst.mean_power_sum(s, t, r)
    if chain == "main":
        return [lhs, inst.z_power(s * r / 2), inst.sandwich(s * r * p / 4, s * r * p / 2, 1 / p)]
    if chain == "geo-z":
        return [lhs, inst.z_power(s / 2)]
    return [lhs, inst.sandwich((1 - t) * s * r * p / 2, t * s * r * p, 1 / p)]


def package_terms(chain: str, inst, point: dict):
    chains = gm("chains")
    if chain == "commuting":
        terms = chains.commuting_terms(inst, point["variant"])
    elif chain == "geo-z":
        terms = chains.geo_z_terms(inst, point["s"])
    else:
        fn = chains.main_chain_terms if chain == "main" else chains.t_chain_terms
        terms = fn(inst, chains.ChainParams(**point))
    sv = [terms.lhs_sv] + ([terms.mid_sv] if terms.mid_sv is not None else []) + [terms.rhs_sv]
    return sv, terms.condition_max


def _relative_error(got, want) -> float:
    got = np.sort(np.asarray(got, dtype=np.float64))[::-1]
    want = np.sort(np.asarray(want, dtype=np.float64))[::-1]
    size = max(got.size, want.size)
    got, want = np.pad(got, (0, size - got.size)), np.pad(want, (0, size - want.size))
    return float(np.abs(got - want).max() / max(want[0], np.finfo(float).tiny))


def point_agrees(chain: str, inst, mp_inst: _Instance, point: dict, condition_cap: float) -> bool:
    try:
        got, cond = package_terms(chain, inst, point)
    except Exception:  # a point the program cannot evaluate is a miss, not a crash
        return False
    if cond > condition_cap:
        return True
    want = oracle_terms(chain, mp_inst, point)
    return len(got) == len(want) and all(_relative_error(g, w) <= TOL for g, w in zip(got, want))


def sweep_points(spec, seed: int):
    """Yield (chain, instance, point, condition cap) for the sweep sample."""
    generate = gm("generate")
    k = 0
    for q in range(SWEEP_PASSES):
        cfg = spec.make_config(pass_seed(seed, q))
        grids = chain_points(cfg)
        for i, n, m in tasks(cfg):
            if n > N_MAX:
                continue
            for chain in cfg.chains:
                if chain == "lemmas":
                    continue
                kind = "commuting" if chain == "commuting" else cfg.generator
                for point in grids[chain]:
                    k += 1
                    if (k - 1) % STRIDE:
                        continue
                    inst = generate.generate_instance(
                        kind, n, m, generate.derive_seed(cfg.base_seed, i), cfg.spectrum_law)
                    yield chain, inst, point, cfg.condition_cap


def hunt_points(spec: HuntSpec, seed: int):
    generate = gm("generate")
    cfg = spec.make_config(pass_seed(seed, 0))
    for j in range(HUNT_POINTS):
        rng = np.random.default_rng(generate.derive_seed(seed ^ HUNT_TAG, j))
        n = int(rng.integers(1, min(N_MAX, cfg.n_max) + 1))
        m = int(rng.integers(1, cfg.m_max + 1))
        point = dict(s=float(rng.uniform(*cfg.s_range)), t=float(rng.uniform(*cfg.t_range)),
                     r=float(rng.choice(cfg.r_values)), p=float(rng.choice(cfg.p_values)))
        inst = generate.generate_instance("generic", n, m, int(rng.integers(2**63)),
                                          cfg.spectrum_law)
        yield "t-chain", inst, point, cfg.condition_cap


def agreement(spec, seed: int) -> tuple:
    """(points sampled, points agreeing with the oracle)."""
    points = hunt_points(spec, seed) if isinstance(spec, HuntSpec) else sweep_points(spec, seed)
    total = agree = 0
    last, mp_inst = None, None
    with mp.workdps(oracle.DPS):
        for chain, inst, point, cap in points:
            key = (inst.kind, inst.seed, inst.n, inst.m)
            if key != last:
                last, mp_inst = key, _Instance(inst)
            total += 1
            agree += point_agrees(chain, inst, mp_inst, point, cap)
    return total, agree
