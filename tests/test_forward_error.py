"""Forward error of the chain terms against the extended-precision oracle.

A pass margin is worth no more than the error of the terms it compares, so
every term's spectrum must agree with `oracle.py`, computed at `oracle.DPS`
digits, to within 1e-10 relative to the term's largest value: a hundredth
of the 1e-8 pass tolerance.  The sample is fixed by index, not by result:
every `STRIDE`-th instance of the acceptance suite's criteria 1 and 3 with
n <= 3, at s in {2, 4} and p in {1, 2} for the main chain and on the whole
proven s = 1 grid for the weighted chain.
"""

import mpmath as mp
import numpy as np
import oracle

from gmineq.chains import ChainParams, main_chain_terms, t_chain_terms
from gmineq.generate import derive_seed, generate_instance

TOL = 1e-10
BASE_SEED = 20260824  # test_acceptance.BASE_SEED
SIZE_PAIRS = [(n, m) for n in range(1, 6) for m in range(1, 5)]
STRIDE = 13

MAIN_POINTS = [ChainParams(s=s, r=r, p=p) for s in (2.0, 4.0) for r in (1.0, 1.5, 2.0)
               for p in (1.0, 2.0)]
WEIGHTED_POINTS = [ChainParams(s=1.0, r=r, p=p, t=t) for t in (0.0, 0.3, 0.5, 0.7, 1.0)
                   for r in (1.0, 2.0) for p in (0.5, 1.0, 2.0)]


class _Oracle:
    """The oracle's spectra of one instance's chain terms, powers cached."""

    def __init__(self, inst):
        self.n, self.m = inst.n, inst.m
        self.A = [oracle.to_mp(X) for X in inst.A]
        self.B = [oracle.to_mp(X) for X in inst.B]
        self.sA = oracle.herm(sum(self.A[1:], self.A[0]))
        self.sB = oracle.herm(sum(self.B[1:], self.B[0]))
        self._memo = {}

    def _cached(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def power(self, name, i, x):
        M = getattr(self, name)
        return self._cached((name, i, x), lambda: oracle.power(M[i] if i is not None else M, x))

    def lhs(self, s, t, r):
        """sum_i (A_i^s #_t B_i^s)^r."""
        acc = mp.zeros(self.n, self.n)
        for i in range(self.m):
            G = self._cached(("G", i, s, t), lambda: oracle.t_mean(
                self.power("A", i, s), self.power("B", i, s), t))
            acc += self._cached(("Gr", i, s, t, r), lambda: oracle.power(G, r))
        return _eig(acc)

    def sandwich(self, a, b, inv_p):
        """((sum A)^a (sum B)^b (sum A)^a)^{inv_p}."""
        left = self.power("sA", None, a)
        core = _eig(left * self.power("sB", None, b) * left)
        return [max(v, 0.0) ** inv_p for v in core]

    def z(self, x):
        """Z^x: the (1/2, 1) sandwich to the power x, then (m - 1) n zeros."""
        return self.sandwich(0.5, 1.0, x) + [0.0] * ((self.m - 1) * self.n)

    def main(self, q):
        s, r, p = q.s, q.r, q.p
        return [self.lhs(s, 0.5, r), self.z(s * r / 2.0),
                self.sandwich(s * r * p / 4.0, s * r * p / 2.0, 1.0 / p)]

    def weighted(self, q):
        s, r, p, t = q.s, q.r, q.p, q.t
        return [self.lhs(s, t, r),
                self.sandwich((1.0 - t) * s * r * p / 2.0, t * s * r * p, 1.0 / p)]


def _eig(H):
    return [float(v) for v in oracle.eig_desc(oracle.herm(H))[0]]


def _relative_error(got, want):
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(np.asarray(got) - want).max() / want.max())


def _errors(inst, points, terms_of, want_of):
    """(point, relative error) of every term at every point."""
    with mp.workdps(oracle.DPS):
        orc = _Oracle(inst)
        out = []
        for q in points:
            terms = terms_of(inst, q)
            got = [terms.lhs_sv] + ([terms.mid_sv] if terms.mid_sv is not None else []) \
                + [terms.rhs_sv]
            out.extend((q, _relative_error(g, w)) for g, w in zip(got, want_of(orc, q)))
        return out


def _sample(seed_offset, count):
    for i in range(0, count, STRIDE):
        n, m = SIZE_PAIRS[i % len(SIZE_PAIRS)]
        if n <= 3:
            yield generate_instance("generic", n, m, derive_seed(BASE_SEED + seed_offset, i))


def _assert_within(errs, what):
    bad = [(q, e) for q, e in errs if not e <= TOL]
    assert not bad, f"{what}: {len(bad)} terms beyond {TOL:.0e}, worst {max(e for _, e in bad):.2e}"


def test_reproducer_left_side():
    """The instance whose s = 4 left side lost over half of its two smaller
    eigenvalues when positive eigenvalues below 1e-12 lambda_max of the
    mean's inner congruence were zeroed."""
    inst = generate_instance("generic", 3, 2, derive_seed(5, 30))
    _assert_within(_errors(inst, [ChainParams(s=4.0, r=1.0, p=1.0)], main_chain_terms,
                           _Oracle.main), "reproducer")


def test_main_chain_sample():
    errs = []
    for inst in _sample(0, 500):
        errs.extend(_errors(inst, MAIN_POINTS, main_chain_terms, _Oracle.main))
    assert len(errs) >= 600
    _assert_within(errs, "criterion-1 sample")


def test_weighted_chain_sample():
    errs = []
    for inst in _sample(2, 200):
        errs.extend(_errors(inst, WEIGHTED_POINTS, t_chain_terms, _Oracle.weighted))
    _assert_within(errs, "criterion-3 sample")
